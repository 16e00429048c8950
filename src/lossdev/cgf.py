"""Mixture cumulant generating functions with analytic first and second
derivatives, from one array kernel over a lambda array and a padded
(support x classes) matrix, and the package's one tilt rule.
MGF sums are evaluated with the max exponent shifted out, so tilts up to
|lambda| ~ 700 / c0 are safe; derivatives come from the same shifted
weights, never from differencing.  ``point_tilt`` solves for a single
target, as ``exact`` and ``mc`` need, in Python floats, where numpy's cost
per call would exceed the arithmetic; ``legendre`` runs its rule on the
kernel over grids of x.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import mul

import numpy as np

from .model import LossClass, PortfolioModel, Record, Refused

# a tilt solve stops at |m(theta) - target| <= TILT_TOL times the
# distance from the target to the nearer end of the range
TILT_TOL = 1e-11
MAX_ITER = 200
GUARD_AFTER = 8  # evaluations of plain Newton before rtsafe's guard applies


class CgfPoint(Record):
    """A CGF and its first two derivatives at ``lam``, and d1, the tilted
    mean, counted up from the bottom of the range and down from its top:
    arrays of the shape of ``lam``, or Python floats for a scalar ``lam``."""

    __slots__ = ("lam", "value", "d1", "d2", "below", "above")


def shaped(shape, *arrays) -> list:
    """The arrays reshaped to ``shape``; Python scalars when it is ()."""
    return [a.reshape(shape) if shape else a.item() for a in arrays]


@lru_cache(maxsize=64)
def _class_matrix(classes: tuple[LossClass, ...]) -> tuple[np.ndarray, ...]:
    """Support values, log-probabilities, and the values counted up from
    their class's bottom and down from its top, as (support x classes)
    matrices, columns padded with value 0 (inside every centered class's
    range) and log-probability -inf.  Support first: the kernel's sums
    over it add whole slabs, far cheaper than sums over a short last axis."""
    width = max(len(cls.support) for cls in classes)
    pad = [(0.0,) * (width - len(cls.support)) for cls in classes]
    support = np.array([cls.support + p for cls, p in zip(classes, pad)]).T.copy()
    probs = np.array([cls.probs + p for cls, p in zip(classes, pad)]).T
    logp = np.log(probs, out=np.full(probs.shape, -np.inf), where=probs > 0.0)
    out = support, logp, support - support[0], support.max(axis=0) - support
    for a in out:
        a.flags.writeable = False
    return out


def check_lambda(classes, lam) -> None:
    """Refuse lambdas whose product with a class span (the kernel's lam * (v - v'))
    or 2 (a grid from -lam to lam) overflows; run where a user's lambda grid enters."""
    reach = max(2.0, *(c.max_support - c.min_support for c in classes))
    if not np.isfinite(float(np.abs(lam).max()) * reach):
        raise Refused(f"lambda times {reach!r} (a class span) overflows")


def mixture_cgf(classes, weights, lam) -> CgfPoint:
    """Weighted mixture CGF sum_i w_i log phi_i(lam) and its derivatives
    at every lambda of ``lam``: per class the shifted log-sum of
    exp(lam v_j + log p_j), its tilted mean, counted from the class's
    bottom and from its top, and its tilted variance.
    A stack of weight rows (k x classes) gives one mixture per row from
    the same per-class sums: all but lam then gain a last axis of length k."""
    lam = np.asarray(lam, dtype=float)
    # the kernel's arrays are (support, *lam.shape, classes)
    at = (slice(None),) + (None,) * lam.ndim
    support, logp, up, down = (a[at] for a in _class_matrix(tuple(classes)))
    expo = lam[..., None] * support + logp
    top = expo.max(axis=0)
    w = np.exp(expo - top)
    s = w.sum(axis=0)
    mean = (w * support).sum(axis=0) / s
    var = (w * (support - mean) ** 2).sum(axis=0) / s
    per_class = np.stack([top + np.log(s), mean, var, (w * up).sum(axis=0) / s,
                          (w * down).sum(axis=0) / s])
    if np.ndim(weights) == 2:
        return CgfPoint(lam, *(per_class @ np.transpose(weights)))
    return CgfPoint(*shaped(lam.shape, lam, *(per_class * weights).sum(axis=-1)))


def envelope_cgf(classes, rows: np.ndarray, lam) -> CgfPoint:
    """Upper envelope max_k of the mixture CGFs of the weight rows ``rows``
    (k x classes) from one kernel call: its value, and the derivatives of
    the row that attains it, one-sided at a kink where two rows cross,
    its mean counted from the least row bottom and the largest row top.
    One row is its mixture CGF."""
    if len(rows) == 1:
        return mixture_cgf(classes, rows[0], lam)
    p = mixture_cgf(classes, rows, lam)
    # at lam = 0 every row is 0 with slope 0 (the classes are centered), up
    # to rounding: on both sides the row of largest curvature binds
    binds = np.where(p.lam[..., None] == 0.0, p.d2, p.value)
    top = binds.argmax(axis=-1)[..., None]
    support = _class_matrix(tuple(classes))[0]
    bottoms, tops = rows @ support[0], rows @ support.max(axis=0)
    fields = (p.value, p.d1, p.d2, p.below + (bottoms - bottoms.min()),
              p.above + (tops.max() - tops))
    mixed = (np.take_along_axis(c, top, axis=-1)[..., 0] for c in fields)
    return CgfPoint(*shaped(p.lam.shape, p.lam, *mixed))


def limit_cgf(model: PortfolioModel, lam) -> CgfPoint:
    """Limit CGF of a weighted model: sum_i d_i log phi_i(lam)."""
    if not model.is_weighted:
        raise Refused(
            "limit_cgf needs a weighted model; use empirical_cgf for assigned ones")
    return mixture_cgf(model.classes, model.weights, lam)


def empirical_cgf(model: PortfolioModel, n: int, lam) -> CgfPoint:
    """Finite-n average CGF (1/n) sum_{k<=n} log phi_{class(k)}(lam),
    i.e. the mixture CGF with weights nu_i(n)/n.

    Works for assigned models (rule counts) and for weighted models
    realized by deterministic apportionment.
    """
    counts = model.counts(n)
    return mixture_cgf(model.classes, counts / n, lam)


def _point_classes(classes) -> list[tuple]:
    """Per class (probs, shifts, nu) as (probs, shifts up from the bottom,
    shifts down from the top, its exact fsum(probs) - 1, nu)."""
    return [(probs, shifts, [shifts[-1] - s for s in shifts],
             math.fsum([*probs, -1.0]), nu) for probs, shifts, nu in classes]


def _tilted_laws(classes: list[tuple], theta: float
                 ) -> tuple[list[list[float]], float, float, float, float]:
    """The class laws of ``_point_classes`` tilted by theta, and of the
    sum: log_norm, its tilted mean counted up from its bottom and down
    from its top, so that its distance to the nearer end keeps its
    relative accuracy, and its tilted variance.

    log M_c(theta) = theta * ref + log(1 + excess), ref the top of the
    class for theta > 0 and its bottom otherwise, so the exponents
    theta * (s - ref) are <= 0.  1 + excess is never rounded, since
    log_norm takes nu_c times its error: it is off + sum_j p_j
    expm1(theta (s_j - ref)) through log1p, or, below 1/2, where that
    sum cancels as the ref point carries almost no mass, the positive
    sum_j p_j exp(theta (s_j - ref)).  (In this form the kernel's finite
    differences of its value missed its second derivative at +-3.5.)"""
    laws, log_norm, below, above, var = [], 0.0, 0.0, 0.0, 0.0
    for probs, shift, back, off, nu in classes:
        ref = back[0] if theta > 0.0 else 0
        expo = [theta * (s - ref) for s in shift]
        # exp, not expm1 + 1, which loses the relative accuracy of a small weight
        weights = list(map(math.exp, expo))
        excess = off + sum(map(mul, probs, map(math.expm1, expo)))
        if excess < -0.5:
            total = sum(map(mul, probs, weights))
            log_total = math.log(total)
        else:
            total, log_total = 1.0 + excess, math.log1p(excess)
        law = [p * w / total for p, w in zip(probs, weights)]
        mean = sum(map(mul, law, shift))
        log_norm += nu * (theta * ref + log_total)
        below += nu * mean
        above += nu * sum(map(mul, law, back))
        var += nu * sum([q * (s - mean) ** 2 for q, s in zip(law, shift)])
        laws.append(law)
    return laws, log_norm, below, above, var


def point_tilt(classes, target: float, rest: float
               ) -> tuple[float, list[list[float]], float, float, float]:
    """The tilt theta that puts the tilted mean m(theta) of a sum of
    independent contracts at ``target``, with the class laws tilted by
    it, log_norm = sum_c nu_c log M_c(theta), the miss |m(theta) -
    target| and the tilted variance.  Per class ``classes`` holds
    (probs, shifts, nu): its points above its minimum, ascending from 0,
    in units where a tilt of 1 is moderate (lattice steps, or the widest
    span), and its count.  The target, strictly inside the range of the
    sum, comes counted up from its bottom and, as ``rest``, down from its
    top, sum_c nu_c max(shifts_c), so that it keeps its relative accuracy
    near either end, as the tilted mean does.

    The package's one tilt rule, which ``legendre``'s grid solve runs on
    arrays: Newton from theta = 0 on the logit z = log(m / (top - m)),
    close to linear in theta at both ends (exactly linear for a
    symmetric two-point class), each step closing one side of a bracket;
    a step that leaves the bracket, or is not finite because the mean
    rounded onto an end, is replaced by bisection once both sides are
    closed and by doubling theta from 1 while one is open.  After
    GUARD_AFTER evaluations, once both sides are closed, so is a Newton
    step longer than half the one before the last, the guard of rtsafe
    (Numerical Recipes, 9.4): near an end the tilted laws round, the
    slope can be off by orders of magnitude, and Newton would creep.  It
    stops at |m - target| <= TILT_TOL min(target, rest), the gap measured
    from the nearer end, or where the bracket has closed to round-off, as
    the mean may round coarser than that; the caller allows for the miss.
    It refuses after MAX_ITER evaluations.
    """
    classes = _point_classes(classes)
    odds, tol = target / rest, TILT_TOL * min(target, rest)
    theta, lo, hi = 0.0, -math.inf, math.inf
    # sizes of the last two steps, while they were Newton's in a closed
    # bracket and the guard applied
    last = older = math.inf
    for i in range(MAX_ITER):
        laws, log_norm, below, above, var = _tilted_laws(classes, theta)
        # m - target, from the end nearer the target
        gap = below - target if target <= rest else rest - above
        if abs(gap) <= tol:
            break
        lo, hi = (lo, theta) if gap > 0.0 else (theta, hi)
        # exp(z(solution) - z(theta)), and dz/dtheta = V / m + V / (top - m)
        ratio = odds * above / below if below > 0.0 else math.inf
        slope = var / below + var / above if 0.0 < ratio < math.inf else 0.0
        step = theta + math.log(ratio) / slope if slope > 0.0 else math.nan
        guard = i >= GUARD_AFTER
        if lo < step < hi and (not guard or abs(step - theta) <= 0.5 * older):
            closed = guard and -math.inf < lo and hi < math.inf
            last, older = abs(step - theta) if closed else math.inf, last
        else:
            # the first evaluation, at theta = 0, closes one side
            if hi == math.inf:
                step = max(2.0 * lo, 1.0)
            elif lo == -math.inf:
                step = min(2.0 * hi, -1.0)
            else:
                step = 0.5 * (lo + hi)
                if not lo < step < hi:
                    break  # closed to round-off
            last = older = math.inf
        theta = step
    else:
        raise Refused(f"no tilt after {MAX_ITER} iterations toward a mean of {target} "
                      f"on [0, {target + rest}]")
    return theta, laws, log_norm, abs(gap), var
