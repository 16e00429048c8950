"""Fenchel-Legendre transforms of mixture CGFs, closed-form rate
functions for the symmetric two-point classes, and the certified
tail-decay lower bound for assigned (density-oscillating) models.

Its grid solve, the rule of ``cgf.point_tilt`` run on arrays, serves
``rate``, ``bound`` and ``legendre_transform``; a single threshold, as in
``exact`` and ``mc``, goes to ``cgf.point_tilt`` itself.
"""

from __future__ import annotations

import math

import numpy as np

from . import cgf
from .cgf import envelope_cgf, shaped
from .model import PortfolioModel, Record, Refused

MAX_LAMBDA = 1e9  # the solve refuses a lambda whose |lambda| times the scale of its end passes this


class RatePoint(Record):
    """Legendre-transform solution at threshold x, each field in the
    shape of x (Python scalars for a scalar x).  status is 'interior'
    (lambda_star solves Lambda'(lam) = x), 'boundary' (x at the essential
    supremum of the mean; the supremum is attained only as lambda -> inf
    and the rate is the closed-form limit value), or 'infinite' (x
    outside the reachable range; rate = inf)."""

    __slots__ = ("x", "lambda_star", "rate", "status")


def _solve_mean_equation(classes, rows: np.ndarray, x: np.ndarray, x_min: float,
                         x_max: float, scales: tuple[float, float]
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Solve Lambda'(lam) = x, Lambda the upper envelope of the mixture
    CGFs of the weight rows (one row: its mixture CGF), for each x of a
    1-d array inside (x_min, x_max), the range of Lambda':
    (lambda, lambda x - Lambda(lambda)).

    This is ``cgf.point_tilt``'s solve, with its constants, on the
    kernel's tilted mean counted from the ends of the range, x counted up
    from x_min and down from x_max, and tilts in units of the span
    x_max - x_min.  It differs in three ways.  It runs on arrays: each
    kernel call covers only the points still open, and every row.  A
    bracket closed to round-off holds a kink of an envelope, where
    Lambda' jumps over x and no lambda solves the equation: the point
    stops there.  And an open side of a bracket sits at -MAX_LAMBDA / s_min
    or MAX_LAMBDA / s_max, ``scales`` = (s_min, s_max) the sums of the
    magnitudes of the terms that make x_min and x_max, as the tilted mass
    gathers on the points that make the end on lambda's side, or the span
    where those terms are all 0: a Newton step past it is replaced by
    doubling, and doubling that reaches it is refused."""
    span, target, rest = x_max - x_min, x - x_min, x_max - x
    down, up = (MAX_LAMBDA / (s or span) for s in scales)  # the open sides of a bracket
    lam, rate, idx = np.zeros_like(x), np.zeros_like(x), np.arange(x.size)
    lo, hi = np.full_like(x, -down), np.full_like(x, up)
    last, older = np.full_like(x, np.inf), np.full_like(x, np.inf)  # as in point_tilt
    at, p = np.zeros_like(x), envelope_cgf(classes, rows, np.zeros(1))
    for i in range(cgf.MAX_ITER):
        # Lambda' - x, from the end nearer x
        gap = np.where(target <= rest, p.below - target, rest - p.above)
        done = np.abs(gap) <= cgf.TILT_TOL * np.minimum(target, rest)
        lo, hi = np.where(gap > 0.0, lo, at), np.where(gap > 0.0, at, hi)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # not finite where the mean rounded onto an end; the bracket rejects it
            newton = (np.log(target / rest * p.above / p.below)
                      / (p.d2 / p.below + p.d2 / p.above))
        step = at + newton
        inside = done | ((lo < step) & (step < hi))
        guard = i >= cgf.GUARD_AFTER
        if guard:
            size = np.abs(newton)
            inside &= done | (size <= 0.5 * older)
        if not inside.all():
            half_open = (lo == -down) | (hi == up)
            grow = np.where(hi == up, np.maximum(2.0 * lo, 1.0 / span),
                            np.minimum(2.0 * hi, -1.0 / span))
            mid = 0.5 * (lo + hi)
            step = np.where(inside, step, np.where(half_open, grow, mid))
            done |= ~(half_open | ((lo < mid) & (mid < hi)))
            far = np.where(done, 0.0, np.abs(step) / np.where(step > 0.0, up, down))
            if far.max() >= 1.0:
                raise Refused(f"could not bracket lambda for x={x[idx[np.argmax(far)]]}")
        if guard:
            closed = (-down < lo) & (hi < up)
            last, older = np.where(inside & closed, size, np.inf), np.where(inside, last, np.inf)
        finished = np.count_nonzero(done)
        if finished:
            lam[idx[done]], rate[idx[done]] = at[done], (at * x[idx] - p.value)[done]
            if finished == idx.size:
                return lam, rate
            idx, target, rest, lo, hi, step, last, older = (
                v[~done] for v in (idx, target, rest, lo, hi, step, last, older))
        at = step
        p = envelope_cgf(classes, rows, at)
    raise Refused(f"no convergence after {cgf.MAX_ITER} iterations at x={x[idx[0]]}")


def transform_from_weights(classes, weights, x) -> RatePoint:
    """Legendre transform of the mixture CGF with the given class weights,
    at x or elementwise over an array of x.  ``weights`` may be a stack of
    weight rows: the transform is then that of the upper envelope of their
    mixture CGFs, whose slope runs from the smallest row bottom to the
    largest row top."""
    rows = np.atleast_2d(np.asarray(weights, dtype=float))
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    # per support end (bottom, top) and row: the row's average there, the
    # sum of the magnitudes of its terms, and the closed-form limit of the
    # transform as lambda -> -+inf
    reach = [[float(sum(w * c.support[end] for c, w in zip(classes, row))) for row in rows]
             for end in (0, -1)]
    scales = [[sum(w * abs(c.support[end]) for c, w in zip(classes, row)) for row in rows]
              for end in (0, -1)]
    limits = [[-sum(w * math.log(c.probs[end]) for c, w in zip(classes, row) if w > 0.0)
               for row in rows] for end in (0, -1)]
    # each end of the range, and the scale of the row that makes it, whose
    # 1e-12 is the end's tolerance: 0 for an end summed from zeros alone
    (x_min, lo_scale), (x_max, hi_scale) = (
        pick(zip(reach[i], scales[i]), key=lambda e: e[0]) for i, pick in enumerate((min, max)))
    lo_tol, hi_tol = 1e-12 * lo_scale, 1e-12 * hi_scale
    infinite = ~((x_min - lo_tol <= xs) & (xs <= x_max + hi_tol))  # NaN too
    upper = np.abs(xs - x_max) <= hi_tol
    interior = ~(infinite | upper | (np.abs(xs - x_min) <= lo_tol))
    # at an edge the sup is attained only as lambda -> +-inf: the least
    # limit over the rows that reach it, as every other row's tends to inf
    edge_rates = [min(r for e, r in zip(reach[i], limits[i]) if abs(e - edge) <= tol)
                  for i, (edge, tol) in enumerate(((x_min, lo_tol), (x_max, hi_tol)))]
    lam = np.where(upper | (xs > x_max), np.inf, -np.inf)
    rate = np.where(infinite, np.inf, np.where(upper, edge_rates[1], edge_rates[0]))
    status = np.where(infinite, "infinite", np.where(interior, "interior", "boundary"))
    if interior.any():
        lam[interior], solved = _solve_mean_equation(classes, rows, xs[interior], x_min, x_max,
                                                     (lo_scale, hi_scale))
        rate[interior] = np.maximum(solved, 0.0)
    return RatePoint(*shaped(np.shape(x), xs, lam, rate, status))


def legendre_transform(model: PortfolioModel, x: float) -> RatePoint:
    """Rate function Lambda*(x) = sup_lam (lam x - Lambda(lam)) of a
    weighted model's limit CGF."""
    if not model.is_weighted:
        raise Refused("legendre_transform needs a weighted model; "
                      "use bound for assigned ones")
    return transform_from_weights(model.classes, model.weights, x)


def _two_point_rate(x: float, a: float) -> float:
    """Rate function of the symmetric law on {-a, +a} with mass 1/2 each:
    log 2 + ((x+a)/2a) log((x+a)/2a) + ((a-x)/2a) log((a-x)/2a) on [-a, a],
    with 0 log 0 := 0; infinity otherwise."""
    if abs(x) > a:
        return math.inf
    out = math.log(2.0)
    for t in ((x + a) / (2 * a), (a - x) / (2 * a)):
        if t > 0.0:
            out += t * math.log(t)
    return out


def rate_I1(x: float) -> float:
    """Closed-form rate function of the +-1 symmetric class."""
    return _two_point_rate(x, 1.0)


def rate_I2(x: float) -> float:
    """Closed-form rate function of the +-2 symmetric class."""
    return _two_point_rate(x, 2.0)


def rate_upper_bound(model: PortfolioModel, x):
    """Certified lower bound b on the tail decay rate, at x or elementwise
    over an array of x: P[M_n >= x] <= exp(-n b) at every n >= 1.

    Chernoff gives P[M_n >= x] <= exp(-n (lam x - Lambda_n(lam))) for
    every n and lam >= 0, and the finite-n CGF Lambda_n is linear in the
    density vector d(n) = counts(n) / n.  So sup_n Lambda_n is at most
    the upper envelope M(lam) = max_k Lambda_{d_k}(lam) of the mixture
    CGFs at the rows d_k of ``model.density_extremes()``, whose convex
    hull holds every d(n) (the Gartner-Ellis bound with the running sup
    of Lambda_n).  b is the Legendre transform of M, solved by the
    solver of ``rate`` (``transform_from_weights`` with the stack of
    extremes): inf above the largest reachable average, the closed-form
    limit at it, and 0 for x <= 0, where the sup over lam >= 0 sits at
    lam = 0.  Where M has a kink whose slopes straddle x the solve stops
    once its bracket closes to round-off, and b = lam x - M(lam) at the lam
    it stops at; any lam >= 0 is a valid Chernoff parameter, so a solver
    error can only loosen b.  By Sion's minimax theorem b is the least
    rate function over the hull of the d_k.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    b, up = np.zeros_like(xs), xs > 0.0
    if up.any():
        b[up] = transform_from_weights(model.classes, model.density_extremes(), xs[up]).rate
    return shaped(np.shape(x), b)[0]
