"""Monte Carlo tail estimation with exponential tilting.

Sampling is reproducible: a counter-based Philox stream keyed by the
seed drives every draw, and replicates are generated in one vectorized
pass, so repeated runs are bit-identical.  Because the estimators depend
on the portfolio sum only, the nu iid contracts of a class are drawn as
one sum.  On ``exact``'s lattice the sum is one lattice variable whose
law is the class spectrum raised to nu, the tilted-FFT construction of
``exact`` (Keich, J. Comput. Biol. 12, 2005): where its window holds at
most as many points as there are replicates, one uniform per replicate
draws the sum from that law.  Any other class draws the multinomial
counts of its support points.

The tilted estimator splits the portfolio into two independent groups
of contracts, A and B, draws N tilted sums a_i of A and N tilted sums
b_j of B, and averages the likelihood-weighted indicator f(a_i + b_j)
over all N^2 pairs.  That average is unbiased, since every a_i is
independent of every b_j, up to the distance of the drawn class-sum laws
from the exact ones (``_sum_law``), and its variance is that of a two-sample
U-statistic: about (Var g_A + Var g_B) / N, g_A(a) = E f(a + B) the
projection on A (Hoeffding 1948).  Both projections come from sorting:
the counted b_j for one a_i are a suffix of the sorted b, so one
``searchsorted`` and one log-space suffix sum give g_A(a_i) for every i
in O(N log N), and likewise g_B.

The tilt, the tilted probabilities p_j exp(lambda* v_j - log phi_c(lambda*))
and the normalizer sum_c nu_c log phi_c(lambda*) come from
``cgf.point_tilt``; a support point whose tilted mass underflows stays
in place with probability 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cgf import point_tilt
from .exact import (IncommensurableSupportError, fft_length, lattice_pmf, lattice_steps,
                    window_radius)
from .model import DEFAULT_SEED, PortfolioModel, Refused, check_budget, reaches

# doubles per replicate held at once besides the widest class's draws:
# the two groups' sums and, per side of the pair step, the first counted
# index, the suffix log-sums, the log projections and their temporaries
PAIR_DOUBLES = 16


class TiltingRangeError(Refused):
    """Threshold not in the interior of the reachable range; tilting is
    undefined there.  Use plain sampling or the exact oracle."""


@dataclass(frozen=True)
class TailEstimate:
    """An estimate of P[M_n >= x] and its standard error, and both as
    natural logs, which stay finite where the probability underflows
    (-inf for an estimate <= 0, +inf for an infinite error)."""

    estimate: float
    std_error: float
    n_samples: int
    method: str  # 'plain' or 'tilted'
    seed: int
    lam: float
    log_estimate: float
    log_std_error: float

    def __post_init__(self):
        # no range check: an unbiased importance-sampling estimate of a
        # probability near 1 or 0 may fall just outside [0, 1]
        if not math.isfinite(self.estimate) or not self.std_error >= 0.0:
            raise ValueError("estimate must be finite and std error nonnegative")


def _log(v: float) -> float:
    """Natural log, -inf at v <= 0."""
    return math.log(v) if v > 0.0 else -math.inf


def _sum_law(cls, nu: int, probs: np.ndarray, n_samples: int):
    """(first, g, cdf) for the sum of ``nu`` contracts of class ``cls``
    drawn by ``probs``: it is nu v_min + g (first + i) with probability
    (cdf[i] - cdf[i - 1]) / cdf[-1].  None where the class's points lie
    on no lattice of ``exact`` (``lattice_steps`` refuses them), or where
    the window holds more than ``n_samples`` points: the law then costs
    more than the multinomial draws it replaces (5.0 against 0.5 ms for
    10^6 contracts of {-2, 0, 1, 3}, a window of 43200 points, and N =
    2000).

    T, the sum in steps of g from nu v_min, has mean nu m and variance
    nu V under ``probs``; all but WINDOW_EPS of it lies within R =
    ``window_radius`` of nu m, so within r = R + |nu m - c| of c, nu m
    rounded.  ``lattice_pmf`` gives its law aliased onto a transform at
    least min(size, 2r + 1) long, size = nu span + 1 the values T can
    take, and the window is the transform's length of values about c,
    moved inside 0..size-1.  Its law is the exact one but for at most
    WINDOW_EPS left out and as much aliased, and the FFT's round-off,
    whose negatives count as 0.  The class's spectrum is taken about its
    point s nearest m, where its phase stays small: about its minimum, a
    law with its mass on one far point lost 1e-12 of total variation to
    the round-off of the phase, times nu."""
    try:
        g, (steps,) = lattice_steps([cls])
    except IncommensurableSupportError:
        return None
    span = int(steps[-1])
    mean = float(probs @ steps)
    var = float(probs @ (steps - mean) ** 2)
    center = round(nu * mean)
    r = math.ceil(window_radius([(nu, span)], nu * var) + abs(nu * mean - center))
    size = nu * span + 1
    points = min(size, 2 * r + 1)
    if points > n_samples:
        return None
    length = fft_length(points)
    first = min(max(center - length // 2, 0), max(size - length, 0))
    ref = int(np.argmin(np.abs(steps - mean)))
    order = np.r_[ref, :ref, ref + 1:steps.size]
    q = lattice_pmf([(nu, steps[order] - steps[ref], probs[order])], length)
    window = np.arange(first, min(first + length, size)) - nu * int(steps[ref])
    return first, g, np.maximum(q[window % length], 0.0).cumsum()


def _sample_sums(classes, counts: np.ndarray, n_samples: int,
                 rng: np.random.Generator,
                 class_probs: list[np.ndarray]) -> np.ndarray:
    """Sums of ``counts[c]`` contracts of each class c for each replicate,
    zeros for no contracts.  A class whose sum has a law on a window of
    at most ``n_samples`` points (``_sum_law``) takes one uniform per
    replicate, inverted through the window's cumulative sums (Devroye,
    Non-Uniform Random Variate Generation, 1986, III.2); any other takes
    a multinomial of its support points, whose cost grows with their
    number."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    sums = np.zeros(n_samples)
    for cls, nu, probs in zip(classes, counts, class_probs):
        if nu == 0:
            continue
        law = _sum_law(cls, int(nu), probs, n_samples)
        if law is None:
            draws = rng.multinomial(int(nu), probs, size=n_samples)
            sums += draws @ np.asarray(cls.support)
        else:
            first, g, cdf = law
            t = first + np.searchsorted(cdf, rng.random(n_samples) * cdf[-1], side="right")
            sums += nu * cls.min_support + g * t
    return sums


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def sample_plain(model: PortfolioModel, n: int, x: float, n_samples: int,
                 seed: int = DEFAULT_SEED) -> TailEstimate:
    """Indicator-mean estimate of P[M_n >= x]; with no hit, or only hits,
    the standard error is inf, or 0 for an impossible or certain event."""
    probs = [np.asarray(c.probs) for c in model.classes]
    check_budget(n_samples * (4 + max(map(len, probs))), "sample arrays")
    counts = model.counts(n)
    sums = _sample_sums(model.classes, counts, n_samples, _rng(seed), probs)
    hits = reaches(sums, n * x).astype(float)
    est = float(hits.mean())
    if 0.0 < est < 1.0:
        se = float(hits.std(ddof=1) / math.sqrt(n_samples))
    else:  # the largest sum for no hit, the smallest for only hits
        edge = counts @ [c.min_support if est else c.max_support for c in model.classes]
        se = 0.0 if reaches(float(edge), n * x) == bool(est) else math.inf
    return TailEstimate(est, se, n_samples, "plain", seed, 0.0, _log(est), _log(se))


def _split(counts: np.ndarray, spread: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Contract counts of groups A and B.  Whole live classes go, largest
    tilted variance ``spread`` first, to the group whose variance is the
    smaller so far; a lone live class is halved by count (B is empty at
    one contract)."""
    live = np.flatnonzero(counts)
    part_a = np.zeros_like(counts)
    if live.size == 1:
        part_a[live] = counts[live] - counts[live] // 2
        return part_a, counts - part_a
    load = [0.0, 0.0]
    for c in live[np.argsort(-spread[live], kind="stable")]:
        side = int(load[1] < load[0])
        load[side] += spread[c]
        if side == 0:
            part_a[c] = counts[c]
    return part_a, counts - part_a


def _first_counted(a: np.ndarray, b: np.ndarray, level: float,
                   inclusive: bool) -> np.ndarray:
    """For each a_i, the first index k of the ascending array b with
    ``reaches(a_i + b_k, level, inclusive)``, or b.size if there is none.

    The comparison is monotone in b_k, so the counted b_k form a suffix.
    ``searchsorted`` against level - a_i finds it but for the b_k within
    the comparison's slack of that value or its rounding; the loop then
    moves k over whole runs of equal b_k until the pair before k is not
    counted and the pair at k is, so a pair counts exactly when
    ``reaches`` says so."""
    k = np.searchsorted(b, level - a, side="left" if inclusive else "right")
    last = b.size - 1
    while True:
        back = (k > 0) & reaches(a + b[np.maximum(k - 1, 0)], level, inclusive)
        ahead = (k <= last) & ~reaches(a + b[np.minimum(k, last)], level, inclusive)
        if not (back.any() or ahead.any()):
            return k
        k = np.where(back, np.searchsorted(b, b[k - 1]), k)
        k = np.where(ahead, np.searchsorted(b, b[np.minimum(k, last)], side="right"), k)


def _log_projection(a: np.ndarray, b: np.ndarray, level: float, inclusive: bool,
                    mu: float, log_norm: float) -> np.ndarray:
    """log g(a_i) = log((1/N) sum_j f(a_i + b_j)) for every a_i, where
    f(s) = 1{reaches(s, level, inclusive)} exp(log_norm - mu s), mu >= 0,
    and a, b are ascending; -inf where no pair counts.  The suffix sums of
    exp(-mu b_j) are accumulated in log space from the smallest term."""
    tail = np.empty(b.size + 1)
    tail[-1] = -np.inf
    tail[:-1] = np.logaddexp.accumulate(-mu * b[::-1])[::-1]
    return tail[_first_counted(a, b, level, inclusive)] - mu * a + (log_norm - math.log(b.size))


def _log_mean_var(log_g: np.ndarray) -> tuple[float, float]:
    """log of the mean and of the sample variance of exp(log_g), scaled
    by the largest term so that neither underflows; the variance of one
    value is inf."""
    top = float(log_g.max())
    g = np.exp(log_g - top)
    var = float(g.var(ddof=1)) if g.size > 1 else math.inf
    return top + _log(float(g.mean())), 2.0 * top + _log(var)


def sample_tilted(model: PortfolioModel, n: int, x: float, n_samples: int,
                  seed: int = DEFAULT_SEED) -> TailEstimate:
    """Importance-sampling estimate of P[M_n >= x] under the optimal
    exponential tilt, averaged over all pairs of two independent groups.

    The tilt is the Legendre maximizer of the finite-n empirical CGF
    (not the limit CGF), so it is optimal for the actual n even when the
    class densities oscillate; a threshold within 1e-12 of the scale of
    the reachable range from one of its edges raises
    ``TiltingRangeError``.  The live contracts are split into groups
    A and B (``_split``), and N = ``n_samples`` tilted sums of each are
    drawn from one Philox stream, A first.  With
    f(s) = 1{S_n >= n x} exp(-lam* s + sum_c nu_c log phi_c(lam*)), the
    estimate is the mean of f(a_i + b_j) over all N^2 pairs, which is
    unbiased up to the drawn class-sum laws (``_sample_sums``), and the
    standard error is sqrt((var g_A + var g_B) / N)
    from the sample variances of the projections
    g_A(a_i) = (1/N) sum_j f(a_i + b_j) and g_B(b_j), the two-sample
    U-statistic variance, slightly conservative.  With one contract B is
    empty and this is the plain average of f over the a_i.

    Below the mean (lam* < 0) the event is the likely one, so f weights
    the complement {S_n < n x} and the estimate is 1 minus its mean, with
    the same standard error; the sums and the level are negated there, so
    the counted pairs are again the upper ones.  With no counted pair, or
    one replicate, the standard error is inf.  ``log_estimate`` and
    ``log_std_error`` are computed in log space throughout, and stay
    finite where the estimate underflows to 0.
    """
    counts = model.counts(n)
    live = [(cls, int(nu)) for cls, nu in zip(model.classes, counts) if nu > 0]
    bottom = math.fsum([nu * cls.min_support for cls, nu in live])
    top = math.fsum([nu * cls.max_support for cls, nu in live])
    edge_tol = 1e-12 * max(-bottom, top)  # every class is centered
    if not bottom + edge_tol < n * x < top - edge_tol:
        raise TiltingRangeError(f"x={x} is not inside the reachable range "
                                f"[{bottom / n}, {top / n}]; use sample_plain or the exact oracle")
    # the points above each class's minimum in units of the widest span,
    # where doubling the tilt from 1 is scale-free
    width = max(cls.max_support - cls.min_support for cls, _ in live)
    theta, laws, log_norm, _, _ = point_tilt(
        [(cls.probs, [(v - cls.min_support) / width for v in cls.support], nu)
         for cls, nu in live], (n * x - bottom) / width, (top - n * x) / width)
    lam = theta / width
    log_norm += lam * bottom
    laws = iter(laws)
    # a class with no contracts keeps its own law: it is never drawn
    probs = [np.array(next(laws) if nu else cls.probs) for cls, nu in zip(model.classes, counts)]
    spread = np.array([nu * (p @ np.subtract(cls.support, p @ cls.support) ** 2)
                       for cls, nu, p in zip(model.classes, counts, probs)])
    check_budget(n_samples * (PAIR_DOUBLES + max(map(len, probs))), "sample and pair arrays")
    rng = _rng(seed)
    below = lam < 0.0
    sign = -1.0 if below else 1.0
    a, b = (sign * _sample_sums(model.classes, part, n_samples, rng, probs)
            for part in _split(counts, spread))
    a.sort()
    b.sort()
    # below the mean: -S_n > -n x + slack is the complement S_n < n x - slack
    level, inclusive, mu = sign * n * x, not below, abs(lam)
    log_ga = _log_projection(a, b, level, inclusive, mu, log_norm)
    if log_ga.max() == -np.inf:
        log_mean, log_se = -np.inf, np.inf
    else:
        log_mean, log_var_a = _log_mean_var(log_ga)
        _, log_var_b = _log_mean_var(_log_projection(b, a, level, inclusive, mu, log_norm))
        log_se = 0.5 * (float(np.logaddexp(log_var_a, log_var_b)) - math.log(n_samples))
    counted = math.exp(log_mean)
    if below:
        # + 0.0 turns the -0.0 of no counted pair into 0.0
        est, log_est = 1.0 - counted, (math.log1p(-counted) + 0.0 if counted < 1.0 else -np.inf)
    else:
        est, log_est = counted, log_mean
    return TailEstimate(est, math.exp(log_se), n_samples, "tilted", seed, lam,
                        log_est, log_se)
