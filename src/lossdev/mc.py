"""Monte Carlo tail estimation with exponential tilting.

Sampling is reproducible: a counter-based Philox stream keyed by the
seed drives every draw, and replicates are generated in one vectorized
pass, so repeated runs are bit-identical.  Because the estimators depend
on the portfolio sum only, the contracts of a group are drawn as one
sum, and N replicates of it as a multiset: the distinct sums and how
many replicates took each.  On ``exact``'s lattice the group's sum is
one lattice variable whose law is the product of its class spectra,
each raised to its count, the tilted-FFT construction of ``exact``
(Keich, J. Comput. Biol. 12, 2005): where its window holds at most N
points, one Multinomial(N, law) draw over the window gives the counts,
which are exactly the multiset of N iid draws.  Any other group draws
the multinomial counts of each class's support points per replicate.

The tilted estimator splits the portfolio into two independent groups
of contracts, A and B, draws N tilted sums a_i of A and N tilted sums
b_j of B, and averages the likelihood-weighted indicator f(a_i + b_j)
over all N^2 pairs.  That average is unbiased, since every a_i is
independent of every b_j, up to the distance of the drawn group-sum laws
from the exact ones (``_sum_law``), and its variance is that of a two-sample
U-statistic: about (Var g_A + Var g_B) / N, g_A(a) = E f(a + B) the
projection on A (Hoeffding 1948).  The average is a symmetric function
of each group's multiset, so the pair step runs on the distinct sums
with their multiplicities: the counted b_j for one a_i are a suffix of
the ascending b, so one ``searchsorted`` and one log-space suffix sum of
the weighted terms give g_A(a_i) for every distinct a_i, and likewise
g_B.

The tilt, the tilted probabilities p_j exp(lambda* v_j - log phi_c(lambda*))
and the normalizer sum_c nu_c log phi_c(lambda*) come from
``cgf.point_tilt``; a support point whose tilted mass underflows stays
in place with probability 0.
"""

from __future__ import annotations

import math

import numpy as np

from .cgf import point_tilt
from .exact import (IncommensurableSupportError, fft_length, lattice_pmf, lattice_steps,
                    window_radius)
from .model import DEFAULT_SEED, PortfolioModel, Record, Refused, check_budget, reaches

# doubles per replicate held at once besides the widest class's draws:
# the two groups' sums and, per side of the pair step, the first counted
# index, the suffix log-sums, the log projections and their temporaries
PAIR_DOUBLES = 16


class TiltingRangeError(Refused):
    """Threshold not in the interior of the reachable range; tilting is
    undefined there.  Use plain sampling or the exact oracle."""


class TailEstimate(Record):
    """An estimate of P[M_n >= x] and its standard error, and both as
    natural logs, which stay finite where the probability underflows
    (-inf for an estimate <= 0, +inf for an infinite error).  ``method``
    is 'plain' or 'tilted'."""

    __slots__ = ("estimate", "std_error", "n_samples", "method", "seed", "lam",
                 "log_estimate", "log_std_error")

    def __init__(self, estimate: float, std_error: float, n_samples: int, method: str,
                 seed: int, lam: float, log_estimate: float, log_std_error: float):
        # no range check: an unbiased importance-sampling estimate of a
        # probability near 1 or 0 may fall just outside [0, 1]
        if not math.isfinite(estimate) or not std_error >= 0.0:
            raise ValueError("estimate must be finite and std error nonnegative")
        super().__init__(estimate, std_error, n_samples, method, seed, lam,
                         log_estimate, log_std_error)


def _log(v: float) -> float:
    """Natural log, -inf at v <= 0."""
    return math.log(v) if v > 0.0 else -math.inf


def _sum_law(live: list[tuple], n_samples: int):
    """(values, law): the values of the sum of a group of independent
    contracts on a window of its lattice, ascending, and their
    probabilities; or None where the group's points lie on no lattice
    of ``exact`` (``lattice_steps`` refuses them) or the window holds
    more than ``n_samples`` points: the law then costs more than the
    multinomial draws it replaces (5.0 against 0.5 ms for 10^6 contracts
    of {-2, 0, 1, 3}, a window of 43200 points, and N = 2000).  ``live``
    holds per class (cls, nu, probs), nu >= 1, and the sum's values are
    fsum(nu_c v_min,c) + g t.

    T, the sum in steps of g from there, has mean m = sum_c nu_c m_c and
    variance V = sum_c nu_c V_c under ``probs``; all but WINDOW_EPS of it
    lies within R = ``window_radius`` of m, so within r = R + |m - c| of
    c, m rounded.  ``lattice_pmf`` gives its law aliased onto a transform
    at least min(size, 2r + 1) long, size = sum_c nu_c span_c + 1 the
    values T can take, and the window is the transform's length of
    values about c, moved inside 0..size-1.  Its law is the exact one but
    for at most WINDOW_EPS left out and as much aliased, and the FFT's
    round-off, whose negatives count as 0.  Each class's spectrum is
    taken about its point s_c nearest m_c, where its phase stays small:
    about its minimum, a law with its mass on one far point lost 1e-12
    of total variation to the round-off of the phase, times nu_c."""
    try:
        g, steps = lattice_steps([cls for cls, _, _ in live])
    except IncommensurableSupportError:
        return None
    means = [float(p @ s) for (_, _, p), s in zip(live, steps)]
    mean = sum(nu * m for (_, nu, _), m in zip(live, means))
    var = sum(nu * float(p @ (s - m) ** 2) for (_, nu, p), s, m in zip(live, steps, means))
    spans = [(nu, int(s[-1])) for (_, nu, _), s in zip(live, steps)]
    center = round(mean)
    r = math.ceil(window_radius(spans, var) + abs(mean - center))
    size = sum(nu * span for nu, span in spans) + 1
    points = min(size, 2 * r + 1)
    if points > n_samples:
        return None
    length = fft_length(points)
    first = min(max(center - length // 2, 0), max(size - length, 0))
    terms, origin = [], 0
    for (_, nu, p), s, m in zip(live, steps, means):
        ref = int(np.argmin(np.abs(s - m)))
        order = [ref, *range(ref), *range(ref + 1, s.size)]
        terms.append((nu, s[order] - s[ref], p[order].tolist()))
        origin += nu * int(s[ref])
    q = lattice_pmf(terms, length)
    t = np.arange(first, min(first + length, size))
    law = np.maximum(q[(t - origin) % length], 0.0)
    return math.fsum([nu * cls.min_support for cls, nu, _ in live]) + g * t, law / law.sum()


def _sample_sums(classes, counts: np.ndarray, n_samples: int,
                 rng: np.random.Generator,
                 class_probs: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(values, mult): the distinct sums, ascending, of ``n_samples``
    replicates of a group holding ``counts[c]`` contracts of each class
    c, and how many replicates took each; zeros for no contracts.  As a
    multiset, N iid draws from a law on L points are one Multinomial(N,
    law) vector of counts, so a group whose sum has a law on a window of
    at most N points (``_sum_law``) takes one multinomial over that
    window.  Any other draws each class's contracts by a multinomial of
    its support points per replicate, whose cost grows with their
    number."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    live = [(cls, int(nu), p) for cls, nu, p in zip(classes, counts, class_probs) if nu > 0]
    if not live:
        return np.zeros(1), np.array([n_samples])
    law = _sum_law(live, n_samples)
    if law is None:
        sums = np.zeros(n_samples)
        for cls, nu, p in live:
            sums += rng.multinomial(nu, p, size=n_samples) @ np.asarray(cls.support)
        return np.unique(sums, return_counts=True)
    values, law = law
    mult = rng.multinomial(n_samples, law)
    drawn = mult > 0
    return values[drawn], mult[drawn]


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def sample_plain(model: PortfolioModel, n: int, x: float, n_samples: int,
                 seed: int = DEFAULT_SEED) -> TailEstimate:
    """Indicator-mean estimate of P[M_n >= x]; with no hit, or only hits,
    the standard error is inf, or 0 for an impossible or certain event."""
    probs = [np.asarray(c.probs) for c in model.classes]
    check_budget(n_samples * (4 + max(map(len, probs))), "sample arrays")
    counts = model.counts(n)
    values, mult = _sample_sums(model.classes, counts, n_samples, _rng(seed), probs)
    est = int(mult[reaches(values, n * x)].sum()) / n_samples
    if 0.0 < est < 1.0:
        # the sample standard deviation of the N indicators, over sqrt(N)
        se = math.sqrt(est * (1.0 - est) / (n_samples - 1))
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


def _log_projection(a: np.ndarray, b: np.ndarray, mult_b: np.ndarray, level: float,
                    inclusive: bool, mu: float, log_norm: float, n_samples: int) -> np.ndarray:
    """log g(a_i) = log((1/N) sum_j mult_b[j] f(a_i + b_j)) for every a_i,
    where f(s) = 1{reaches(s, level, inclusive)} exp(log_norm - mu s),
    mu >= 0, a and b are ascending and distinct, and mult_b[j] of the N
    replicates took b_j; -inf where no pair counts.  The suffix sums of
    mult_b[j] exp(-mu b_j) are accumulated in log space from the
    smallest term."""
    tail = np.empty(b.size + 1)
    tail[-1] = -np.inf
    tail[:-1] = np.logaddexp.accumulate((np.log(mult_b) - mu * b)[::-1])[::-1]
    return tail[_first_counted(a, b, level, inclusive)] - mu * a + (log_norm - math.log(n_samples))


def _log_mean_var(log_g: np.ndarray, mult: np.ndarray, n_samples: int) -> tuple[float, float]:
    """log of the mean and of the sample variance of N values, exp(log_g[i])
    taken mult[i] times, scaled by the largest term so that neither
    underflows; the variance of one value is inf."""
    top = float(log_g.max())
    g = np.exp(log_g - top)
    mean = float(mult @ g) / n_samples
    var = float(mult @ (g - mean) ** 2) / (n_samples - 1) if n_samples > 1 else math.inf
    return top + _log(mean), 2.0 * top + _log(var)


def sample_tilted(model: PortfolioModel, n: int, x: float, n_samples: int,
                  seed: int = DEFAULT_SEED) -> TailEstimate:
    """Importance-sampling estimate of P[M_n >= x] under the optimal
    exponential tilt, averaged over all pairs of two independent groups.

    The tilt is the Legendre maximizer of the finite-n empirical CGF
    (not the limit CGF), so it is optimal for the actual n even when the
    class densities oscillate; a threshold within 1e-12 sum_c nu_c
    |v_c| of an end of the reachable range, v_c the end's support point
    of class c, raises ``TiltingRangeError``.  The live contracts are
    split into groups A and B (``_split``), and N = ``n_samples`` tilted
    sums of each are drawn from one Philox stream, A first.  With
    f(s) = 1{S_n >= n x} exp(-lam* s + sum_c nu_c log phi_c(lam*)), the
    estimate is the mean of f(a_i + b_j) over all N^2 pairs, which is
    unbiased up to the drawn group-sum laws (``_sample_sums``), and the
    standard error is sqrt((var g_A + var g_B) / N)
    from the sample variances of the projections
    g_A(a_i) = (1/N) sum_j f(a_i + b_j) and g_B(b_j), the two-sample
    U-statistic variance, slightly conservative.  With one contract B is
    empty and this is the plain average of f over the a_i.

    Below the mean (lam* < 0) the event is the likely one, so f weights
    the complement {S_n < n x} and the estimate is 1 minus its mean, with
    the same standard error; the sums and the level are negated there,
    and the distinct sums and their counts reversed, so the counted
    pairs are again the upper ones.  With no counted pair, or
    one replicate, the standard error is inf.  ``log_estimate`` and
    ``log_std_error`` are computed in log space throughout, and stay
    finite where the estimate underflows to 0.
    """
    counts = model.counts(n)
    live = [(cls, int(nu)) for cls, nu in zip(model.classes, counts) if nu > 0]
    bottom = math.fsum([nu * cls.min_support for cls, nu in live])
    top = math.fsum([nu * cls.max_support for cls, nu in live])
    # each end's tolerance from the terms that make it, as in ``legendre``
    lo_tol = 1e-12 * math.fsum([nu * abs(cls.min_support) for cls, nu in live])
    hi_tol = 1e-12 * math.fsum([nu * abs(cls.max_support) for cls, nu in live])
    if not bottom + lo_tol < n * x < top - hi_tol:
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
    groups = []
    for part in _split(counts, spread):
        values, mult = _sample_sums(model.classes, part, n_samples, rng, probs)
        groups.append((-values[::-1], mult[::-1]) if below else (values, mult))
    (a, mult_a), (b, mult_b) = groups
    # below the mean: -S_n > -n x + slack is the complement S_n < n x - slack
    pair = (-n * x if below else n * x), not below, abs(lam), log_norm, n_samples
    log_ga = _log_projection(a, b, mult_b, *pair)
    if log_ga.max() == -np.inf:
        log_mean, log_se = -np.inf, np.inf
    else:
        log_mean, log_var_a = _log_mean_var(log_ga, mult_a, n_samples)
        _, log_var_b = _log_mean_var(_log_projection(b, a, mult_a, *pair), mult_b, n_samples)
        log_se = 0.5 * (float(np.logaddexp(log_var_a, log_var_b)) - math.log(n_samples))
    counted = math.exp(log_mean)
    if below:
        # + 0.0 turns the -0.0 of no counted pair into 0.0
        est, log_est = 1.0 - counted, (math.log1p(-counted) + 0.0 if counted < 1.0 else -np.inf)
    else:
        est, log_est = counted, log_mean
    return TailEstimate(est, math.exp(log_se), n_samples, "tilted", seed, lam,
                        log_est, log_se)
