"""Exact finite-n distribution of the average centered loss on its
lattice: the oracle for every probabilistic claim at desk scale.

``exact_log_tail`` takes one of two paths.  When the portfolio holds at
most two classes and each has two support points, each class is a
closed-form binomial and the tail is a single sum over one of them, in
O(n).  Every other sum is computed by the exponentially tilted FFT of
Keich (J. Comput. Biol. 12, 2005): every class pmf is tilted by the
saddlepoint of the threshold, so the tilted law of the sum puts mass of
order one near it; the class spectra are raised to their counts and
multiplied, one inverse FFT gives the tilted pmf of the sum, and the
tilt is undone in log space.  That costs O(L log L) for a lattice of L
points.  Tail probabilities far below 1e-300 stay representable, because
only the tilted masses are held in linear space.

The direct path convolves the class groups in log space, in
O(n^2 * span).  It gives the full law for ``exact_distribution`` and is
the slow oracle the tests check the FFT against.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy.special import gammaln, logsumexp

from .legendre import transform_from_weights
from .model import LossClass, PortfolioModel

LATTICE_TOL = 1e-9
DEFAULT_MEMORY_BUDGET = 2 << 30  # bytes
MEMORY_BUDGET_ENV = "LOSSDEV_MEMORY_BUDGET"


class IncommensurableSupportError(ValueError):
    """Support points share no common lattice step; use Monte Carlo instead."""


class MemoryBudgetError(MemoryError):
    """The convolution lattice would exceed the configured memory budget."""


@dataclass(frozen=True)
class LatticeDistribution:
    """Probability masses on the lattice offset + j * step, j = 0..len-1."""

    offset: float
    step: float
    masses: np.ndarray

    @property
    def points(self) -> np.ndarray:
        return self.offset + self.step * np.arange(len(self.masses))

    def total_mass(self) -> float:
        return float(self.masses.sum())


def _real_gcd(a: float, b: float, tol: float) -> float:
    a, b = abs(a), abs(b)
    while b > tol:
        a, b = b, abs(a - round(a / b) * b)
    return a


def latticize(model: PortfolioModel, tol: float = LATTICE_TOL) -> float:
    """Largest step g such that every support point of every class is an
    integer multiple of g within ``tol``."""
    values = [v for cls in model.classes for v in cls.support if abs(v) > tol]
    if not values:
        raise IncommensurableSupportError("no nonzero support values")
    # run Euclid well below the rejection threshold so incommensurable
    # pairs (whose remainders decay indefinitely) land under it instead
    # of stalling just above
    scale = max(map(abs, values))
    g = reduce(lambda a, b: _real_gcd(a, b, 1e-3 * tol * scale), map(abs, values))
    if g <= tol * scale:
        raise IncommensurableSupportError(
            "supports share no common lattice step at tolerance "
            f"{tol}; use the Monte Carlo estimator instead")
    for v in values:
        if abs(v - round(v / g) * g) > tol:
            raise IncommensurableSupportError(
                f"support value {v} is not a multiple of step {g}")
    return g


def _memory_budget() -> int:
    env = os.environ.get(MEMORY_BUDGET_ENV)
    return int(env) if env else DEFAULT_MEMORY_BUDGET


@dataclass(frozen=True)
class _GroupPmf:
    """Log pmf of one class group on the lattice: point j sits at lattice
    index ``offset + j * stride``."""

    offset: int
    stride: int
    logp: np.ndarray


def _check_budget(n_doubles: int) -> None:
    if 8 * n_doubles > _memory_budget():
        raise MemoryBudgetError(
            f"lattice arrays of {n_doubles} doubles exceed the memory budget "
            f"({_memory_budget()} bytes; override via ${MEMORY_BUDGET_ENV})")


def _live_classes(model: PortfolioModel, n: int) -> list[tuple[LossClass, int]]:
    """(class, count) for the classes with contracts among 1..n."""
    return [(cls, int(nu)) for cls, nu in zip(model.classes, model.counts(n)) if nu > 0]


def _class_group(cls: LossClass, nu: int, g: float) -> _GroupPmf:
    """Log pmf of the sum of ``nu`` iid copies of ``cls`` on step g."""
    idx = [round(v / g) for v in cls.support]
    logp = np.log(cls.probs)
    if len(idx) == 2:
        # binomial in closed form: k copies at the upper point
        k = np.arange(nu + 1)
        lp = (gammaln(nu + 1) - gammaln(k + 1) - gammaln(nu - k + 1)
              + k * logp[1] + (nu - k) * logp[0])
        _check_budget(nu + 1)
        return _GroupPmf(nu * idx[0], idx[1] - idx[0], lp)
    lo, hi = min(idx), max(idx)
    span = hi - lo
    _check_budget(nu * span + 1)
    shifts = [i - lo for i in idx]
    cur = np.full(span + 1, -np.inf)
    for s, lp in zip(shifts, logp):
        cur[s] = lp
    single = cur.copy()
    for _ in range(nu - 1):
        new = np.full(len(cur) + span, -np.inf)
        for s, lp in zip(shifts, logp):
            seg = new[s:s + len(cur)]
            np.logaddexp(seg, cur + lp, out=seg)
        cur = new
    return _GroupPmf(nu * lo, 1, cur)


def _densify(gp: _GroupPmf) -> _GroupPmf:
    if gp.stride == 1:
        return gp
    _check_budget((len(gp.logp) - 1) * gp.stride + 1)
    dense = np.full((len(gp.logp) - 1) * gp.stride + 1, -np.inf)
    dense[::gp.stride] = gp.logp
    return _GroupPmf(gp.offset, 1, dense)


def _log_convolve(a: _GroupPmf, b: _GroupPmf) -> _GroupPmf:
    a, b = _densify(a), _densify(b)
    if len(a.logp) > len(b.logp):
        a, b = b, a
    _check_budget(len(a.logp) + len(b.logp))
    out = np.full(len(a.logp) + len(b.logp) - 1, -np.inf)
    for i, la in enumerate(a.logp):
        if la == -np.inf:
            continue
        seg = out[i:i + len(b.logp)]
        np.logaddexp(seg, b.logp + la, out=seg)
    return _GroupPmf(a.offset + b.offset, 1, out)


def _group_tail(groups: list[_GroupPmf], t_idx: int) -> float:
    """log P[sum >= t_idx * g] from independent group pmfs."""
    big = max(groups, key=lambda gp: len(gp.logp))
    rest = [gp for gp in groups if gp is not big]
    small = reduce(_log_convolve, rest) if rest else None
    # survivor function of the big group by count index, accumulated from the top
    logsf = np.logaddexp.accumulate(big.logp[::-1])[::-1]
    if small is None:
        need = t_idx - big.offset
        kmin = math.ceil(need / big.stride - 1e-9)
        if kmin >= len(big.logp):
            return -math.inf
        return float(logsf[max(kmin, 0)])
    pos = small.offset + small.stride * np.arange(len(small.logp))
    need = t_idx - pos - big.offset
    kmin = np.ceil(need / big.stride - 1e-9).astype(np.int64)
    terms = np.full(len(small.logp), -np.inf)
    ok = (kmin < len(big.logp)) & (small.logp > -np.inf)
    terms[ok] = small.logp[ok] + logsf[np.clip(kmin[ok], 0, None)]
    if not np.any(ok):
        return -math.inf
    return float(logsumexp(terms))


def _threshold_index(level: float, g: float, inclusive: bool) -> int:
    """Smallest lattice index whose point passes the threshold, with a
    half-ulp-safe comparison so on-grid points are not lost to rounding."""
    if inclusive:
        return math.ceil(level / g - 1e-9)
    return math.floor(level / g + 1e-9) + 1


def _fft_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n; numpy's FFT is slow on lengths with
    large prime factors."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _tilted_fft_log_tail(live: list[tuple[LossClass, int]], g: float,
                         t_idx: int, min_idx: int, max_idx: int) -> float:
    """log P[S >= t_idx] for min_idx < t_idx < max_idx, S the lattice
    index of the sum, by the exponentially tilted FFT.

    Lattice indices are shifted so that the sum lives on 0..L-1.  Under
    the tilt theta the shifted sum has pmf q, and
    P[S' = j] = q_j exp(sum_c nu_c log M_c(theta) - theta j),
    with M_c the shifted class MGF.  Above the mean theta > 0 and the
    tail sum weights q_j, j >= k, by exp(-theta (j - k)) <= 1.  At or
    below it theta <= 0, so the same holds for the lower sum over
    j < k, and the tail is log1p(-P[S < t]).  Every weight is at most 1,
    so FFT round-off in the far tails of q is never amplified.
    """
    n = sum(nu for _, nu in live)
    classes = [cls for cls, _ in live]
    weights = [nu / n for _, nu in live]
    theta = g * transform_from_weights(classes, weights, t_idx * g / n).lambda_star
    size = max_idx - min_idx + 1
    length = _fft_length(size)
    # the running product of spectra, one class spectrum and its power
    # (length // 2 + 1 complex numbers each), and the real inverse
    _check_budget(6 * (length // 2 + 1) + length)
    spectrum = np.ones(length // 2 + 1, dtype=complex)
    log_norm = 0.0
    for cls, nu in live:
        shift = np.rint((np.asarray(cls.support) - cls.min_support) / g).astype(np.int64)
        expo = theta * shift + np.log(cls.probs)
        top = float(expo.max())
        w = np.exp(expo - top)
        total = float(w.sum())
        log_norm += nu * (top + math.log(total))
        pmf = np.zeros(int(shift[-1]) + 1)
        pmf[shift] = w / total
        spectrum *= np.fft.rfft(pmf, length) ** nu
    q = np.fft.irfft(spectrum, length)[:size]
    k = t_idx - min_idx
    if theta > 0.0:
        tail = float(q[k:] @ np.exp(-theta * np.arange(size - k)))
        return min(log_norm - theta * k + math.log(tail), 0.0)
    below = float(q[:k] @ np.exp(theta * np.arange(k, 0, -1)))
    return math.log1p(-math.exp(log_norm - theta * k) * below)


def exact_log_tail(model: PortfolioModel, n: int, x: float,
                   inclusive: bool = True) -> float:
    """log P[M_n >= x] (or strictly > x with ``inclusive=False``).

    Returns -inf for impossible events (threshold above the maximal
    reachable sum).  At most two two-point classes use the closed-form
    binomial path, O(n); every other model uses the tilted FFT,
    O(L log L) for a sum lattice of L points (about n times the largest
    class span in lattice steps).
    """
    live = _live_classes(model, n)
    g = latticize(model)
    t_idx = _threshold_index(n * x, g, inclusive)
    min_idx = sum(nu * round(cls.min_support / g) for cls, nu in live)
    max_idx = sum(nu * round(cls.max_support / g) for cls, nu in live)
    if t_idx > max_idx:
        return -math.inf
    if t_idx <= min_idx:
        return 0.0
    if t_idx == max_idx:
        return float(sum(nu * math.log(cls.probs[-1]) for cls, nu in live))
    if len(live) <= 2 and all(len(cls.support) == 2 for cls, _ in live):
        groups = [_class_group(cls, nu, g) for cls, nu in live]
        return min(_group_tail(groups, t_idx), 0.0)
    return _tilted_fft_log_tail(live, g, t_idx, min_idx, max_idx)


def exact_tail(model: PortfolioModel, n: int, x: float,
               inclusive: bool = True) -> float:
    """P[M_n >= x], exact up to floating accumulation."""
    return math.exp(exact_log_tail(model, n, x, inclusive))


def exact_log_tail_rate(model: PortfolioModel, n: int, x: float) -> float:
    """(1/n) log P[M_n >= x]; -inf marks an impossible event."""
    return exact_log_tail(model, n, x) / n


def _direct_log_pmf(model: PortfolioModel, n: int, g: float) -> _GroupPmf:
    """Log pmf of the whole sum by direct log-space convolution of the
    class groups, O(n^2 * span): the slow oracle."""
    groups = [_class_group(cls, nu, g) for cls, nu in _live_classes(model, n)]
    return reduce(_log_convolve, [_densify(gp) for gp in groups])


def exact_distribution(model: PortfolioModel, n: int) -> LatticeDistribution:
    """Full law of the portfolio sum S_n = n * M_n as a dense lattice."""
    g = latticize(model)
    total = _direct_log_pmf(model, n, g)
    return LatticeDistribution(total.offset * g, g, np.exp(total.logp))


def enumerate_tail(model: PortfolioModel, n: int, x: float,
                   inclusive: bool = True, limit: int = 10) -> float:
    """P[M_n >= x] by full product-measure enumeration; test oracle for
    small n only."""
    if n > limit:
        raise ValueError(f"enumeration limited to n <= {limit}")
    counts = model.counts(n)
    laws = []
    for cls, nu in zip(model.classes, counts):
        laws.extend([cls] * int(nu))
    total = 0.0
    for combo in itertools.product(*[range(len(c.support)) for c in laws]):
        s = sum(laws[i].support[j] for i, j in enumerate(combo))
        hit = s >= n * x - 1e-12 if inclusive else s > n * x + 1e-12
        if hit:
            p = 1.0
            for i, j in enumerate(combo):
                p *= laws[i].probs[j]
            total += p
    return total
