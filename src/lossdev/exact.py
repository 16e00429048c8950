"""Exact finite-n tail probabilities of the average centered loss on its
lattice: the oracle for every probabilistic claim at desk scale.

``exact_log_tail`` has one path, the exponentially tilted FFT of Keich
(J. Comput. Biol. 12, 2005): the class laws are tilted by the
saddlepoint of the threshold, so the tilted sum has its mean there; the
product of the class spectra, raised to their counts, goes through one
inverse FFT, and the tilt is undone in log space, so tails far below
1e-300 stay representable.  The tilted classes are bounded, so by
Hoeffding's inequality (JASA 58, 1963) all but WINDOW_EPS of the tilted
mass lies within r = sqrt(sum_c nu_c span_c^2 log(2 / WINDOW_EPS) / 2)
lattice steps of the threshold: the FFT runs on a window of
w = min(L, 2r + 1) = O(sqrt(n) * span) of the L sum lattice points, in
O(w log w).

The slow reference the tests check it against lives with them
(``tests/oracle.py``): the law of the sum by direct convolution in log
space, one contract at a time, in O(n^2 * span).
"""

from __future__ import annotations

import itertools
import math
from functools import reduce

import numpy as np

from .legendre import transform_from_weights
from .model import LossClass, PortfolioModel, Refused, check_budget, reaches

LATTICE_TOL = 1e-9
# tilted mass a tail window may leave out or alias onto itself
WINDOW_EPS = 1e-30
_LOG_UNDERFLOW = -746.0  # exp of anything lower is 0 in double precision


class IncommensurableSupportError(Refused):
    """Support points share no common lattice step; use Monte Carlo instead."""


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


def _live_classes(model: PortfolioModel, n: int) -> list[tuple[LossClass, int]]:
    """(class, count) for the classes with contracts among 1..n."""
    return [(cls, int(nu)) for cls, nu in zip(model.classes, model.counts(n)) if nu > 0]


def _threshold_index(level: float, g: float, inclusive: bool) -> int:
    """Smallest lattice index j whose point j * g reaches the level by
    the package's one threshold rule, ``model.reaches``."""
    j = math.floor(level / g)
    while reaches((j - 1) * g, level, inclusive):
        j -= 1
    while not reaches(j * g, level, inclusive):
        j += 1
    return j


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
    index of the sum, by the exponentially tilted FFT on a window.

    Lattice indices are shifted so that the sum lives on 0..size-1.
    Under the tilt theta the shifted sum has pmf q with mean k, the
    shifted threshold, and P[S' = j] = q_j exp(sum_c nu_c log M_c(theta)
    - theta j), with M_c the shifted class MGF.  Above the mean
    theta > 0 and the tail sum weights q_j, k <= j <= k + r, by
    exp(-theta (j - k)) <= 1.  At or below it theta <= 0, so the same
    holds for the lower sum over k - r <= j < k, and the tail is
    log1p(-P[S < t]).  Every weight is at most 1, so FFT round-off in
    the far tails of q is never amplified, and the aliased and the
    omitted mass (each below WINDOW_EPS) add at most that much to the
    sum.  The class spectra z_c come in closed form, and their product
    in log-polar form, sum_c nu_c (log|z_c|, arg z_c), exponentiated
    only where it does not underflow: cheaper than complex powers.
    """
    n = sum(nu for _, nu in live)
    classes = [cls for cls, _ in live]
    weights = [nu / n for _, nu in live]
    theta = g * transform_from_weights(classes, weights, t_idx * g / n).lambda_star
    shifts = [np.rint((np.asarray(cls.support) - cls.min_support) / g).astype(np.int64)
              for cls in classes]
    spread = sum(nu * float(shift[-1]) ** 2 for (_, nu), shift in zip(live, shifts))
    r = math.ceil(math.sqrt(0.5 * spread * math.log(2.0 / WINDOW_EPS)))
    size = max_idx - min_idx + 1
    length = _fft_length(min(size, 2 * r + 1))
    # omega, the log-modulus and phase sums, the complex spectrum, one
    # class's sines and its real and imaginary parts, and the inverse
    check_budget((7 + 2 * max(map(len, shifts))) * (length // 2 + 1) + length,
                 "lattice arrays")
    omega = (2.0 * math.pi / length) * np.arange(length // 2 + 1)
    log_mod, phase = np.zeros(omega.size), np.zeros(omega.size)
    log_norm = 0.0
    with np.errstate(divide="ignore"):  # log 0 at exact spectral zeros
        for (cls, nu), shift in zip(live, shifts):
            # log M_c(theta) = theta * ref + log1p(excess): the exponents
            # theta * (shift - ref) are <= 0, and 1 + excess is never
            # rounded, since log_norm takes nu_c times its error
            ref = int(shift[-1]) if theta > 0.0 else 0
            e_m1 = np.expm1(theta * (shift - ref))
            probs = np.asarray(cls.probs)
            excess = math.fsum([*cls.probs, -1.0]) + float(probs @ e_m1)
            log_norm += nu * (theta * ref + math.log1p(excess))
            p = (probs * (e_m1 + 1.0) / (1.0 + excess))[1:]
            # z_c - 1 = sum_j p_j (exp(-i omega s_j) - 1), s_0 = 0 adding
            # nothing, keeps its relative accuracy near z_c = 1, where an
            # FFT's absolute round-off, times nu_c, would reach 1e-10 of
            # the tail
            re = -2.0 * (p @ np.sin(np.outer(0.5 * shift[1:], omega)) ** 2)
            im = -(p @ np.sin(np.outer(shift[1:], omega)))
            log_mod += 0.5 * nu * np.log1p(np.maximum(re * (2.0 + re) + im * im, -1.0))
            phase += nu * np.arctan2(im, 1.0 + re)
    live_freq = log_mod > _LOG_UNDERFLOW
    spectrum = np.zeros(omega.size, dtype=complex)
    spectrum[live_freq] = np.exp(log_mod[live_freq] + 1j * phase[live_freq])
    q = np.fft.irfft(spectrum, length)
    k = t_idx - min_idx
    if theta > 0.0:
        j = np.arange(k, min(k + r + 1, size))
        tail = float(q[j % length] @ np.exp(-theta * (j - k)))
        return min(log_norm - theta * k + math.log(tail), 0.0)
    j = np.arange(max(k - r, 0), k)
    below = float(q[j % length] @ np.exp(theta * (k - j)))
    return math.log1p(-math.exp(log_norm - theta * k) * below)


def exact_log_tail(model: PortfolioModel, n: int, x: float,
                   inclusive: bool = True) -> float:
    """log P[M_n >= x] (or strictly > x with ``inclusive=False``).

    Returns -inf for impossible events (threshold above the maximal
    reachable sum) and 0 for certain ones; the top edge is closed form,
    every other threshold takes the windowed tilted FFT: O(w log w) for
    w = O(sqrt(n) * span) lattice points (span the largest class span in
    lattice steps), where the whole lattice has O(n * span).
    """
    live = _live_classes(model, n)
    g = latticize(model)
    min_idx = sum(nu * round(cls.min_support / g) for cls, nu in live)
    max_idx = sum(nu * round(cls.max_support / g) for cls, nu in live)
    # the edges first: the index search walks one lattice step at a time
    if not reaches(max_idx * g, n * x, inclusive):
        return -math.inf
    if reaches(min_idx * g, n * x, inclusive):
        return 0.0
    t_idx = _threshold_index(n * x, g, inclusive)
    if t_idx == max_idx:
        return float(sum(nu * math.log(cls.probs[-1]) for cls, nu in live))
    return _tilted_fft_log_tail(live, g, t_idx, min_idx, max_idx)


def exact_tail(model: PortfolioModel, n: int, x: float,
               inclusive: bool = True) -> float:
    """P[M_n >= x], exact up to floating accumulation."""
    return math.exp(exact_log_tail(model, n, x, inclusive))


def exact_log_tail_rate(model: PortfolioModel, n: int, x: float) -> float:
    """(1/n) log P[M_n >= x]; -inf marks an impossible event."""
    return exact_log_tail(model, n, x) / n


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
        if reaches(sum(laws[i].support[j] for i, j in enumerate(combo)), n * x, inclusive):
            p = 1.0
            for i, j in enumerate(combo):
                p *= laws[i].probs[j]
            total += p
    return total
