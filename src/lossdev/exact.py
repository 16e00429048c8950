"""Exact finite-n tail probabilities of the average centered loss on its
lattice: the oracle for every probabilistic claim at desk scale.

``exact_log_tail`` sets up the lattice of the sum first.  With g the
step of the support values, to within LATTICE_TOL of each class's
largest |value| whatever its scale, every class's points are its minimum
plus distinct multiples of g, and the sum lies on the sum of the minima
plus multiples of g * h, h the gcd of those multiples: g = 1 and h = 2
for the {-1, +1} and {-2, +2} classes of the paper's counterexample.
The supports are rounded onto it once, and the threshold is walked to
the first lattice point that reaches it, where the tail is the same.
The FFT helper then takes only lattice steps and a tilt: the
exponentially tilted FFT of Keich (J. Comput. Biol. 12, 2005) tilts the
class laws by the saddlepoint of the threshold, sends the product of
their spectra, raised to their counts, through one inverse FFT on a
window of w = O(sqrt(n) * span) lattice points, and undoes the tilt in
log space, so tails far below 1e-300 stay representable.

The tilted class laws are computed here, as log M_c(theta) = theta *
ref + log1p(excess) with 1 + excess never rounded, not taken from
``cgf.tilted_laws`` or the Legendre solve: on the paper's unit/double
schedules up to n = 1.1e6 the worst relative error in log P is 2.9e-11,
and taking log_norm - theta * k = -n * rate from the solve raised it to
9.8e-11, against the tests' 1e-10.  Moving the CGF kernel to this
expm1/log1p form instead made finite differences of its value miss its
second derivative at lambda = +-3.5.

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

LATTICE_TOL = 1e-9  # times the largest |support value| of the class
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


def latticize(model: PortfolioModel) -> float:
    """Largest step g such that every support point of every class is an
    integer multiple of g within LATTICE_TOL times the largest |support
    value| of its class."""
    # (value, tolerance) for the points that are not 0 at their class's scale
    points = []
    for cls in model.classes:
        tol = LATTICE_TOL * max(map(abs, cls.support))
        points += [(v, tol) for v in cls.support if abs(v) > tol]
    finest = min(tol for _, tol in points)
    # Euclid stops well below the rejection threshold: the remainders of
    # incommensurable pairs decay indefinitely and must land under it
    g = reduce(lambda a, b: _real_gcd(a, b, 1e-3 * finest), (abs(v) for v, _ in points))
    if g <= finest:
        raise IncommensurableSupportError(
            "supports share no common lattice step at relative tolerance "
            f"{LATTICE_TOL}; use the Monte Carlo estimator instead")
    for v, tol in points:
        if abs(v - round(v / g) * g) > tol:
            raise IncommensurableSupportError(
                f"support value {v} is not a multiple of step {g}")
    return g


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


def _tilted_fft_log_tail(live: list[tuple[LossClass, int]], steps: list[np.ndarray],
                         theta: float, k: int, size: int) -> float:
    """log P[S >= k] for 0 < k < size - 1, S the sum on its own lattice
    0..size-1, by the exponentially tilted FFT on a window.  ``steps``
    holds each live class's points in lattice steps from its minimum, and
    theta is the tilt per step that puts the mean of the sum at k.

    Under the tilt the sum has pmf q with mean k, and P[S = j] = q_j
    exp(sum_c nu_c log M_c(theta) - theta j), with M_c the MGF of the
    class in steps.  By Hoeffding's inequality (JASA 58, 1963) all but
    WINDOW_EPS of q lies within r = sqrt(sum_c nu_c span_c^2 log(2 /
    WINDOW_EPS) / 2) steps of k, span_c the class span in steps: the FFT
    runs on min(size, 2r + 1) points.  Above the mean theta > 0 and the
    tail sums q_j over k <= j <= k + r; at or below it theta <= 0, the sum
    runs over k - r <= j < k and the tail is log1p(-P[S < k]).  Either way
    q_j is weighted by exp(-theta (j - k)) <= 1, so FFT round-off in the
    far tails of q is never amplified, and the aliased and the omitted
    mass (each below WINDOW_EPS) add at most that much to the sum.  The
    class spectra z_c come in closed form, and their product in log-polar
    form, sum_c nu_c (log|z_c|, arg z_c), exponentiated only where it does
    not underflow: cheaper than complex powers.
    """
    spread = sum(nu * float(shift[-1]) ** 2 for (_, nu), shift in zip(live, steps))
    r = math.ceil(math.sqrt(0.5 * spread * math.log(2.0 / WINDOW_EPS)))
    length = _fft_length(min(size, 2 * r + 1))
    # omega, the log-modulus and phase sums, the complex spectrum, one
    # class's sines and its real and imaginary parts, and the inverse
    check_budget((7 + 2 * max(map(len, steps))) * (length // 2 + 1) + length,
                 "lattice arrays")
    omega = (2.0 * math.pi / length) * np.arange(length // 2 + 1)
    log_mod, phase = np.zeros(omega.size), np.zeros(omega.size)
    log_norm = 0.0
    with np.errstate(divide="ignore"):  # log 0 at exact spectral zeros
        for (cls, nu), shift in zip(live, steps):
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
    upper = theta > 0.0
    j = np.arange(k, min(k + r + 1, size)) if upper else np.arange(max(k - r, 0), k)
    # multiply and sum, not a dot product: BLAS threads a long dot
    # product, which stalls for milliseconds on a few cores
    part = float((q[j % length] * np.exp(-theta * (j - k))).sum())
    if upper:
        return min(log_norm - theta * k + math.log(part), 0.0)
    return math.log1p(-math.exp(log_norm - theta * k) * part)


def exact_log_tail(model: PortfolioModel, n: int, x: float,
                   inclusive: bool = True) -> float:
    """log P[M_n >= x] (or strictly > x with ``inclusive=False``).

    Returns -inf for impossible events (threshold above the maximal
    reachable sum) and 0 for certain ones; the top edge is closed form,
    every other threshold takes the tilted FFT, O(w log w) on a window
    of w = O(sqrt(n) * span) of the O(n * span) lattice points.
    """
    live = [(cls, int(nu)) for cls, nu in zip(model.classes, model.counts(n)) if nu > 0]
    g = latticize(model)
    # each class's points in steps of g, the one rounding of the supports
    idx = [np.rint(np.asarray(cls.support) / g).astype(np.int64) for cls, _ in live]
    if any((np.diff(i) == 0).any() for i in idx):
        raise IncommensurableSupportError("two points of a class on one lattice step")
    h = math.gcd(*np.concatenate([i - i[0] for i in idx]).tolist())
    steps = [(i - i[0]) // h for i in idx]
    # the sum lies on the points (base + h k) g, k = 0..size-1
    base = sum(nu * int(i[0]) for (_, nu), i in zip(live, idx))
    size = sum(nu * int(s[-1]) for (_, nu), s in zip(live, steps)) + 1
    level = n * x
    # the edges first, as n * x may overflow and the walk takes single steps
    if not reaches((base + h * (size - 1)) * g, level, inclusive):
        return -math.inf
    if reaches(base * g, level, inclusive):
        return 0.0
    # the first lattice point that reaches the level
    k = (math.floor(level / g) - base) // h
    while reaches((base + h * (k - 1)) * g, level, inclusive):
        k -= 1
    while not reaches((base + h * k) * g, level, inclusive):
        k += 1
    if k == size - 1:
        return float(sum(nu * math.log(cls.probs[-1]) for cls, nu in live))
    lam = transform_from_weights([cls for cls, _ in live], [nu / n for _, nu in live],
                                 (base + h * k) * g / n).lambda_star
    return _tilted_fft_log_tail(live, steps, g * h * lam, k, size)


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
