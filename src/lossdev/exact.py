"""Exact finite-n tail probabilities of the average centered loss on its
lattice: the oracle for every probabilistic claim at desk scale.

``exact_log_tail`` sets up the lattice of the sum first.  With g the
common step of the gaps v - v_min within each class that has contracts,
to within LATTICE_TOL of that class's span whatever its scale, every
class's points are its minimum plus distinct multiples of g, and the sum
lies on the sum of the minima, sum_c nu_c v_min,c, plus multiples of g:
g = 2 for the {-1, +1} and {-2, +2} classes of the paper's
counterexample, and g = 1 for a centered life contract {-q, 1 - q},
whatever q.  Each lattice point is that sum of offsets and g k, rounded
once; the supports are rounded onto the lattice once, and the threshold
is walked to the first lattice point that reaches it, where the tail is
the same.
The tail helper then takes only lattice steps: the exponentially tilted
FFT of Keich (J. Comput. Biol. 12, 2005) tilts the class laws by the
saddlepoint of the threshold, takes the product of their spectra, raised
to their counts, and undoes the tilt in log space, so tails far below
1e-300 stay representable.  It sums a window of lattice points on one
side of the threshold, weighted by the tilt, on a transform as long as
that sum needs: the window's radius, plus the terms the sum takes, up to
the lattice's edge and no further than where the weight drops below
WINDOW_EPS.  The window's radius is the smaller of Hoeffding's bound,
O(sqrt(n) * span), and Bernstein's, which takes the tilted variance
instead of span^2 / 4 per contract: for a premium of 1 against a claim
of -1000 at 1/1001 it is some 20 times narrower.  The spectrum is
evaluated only on its band, the frequencies where it can exceed the
underflow, and the weighted window sum is taken from it by Parseval,
with no inverse FFT: the band is a few hundred frequencies whatever n,
so a query costs about as much at n = 1e8 as at 1e4, not O(w log w) on
a window of w = O(sqrt(n) * span) points.

The helper takes its tilt per lattice step, and the tilted class laws,
from ``cgf.point_tilt`` on the sum's lattice, with no Legendre solve and
no CGF kernel call.  Forming log_norm on the lattice matters: on the
paper's unit/double schedules up to n = 1.1e6 the worst relative error
in log P is 2.9e-11, where taking log_norm - theta * k = -n * rate from
the Legendre solve raised it to 9.8e-11, against the tests' 1e-10.

The slow reference the tests check it against lives with them
(``tests/oracle.py``): the law of the sum by direct convolution in log
space, one contract at a time, in O(n^2 * span).
"""

from __future__ import annotations

import itertools
import math
from functools import reduce

import numpy as np

from .cgf import point_tilt
from .model import LossClass, PortfolioModel, Refused, check_budget, reaches

LATTICE_TOL = 1e-9  # times the span of the class
# tilted mass a tail window may leave out or alias onto itself
WINDOW_EPS = 1e-30
_LOG_EPS = math.log(1.0 / WINDOW_EPS)
_LOG_UNDERFLOW = -746.0  # exp of anything lower is 0 in double precision
# widens the band's bound against the round-off of C_d and of the log modulus
_MARGIN = 1.000001


class IncommensurableSupportError(Refused):
    """The support gaps v - v_min within the classes share no common step,
    or two points of a class fall on one step; use Monte Carlo instead."""


def _real_gcd(a: float, b: float, tol: float) -> float:
    a, b = abs(a), abs(b)
    while b > tol:
        a, b = b, abs(a - round(a / b) * b)
    return a


def latticize(classes: list[LossClass]) -> float:
    """Largest step g such that every gap v - v_min of every class is an
    integer multiple of g within LATTICE_TOL times its class's span: the
    gcd of the gaps, so their multiples of g share no common factor."""
    # (gap, tolerance) for every point above its class's minimum
    gaps = [(v - c.min_support, LATTICE_TOL * (c.max_support - c.min_support))
            for c in classes for v in c.support[1:]]
    finest = min(tol for _, tol in gaps)
    # Euclid stops well below the rejection threshold: the remainders of
    # incommensurable pairs decay indefinitely and must land under it
    g = reduce(lambda a, b: _real_gcd(a, b, 1e-3 * finest), (gap for gap, _ in gaps))
    if g <= finest:
        raise IncommensurableSupportError("support gaps share no common step at relative "
                                          f"tolerance {LATTICE_TOL}; use Monte Carlo instead")
    # Euclid's remainders pile up the round-off of every gap, and the walk
    # multiplies g by up to n * span: take g from the widest gap alone
    widest = max(gap for gap, _ in gaps)
    g = widest / round(widest / g)
    for gap, tol in gaps:
        if abs(gap - round(gap / g) * g) > tol:
            raise IncommensurableSupportError(f"support gap {gap} is not a multiple of step {g}")
    return g


def fft_length(n: int) -> int:
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


def lattice_steps(classes: list[LossClass]) -> tuple[float, list[np.ndarray]]:
    """The step g of ``latticize`` and each class's points in steps of g
    from its minimum, one array per class: the one rounding of the
    supports, half to even in Python ints; two points of a class on one
    step are refused."""
    g = latticize(classes)
    steps = [[round((v - c.min_support) / g) for v in c.support] for c in classes]
    if any(a == b for s in steps for a, b in zip(s, s[1:])):
        raise IncommensurableSupportError("two points of a class on one lattice step")
    return g, [np.array(s) for s in steps]


def window_radius(spans: list[tuple[int, int]], var: float) -> float:
    """R such that all but WINDOW_EPS of the mass of a sum of independent
    lattice contracts lies within R steps of its mean: the smaller of two
    rigorous bounds, with L = log(2 / WINDOW_EPS), Hoeffding's (JASA 58,
    1963), sqrt(L sum_c nu_c span_c^2 / 2), and Bernstein's (Bennett,
    JASA 57, 1962), bL/3 + sqrt((bL/3)^2 + 2 V L), V the variance of the
    sum and b the largest class span.  ``spans`` holds (nu_c, span_c) per
    class, spans and V in steps."""
    log_2_eps = math.log(2.0 / WINDOW_EPS)
    hoeffding = math.sqrt(0.5 * log_2_eps * sum(nu * span ** 2 for nu, span in spans))
    third = max(span for _, span in spans) * log_2_eps / 3.0
    return min(hoeffding, third + math.sqrt(third * third + 2.0 * var * log_2_eps))


def spectrum_band(terms: list[tuple[int, np.ndarray, list[float]]], length: int) -> np.ndarray:
    """The frequencies m in 0..length//2, ascending, at which the spectrum
    of the sum in ``lattice_pmf`` can exceed exp(_LOG_UNDERFLOW): a few
    index intervals whose total length does not grow with n.

    With C_d = sum_c nu_c sum_{j<l, |s_l - s_j| = d} p_j p_l, the log
    modulus at omega = 2 pi m / length is sum_c (nu_c / 2) log|z_c|^2,
    and 1 - |z_c|^2 = 4 sum_{j<l} p_j p_l sin^2(omega (s_l - s_j) / 2)
    and log(1 - u) <= -u bound it by -2 sum_d C_d sin^2(pi m d / length).
    The term of d reaches at most 2 C_d.  The band counts only the strong
    d, C_d > -_LOG_UNDERFLOW, whose term alone underflows beyond 0.36
    length of every multiple of the length and so cuts over a quarter of
    the spectrum; a weaker d would cost a pass over the band to cut a few
    frequencies.  With no strong d the band is the whole spectrum, known
    before any pair is counted where sum_c nu_c (1 - sum_j p_j^2), at
    least 2 C_d for every d, is at most -2 _LOG_UNDERFLOW.  With |sin(pi
    a / length)| >= 2 dist(a, length Z) / length, a strong d alone leaves
    live only m within W_d = length sqrt(-_LOG_UNDERFLOW / (8 C_d)) / d
    of a multiple of length / d: the band takes those intervals for the d
    that leaves the fewest frequencies, and keeps of them those that the
    sine bound over the strong d leaves live.  The arrays of the whole
    transform count against the memory budget, as ``band_spectrum``,
    ``window_sum`` and ``lattice_pmf`` allocate them."""
    # per frequency of the whole half spectrum, the most doubles alive at
    # once: band_spectrum's sine table, a row per distinct |shift| and
    # 2 |shift|, its four (classes x freq) arrays and eight rows besides
    # (the frequencies, log modulus, phase, their live part and the
    # fallback near spectral zeros); window_sum's rows and temporaries,
    # and lattice_pmf's complex spectrum and inverse, fit in as many
    columns = {a for _, shift, _ in terms for s in shift.tolist() if s
               for a in (abs(s), 2 * abs(s))}
    check_budget((len(columns) + 4 * len(terms) + 8) * (length // 2 + 1), "lattice arrays")
    half = length // 2
    if sum(nu * (1.0 - sum([p * p for p in law])) for nu, _, law in terms) \
            <= -2.0 * _LOG_UNDERFLOW:
        return np.arange(half + 1)
    pairs: dict[int, float] = {}
    for nu, shift, law in terms:
        for (s, p), (t, q) in itertools.combinations(zip(shift.tolist(), law), 2):
            d = abs(t - s)
            pairs[d] = pairs.get(d, 0.0) + nu * p * q
    strong = {d: c for d, c in pairs.items() if c > -_LOG_UNDERFLOW}
    if not strong:
        return np.arange(half + 1)
    # per d, W_d d, widened by one step of m on each side
    reach = {d: _MARGIN * length * math.sqrt(-_LOG_UNDERFLOW / (8.0 * c)) + d
             for d, c in strong.items()}
    d = min(reach, key=lambda d: (d // 2 + 1) * (2.0 * reach[d] / d + 2.0))
    # m d within reach of j length, for every j with an m <= half
    lo, hi = [], []
    for j in range(int((d * half + reach[d]) // length) + 1):
        first = max(math.ceil((j * length - reach[d]) / d), hi[-1] + 1 if hi else 0)
        last = min(math.floor((j * length + reach[d]) / d), half)
        if first <= last:
            lo.append(first)
            hi.append(last)
    if len(lo) == 1:
        freq = np.arange(lo[0], hi[0] + 1)
    else:
        counts = np.subtract(hi, lo) + 1
        freq = np.arange(counts.sum()) + np.repeat(np.subtract(lo, np.cumsum(counts) - counts),
                                                   counts)
    # 2 sum_d C_d sin^2(pi m d / length), m d reduced in integers first
    bound = 0.0
    for e, c in strong.items():
        sine = np.sin(freq * e % length * (math.pi / length))
        bound = bound + 2.0 * c * sine * sine
    return freq[bound < -_MARGIN * _LOG_UNDERFLOW]


def band_spectrum(terms: list[tuple[int, np.ndarray, list[float]]], freq: np.ndarray,
                  length: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(m, log|X_m|, arg X_m): the frequencies of ``freq`` at which the
    spectrum X of the sum of ``lattice_pmf`` does not underflow, and its
    log-polar form there.

    The class spectra z_c come in closed form from the laws, and their
    product in log-polar form, sum_c nu_c (log|z_c|, arg z_c), to be
    exponentiated only where it does not underflow: cheaper than complex
    powers.  All classes are taken in one pass: one table of sines over
    the distinct nonzero shifts of every class and their doubles, its
    products with (classes x shifts) matrices of the laws, and (classes
    x freq) arrays of log|z_c|^2 and arg z_c, weighted by nu in one
    product each.  Each arg z_c is rounded relative to its size and
    weighs nu_c times in the sum, so a first point near the class's mean,
    where arg z_c stays small while |z_c| is near 1, keeps the pmf
    closest to the exact one.  Each value depends on its own frequency
    alone, so on ``spectrum_band`` it is what the whole spectrum holds
    there, up to the order in which the matrix products sum."""
    # z_c - 1 = sum_j p_j (exp(-i omega s_j) - 1), s_0 = 0 adding
    # nothing, keeps its relative accuracy near z_c = 1, where an absolute
    # round-off of the spectrum, times nu_c, would reach 1e-10 of the
    # tail: its real part is -2 sum_j p_j sin^2(pi m s_j / length), its
    # imaginary part -sum_j p_j sin(pi m 2 s_j / length).  One table of
    # sin(pi m a / length) over the distinct a = |s_j| and 2 |s_j| of all
    # classes serves both, sin^2 being even and sine odd: per class a row
    # of -2 p_j at |s_j| for the real part and one of -sign(s_j) p_j at
    # 2 |s_j| for the imaginary part
    column: dict[int, int] = {}
    rows = []
    for _, shift, law in terms:
        half: dict[int, float] = {}
        whole: dict[int, float] = {}
        for s, p in zip(shift.tolist()[1:], law[1:]):
            j = column.setdefault(abs(s), len(column))
            half[j] = half.get(j, 0.0) - 2.0 * p
            j = column.setdefault(2 * abs(s), len(column))
            whole[j] = whole.get(j, 0.0) - math.copysign(p, s)
        rows += [half, whole]
    coef = np.array([[row.get(j, 0.0) for j in range(len(column))] for row in rows])
    sines = np.multiply.outer(list(column), freq * (math.pi / length))
    np.sin(sines, out=sines)
    im = np.dot(coef[1::2], sines)
    re = np.dot(coef[::2], np.square(sines, out=sines))
    del sines  # freed before the (classes x freq) arrays below are made
    # log |z_c|^2 from |z_c|^2 - 1 is accurate near 1; below |z_c| of
    # about 1/2, log |z_c|^2 < -1.4, it is taken from |z_c| itself, as near
    # a spectral zero |z_c|^2 - 1 cancels to -1 and leaves sqrt(eps) of
    # |z_c|; the floor of -0.9 sends all of that, round-off below -1
    # included, to the fallback without a log of 0
    log_sq = re + 2.0
    log_sq *= re
    log_sq += im * im
    np.log1p(np.maximum(log_sq, -0.9, out=log_sq), out=log_sq)
    near0 = log_sq < -1.4
    if np.count_nonzero(near0):
        with np.errstate(divide="ignore"):  # log 0 at exact spectral zeros
            log_sq[near0] = 2.0 * np.log(np.hypot(1.0 + re[near0], im[near0]))
    nu = np.array([float(nu) for nu, _, _ in terms])
    log_mod = np.dot(0.5 * nu, log_sq)
    re += 1.0
    phase = np.dot(nu, np.arctan2(im, re, out=im))
    live = log_mod > _LOG_UNDERFLOW
    if np.count_nonzero(live) == freq.size:
        return freq, log_mod, phase
    return freq[live], log_mod[live], phase[live]


def lattice_pmf(terms: list[tuple[int, np.ndarray, list[float]]], length: int) -> np.ndarray:
    """The pmf of a sum of independent lattice contracts, counted from
    the sum of the first points of their classes, aliased onto
    0..length-1, by one inverse FFT of the spectrum on its band.
    ``terms`` holds per class (nu, shifts, law): its count, its points in
    steps from its first point, shifts[0] = 0, in any order, and their
    probabilities."""
    freq, log_mod, phase = band_spectrum(terms, spectrum_band(terms, length), length)
    spectrum = np.zeros(length // 2 + 1, dtype=complex)
    spectrum[freq] = np.exp(log_mod + 1j * phase)
    return np.fft.irfft(spectrum, length)


_DROP = 60.0 * math.log(2.0)  # rho^count is dropped below 2^-60


def window_sum(freq: np.ndarray, log_mod: np.ndarray, phase: np.ndarray, length: int,
               first: int, count: int, decay: float, sign: int) -> float:
    """sum_{t < count} q_{(first + sign t) mod length} exp(-decay t), q
    the inverse real FFT of the spectrum X on ``freq`` (0 elsewhere in
    0..length//2, ``band_spectrum``'s log-polar form), decay >= 0, by
    Parseval from the spectrum alone:

    (1 / length) sum_m X_m exp(i omega_m first) (1 - rho_m^count) / (1 -
    rho_m), rho_m = exp(-decay + sign i omega_m),

    over all m, where m and length - m give conjugate terms.  With a =
    decay, u = -expm1(-a), alpha = pi m / length and psi = arg X_m +
    omega_m first, 1 - rho = u - 2 sign i e^-a sin(alpha) e^(sign i
    alpha) keeps its relative accuracy near rho = 1, |1 - rho|^2 = u^2 +
    4 e^-a sin^2(alpha), and Re(e^(i psi) conj(1 - rho)) = u cos(psi) + 2
    e^-a sin(alpha) sin(alpha - sign psi).  1 - rho^count takes the same
    form with a count and beta = pi (m count mod length) / length, and
    is dropped where e^(-a count) < 2^-60.  Every angle is reduced in
    integers before it meets the phase."""
    tail = decay * count < _DROP
    rows = np.empty((6 if tail else 3, freq.size))
    # psi, alpha, alpha - sign psi; beta, psi + sign beta, and
    # psi + sign (beta - alpha); a quarter turn on where a cosine is wanted
    psi = np.multiply(2.0 * math.pi / length, freq * (first % length) % length)
    psi += phase
    np.add(psi, 0.5 * math.pi, out=rows[0])
    np.multiply(math.pi / length, freq, out=rows[1])
    np.multiply(psi, -sign, out=rows[2])
    rows[2] += rows[1]
    if tail:
        np.multiply(math.pi / length, freq * (count % length) % length, out=rows[3])
        np.multiply(rows[3], sign, out=rows[4])
        rows[4] += psi
        np.subtract(rows[3], rows[1], out=rows[5])
        rows[5] *= sign
        rows[5] += rows[0]
    np.sin(rows, out=rows)
    cos_psi, sin_alpha = rows[0], rows[1]
    a_exp, a_u = math.exp(-decay), -math.expm1(-decay)
    den = np.square(sin_alpha)
    den *= 4.0 * a_exp
    den += a_u * a_u
    term = cos_psi * a_u
    term += (2.0 * a_exp) * sin_alpha * rows[2]
    if tail:
        # times 1 - rho^count, expanded in the same sines
        t_exp, t_u = math.exp(-decay * count), -math.expm1(-decay * count)
        term *= t_u
        term += (2.0 * sign * a_u * t_exp) * rows[3] * rows[4]
        term += (4.0 * a_exp * t_exp) * sin_alpha * rows[3] * rows[5]
    # 1 - rho is 0 only at m = 0 without decay, where the sum is count terms
    if den[0] == 0.0:
        term[0], den[0] = count * cos_psi[0], 1.0
    term *= np.exp(log_mod)
    term /= den
    # m = 0, and m = length / 2 for even lengths, have no conjugate partner
    single = term[0] + (term[-1] if 2 * freq[-1] == length else 0.0)
    return (2.0 * float(term.sum()) - float(single)) / length


def _tilted_fft_log_tail(live: list[tuple[LossClass, int]], steps: list[np.ndarray],
                         k: int, size: int) -> float:
    """log P[S >= k] for 0 < k < size - 1, S the sum on its own lattice
    0..size-1, by the exponentially tilted spectrum on a window.  ``steps``
    holds each live class's points in lattice steps from its minimum.

    Under the tilt theta per step from ``cgf.point_tilt`` the sum has pmf
    q with mean m, at k up to the miss |m - k|, and P[S = j] = q_j
    exp(log_norm - theta j).  All but WINDOW_EPS of q lies within R
    steps of m, R from ``window_radius`` on the tilted variance.  The
    window's radius r = R + |m - k| holds that mass about k too, so any
    theta the solve stops at is safe.  For theta > 0 the tail sums q_j
    over k <= j <= k + r; otherwise the sum runs over k - r <= j < k and
    the tail is log1p(-P[S < k]).  Either way q_j is weighted by
    exp(-theta (j - k)) <= 1, so round-off in the far tails of q is never
    amplified.  The sum takes J terms: no more than the window holds
    inside 0..size-1, and no more than log(1 / WINDOW_EPS) / |theta| + 1,
    past which the weight is below WINDOW_EPS.  q is aliased onto a
    transform of min(size, r + J + 1) points or more: then no point
    within r of k outside the J summed shares a residue with one of
    them.  The aliased, the omitted and the cut mass (each below
    WINDOW_EPS) add at most that much to the sum.  The sum is taken by
    ``window_sum`` from the spectrum on its band, so its cost is set by
    the band, not by the window.  Each class spectrum is taken about the
    class's minimum, not, as ``mc`` takes it, about the point nearest its
    mean: the round-off has no bound yet, and the refusal of a depleted
    window rests on where it lands; about the mean the tests' depleted
    model gives log P = -106.84 for -106.73.
    """
    theta, laws, log_norm, miss, var = point_tilt(
        [(cls.probs, s.tolist(), nu) for (cls, nu), s in zip(live, steps)], k, size - 1 - k)
    r = math.ceil(window_radius([(nu, int(s[-1])) for (_, nu), s in zip(live, steps)], var)
                  + miss)
    upper = theta > 0.0
    # j = k, k + 1, ..., min(k + r, size - 1) above; below j = k - 1, k - 2,
    # ..., max(k - r, 0), the first weighted exp(theta)
    count = min(r + 1, size - k) if upper else min(r, k)
    # terms past log(1 / WINDOW_EPS) / |theta| weigh below WINDOW_EPS; the
    # test keeps that quotient finite
    if abs(theta) * count > _LOG_EPS:
        count = min(count, math.ceil(_LOG_EPS / abs(theta)) + 1)
    # no FFT runs here, so the rounding up is not for speed: the length
    # fixes band_spectrum's frequencies, and with them the round-off
    length = fft_length(min(size, r + count + 1))
    terms = [(nu, s, law) for (_, nu), s, law in zip(live, steps, laws)]
    spectrum = band_spectrum(terms, spectrum_band(terms, length), length)
    if upper:
        part = window_sum(*spectrum, length, k, count, theta, 1)
    else:
        part = math.exp(theta) * window_sum(*spectrum, length, k - 1, count, -theta, -1)
    lower = math.exp(log_norm - theta * k) * part
    # round-off can outweigh the sum of a depleted window: refuse, not a wrong tail
    if part > 0.0 and (upper or lower < 1.0):
        # + 0.0 turns the -0.0 of a lower mass that underflows into 0.0
        return (min(log_norm - theta * k + math.log(part), 0.0) if upper
                else math.log1p(-lower) + 0.0)
    raise Refused(f"the spectrum's round-off outweighs the tilted window sum {part!r} "
                  f"at lattice point {k} of {size}")


def exact_log_tail(model: PortfolioModel, n: int, x: float,
                   inclusive: bool = True) -> float:
    """log P[M_n >= x] (or strictly > x with ``inclusive=False``).

    Returns -inf for impossible events (threshold above the maximal
    reachable sum) and 0 for certain ones; the top edge is closed form,
    every other threshold takes the tilted spectrum on its band, whose
    size does not grow with n, and sums a window of w = O(sqrt(n) *
    span) of the O(n * span) lattice points from it by Parseval.
    """
    live = [(cls, int(nu)) for cls, nu in zip(model.classes, model.counts(n)) if nu > 0]
    g, steps = lattice_steps([cls for cls, _ in live])
    # the sum lies on the points fsum(offsets) + g k, k = 0..size-1, each rounded once
    offsets = [nu * cls.min_support for cls, nu in live]
    size = sum(nu * int(s[-1]) for (_, nu), s in zip(live, steps)) + 1

    def reaches_point(k: int) -> bool:
        return reaches(math.fsum([*offsets, g * k]), n * x, inclusive)

    # the edges first, as n * x may overflow and the walk takes single steps
    if not reaches_point(size - 1):
        return -math.inf
    if reaches_point(0):
        return 0.0
    # the first lattice point that reaches the level
    k = math.floor((n * x - math.fsum(offsets)) / g)
    while reaches_point(k - 1):
        k -= 1
    while not reaches_point(k):
        k += 1
    if k == size - 1:
        return float(sum(nu * math.log(cls.probs[-1]) for cls, nu in live))
    return _tilted_fft_log_tail(live, steps, k, size)


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
