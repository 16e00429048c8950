"""Slow references for the tests.

``direct_log_pmf`` is the reference for the exact tail: the law of the
portfolio sum by direct convolution in log space, one contract at a
time, on the lattice ``exact_log_tail`` sets up: each class's minimum as
an offset and one step g from the gaps within the classes.

``irfft_window_sum`` is the reference for ``exact.window_sum``: the
tilted window sum as ``exact`` took it before it summed by Parseval, by
one inverse FFT of the whole spectrum and a weighted sum over the window.

``loop_band_spectrum`` is the reference for ``exact.band_spectrum``: the
log-polar spectrum of the sum one class at a time, each class with its
own table of sines over its own shifts, as ``exact`` took it before it
took all classes in one pass.

``numpy_loss_class`` is the reference for ``LossClass`` validation: the
same checks in numpy arrays, as the model layer ran them before it moved
to Python floats."""

import math

import numpy as np

from lossdev.exact import latticize
from lossdev.model import CENTER_TOL, PROB_SUM_TOL, ModelError


def direct_log_pmf(model, n):
    """(offset, g, logp) with logp[j] = log P[S_n = offset + j g], offset
    the sum of nu_c v_min,c over the classes with contracts and g their
    lattice step: O(n^2 span) logaddexp over the support shifts of each
    contract's class."""
    live = [(cls, int(nu)) for cls, nu in zip(model.classes, model.counts(n)) if nu > 0]
    g = latticize([cls for cls, _ in live])
    logp = np.zeros(1)
    for cls, nu in live:
        shifts = np.rint((np.asarray(cls.support) - cls.min_support) / g).astype(int)
        lps = np.log(cls.probs)
        for _ in range(nu):
            new = np.full(len(logp) + shifts[-1], -np.inf)
            new[:len(logp)] = logp + lps[0]  # shift 0 meets only -inf
            for s, lp in zip(shifts[1:], lps[1:]):
                np.logaddexp(new[s:s + len(logp)], logp + lp, out=new[s:s + len(logp)])
            logp = new
    return math.fsum(nu * cls.min_support for cls, nu in live), g, logp


def irfft_window_sum(freq, log_mod, phase, length, first, count, decay, sign):
    """sum_{t < count} q_{(first + sign t) mod length} exp(-decay t), q the
    inverse real FFT of length ``length`` of the spectrum exp(log_mod + i
    phase) on ``freq`` and 0 elsewhere: O(length log length)."""
    spectrum = np.zeros(length // 2 + 1, dtype=complex)
    spectrum[freq] = np.exp(log_mod + 1j * phase)
    q = np.fft.irfft(spectrum, length)
    t = np.arange(count)
    return float((q[(first + sign * t) % length] * np.exp(-decay * t)).sum())


def loop_band_spectrum(terms, freq, length):
    """(m, log|X_m|, arg X_m) of ``exact.band_spectrum``, class by class:
    per class, sin(omega s_j / 2)^2 and sin(omega s_j) over its shifts
    s_j, its Re and Im of z_c - 1 from them, log|z_c|^2 by log1p (or from
    |z_c| below |z_c|^2 of about 0.25) and arg z_c, each added to the
    sums weighted by nu_c; the frequencies where the log modulus does not
    underflow."""
    angles = np.multiply.outer((math.pi / length, 2.0 * math.pi / length), freq).ravel()
    log_mod = phase = 0.0
    with np.errstate(divide="ignore"):
        for nu, shift, law in terms:
            sines = np.sin(np.multiply.outer(np.asarray(shift)[1:], angles))
            np.square(sines[:, :freq.size], out=sines[:, :freq.size])
            sums = np.negative(law[1:]) @ sines
            re, im = 2.0 * sums[:freq.size], sums[freq.size:]
            log_sq = np.log1p(np.maximum(re * (2.0 + re) + im * im, -1.0))
            near0 = log_sq < -1.4
            if np.count_nonzero(near0):
                log_sq[near0] = 2.0 * np.log(np.hypot(1.0 + re[near0], im[near0]))
            log_mod = log_mod + 0.5 * nu * log_sq
            phase = phase + nu * np.arctan2(im, 1.0 + re)
    live = log_mod > -746.0
    return freq[live], log_mod[live], phase[live]


def numpy_loss_class(name, support, probs):
    """(support, probs) of ``LossClass(name, support, probs)``, validated
    and renormalized in numpy arrays, or the ModelError it raises."""
    if len(support) != len(probs) or not support:
        raise ModelError(f"class {name!r}: support/probs length mismatch or empty")
    sup = np.asarray(support, dtype=float)
    pr = np.asarray(probs, dtype=float)
    if not (np.isfinite(sup).all() and np.isfinite(pr).all()):
        raise ModelError(f"class {name!r}: support and probs must be finite")
    if np.any((pr < 0) | (pr > 1)):
        raise ModelError(f"class {name!r}: probability outside [0, 1]")
    keep = pr > 0
    sup, pr = sup[keep], pr[keep]
    if sup.size == 0:
        raise ModelError(f"class {name!r}: no support points with positive mass")
    if len(set(sup.tolist())) != sup.size:
        raise ModelError(f"class {name!r}: duplicate support values")
    s = float(pr.sum())
    if abs(s - 1.0) > PROB_SUM_TOL:
        raise ModelError(f"class {name!r}: probabilities sum to {s!r}, not 1")
    pr = pr / s
    order = np.argsort(sup)
    sup, pr = sup[order], pr[order]
    mean = float(sup @ pr)
    if abs(mean) > CENTER_TOL * float(np.abs(sup).max()):
        raise ModelError(f"class {name!r}: mean {mean!r} is not 0 "
                         '(a model file may set "center": true)')
    if sup.size < 2:
        raise ModelError(f"class {name!r}: zero variance")
    return tuple(sup.tolist()), tuple(pr.tolist())
