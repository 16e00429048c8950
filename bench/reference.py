"""Independent reference computations for the benchmark's checks.

Plain numpy and the standard library only: nothing here imports lossdev
or scipy, and every quantity is computed by a different route from the
program's (vectorized over lambda, tilted linear-space convolution,
integer thresholds, math.lgamma tables).  ``test_reference.py`` checks
these functions against brute-force enumeration and closed forms.

A class is a pair ``(support, probs)`` of equal-length sequences with
probabilities summing to one; ``probs`` are normalized by their sum,
as the program does.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def normalized(probs) -> np.ndarray:
    p = np.asarray(probs, dtype=float)
    return p / p.sum()


# ---------------------------------------------------------------------------
# cumulant generating function and Legendre transform
# ---------------------------------------------------------------------------

def class_cgf(support, probs, lams):
    """(log phi, phi'/phi, (log phi)'') of one class at every lambda."""
    v = np.asarray(support, dtype=float)
    lp = np.log(normalized(probs))
    lam = np.atleast_1d(np.asarray(lams, dtype=float))
    e = lam[:, None] * v[None, :] + lp[None, :]
    top = e.max(axis=1)
    w = np.exp(e - top[:, None])
    s = w.sum(axis=1)
    mean = (w * v).sum(axis=1) / s
    var = (w * (v[None, :] - mean[:, None]) ** 2).sum(axis=1) / s
    return top + np.log(s), mean, var


def mixture_cgf(classes, weights, lams):
    """Lambda(lam) = sum_i w_i log phi_i(lam) and its two derivatives."""
    lam = np.atleast_1d(np.asarray(lams, dtype=float))
    value, d1, d2 = (np.zeros(lam.shape) for _ in range(3))
    for (sup, pr), w in zip(classes, weights):
        if w == 0.0:
            continue
        a, b, c = class_cgf(sup, pr, lam)
        value += w * a
        d1 += w * b
        d2 += w * c
    return value, d1, d2


def reachable(classes, weights) -> tuple[float, float]:
    """[sum w min, sum w max]: where the rate function is finite."""
    lo = sum(w * min(sup) for (sup, _), w in zip(classes, weights))
    hi = sum(w * max(sup) for (sup, _), w in zip(classes, weights))
    return lo, hi


def solve_tilt(classes, weights, xs):
    """lambda with Lambda'(lambda) = x for every x (vectorized), by
    doubling a bracket and bisecting to a relative width of 1e-15; each x
    must lie strictly inside the reachable range.  A scalar x gives a
    float."""
    x = np.atleast_1d(np.asarray(xs, dtype=float))
    sign = np.where(x >= mixture_cgf(classes, weights, [0.0])[1][0], 1.0, -1.0)

    def above(mu):  # Lambda'(sign mu) on the far side of x
        return sign * (mixture_cgf(classes, weights, sign * mu)[1] - x) >= 0

    lo, hi = np.zeros(x.shape), np.ones(x.shape)
    for _ in range(64):
        short = ~above(hi)
        if not short.any():
            break
        lo, hi = np.where(short, hi, lo), np.where(short, 2.0 * hi, hi)
    else:
        raise ValueError("cannot bracket the tilt: x outside the reachable range")
    while np.any(hi - lo > 1e-15 * np.maximum(hi, 1.0)):
        mid = 0.5 * (lo + hi)
        up = above(mid)
        lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
    lam = sign * 0.5 * (lo + hi)
    return float(lam[0]) if np.ndim(xs) == 0 else lam


def legendre(classes, weights, xs):
    """Lambda*(x) = sup_lam (lam x - Lambda(lam)) for every x (vectorized):
    inf outside the reachable range, the limit value -sum w log p_edge on
    its edges.  A scalar x gives a float."""
    x = np.atleast_1d(np.asarray(xs, dtype=float))
    lo, hi = reachable(classes, weights)
    out = np.full(x.shape, math.inf)
    for edge, pick in ((lo, np.argmin), (hi, np.argmax)):
        out[x == edge] = -sum(w * math.log(normalized(pr)[pick(np.asarray(sup))])
                              for (sup, pr), w in zip(classes, weights) if w > 0)
    inside = (x > lo) & (x < hi)
    if inside.any():
        lam = solve_tilt(classes, weights, x[inside])
        out[inside] = lam * x[inside] - mixture_cgf(classes, weights, lam)[0]
    return float(out[0]) if np.ndim(xs) == 0 else out


def two_point_rate(x: float, a: float) -> float:
    """Closed-form rate of the law on {-a, +a} with mass 1/2 each:
    t log 2t + (1 - t) log 2(1 - t) with t = (a + x) / 2a, 0 log 0 = 0."""
    if abs(x) > a:
        return math.inf
    t = (a + x) / (2.0 * a)
    return sum(u * math.log(2.0 * u) for u in (t, 1.0 - t) if u > 0.0)


def rate_unit(x: float) -> float:
    """I1, the rate function of the unit class {-1, +1}."""
    return two_point_rate(x, 1.0)


def rate_double(x: float) -> float:
    """I2, the rate function of the double class {-2, +2}."""
    return two_point_rate(x, 2.0)


# ---------------------------------------------------------------------------
# class counts of the assignment rules
# ---------------------------------------------------------------------------

def apportioned_counts(weights, n: int) -> list[int]:
    """Largest-remainder apportionment of n contracts, ties to the lower
    class index."""
    quota = [float(w) * n for w in weights]
    out = [math.floor(q) for q in quota]
    order = sorted(range(len(quota)), key=lambda i: (-(quota[i] - out[i]), i))
    for i in order[:n - sum(out)]:
        out[i] += 1
    return out


def round_robin_counts(cycle_weights, n: int) -> list[int]:
    """Counts under a cycle with w_i consecutive slots for class i."""
    cycle = [i for i, w in enumerate(cycle_weights) for _ in range(w)]
    full, rem = divmod(n, len(cycle))
    out = [full * w for w in cycle_weights]
    for i in cycle[:rem]:
        out[i] += 1
    return out


def block_lengths(a0: int, growth: int, accelerating: bool):
    j = 0
    while True:
        yield a0 * growth ** (j * (j + 1) // 2 if accelerating else j)
        j += 1


def block_counts(a0, growth, order, accelerating, n_classes, n: int) -> list[int]:
    """Counts when consecutive blocks cycle through ``order``."""
    out = [0] * n_classes
    done = 0
    for j, length in enumerate(block_lengths(a0, growth, accelerating)):
        take = min(length, n - done)
        out[order[j % len(order)]] += take
        done += take
        if done == n:
            return out


def block_ends(a0, growth, order, accelerating, cls: int, n_max: int) -> list[int]:
    """Ends of the complete blocks of class ``cls`` up to n_max."""
    out, end = [], 0
    for j, length in enumerate(block_lengths(a0, growth, accelerating)):
        end += length
        if end > n_max:
            return out
        if order[j % len(order)] == cls:
            out.append(end)


# ---------------------------------------------------------------------------
# exact tails
# ---------------------------------------------------------------------------

def threshold_index(n: int, x: str, step: str) -> int:
    """Smallest lattice index k with k * step >= n * x, in exact rational
    arithmetic on the decimal strings the benchmark passes."""
    return math.ceil(n * Fraction(x) / Fraction(step))


def lattice_log_tail(classes, counts, t: int) -> float:
    """log P[S >= t], S the sum of counts[i] iid copies of class i, each
    class an integer support (lattice indices) with its probabilities.

    Direct linear-space convolution of the class pmfs tilted by the
    lambda whose tilted mean of S is t; the tilt is undone at the end:
    P[S >= t] = exp(sum_i nu_i log phi_i(lam) - lam t)
                * sum_{s >= t} q(s) exp(-lam (s - t)).
    Entries below 1e-40 of the running maximum are trimmed from both
    ends after each convolution; that changes the result by far less than
    its rounding error.
    """
    live = [(np.asarray(sup, dtype=int), normalized(pr), nu)
            for (sup, pr), nu in zip(classes, counts) if nu > 0]
    lo = sum(nu * int(s.min()) for s, _, nu in live)
    hi = sum(nu * int(s.max()) for s, _, nu in live)
    if t > hi:
        return -math.inf
    if t <= lo:
        return 0.0
    if t == hi:
        return float(sum(nu * math.log(p[np.argmax(s)]) for s, p, nu in live))
    n = sum(nu for _, _, nu in live)
    lam = max(solve_tilt([(s, p) for s, p, _ in live],
                         [nu / n for _, _, nu in live], t / n), 0.0)
    total, offset, log_norm = np.ones(1), 0, 0.0
    for s, p, nu in live:
        kmin = int(s.min())
        logphi = float(class_cgf(s, p, [lam])[0][0])
        q = np.zeros(int(s.max()) - kmin + 1)
        q[s - kmin] = np.exp(lam * s + np.log(p) - logphi)
        for _ in range(nu):
            total = np.convolve(total, q)
            keep = np.flatnonzero(total >= 1e-40 * total.max())
            offset += int(keep[0])
            total = total[keep[0]:keep[-1] + 1]
        offset += nu * kmin
        log_norm += nu * logphi
    s_vals = offset + np.arange(len(total))
    above = s_vals >= t
    tail = float((total[above] * np.exp(-lam * (s_vals[above] - t))).sum())
    return log_norm - lam * t + math.log(tail) if tail > 0 else -math.inf


def log_factorials(n_max: int) -> np.ndarray:
    """log k! for k = 0..n_max by math.lgamma."""
    return np.fromiter(map(math.lgamma, range(1, n_max + 2)), float, n_max + 1)


def _log_binomial_half(n: int, lf: np.ndarray) -> np.ndarray:
    k = np.arange(n + 1)
    return lf[n] - lf[k] - lf[n - k] - n * math.log(2.0)


def unit_double_log_tail(n_unit: int, n_double: int, t: int,
                         lf: np.ndarray) -> float:
    """log P[S >= t] for S the sum of n_unit copies of the {-1, +1} class
    and n_double copies of the {-2, +2} class (mass 1/2 on each point),
    by the two-class binomial sum over the number of double contracts at
    +2.  ``lf`` holds log k! for k up to max(n_unit, n_double)."""
    # S = (2 K1 - n_unit) + 2 (2 K2 - n_double), K_i binomial(n_i, 1/2)
    if t > n_unit + 2 * n_double:
        return -math.inf
    k2 = np.arange(n_double + 1)
    need = t + n_unit + 2 * n_double - 4 * k2          # 2 K1 >= need
    kmin = -((-need) // 2)                              # ceil(need / 2)
    if n_unit > 0:
        logsf = np.logaddexp.accumulate(_log_binomial_half(n_unit, lf)[::-1])[::-1]
    else:
        logsf = np.zeros(1)
    inside = kmin <= n_unit
    terms = np.full(n_double + 1, -np.inf)
    terms[inside] = (_log_binomial_half(n_double, lf)[inside]
                     + logsf[np.clip(kmin[inside], 0, None)])
    top = terms.max()
    if top == -np.inf:
        return -math.inf
    return float(top + np.log(np.exp(terms - top).sum()))
