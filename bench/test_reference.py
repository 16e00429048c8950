"""Tests of the benchmark's references against brute-force enumeration
and closed forms, so that the checks rest on verified values.

    python3 -m pytest bench/test_reference.py
"""

import itertools
import math

import numpy as np
import pytest

import reference as ref
import workloads as wl


def enumerate_log_tail(classes, counts, t):
    """log P[S >= t] by summing over every outcome of every contract."""
    laws = [cls for cls, nu in zip(classes, counts) for _ in range(nu)]
    total = 0.0
    for outcome in itertools.product(*[range(len(sup)) for sup, _ in laws]):
        if sum(laws[i][0][j] for i, j in enumerate(outcome)) >= t:
            total += math.prod(ref.normalized(laws[i][1])[j] for i, j in enumerate(outcome))
    return math.log(total) if total > 0 else -math.inf


def random_classes(rng, k):
    return [(idx, wl.centered_probs(rng, idx))
            for idx in (wl.lattice_indices(rng, int(rng.integers(2, 5)), 4) for _ in range(k))]


@pytest.mark.parametrize("seed", range(6))
def test_lattice_tail_matches_enumeration(seed):
    rng = np.random.default_rng(seed)
    classes = random_classes(rng, 2)
    counts = [int(v) for v in rng.integers(1, 4, 2)]
    lo = sum(nu * min(s) for (s, _), nu in zip(classes, counts))
    hi = sum(nu * max(s) for (s, _), nu in zip(classes, counts))
    for t in range(lo - 1, hi + 2):
        want = enumerate_log_tail(classes, counts, t)
        got = ref.lattice_log_tail(classes, counts, t)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12), t


def test_unit_double_tail_matches_enumeration():
    unit, double = ([-1, 1], [0.5, 0.5]), ([-2, 2], [0.5, 0.5])
    lf = ref.log_factorials(10)
    for n1, n2 in [(0, 3), (4, 0), (3, 4), (5, 5), (1, 9)]:
        for t in range(-n1 - 2 * n2 - 1, n1 + 2 * n2 + 2):
            want = enumerate_log_tail([unit, double], [n1, n2], t)
            got = ref.unit_double_log_tail(n1, n2, t, lf)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12), (n1, n2, t)


def test_unit_double_tail_matches_convolution_at_moderate_n():
    unit, double = ([-1, 1], [0.5, 0.5]), ([-2, 2], [0.5, 0.5])
    lf = ref.log_factorials(400)
    for n1, n2, t in [(300, 100, 120), (50, 400, 300), (200, 200, 590)]:
        want = ref.lattice_log_tail([unit, double], [n1, n2], t)
        assert ref.unit_double_log_tail(n1, n2, t, lf) == pytest.approx(want, rel=1e-11)


@pytest.mark.parametrize("a", [1.0, 2.0, 0.5])
def test_cgf_of_symmetric_class_is_log_cosh(a):
    lam = np.linspace(-30, 30, 61)
    value, d1, d2 = ref.class_cgf([-a, a], [0.5, 0.5], lam)
    want = np.abs(a * lam) + np.log1p(np.exp(-2 * np.abs(a * lam))) - math.log(2)
    assert value == pytest.approx(want, rel=1e-14, abs=1e-15)
    assert d1 == pytest.approx(a * np.tanh(a * lam), rel=1e-14, abs=1e-15)
    assert d2 == pytest.approx(a * a / np.cosh(a * lam) ** 2, rel=1e-10, abs=1e-300)


def test_mixture_derivatives_match_finite_differences():
    rng = np.random.default_rng(3)
    classes, w = random_classes(rng, 3), [0.25, 0.5, 0.25]
    lam, h = np.linspace(-3, 3, 13), 1e-5
    value, d1, d2 = ref.mixture_cgf(classes, w, lam)
    up, down = ref.mixture_cgf(classes, w, lam + h), ref.mixture_cgf(classes, w, lam - h)
    assert d1 == pytest.approx((up[0] - down[0]) / (2 * h), rel=1e-7, abs=1e-9)
    assert d2 == pytest.approx((up[1] - down[1]) / (2 * h), rel=1e-7, abs=1e-9)


@pytest.mark.parametrize("x", [-1.5, -0.9, -0.3, 0.0, 0.2, 0.5, 0.99, 1.0, 1.7])
def test_legendre_matches_closed_forms(x):
    for a, closed in ((1.0, ref.rate_unit), (2.0, ref.rate_double)):
        got = ref.legendre([([-a, a], [0.5, 0.5])], [1.0], x)
        want = closed(x)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-14) or got == want == math.inf


def test_closed_forms_are_suprema_over_a_grid():
    lam = np.linspace(-40, 40, 400001)
    for a, closed in ((1.0, ref.rate_unit), (2.0, ref.rate_double)):
        cgf = np.abs(a * lam) + np.log1p(np.exp(-2 * np.abs(a * lam))) - math.log(2)
        for x in (0.1, 0.5, 0.9):
            assert closed(x) == pytest.approx((lam * x - cgf).max(), rel=1e-6)
        assert closed(a) == pytest.approx(math.log(2), rel=1e-15)
        assert closed(0.0) == 0.0 and closed(1.01 * a) == math.inf


def test_legendre_vectorized_matches_scalar_and_solves_mean_equation():
    rng = np.random.default_rng(5)
    classes, w = random_classes(rng, 3), [0.5, 0.25, 0.25]
    lo, hi = ref.reachable(classes, w)
    xs = np.linspace(lo - 0.1, hi + 0.1, 41)
    rates = ref.legendre(classes, w, xs)
    for x, r in zip(xs, rates):
        assert ref.legendre(classes, w, float(x)) == r
    inside = (xs > lo) & (xs < hi)
    lam = ref.solve_tilt(classes, w, xs[inside])
    assert ref.mixture_cgf(classes, w, lam)[1] == pytest.approx(xs[inside], abs=1e-12)
    assert np.all(np.isinf(rates[~inside]))


def test_counts_of_the_assignment_rules_match_expanded_sequences():
    def expand_blocks(a0, growth, order, accelerating, n):
        seq = []
        for j, length in enumerate(ref.block_lengths(a0, growth, accelerating)):
            seq += [order[j % len(order)]] * length
            if len(seq) >= n:
                return seq[:n]

    for n in range(1, 200):
        seq = expand_blocks(1, 3, [0, 1], False, n)
        assert ref.block_counts(1, 3, [0, 1], False, 2, n) == [seq.count(0), seq.count(1)]
        seq = expand_blocks(2, 2, [0, 1, 2], True, n)
        assert ref.block_counts(2, 2, [0, 1, 2], True, 3, n) == [seq.count(c) for c in range(3)]
        cycle = [0, 1, 1, 2]
        seq = [cycle[k % 4] for k in range(n)]
        assert ref.round_robin_counts([1, 2, 1], n) == [seq.count(c) for c in range(3)]
        counts = ref.apportioned_counts([0.375, 0.5, 0.125], n)
        assert sum(counts) == n
        assert all(abs(c - w * n) < 1 for c, w in zip(counts, [0.375, 0.5, 0.125]))
    assert ref.block_ends(1, 10, [0, 1], True, 1, 2_000_000) == [11, 1_001_011]
    assert ref.block_ends(1, 3, [0, 1], False, 1, 300_000) == [4, 40, 364, 3280, 29524, 265720]


def test_threshold_index_is_exact():
    assert ref.threshold_index(1000, "0.37", "1") == 370
    assert ref.threshold_index(1001, "0.37", "1") == 371
    assert ref.threshold_index(3, "0.5", "0.25") == 6
    assert ref.threshold_index(7, "0.1", "0.5") == 2
