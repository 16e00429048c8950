import json
import math
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import logsumexp

from lossdev import (
    BlockSchedule,
    IncommensurableSupportError,
    LossClass,
    MemoryBudgetError,
    PortfolioModel,
    RoundRobin,
    build_counterexample,
    empirical_cgf,
    enumerate_tail,
    exact_log_tail,
    exact_log_tail_rate,
    exact_tail,
    rate_I1,
    sample_plain,
    sample_tilted,
)
from lossdev.cgf import mixture_cgf, point_tilt
import lossdev.exact as exact_module
from lossdev.exact import (WINDOW_EPS, band_spectrum, fft_length, latticize, lattice_steps,
                           spectrum_band, window_radius, window_sum)
from lossdev.legendre import transform_from_weights
from lossdev.model import Refused, loads_model, reaches

from conftest import (CLAIM_RAW, DEPLETED_WINDOW, DEPLETED_X, DOUBLE, UNIT, life_class,
                      random_lattice_model)
from oracle import direct_log_pmf, irfft_window_sum, loop_band_spectrum


def _centered(name, points, probs):
    """The class of ``points`` shifted by their mean, as a model file's
    ``"center": true`` asks."""
    mean = math.fsum(v * p for v, p in zip(points, probs))
    return LossClass(name, tuple(v - mean for v in points), probs)


def _live(model, n):
    """The classes with contracts among 1..n."""
    return [c for c, nu in zip(model.classes, model.counts(n)) if nu > 0]


class TestLatticize:
    """The step is taken from the gaps v - v_min within the classes."""

    def test_integer_supports(self, rr_mix):
        assert latticize(_live(rr_mix, 2)) == pytest.approx(2.0)

    def test_rational_gcd(self):
        a = LossClass("a", (-0.5, 0.5), (0.5, 0.5))
        b = LossClass("b", (-0.75, 0.75), (0.5, 0.5))
        assert latticize([a, b]) == pytest.approx(0.5)

    def test_irrational_ratio_fails(self):
        a = LossClass("a", (-1.0, 1.0), (0.5, 0.5))
        b = LossClass("b", (-math.sqrt(2), math.sqrt(2)), (0.5, 0.5))
        with pytest.raises(IncommensurableSupportError):
            latticize([a, b])

    # {-1e-10, +1e-10} keeps its step next to {-1, +1}, a wide class
    # coarsens no other class's tolerance, and a class without contracts
    # takes no part; g is the step of the values, and the gaps of {±a}
    # are 2a
    @pytest.mark.parametrize("scale, weights, g", [(1e-10, (0.5, 0.5), 1e-10),
                                                   (1e9, (1.0, 0.0), 1.0),
                                                   (1e9, (0.5, 0.5), 1.0)])
    def test_each_class_on_its_own_scale(self, scale, weights, g):
        other = LossClass("other", (-scale, scale), (0.5, 0.5))
        model = PortfolioModel((UNIT, other), weights=weights)
        assert latticize(_live(model, 10)) == pytest.approx(2 * g)

    def test_a_wide_class_without_contracts_leaves_the_tail(self, pure_unit):
        wide = LossClass("wide", (-1e9, 1e9), (0.5, 0.5))
        model = PortfolioModel((UNIT, wide), weights=(1.0, 0.0))
        assert exact_log_tail(model, 100, 0.05) == exact_log_tail(pure_unit, 100, 0.05)
        # both live, the sum spans 1e9 steps of 2: over the budget
        model = PortfolioModel((UNIT, wide), weights=(0.5, 0.5))
        with pytest.raises(MemoryBudgetError):
            exact_log_tail(model, 2, (1e9 - 1) / 2)

    def test_points_on_one_step_are_refused(self):
        # 1 and 1 + 1e-13 are one multiple of g = 1 within the tolerance
        close = LossClass("close", (-1.0, 1.0, 1.0 + 1e-13), (0.5, 0.25, 0.25))
        model = PortfolioModel((close,), weights=(1.0,))
        with pytest.raises(IncommensurableSupportError, match="one lattice step"):
            exact_log_tail(model, 10, 0.3)


class TestExactTail:
    def test_two_coins(self, pure_unit):
        assert exact_tail(pure_unit, 2, 1.0) == pytest.approx(0.25, abs=1e-14)

    def test_three_mixed_contracts(self, unit_class, double_class):
        model = PortfolioModel((unit_class, double_class), rule=RoundRobin((2, 1)))
        assert exact_tail(model, 3, 1.0) == pytest.approx(0.125, abs=1e-13)

    def test_single_coin(self, pure_unit):
        assert exact_tail(pure_unit, 1, 0.5) == pytest.approx(0.5, abs=1e-15)

    def test_impossible_event(self, pure_unit):
        assert exact_tail(pure_unit, 10, 1.5) == 0.0
        assert exact_log_tail_rate(pure_unit, 10, 1.5) == -math.inf

    def test_certain_event(self, pure_unit):
        assert exact_tail(pure_unit, 5, -1.0) == 1.0

    def test_a_lower_mass_that_underflows_gives_plus_zero(self, pure_unit):
        # P[S_2000 < -1800] = P[at most 99 of 2000 at +1] ~ 5e-433
        got = exact_log_tail(pure_unit, 2000, -0.9)
        assert got == 0.0 and math.copysign(1.0, got) == 1.0

    @pytest.mark.parametrize("n, x, want", [(10, 1e300, -math.inf), (2, 1e308, -math.inf),
                                            (10, -1e300, 0.0), (2, -1e308, 0.0)])
    def test_threshold_far_outside_the_range(self, pure_unit, n, x, want):
        """Decided at the edges, without a walk to the level one lattice
        step at a time; n * x may overflow to infinity."""
        assert exact_log_tail(pure_unit, n, x) == want


class TestLogTailRate:
    def test_approaches_closed_form_rate(self, pure_unit):
        got = exact_log_tail_rate(pure_unit, 2000, 0.5)
        assert abs(got + rate_I1(0.5)) <= 0.01

    def test_single_contract(self, pure_unit):
        assert exact_log_tail_rate(pure_unit, 1, 0.5) == pytest.approx(math.log(0.5))

    def test_deep_tail_stays_representable(self, pure_unit):
        # P ~ exp(-0.1308 * 20000): far below the double-precision floor
        got = exact_log_tail_rate(pure_unit, 20000, 0.5)
        assert -0.14 < got < -0.12


class TestAgainstEnumeration:
    def test_corpus_matches(self):
        rng = np.random.default_rng(7)
        for _ in range(12):
            model, _ = random_lattice_model(rng)
            n = int(rng.integers(1, 7))
            x = float(rng.uniform(-1.0, 1.5))
            got = exact_tail(model, n, x)
            want = enumerate_tail(model, n, x)
            assert got == pytest.approx(want, abs=1e-12)

    def test_strict_inequality_variant(self, pure_unit):
        # P[M_2 > 0] excludes the mass at 0, P[M_2 >= 0] includes it
        assert exact_tail(pure_unit, 2, 0.0, inclusive=False) == pytest.approx(0.25)
        assert exact_tail(pure_unit, 2, 0.0) == pytest.approx(0.75)


THIRDS = PortfolioModel((LossClass("thirds", (-0.3, 0.3), (0.5, 0.5)),), weights=(1.0,))


class TestOneThresholdRule:
    """For n = 3 and x = 0.1, n * x = 0.30000000000000004, while the
    on-grid sum 0.3 + 0.3 - 0.3 rounds to 0.3, below it.  Every estimator
    counts that sum as on the threshold: P[M_3 >= 0.1] = 1/2 and
    P[M_3 > 0.1] = 1/8."""

    def test_the_rounded_sum_is_below_the_rounded_level(self):
        assert 0.3 + 0.3 - 0.3 < 3 * 0.1
        assert reaches(0.3 + 0.3 - 0.3, 3 * 0.1)
        assert not reaches(0.3 + 0.3 - 0.3, 3 * 0.1, inclusive=False)

    @pytest.mark.parametrize("inclusive, want", [(True, 0.5), (False, 0.125)])
    def test_exact_and_enumeration(self, inclusive, want):
        assert enumerate_tail(THIRDS, 3, 0.1, inclusive) == pytest.approx(want, rel=1e-12)
        assert exact_tail(THIRDS, 3, 0.1, inclusive) == pytest.approx(want, rel=1e-12)

    def test_monte_carlo(self):
        est = sample_plain(THIRDS, 3, 0.1, 4000, seed=1)
        assert abs(est.estimate - 0.5) <= 5 * est.std_error

    @pytest.mark.parametrize("inclusive", [True, False])
    def test_oracles_agree_just_off_the_grid(self, inclusive):
        """3e-11 above the grid point is off it for every estimator."""
        x = (0.3 + 3e-11) / 3
        want = enumerate_tail(THIRDS, 3, x, inclusive)
        assert want == 0.125
        assert exact_tail(THIRDS, 3, x, inclusive) == pytest.approx(want, rel=1e-12)


class TestDistributionInvariants:
    """On the law of the sum from the direct oracle."""

    def test_mass_conservation(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            model, _ = random_lattice_model(rng)
            n = int(rng.integers(2, 60))
            *_, logp = direct_log_pmf(model, n)
            assert abs(np.exp(logp).sum() - 1.0) <= 1e-9 * n

    def test_symmetry_of_symmetric_classes(self, rr_mix):
        for n in (3, 10, 25):
            masses = np.exp(direct_log_pmf(rr_mix, n)[-1])
            m = masses[masses > 0]
            assert np.allclose(m, m[::-1], atol=1e-12)
            for x in (0.3, 0.7, 1.1):
                upper = exact_tail(rr_mix, n, x)
                lower = exact_tail(rr_mix, n, -x, inclusive=False)
                assert upper == pytest.approx(1.0 - lower, abs=1e-12)


class TestChernoffDomination:
    @staticmethod
    def _check(model, ns):
        for n in ns:
            weights = model.counts(n) / n
            x_max = float(sum(w * c.max_support for c, w in zip(model.classes, weights)))
            for x in np.linspace(0.05, 0.95, 8) * x_max:
                bound = transform_from_weights(model.classes, weights, float(x)).rate
                # in logs, so that a tail below the smallest double still counts
                assert exact_log_tail(model, n, float(x)) <= -n * bound + 1e-9

    def test_exact_below_chernoff(self):
        model, _ = random_lattice_model(np.random.default_rng(3))
        self._check(model, (10, 50))

    def test_counterexample_below_chernoff(self):
        # the finite-n Chernoff rate bounds the block-scheduled portfolio
        # at every n, not only asymptotically
        self._check(build_counterexample()[0], (100, 1000, 2000))


SKEW = LossClass("skew", (-1.0, 3.0), (0.75, 0.25))
FOUR = LossClass("four", (-2.0, -1.0, 1.0, 3.0), (0.25, 0.275, 0.325, 0.15))


class TestFftAgainstDirect:
    """The tilted FFT against the direct log-space convolution, to 1e-9
    relative in the log of the smaller of the two tails, at thresholds
    that are fractions of the top of the reachable range; 1 is the top
    edge, which has a closed form."""

    @staticmethod
    def _check(model, n, fractions):
        top = float(model.counts(n) @ [c.max_support for c in model.classes]) / n
        TestFftAgainstDirect._check_levels(model, n, np.asarray(fractions) * top)

    @staticmethod
    def _check_levels(model, n, levels, inclusive=True):
        offset, g, logp = direct_log_pmf(model, n)
        points = offset + g * np.arange(len(logp))
        for x in levels:
            got = exact_log_tail(model, n, x, inclusive)
            # the points that reach the level are a suffix of the lattice
            k = len(logp) - int(reaches(points, n * x, inclusive).sum())
            upper = float(logsumexp(logp[k:]))
            lower = float(logsumexp(logp[:k]))
            if upper <= lower:
                assert got == pytest.approx(upper, rel=1e-9)
            else:  # the complement is the informative number
                assert math.log(-math.expm1(got)) == pytest.approx(lower, rel=1e-9)

    def test_random_lattice_models(self):
        rng = np.random.default_rng(23)
        for n in (5, 60, 400, 2000):
            model, _ = random_lattice_model(rng)
            self._check(model, n, (-0.3, -0.02, 0.0, 0.01, 0.2, 0.6, 0.97, 1.0))

    def test_two_point_and_multi_point_classes(self):
        model = PortfolioModel((UNIT, SKEW, FOUR), rule=RoundRobin((2, 1, 1)))
        for n in (7, 300, 1200):
            self._check(model, n, (-0.5, -0.05, 0.0, 0.1, 0.5, 0.9, 1.0))

    def test_three_two_point_classes(self):
        model = PortfolioModel((UNIT, DOUBLE, SKEW), weights=(0.5, 0.25, 0.25))
        for n in (9, 500, 2000):
            self._check(model, n, (-0.3, 0.0, 0.05, 0.4, 0.8, 1.0))

    def test_far_below_the_mean(self):
        # P[S < t] ~ 3.5e-11: summing the upper tail directly, log P[S >= t]
        # would round to 0
        model = PortfolioModel((UNIT, SKEW, FOUR), weights=(0.5, 0.25, 0.25))
        assert -1e-10 < exact_log_tail(model, 300, -0.5) < -1e-11
        self._check(model, 300, (-0.25,))  # x = -0.25 * top = -0.5


def test_memory_budget_override(monkeypatch, pure_unit):
    monkeypatch.setenv("LOSSDEV_MEMORY_BUDGET", "128")
    with pytest.raises(MemoryBudgetError):
        exact_tail(pure_unit, 1000, 0.5)


def test_budget_checked_before_the_first_allocation():
    # a span of 1001 lattice steps at n = 2**53, the largest size, below
    # the mean, where the tilt is too weak to shorten the window sum,
    # gives a transform of about 3.4e8 points (gigabytes): refused, not a
    # numpy MemoryError
    wide = LossClass("w", (-1000.0, 1.0), (1 / 1001, 1000 / 1001))
    model = PortfolioModel((wide,), weights=(1.0,))
    with pytest.raises(MemoryBudgetError):
        exact_log_tail(model, 2**53, -100.0)


def test_memory_budget_covers_fft(monkeypatch):
    model = PortfolioModel((FOUR,), weights=(1.0,))
    exact_tail(model, 1000, 0.5)  # the FFT arrays fit the default budget
    monkeypatch.setenv("LOSSDEV_MEMORY_BUDGET", "4096")
    with pytest.raises(MemoryBudgetError):
        exact_tail(model, 1000, 0.5)


def _window_radius(model, n, x):
    """Half-width r of the documented tail window at the threshold x, in
    sum lattice steps: the smaller of Hoeffding's and Bernstein's radius,
    at the tilt that puts the mean of the sum on the first lattice point
    k to reach n x, from the Legendre solve.  The exact oracle adds the
    |m - k| its own solve stops at, at most 1e-9 k."""
    step = latticize(_live(model, n))
    counts = model.counts(n)
    lowest = float(counts @ [c.min_support for c in model.classes])
    k = int(np.argmax(reaches(lowest + step * np.arange(_lattice_size(model, n)), n * x)))
    lam = transform_from_weights(model.classes, counts / n, (lowest + k * step) / n).lambda_star
    var = n * mixture_cgf(model.classes, counts / n, lam).d2 / step**2
    live = [(c, nu) for c, nu in zip(model.classes, counts) if nu > 0]
    spans = [(c.max_support - c.min_support) / step for c, _ in live]
    log_2_eps = math.log(2.0 / WINDOW_EPS)
    hoeffding = math.sqrt(0.5 * log_2_eps * sum(nu * s**2 for (_, nu), s in zip(live, spans)))
    third = max(spans) * log_2_eps / 3.0
    bernstein = third + math.sqrt(third**2 + 2.0 * var * log_2_eps)
    return math.ceil(min(hoeffding, bernstein))


def _lattice_size(model, n):
    """Points of the sum lattice from the lowest to the highest sum."""
    step = latticize(_live(model, n))
    spans = [round((c.max_support - c.min_support) / step) for c in model.classes]
    return int(model.counts(n) @ spans) + 1


class TestWindowAgainstDirect:
    """Where the window is narrower than the sum lattice, the windowed
    FFT against the direct log-space convolution."""

    def test_span_four_classes(self):
        for model in (PortfolioModel((SKEW,), weights=(1.0,)),
                      PortfolioModel((UNIT, DOUBLE, FOUR), rule=RoundRobin((1, 2, 1)))):
            for n in (200, 900):
                assert 2 * _window_radius(model, n, 0.01) + 1 < _lattice_size(model, n)
                TestFftAgainstDirect._check(
                    model, n, (-0.3, -0.1, -0.01, 0.0, 0.02, 0.15, 0.5, 0.8, 0.99))


SUM_LATTICES = {
    # (model, g * h): the support values lie on multiples of g, and the
    # gaps within the classes on multiples of g * h, the step of the sum
    "offsets -1 and -3, h = 2": (
        PortfolioModel((UNIT, LossClass("m3", (-3.0, 1.0), (0.25, 0.75))),
                       weights=(0.5, 0.5)), 2.0),
    "h = 3": (
        PortfolioModel((LossClass("a", (-1.0, 2.0), (2 / 3, 1 / 3)),
                        LossClass("b", (-2.0, 1.0), (1 / 3, 2 / 3))), weights=(0.5, 0.5)),
        3.0),
    "g = 3, h = 1": (
        PortfolioModel((LossClass("a", (-3.0, 3.0), (0.5, 0.5)),
                        LossClass("b", (-6.0, 3.0), (1 / 3, 2 / 3))), weights=(0.5, 0.5)),
        3.0),
    "one class with gcd 2, h = 1": (
        PortfolioModel((UNIT, LossClass("b", (-2.0, 1.0), (1 / 3, 2 / 3))),
                       rule=RoundRobin((2, 1))), 1.0),
}


class TestSumLattice:
    """The FFT on the sum's own lattice against the direct log-space
    convolution at every lattice point strictly between the edges, and
    halfway between neighbours, where the threshold rounds up to the next
    lattice point."""

    @pytest.mark.parametrize("name", SUM_LATTICES)
    @pytest.mark.parametrize("n", [31, 200])
    def test_every_threshold(self, name, n):
        model, step = SUM_LATTICES[name]
        offset, g, logp = direct_log_pmf(model, n)
        assert g == latticize(_live(model, n)) == step
        # no sum skips a lattice point for good: the steps share no factor
        assert math.gcd(*np.flatnonzero(np.isfinite(logp)).tolist()) == 1
        TestFftAgainstDirect._check_levels(
            model, n, [(offset + k * g) / n for k in np.arange(1, 2 * len(logp) - 2) / 2])


CLAIM_MIX = loads_model((Path(__file__).resolve().parents[1] / "demos"
                         / "claim_mix.json").read_bytes())[0]


@pytest.mark.parametrize(("model", "n", "x"), [
    (CLAIM_MIX, 1000, 0.3), (CLAIM_MIX, 1000, -0.1),
    (random_lattice_model(np.random.default_rng(4), 3)[0], 3000, 0.5),
    (random_lattice_model(np.random.default_rng(4), 3)[0], 3000, -0.5),
], ids=["claim mix above the mean", "claim mix below the mean", "3 classes above",
        "3 classes below"])
def test_memory_charge_covers_the_peak(monkeypatch, model, n, x):
    """The doubles ``spectrum_band`` charges against the budget hold
    tracemalloc's peak inside ``exact_log_tail``, after a first call that
    warms numpy's caches."""
    charged = []

    def charge(n_doubles, what):
        charged.append(n_doubles)

    monkeypatch.setattr(exact_module, "check_budget", charge)
    exact_log_tail(model, n, x)
    tracemalloc.start()
    try:
        exact_log_tail(model, n, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(charged) == 2 and peak <= 8 * charged[-1], (peak / 8, charged)


def test_budget_holds_the_window_on_the_sum_lattice(monkeypatch, rr_mix):
    """{-1, +1} and {-2, +2} sums land on every second point: at n = 1000
    the window counted in those steps fits 50 000 bytes, one counted in
    unit steps would not."""
    offset, g, logp = direct_log_pmf(rr_mix, 1000)
    want = float(logsumexp(logp[round((500 - offset) / g):]))
    monkeypatch.setenv("LOSSDEV_MEMORY_BUDGET", "50000")
    assert exact_log_tail(rr_mix, 1000, 0.5) == pytest.approx(want, rel=1e-9)


UNIT_DOUBLE_SCHEDULES = {
    "growth-10 accelerating": BlockSchedule(1, 10, (0, 1), accelerating=True),
    "growth-3": BlockSchedule(1, 3, (0, 1)),
}
LARGEST_N = 1_100_000


@pytest.fixture(scope="module")
def log_factorials():
    return np.fromiter(map(math.lgamma, range(1, LARGEST_N + 2)), float, LARGEST_N + 1)


def _unit_double_log_tails(n_unit, n_double, levels, log_fact):
    """(log P[S >= t], log P[S < t]) at each t of ``levels``, for S the
    sum of n_unit {-1, +1} and n_double {-2, +2} contracts with mass 1/2
    on each point: a sum over the number b of doubles at +2 of P[b]
    times a binomial tail in the number a of units at +1, as
    S = 2a - n_unit + 4b - 2 n_double."""
    def log_pmf(m):
        k = np.arange(m + 1)
        return log_fact[m] - log_fact[k] - log_fact[m - k] - m * math.log(2.0)

    la, lb = log_pmf(n_unit), log_pmf(n_double)
    log_sf = np.logaddexp.accumulate(la[::-1])[::-1]  # log P[a >= i]
    log_cdf = np.logaddexp.accumulate(la)  # log P[a <= i]
    for t in levels:
        need = -((-(t + n_unit + 2 * n_double - 4 * np.arange(n_double + 1))) // 2)
        upper = np.where(need > n_unit, -np.inf, lb + log_sf[np.clip(need, 0, n_unit)])
        lower = np.where(need < 1, -np.inf, lb + log_cdf[np.clip(need - 1, 0, n_unit)])
        up, low = float(logsumexp(upper)), float(logsumexp(lower))
        # the two add up to 1 up to the rounding of the lgamma table
        total = np.logaddexp(up, low)
        yield t, up - total, low - total


class TestWindowAgainstBinomial:
    """The windowed FFT against the closed-form two-binomial sum on the
    paper's unit/double schedules, to 1e-10 relative in log P: at every
    block end and on a log sweep of n up to 1.1e6; thresholds at
    fractions of the top, one lattice step inside each edge, and below
    the mean, where the tail comes from the lower sum."""

    @pytest.mark.parametrize("name", UNIT_DOUBLE_SCHEDULES)
    def test_unit_double(self, name, log_factorials):
        rule = UNIT_DOUBLE_SCHEDULES[name]
        model = PortfolioModel((UNIT, DOUBLE), rule=rule)
        ends = [e for c in (0, 1) for e in rule.block_ends(c, LARGEST_N)]
        sweep = np.geomspace(100, LARGEST_N, 7).round().astype(int).tolist()
        for n in sorted(set(ends + sweep)):
            n_unit, n_double = (int(v) for v in model.counts(n))
            top = n_unit + 2 * n_double
            sd = math.sqrt(n_unit + 4 * n_double)
            levels = {top - 1, 1 - top, round(-sd), round(-3 * sd)}
            levels |= {round(f * top) for f in (0.05, 0.2, 0.5, 0.8, 0.95)}
            for t, up, low in _unit_double_log_tails(n_unit, n_double, sorted(levels),
                                                      log_factorials):
                got = exact_log_tail(model, n, t / n)
                want = up if up <= low else math.log1p(-math.exp(low))
                assert got == pytest.approx(want, rel=1e-10, abs=1e-300), (n, t)


def test_budget_binds_the_window_not_the_lattice(monkeypatch, pure_unit):
    n = 200_000
    window, size = 2 * _window_radius(pure_unit, n, 0.01) + 1, _lattice_size(pure_unit, n)
    assert 20 * window < size
    # a budget below one double per lattice point still holds the window
    monkeypatch.setenv("LOSSDEV_MEMORY_BUDGET", str(4 * size))
    assert exact_log_tail(pure_unit, n, 0.01) < 0.0
    # a budget below one double per window point does not
    monkeypatch.setenv("LOSSDEV_MEMORY_BUDGET", str(8 * window - 8))
    with pytest.raises(MemoryBudgetError):
        exact_log_tail(pure_unit, n, 0.01)


CLAIMS = LossClass("claims", (-1000.0, 1.0), (1 / 1001, 1000 / 1001))
CLAIM_MIX = PortfolioModel((UNIT, CLAIMS), weights=(0.5, 0.5))


def _log_binomial_pmf(n, k, log_p, log_q):
    import mpmath

    return (mpmath.loggamma(n + 1) - mpmath.loggamma(k + 1) - mpmath.loggamma(n - k + 1)
            + k * log_p + (n - k) * log_q)


def _half_binomial_sf(n, ms):
    """{m: P[a >= m]} in mpmath for a ~ Bin(n, 1/2), at each m of ``ms``
    in 1..n: the terms from the largest m up (from n - m + 1 up, and by
    symmetry, if it is below the mean) until what they leave is below
    1e-40 of their sum, then one pass down to the smallest m."""
    import mpmath

    top = max(ms)
    start = top if 2 * top > n else n - top + 1
    log_half = mpmath.log(mpmath.mpf(0.5))
    term = mpmath.exp(_log_binomial_pmf(n, start, log_half, log_half))
    total, a = mpmath.mpf(0), start
    while True:
        total += term
        ratio = mpmath.mpf(n - a) / (a + 1)  # < 1 above the mean, and falling
        term *= ratio
        a += 1
        if term <= 1e-40 * total * (1 - ratio):  # bounds what the terms leave
            break
    sf = total if start == top else 1 - total
    term = mpmath.exp(_log_binomial_pmf(n, top, log_half, log_half))
    out, wanted = {top: sf}, set(ms)
    for a in range(top - 1, min(ms) - 1, -1):
        term *= mpmath.mpf(a + 1) / (n - a)
        sf += term
        if a in wanted:
            out[a] = sf
    return out


def _claim_mix_log_tail(n_unit, n_claim, t, log_fact):
    """(upper, log P) for S the sum of n_unit UNIT and n_claim CLAIMS
    contracts: log P[S >= t] with upper True if that is the smaller
    tail, else log P[S < t].  With a units at +1 and b claims, S = 2a -
    n_unit + n_claim - 1001 b, a sum over b of P[b] times a binomial
    tail in a.  Float terms from the lgamma table pick the smaller tail
    and the b whose terms lie within e^-50 of the largest (the at most
    n_claim others leave less than 1e-15 of it); those are summed in
    30-digit mpmath."""
    import mpmath

    p_claim, p_premium = CLAIMS.probs
    b = np.arange(n_claim + 1)
    log_pb = (log_fact[n_claim] - log_fact[b] - log_fact[n_claim - b]
              + b * math.log(p_claim) + (n_claim - b) * math.log(p_premium))
    a = np.arange(n_unit + 1)
    log_pa = log_fact[n_unit] - log_fact[a] - log_fact[n_unit - a] - n_unit * math.log(2.0)
    log_sf = np.logaddexp.accumulate(log_pa[::-1])[::-1]  # log P[a >= i]
    need = -((-(t + n_unit - n_claim + 1001 * b)) // 2)  # the fewest units at +1 for S >= t
    # P[a < m] = P[a >= n_unit - m + 1]
    at = {True: need, False: n_unit - need + 1}
    terms = {side: np.where(m > n_unit, -np.inf, log_pb + log_sf[np.clip(m, 0, n_unit)])
             for side, m in at.items()}
    upper = bool(logsumexp(terms[True]) <= logsumexp(terms[False]))
    keep = np.flatnonzero(terms[upper] >= terms[upper].max() - 50.0)
    ms = at[upper][keep].tolist()
    with mpmath.workdps(30):
        inside = [m for m in ms if 1 <= m <= n_unit]
        sf = _half_binomial_sf(n_unit, inside) if inside else {}
        log_p, log_q = mpmath.log(p_claim), mpmath.log(p_premium)
        total = mpmath.mpf(0)
        for bi, m in zip(keep.tolist(), ms):
            tail = 1 if m < 1 else 0 if m > n_unit else sf[m]
            total += mpmath.exp(_log_binomial_pmf(n_claim, bi, log_p, log_q)) * tail
        return upper, float(mpmath.log(total))


class TestClaimMix:
    """A life-insurance class, a premium of 1 with probability 1000/1001
    and a claim of -1000 otherwise, beside the unit class, half the
    contracts each.  Its tilted variance is far below the span^2 / 4
    that Hoeffding's inequality charges, so Bernstein's sizes the
    window."""

    @pytest.mark.parametrize("inclusive", [True, False])
    def test_against_direct(self, inclusive):
        # at n = 300 the window is narrower than the lattice
        assert 2 * _window_radius(CLAIM_MIX, 300, 0.05) + 1 < _lattice_size(CLAIM_MIX, 300)
        for n in (7, 60, 300):
            # on both sides of the mean 0
            TestFftAgainstDirect._check_levels(
                CLAIM_MIX, n, (-3.0, -0.5, -0.1, 0.0, 0.05, 0.3, 0.7, 0.95), inclusive)

    @pytest.mark.parametrize("n, xs", [(10**3, (0.3, -0.1)), (10**5, (0.3, -0.1)),
                                       (10**6, (0.3,))])
    def test_against_binomial_sums(self, n, xs, log_factorials, monkeypatch):
        # at n = 1e6 Hoeffding's window alone takes 54.5 million doubles
        monkeypatch.setenv("LOSSDEV_MEMORY_BUDGET", "64000000")
        n_unit, n_claim = (int(v) for v in CLAIM_MIX.counts(n))
        for x in xs:
            upper, want = _claim_mix_log_tail(n_unit, n_claim, round(n * x), log_factorials)
            got = exact_log_tail(CLAIM_MIX, n, x)
            if not upper:  # the complement is the informative number
                got = math.log(-math.expm1(got))
            assert got == pytest.approx(want, rel=1e-10), (n, x)


PI_LIFE, E_LIFE = life_class(1 / math.pi), life_class(1 / math.e)
OFFSET_MODELS = {
    f"{name} {how}": model
    for name, life in (("1/pi", PI_LIFE), ("1/e", E_LIFE))
    for how, model in (
        ("alone", PortfolioModel((life,), weights=(1.0,))),
        ("beside the unit class", PortfolioModel((UNIT, life), weights=(0.5, 0.5))),
        ("round-robin with claims", PortfolioModel((CLAIMS, life), rule=RoundRobin((1, 1)))))
}


def _lattice(model, n):
    """(offset, g, size): the sum lies on offset + g k, k = 0..size-1."""
    counts = model.counts(n).tolist()
    offset = math.fsum(nu * c.min_support for c, nu in zip(model.classes, counts))
    return offset, latticize(_live(model, n)), _lattice_size(model, n)


class TestOffsetLattice:
    """Centered two-point classes {-q, 1 - q} with irrational q: their
    values share no lattice step, their gaps do, and the sum lies on the
    sum of the class minima plus whole steps."""

    @pytest.mark.parametrize("name", OFFSET_MODELS)
    def test_against_enumeration(self, name):
        """At sums drawn from the contracts' own points, added in floats,
        and half a step to either side of them."""
        model = OFFSET_MODELS[name]
        rng = np.random.default_rng(5)
        for n in (1, 2, 3, 5, 8, 10):
            g = latticize(_live(model, n))
            contracts = [c for c, nu in zip(model.classes, model.counts(n)) for _ in range(nu)]
            for _ in range(6):
                total = sum(float(rng.choice(c.support)) for c in contracts)
                for level in (total - g / 2, total, total + g / 2):
                    for inclusive in (True, False):
                        want = enumerate_tail(model, n, level / n, inclusive)
                        got = exact_tail(model, n, level / n, inclusive)
                        assert got == pytest.approx(want, rel=1e-12), (n, level, inclusive)

    @pytest.mark.parametrize("name", OFFSET_MODELS)
    def test_against_direct(self, name):
        for n in (7, 60, 300):
            # the bottom of {-q, 1 - q} alone is -q / (1 - q) > -0.47 times its top
            TestFftAgainstDirect._check(OFFSET_MODELS[name], n,
                                        (-0.4, -0.05, 0.0, 0.1, 0.5, 0.9, 1.0))

    def test_claim_raw_demo(self):
        model, _ = loads_model(CLAIM_RAW.read_bytes())
        for n in (7, 300):
            TestFftAgainstDirect._check_levels(model, n, (-0.5, -0.1, 0.0, 0.05, 0.3, 0.7))

    @pytest.mark.parametrize("n", [1, 10, 10**4, 10**6, 10**8])
    def test_one_step_inside_each_edge(self, n):
        """With k ~ Bin(n, q) claims the sum is k - n q: P[S >= top - 1] =
        q^n + n q^(n-1) (1 - q) and P[S >= bottom + 1] = 1 - (1 - q)^n."""
        q = 1 / math.pi
        model = PortfolioModel((PI_LIFE,), weights=(1.0,))
        top, bottom = n * (1 - q), -n * q
        top_want = (n - 1) * math.log(q) + math.log(q + n * (1 - q))
        bottom_want = math.log1p(-((1 - q) ** n))
        # each level inclusive, and one step further out strictly: the same events
        for top_level, bottom_level, inclusive in ((top - 1, bottom + 1, True),
                                                   (top - 2, bottom, False)):
            got = exact_log_tail(model, n, top_level / n, inclusive)
            assert got == pytest.approx(top_want, rel=1e-10, abs=1e-15)
            got = exact_log_tail(model, n, bottom_level / n, inclusive)
            assert got == pytest.approx(bottom_want, rel=1e-10, abs=1e-15)

    @pytest.mark.parametrize("n", [1, 9, 31, 1000, 10**5, 3 * 10**7])
    def test_on_grid_thresholds(self, n):
        """The tail at lattice point k, inclusive, is the strict tail at
        point k - 1 and the tail at the threshold halfway between them:
        the walk lands on point k from either side of the grid."""
        model = OFFSET_MODELS["1/pi beside the unit class"]
        offset, g, size = _lattice(model, n)
        ks = {round(f * (size - 1)) for f in (0.2, 0.3, 0.4, 0.45, 0.5, 0.55, 0.6, 0.7, 0.8)}
        ks |= {1, 2, 3, size - 3, size - 2, size - 1}
        for k in sorted(k for k in ks if 1 <= k < size):
            at, below = offset + g * k, offset + g * (k - 1)
            got = exact_log_tail(model, n, at / n)
            assert exact_log_tail(model, n, below / n, inclusive=False) == got, (n, k)
            for inclusive in (True, False):
                assert exact_log_tail(model, n, (at + below) / 2 / n, inclusive) == got, (n, k)


ZERO_FOUR = LossClass("zero_four", (-2.0, 0.0, 1.0, 3.0), (0.3, 0.3, 0.3, 0.1))


class TestTiltSolve:
    """The oracle takes its tilt from the point tilt on the sum's own
    lattice, as the tilted sampler does on its classes' spans."""

    def test_no_cgf_kernel_or_legendre_call(self, monkeypatch, eq_mix):
        calls = []

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").split(".")[0] == "lossdev":
                for name in ("mixture_cgf", "transform_from_weights"):
                    if hasattr(module, name):
                        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        for n, x in ((10, 0.3), (1000, -0.2), (100_000, 0.5)):
            assert exact_log_tail(eq_mix, n, x) < 0.0
            assert sample_tilted(eq_mix, n, x, 10).lam != 0.0
        assert calls == []
        # the counters see the calls there are
        import lossdev.legendre
        lossdev.legendre.legendre_transform(eq_mix, 0.5)
        assert calls[0] == "transform_from_weights" and "mixture_cgf" in calls

    @pytest.mark.parametrize("n", [1, 10, 10**4, 10**6, 10**8])
    def test_one_step_inside_each_edge(self, n):
        """On {-2, 0, 1, 3} no sum lies one step inside either edge, so
        P[S >= 3n - 1] = 0.1^n and P[S >= 1 - 2n] = 1 - 0.3^n; the tilt
        that puts the mean there grows like log n."""
        model = PortfolioModel((ZERO_FOUR,), weights=(1.0,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # each level inclusive, and one step further out strictly: the same events
            for top_x, bottom_x, inclusive in (((3 * n - 1) / n, (1 - 2 * n) / n, True),
                                               ((3 * n - 2) / n, -2.0, False)):
                top = exact_log_tail(model, n, top_x, inclusive)
                bottom = exact_log_tail(model, n, bottom_x, inclusive)
                assert top == pytest.approx(n * math.log(0.1), rel=1e-10)
                assert bottom == pytest.approx(math.log1p(-0.3**n), rel=1e-10)
                assert math.copysign(1.0, bottom) == (1.0 if bottom == 0.0 else -1.0)

    def test_creeping_newton_bisects(self):
        """Steps [0, 5] at (0.9647, 0.0353) once and [0, 1] at (0.999765,
        2.35e-4) three times, on step e, at lattice point 7 of 9.  Near the
        top the tilted laws round and the slope is ten orders too steep:
        Newton crept by 1.8e-9 a step and refused after 200 evaluations,
        until a Newton step longer than half the one before the last
        bisected instead."""
        g = math.e
        a = LossClass("a", (-0.1765 * g, 4.8235 * g), (0.9647, 0.0353))
        b = LossClass("b", (-2.35e-4 * g, 0.999765 * g), (0.999765, 2.35e-4))
        model = PortfolioModel((a, b), weights=(0.25, 0.75))
        assert model.counts(4).tolist() == [1, 3]
        x = (a.min_support + 3 * b.min_support + 6.5 * g) / 4
        assert exact_tail(model, 4, x) == pytest.approx(enumerate_tail(model, 4, x), rel=1e-12)

    def test_refuses_without_convergence(self, monkeypatch, pure_unit):
        monkeypatch.setattr("lossdev.cgf.MAX_ITER", 1)
        with pytest.raises(Refused, match="no tilt"):
            exact_log_tail(pure_unit, 100, 0.5)

    def test_stops_where_the_bracket_closes(self, monkeypatch, eq_mix):
        """With no tolerance met, the tilt stops where its bracket has
        closed to round-off, and the window's |m - k| covers the miss."""
        want = [exact_log_tail(eq_mix, n, x) for n, x in ((10, 0.3), (1000, -0.2), (7, 0.9))]
        monkeypatch.setattr("lossdev.cgf.TILT_TOL", -1.0)
        got = [exact_log_tail(eq_mix, n, x) for n, x in ((10, 0.3), (1000, -0.2), (7, 0.9))]
        assert got == pytest.approx(want, rel=1e-13)

    def test_reference_end_of_almost_no_mass(self):
        """Round-robin (2, 4) of {-0.000156, 0.999844} and a centered
        {0, 3.5} whose top carries 7.07e-32: tilted toward the top,
        1 + excess of the second class is about 1e-15, and formed as
        1 - (1 - 1e-15) it raised ZeroDivisionError."""
        a = LossClass("a", (-0.000156, 0.999844), (0.999844, 1.56e-4))
        b = _centered("b", (0.0, 3.5), (1 - 7.07e-32, 7.07e-32))
        model = PortfolioModel((a, b), rule=RoundRobin((2, 4)))
        want = math.log(enumerate_tail(model, 6, 0.23795))
        assert exact_log_tail(model, 6, 0.23795) == pytest.approx(want, rel=1e-10)

    def test_bottom_of_almost_no_mass(self):
        """{-6e, -2e, 0}, centered, at (1.3e-20, 7.8e-11, 1 - ...) and
        n = 101, at x = -8.2347: tilted toward the bottom, 1 + excess
        cancelled, and every lattice point raised ZeroDivisionError.  The
        tail is 1 but for P[S < k], which is compared."""
        cls = _centered("c", (-6 * math.e, -2 * math.e, 0.0),
                        (1.3e-20, 7.8e-11, 1 - 1.3e-20 - 7.8e-11))
        model = PortfolioModel((cls,), weights=(1.0,))
        offset, g, logp = direct_log_pmf(model, 101)
        logp -= logsumexp(logp)
        for k in range(1, logp.size - 1):
            assert exact_log_tail(model, 101, (offset + g * k) / 101) <= 0.0
        k = math.ceil((101 * -8.2347 - offset) / g)
        got = exact_log_tail(model, 101, -8.2347)
        assert -math.expm1(got) == pytest.approx(math.exp(logsumexp(logp[:k])), rel=1e-10,
                                                 abs=1e-300)

    @pytest.mark.parametrize("k", [380, 392, 393, 394, 400])
    def test_coarsely_rounded_mean(self, k):
        """{-2, 0, 6}, centered, at (0.0375, 0.9625 - 1.62e-10, 1.62e-10)
        and n = 208: near lattice point 393 of 833 the tilted mean jumped
        by 8e-5 steps, coarser than the tolerance, and the tilt refused."""
        cls = _centered("d", (-2.0, 0.0, 6.0), (0.0375, 0.9625 - 1.62e-10, 1.62e-10))
        model = PortfolioModel((cls,), weights=(1.0,))
        offset, g, logp = direct_log_pmf(model, 208)
        assert logp.size == 833
        got = exact_log_tail(model, 208, (offset + g * k) / 208)
        assert got == pytest.approx(logsumexp(logp[k:]), rel=1e-10)

    def test_window_sum_below_round_off_refuses(self):
        """Two classes whose points off the lattice of the rest carry
        masses down to 4e-25: at lattice point 99 of 168 the tilted window
        sum rounds to about -9e-16, and taking its log raised ValueError."""
        model, _ = loads_model(json.dumps(DEPLETED_WINDOW))
        offset, g, logp = direct_log_pmf(model, 71)
        k = math.ceil((71 * DEPLETED_X - offset) / g)
        assert float(logsumexp(logp[k:])) == pytest.approx(-106.728, abs=1e-3)
        with pytest.raises(Refused, match="round-off outweighs"):
            exact_log_tail(model, 71, DEPLETED_X)


def test_no_runtime_warning_at_spectral_zeros(pure_unit, eq_mix):
    # the {-1, +1} class on step 1 has exact spectral zeros at a quarter
    # of any transform length divisible by 4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for model in (pure_unit, eq_mix):
            for n in (100, 1000, 100_000):
                for x in (-0.5, 0.0, 0.3, 0.99):
                    exact_log_tail(model, n, x)


def _tail_parts(model, n, x):
    """The tail helper at one threshold: the tilt theta, the radius r of
    its window, the lattice size, the terms and the transform length it
    gives ``spectrum_band``, the window (length, first, count, decay,
    sign) it gives ``window_sum``, or None where it stops before the
    sum, the sum's value, and the log tail it returns, None where it
    refuses; None for a threshold that an edge or the top's closed form
    settles."""
    seen = {}

    def spy(name, real):
        def call(*args):
            seen[name] = args, real(*args)
            return seen[name][1]
        return call

    with pytest.MonkeyPatch.context() as mp:
        for name, real in (("point_tilt", point_tilt), ("window_radius", window_radius),
                           ("spectrum_band", spectrum_band), ("window_sum", window_sum)):
            mp.setattr(f"lossdev.exact.{name}", spy(name, real))
        try:
            log_p = exact_log_tail(model, n, x)
        except Refused:
            log_p = None
    if "spectrum_band" not in seen:
        return None
    theta, _, _, miss, _ = seen["point_tilt"][1]
    terms, length = seen["spectrum_band"][0]
    args, total = seen.get("window_sum", (None, None))
    return {"theta": theta, "r": math.ceil(seen["window_radius"][1] + miss),
            "size": sum(nu * int(s[-1]) for nu, s, _ in terms) + 1, "terms": terms,
            "length": length, "window": args and args[3:], "sum": total, "log_p": log_p}


def _tilted_calls(model, n, x):
    """What the tail helper hands the spectrum at one threshold: the terms
    and the transform length it gives ``spectrum_band``, and the window
    (length, first, count, decay, sign) it gives ``window_sum``, or None
    where it stops before the sum; None for a threshold that an edge or
    the top's closed form settles."""
    parts = _tail_parts(model, n, x)
    return parts and (parts["terms"], parts["length"], parts["window"])


class TestSpectrumBand:
    """The band against the spectrum at all length // 2 + 1 frequencies:
    every frequency where the whole spectrum does not underflow lies in
    the band, and the band holds the same spectrum there (up to the order
    in which the matrix product sums a class's points)."""

    @staticmethod
    def _check(terms, length):
        band = spectrum_band(terms, length)
        assert band[0] == 0 and band[-1] <= length // 2 and (np.diff(band) > 0).all()
        full = band_spectrum(terms, np.arange(length // 2 + 1), length)
        got = band_spectrum(terms, band, length)
        assert np.isin(full[0], band).all()
        np.testing.assert_array_equal(got[0], full[0])
        np.testing.assert_allclose(got[1], full[1], rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(got[2], full[2], rtol=1e-13, atol=0.0)
        return band.size < length // 2 + 1

    def _check_levels(self, model, n, fractions):
        """The band at thresholds that are fractions of the way from the
        bottom of the reachable range to its top; the number of them
        where the band cuts the spectrum."""
        counts = model.counts(n)
        bottom = float(counts @ [c.min_support for c in model.classes]) / n
        top = float(counts @ [c.max_support for c in model.classes]) / n
        calls = [_tilted_calls(model, n, bottom + f * (top - bottom)) for f in fractions]
        assert calls[0] is not None
        return sum(self._check(*call[:2]) for call in calls if call is not None)

    def test_random_lattice_models(self):
        rng = np.random.default_rng(29)
        cut = 0
        for n in (40, 2000, 10**5, 10**6):
            for _ in range(3):
                model, _ = random_lattice_model(rng)
                cut += self._check_levels(model, n, (0.05, 0.3, 0.5, 0.62, 0.9, 0.99))
        assert cut >= 20  # the larger n cut the spectrum

    @pytest.mark.parametrize("n", [10**3, 10**6])
    def test_two_step_class_alone_and_beside_the_unit_class(self, n):
        """{-2, 2} alone lies on steps of 4 and takes d = 1; beside
        {-1, 1} it takes steps of 2, and its d = 2 leaves frequencies
        live about length / 2 as well as about 0."""
        for model in (PortfolioModel((DOUBLE,), weights=(1.0,)),
                      PortfolioModel((UNIT, DOUBLE), weights=(0.3, 0.7))):
            self._check_levels(model, n, (0.2, 0.5, 0.55, 0.8))

    @pytest.mark.parametrize("n", [10**3, 10**6])
    def test_gaps_two_and_three_only(self, n):
        """{-1, 1} and {-1, 2} on step 1: the strong d are 2 and 3, whose
        intervals sit about multiples of length / 2 and length / 3."""
        model = PortfolioModel((UNIT, LossClass("three", (-1.0, 2.0), (2 / 3, 1 / 3))),
                               weights=(0.5, 0.5))
        self._check_levels(model, n, (0.1, 0.4, 0.5, 0.7, 0.95))

    @pytest.mark.parametrize("n", [300, 10**5])
    def test_masses_down_to_1e_30(self, n):
        tiny = _centered("tiny", (0.0, 1.0, 4.0, 6.0), (1 - 1e-12 - 2e-30, 1e-12, 1e-30, 1e-30))
        model = PortfolioModel((tiny, LossClass("three", (-1.0, 2.0), (2 / 3, 1 / 3))),
                               rule=RoundRobin((3, 1)))
        self._check_levels(model, n, (0.01, 0.25, 0.5, 0.9))

    def test_depleted_window(self):
        model, _ = loads_model(json.dumps(DEPLETED_WINDOW))
        terms, length, window = _tilted_calls(model, 71, DEPLETED_X)
        assert window is not None  # the helper sums, then refuses
        self._check(terms, length)

    def test_a_tilted_law_with_an_exactly_zero_mass(self):
        """Tilted toward the top, the bottom point's mass of 1e-320
        underflows to 0; a class whose whole tilted mass sits on one point
        has every C_d = 0, and its band is the whole spectrum."""
        theta, laws, _, _, _ = point_tilt([((1e-320, 0.5, 0.5), [0, 1, 2], 1000)], 1990, 10)
        assert theta > 0.0 and laws[0][0] == 0.0 < laws[0][1]
        self._check([(1000, np.arange(3), laws[0])], 384)
        point = [(50, np.array([0, 3]), [0.0, 1.0]), (20, np.array([0, 1]), [1.0, 0.0])]
        assert spectrum_band(point, 600).size == 301
        self._check(point, 600)


class TestWindowSumAgainstIrfft:
    """``window_sum`` by Parseval against the inverse FFT and the weighted
    sum it replaced (``tests/oracle.irfft_window_sum``), to 1e-13 relative,
    on tilted spectra of real queries: above the mean (theta > 0, the sum
    runs up from k) and below it (down from k - 1), with the window moved
    by whole lengths, wrapping past 0 and past size - 1, on odd and even
    lengths, on length = size, without decay and with rho^count kept."""

    MODEL = PortfolioModel((UNIT, SKEW, FOUR), rule=RoundRobin((2, 1, 1)))

    @staticmethod
    def _check(terms, length, first, count, decay, sign):
        spectrum = band_spectrum(terms, spectrum_band(terms, length), length)
        want = irfft_window_sum(*spectrum, length, first, count, decay, sign)
        assert want > 1e-2  # the window holds a share of the tilted mass
        got = window_sum(*spectrum, length, first, count, decay, sign)
        assert got == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("x", [-0.9, -0.2, 0.1, 0.8])
    def test_the_query_window_moved_by_whole_lengths(self, x):
        terms, length, (_, first, count, decay, sign) = _tilted_calls(self.MODEL, 300, x)
        assert sign == (1 if x > 0 else -1)
        for shift in (0, -length, 7 * length):
            self._check(terms, length, first + shift, count, decay, sign)

    @pytest.mark.parametrize("x", [-0.9, 0.1, 0.8])
    def test_odd_and_even_lengths(self, x):
        terms, length, (_, first, count, decay, sign) = _tilted_calls(self.MODEL, 300, x)
        for other in (length - 1, length + 1, 2 * count + 1, 2 * count + 2, 3 * count + 7):
            self._check(terms, other, first, count, decay, sign)

    @pytest.mark.parametrize("total", [0.0, 0.1, 20.0])
    def test_no_and_small_decay(self, total):
        """decay * count = ``total``, below 60 log 2, keeps rho^count; on
        a window that ends inside the tilted mass it is e^-20 of the sum
        at 20.  Without decay 1 - rho vanishes at m = 0, where the sum is
        count terms."""
        terms, length, (_, first, count, _, sign) = _tilted_calls(self.MODEL, 300, 0.1)
        for part in (count, count // 8):
            decay = total / part
            self._check(terms, length, first, part, decay, sign)
        self._check(terms, length, first - 1, count, decay, -sign)

    @pytest.mark.parametrize("fraction, sign", [(0.01, -1), (0.99, 1)])
    def test_windows_that_wrap_on_length_size(self, fraction, sign):
        """On length = size the transform holds the whole lattice; a
        window from a threshold next to the bottom, summed down, wraps
        past 0 onto size - 1, and one next to the top, summed up, past
        size - 1 onto 0."""
        model = PortfolioModel((SKEW, FOUR), weights=(0.5, 0.5))
        n = 40
        size = int(model.counts(n) @ [4, 5]) + 1
        top = float(model.counts(n) @ [c.max_support for c in model.classes]) / n
        bottom = float(model.counts(n) @ [c.min_support for c in model.classes]) / n
        terms, _, (_, first, count, decay, got_sign) = _tilted_calls(
            model, n, bottom + fraction * (top - bottom))
        assert got_sign == sign
        reach = 3 * count
        assert not 0 <= first + sign * (reach - 1) < size  # it wraps
        self._check(terms, size, first, reach, decay, sign)
        assert size % 2 == 1
        self._check(terms, size + 1, first, reach, decay, sign)


class TestShortTransform:
    """The transform is r + J + 1 points long, or the lattice's size, J
    the terms the window sum takes: each tail against the direct
    convolution (``tests/oracle.direct_log_pmf``) to 1e-10 relative in
    the log of the smaller of the two tails, and each window sum against
    the same sum over min(r + 1, size - k) or min(r, k) terms on a
    transform of min(size, 2r + 1) points or more, by one inverse FFT
    (``tests/oracle.irfft_window_sum``), to 1e-12 relative."""

    MODEL = PortfolioModel((UNIT, SKEW, FOUR), rule=RoundRobin((2, 1, 1)))

    @staticmethod
    def _full_length_sum(parts):
        """The window sum over the uncapped count on min(size, 2r + 1)
        points rounded up to a 5-smooth length."""
        _, first, _, decay, sign = parts["window"]
        r, size = parts["r"], parts["size"]
        k = first if sign > 0 else first + 1
        length = fft_length(min(size, 2 * r + 1))
        count = min(r + 1, size - k) if sign > 0 else min(r, k)
        spectrum = band_spectrum(parts["terms"], np.arange(length // 2 + 1), length)
        return irfft_window_sum(*spectrum, length, first, count, decay, sign)

    def _check(self, model, n, x):
        parts = _tail_parts(model, n, x)
        offset, g, logp = direct_log_pmf(model, n)
        k = len(logp) - int(reaches(offset + g * np.arange(len(logp)), n * x).sum())
        upper, lower = float(logsumexp(logp[k:])), float(logsumexp(logp[:k]))
        if upper <= lower:
            assert parts["log_p"] == pytest.approx(upper, rel=1e-10)
        else:  # the complement is the informative number
            assert math.log(-math.expm1(parts["log_p"])) == pytest.approx(lower, rel=1e-10)
        _, first, count, _, sign = parts["window"]
        assert first == (k if sign > 0 else k - 1)
        assert parts["length"] == fft_length(min(parts["size"], parts["r"] + count + 1))
        assert parts["sum"] == pytest.approx(self._full_length_sum(parts), rel=1e-12)
        return parts, k

    @staticmethod
    def _at_point(model, n, j):
        """The level of lattice point j of the sum at n."""
        offset, g, _ = direct_log_pmf(model, n)
        return (offset + g * j) / n

    @staticmethod
    def _at_fraction(model, n, fraction):
        counts = model.counts(n)
        bottom = float(counts @ [c.min_support for c in model.classes]) / n
        top = float(counts @ [c.max_support for c in model.classes]) / n
        return bottom + fraction * (top - bottom)

    @pytest.mark.parametrize("n", [40, 300])
    def test_one_step_below_the_top(self, n):
        size = _lattice_size(self.MODEL, n)
        parts, k = self._check(self.MODEL, n, self._at_point(self.MODEL, n, size - 2))
        assert k == size - 2 and parts["theta"] > 0.0 and parts["window"][2] == 2

    def test_terms_cut_by_the_tilt_weight(self):
        """Past log(1 / WINDOW_EPS) / theta terms the tilt weighs less than
        WINDOW_EPS: at theta of about 1.09 per step the sum takes 65 of the
        157 lattice points from the threshold to the top, in a window of
        radius 364."""
        parts, k = self._check(self.MODEL, 600, self._at_fraction(self.MODEL, 600, 0.92))
        count, cap = parts["window"][2], math.ceil(math.log(1.0 / WINDOW_EPS) / parts["theta"]) + 1
        assert parts["theta"] >= 1.0 and count == cap < min(parts["r"] + 1, parts["size"] - k)

    @pytest.mark.parametrize("k", [2, 5])
    def test_lower_branch_clipped_at_zero(self, k):
        parts, got = self._check(self.MODEL, 300, self._at_point(self.MODEL, 300, k))
        assert got == k and parts["window"][4] == -1 and parts["window"][2] == k < parts["r"]

    @pytest.mark.parametrize("n, fraction, where", [
        (128, 0.7, "at"), (170, 0.5, "at"), (128, 0.8, "below"), (177, 0.3, "below"),
        (121, 0.6, "above"), (205, 0.8, "above")])
    def test_next_to_a_smooth_length(self, n, fraction, where):
        """r + J + 1 is 5-smooth, so the transform holds no point to spare,
        or one less, so it holds one, or one more, so it takes the next
        5-smooth length; and the window sum on a transform of exactly
        r + J + 1 points, 5-smooth or not, and of one more."""
        parts, _ = self._check(self.MODEL, n, self._at_fraction(self.MODEL, n, fraction))
        need = parts["r"] + parts["window"][2] + 1
        assert need < parts["size"]
        if where == "above":
            assert fft_length(need - 1) == need - 1 < need < parts["length"]
        else:
            assert parts["length"] == need + (where == "below")
        want = self._full_length_sum(parts)
        for length in (need, need + 1):
            spectrum = band_spectrum(parts["terms"], spectrum_band(parts["terms"], length), length)
            got = window_sum(*spectrum, length, *parts["window"][1:])
            assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("fraction", [0.3, 0.6])
    def test_length_of_the_lattice(self, fraction):
        parts, _ = self._check(self.MODEL, 12, self._at_fraction(self.MODEL, 12, fraction))
        assert parts["r"] + parts["window"][2] + 1 >= parts["size"]
        assert parts["length"] == fft_length(parts["size"])


def _terms(model, n, fraction, about_mean=False):
    """The terms the tail helper takes at lattice point ``fraction`` of
    the way up the sum's lattice: per live class its count, its shifts
    and its tilted law; ``about_mean`` reorders each class about its point
    nearest its tilted mean, shifts below it negative, as ``mc._sum_law``
    takes them."""
    live = [(c, int(nu)) for c, nu in zip(model.classes, model.counts(n)) if nu > 0]
    _, steps = lattice_steps([c for c, _ in live])
    size = sum(nu * int(s[-1]) for (_, nu), s in zip(live, steps)) + 1
    k = max(1, min(size - 2, round(fraction * (size - 1))))
    _, laws, _, _, _ = point_tilt([(c.probs, s.tolist(), nu) for (c, nu), s in zip(live, steps)],
                                  k, size - 1 - k)
    terms = []
    for (_, nu), s, law in zip(live, steps, laws):
        if about_mean:
            ref = int(np.argmin(np.abs(s - np.dot(law, s))))
            order = [ref, *range(ref), *range(ref + 1, s.size)]
            s, law = s[order] - s[ref], [law[j] for j in order]
        terms.append((nu, s, law))
    return terms


class TestBandSpectrumAgainstLoop:
    """``band_spectrum`` takes every class in one pass; against the loop
    over classes it replaced (``tests/oracle.loop_band_spectrum``) on the
    whole spectrum, to 1e-13 relative, and the phase, a sum of nu_c arg
    z_c, up to whole turns, to 1e-13 of the larger of its size and sum_c
    nu_c / |z_c|."""

    @staticmethod
    def _check(terms, length):
        freq = np.arange(length // 2 + 1)
        want = loop_band_spectrum(terms, freq, length)
        got = band_spectrum(terms, freq, length)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_allclose(got[1], want[1], rtol=1e-13, atol=0.0)
        # the round-off of arg z_c grows as 1 / |z_c| near a spectral zero
        omega = 2.0 * np.pi * got[0] / length
        scale = sum(nu / np.abs(np.exp(-1j * np.multiply.outer(omega, shift)) @ law)
                    for nu, shift, law in terms)
        # phases whole turns apart give one spectrum: where a symmetric
        # class has z_c < 0 its arg is pi, and the loop's round-off of Im
        # z_c picks the sign
        turns = np.round((got[2] - want[2]) / (2.0 * np.pi))
        err = np.abs(got[2] - 2.0 * np.pi * turns - want[2])
        assert (err <= 1e-13 * np.maximum(np.abs(want[2]), scale)).all()

    @pytest.mark.parametrize("about_mean", [False, True])
    def test_random_lattice_models(self, about_mean):
        """1-4 classes {-a g, 0, a g}, a in 1..4: classes with one a share
        their shifts, a = 1 and 2 share shift 2, and a = 3 beside a = 4
        share none."""
        rng = np.random.default_rng(31)
        classes = set()
        for _ in range(12):
            model, _ = random_lattice_model(rng, max_classes=4)
            classes.add(len(model.classes))
            for n, length in ((7, 97), (60, 600), (400, 1601)):
                for fraction in (0.1, 0.5, 0.8):
                    self._check(_terms(model, n, fraction, about_mean), length)
        assert classes == {1, 2, 3, 4}

    @pytest.mark.parametrize("length", [96, 385, 1600])
    def test_disjoint_and_negative_shifts(self, length):
        skew_model = PortfolioModel((UNIT, SKEW, FOUR, ZERO_FOUR), rule=RoundRobin((2, 1, 1, 1)))
        for fraction in (0.05, 0.4, 0.9):
            self._check(_terms(skew_model, 50, fraction), length)
            self._check(_terms(skew_model, 50, fraction, about_mean=True), length)
        self._check([(30, np.array([0, 3]), [0.4, 0.6]), (20, np.array([0, 1, 2]), [0.2, 0.5, 0.3]),
                     (10, np.array([0, -1, 1, 4]), [0.5, 0.2, 0.2, 0.1])], length)

    def test_masses_down_to_1e_30_and_exactly_0(self):
        terms = [(40, np.array([0, 1, 4, 6]), [1 - 1e-12 - 1e-30, 1e-12, 1e-30, 0.0]),
                 (3, np.array([0, -2, 5]), [1 - 1e-30, 1e-30, 0.0]),
                 (1000, np.arange(3), [0.0, 0.5, 0.5])]
        for length in (61, 384, 1000):
            self._check(terms, length)

    def test_near_zero_fallback(self):
        """{0, 1} at (0.5, 0.5) has |z|^2 = cos^2(omega / 2), below 0.25
        over a third of the spectrum and 0 at omega = pi on even lengths,
        where log|z|^2 is taken from |z| itself."""
        terms = [(7, np.array([0, 1]), [0.5, 0.5]), (2, np.array([0, 2, 3]), [0.3, 0.3, 0.4])]
        for length in (64, 99, 1000):
            freq = np.arange(length // 2 + 1)
            assert (np.cos(np.pi * freq / length) ** 2 < 0.24).sum() > length // 8
            self._check(terms, length)


ZERO_FOUR_MODEL = PortfolioModel((ZERO_FOUR,), weights=(1.0,))


class TestCostFlatInN:
    """Counts, not clocks: on {-2, 0, 1, 3} the spectrum is evaluated at
    fewer than 2048 frequencies at n = 1e4, 1e6 and 1e8, where the whole
    spectrum holds up to 100 001 at 1e8; and the claim mix at n = 1e8
    allocates under 1 MB, where the whole window took 216 MB."""

    def test_frequencies_evaluated(self, monkeypatch):
        sizes = []
        real = band_spectrum

        def spy(terms, freq, length):
            sizes.append((freq.size, length // 2 + 1))
            return real(terms, freq, length)

        monkeypatch.setattr("lossdev.exact.band_spectrum", spy)
        for n in (10**4, 10**6, 10**8):
            for x in (-1.5, -0.2, 0.01, 0.37, 1.5, 2.9):
                assert exact_log_tail(ZERO_FOUR_MODEL, n, x) <= 0.0
        assert len(sizes) == 18
        assert max(band for band, _ in sizes) < 2048
        assert max(whole for _, whole in sizes) > 90_000

    @pytest.mark.parametrize("case", ["gaps_two_and_three", "claim_mix", "zero_four"])
    def test_band_is_the_live_set(self, case):
        """The band keeps the frequencies the sine bound leaves live: at
        most 5% more than those where the spectrum does not underflow."""
        gaps = PortfolioModel((UNIT, LossClass("three", (-1.0, 2.0), (2 / 3, 1 / 3))),
                              weights=(0.5, 0.5))
        queries = {"gaps_two_and_three": [(gaps, 10**6, x) for x in (-0.5, 0.1, 0.8)],
                   "claim_mix": [(CLAIM_MIX, 10**8, x) for x in (0.1, 0.3, 0.6)],
                   "zero_four": [(ZERO_FOUR_MODEL, n, x) for n in (10**6, 10**8)
                                 for x in (-1.5, 0.01, 0.37, 2.9)]}[case]
        for model, n, x in queries:
            terms, length, _ = _tilted_calls(model, n, x)
            band = spectrum_band(terms, length)
            live = band_spectrum(terms, band, length)[0]
            assert band.size <= 1.05 * live.size

    def test_claim_mix_peak_memory(self):
        exact_log_tail(CLAIM_MIX, 10**8, 0.3)
        tracemalloc.start()
        try:
            log_p = exact_log_tail(CLAIM_MIX, 10**8, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert math.isfinite(log_p) and log_p < -1e4
        assert peak < 1_000_000
