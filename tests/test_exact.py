import math
import warnings

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
    latticize,
    rate_I1,
    sample_plain,
)
from lossdev.exact import WINDOW_EPS
from lossdev.legendre import transform_from_weights
from lossdev.model import reaches

from conftest import DOUBLE, UNIT, random_lattice_model
from oracle import direct_log_pmf


class TestLatticize:
    def test_integer_supports(self, rr_mix):
        assert latticize(rr_mix) == pytest.approx(1.0)

    def test_rational_gcd(self):
        a = LossClass("a", (-0.5, 0.5), (0.5, 0.5))
        b = LossClass("b", (-0.75, 0.75), (0.5, 0.5))
        model = PortfolioModel((a, b), weights=(0.5, 0.5))
        assert latticize(model) == pytest.approx(0.25)

    def test_irrational_ratio_fails(self):
        a = LossClass("a", (-1.0, 1.0), (0.5, 0.5))
        b = LossClass("b", (-math.sqrt(2), math.sqrt(2)), (0.5, 0.5))
        model = PortfolioModel((a, b), weights=(0.5, 0.5))
        with pytest.raises(IncommensurableSupportError):
            latticize(model)

    # {-1e-10, +1e-10} is no 0 next to {-1, +1}, and a wide class, live
    # or not, coarsens no other class's tolerance
    @pytest.mark.parametrize("scale, weights, g", [(1e-10, (0.5, 0.5), 1e-10),
                                                   (1e9, (1.0, 0.0), 1.0),
                                                   (1e9, (0.5, 0.5), 1.0)])
    def test_each_class_on_its_own_scale(self, scale, weights, g):
        other = LossClass("other", (-scale, scale), (0.5, 0.5))
        model = PortfolioModel((UNIT, other), weights=weights)
        assert latticize(model) == pytest.approx(g)

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
            _, logp = direct_log_pmf(model, n)
            assert abs(np.exp(logp).sum() - 1.0) <= 1e-9 * n

    def test_symmetry_of_symmetric_classes(self, rr_mix):
        for n in (3, 10, 25):
            masses = np.exp(direct_log_pmf(rr_mix, n)[1])
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
    def _check_levels(model, n, levels):
        g = latticize(model)
        offset, logp = direct_log_pmf(model, n)
        points = (offset + np.arange(len(logp))) * g
        for x in levels:
            got = exact_log_tail(model, n, x)
            # the points that reach the level are a suffix of the lattice
            k = len(logp) - int(reaches(points, n * x).sum())
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
    # a span of 1001 lattice steps at n = 2**53, the largest size, gives
    # a window of about 1e12 points (terabytes): refused, not a numpy
    # MemoryError
    wide = LossClass("w", (-1000.0, 1.0), (1 / 1001, 1000 / 1001))
    model = PortfolioModel((wide,), weights=(1.0,))
    with pytest.raises(MemoryBudgetError):
        exact_log_tail(model, 2**53, 0.5)


def test_memory_budget_covers_fft(monkeypatch):
    model = PortfolioModel((FOUR,), weights=(1.0,))
    exact_tail(model, 1000, 0.5)  # the FFT arrays fit the default budget
    monkeypatch.setenv("LOSSDEV_MEMORY_BUDGET", "4096")
    with pytest.raises(MemoryBudgetError):
        exact_tail(model, 1000, 0.5)


def _sum_lattice_step(model, n):
    """The step of the sum's own lattice: latticize's step g times the
    gcd of every point's distance, in steps of g, from its class's
    minimum, over the classes with contracts among 1..n."""
    g = latticize(model)
    live = [c for c, nu in zip(model.classes, model.counts(n)) if nu > 0]
    return g * math.gcd(*(round((v - c.min_support) / g) for c in live for v in c.support))


def _window_radius(model, n):
    """Half-width r of the documented tail window, in sum lattice steps."""
    step = _sum_lattice_step(model, n)
    spread = sum(nu * ((c.max_support - c.min_support) / step) ** 2
                 for c, nu in zip(model.classes, model.counts(n)))
    return math.ceil(math.sqrt(0.5 * spread * math.log(2.0 / WINDOW_EPS)))


def _lattice_size(model, n):
    """Points of the sum lattice from the lowest to the highest sum."""
    step = _sum_lattice_step(model, n)
    spans = [round((c.max_support - c.min_support) / step) for c in model.classes]
    return int(model.counts(n) @ spans) + 1


class TestWindowAgainstDirect:
    """Where the window is narrower than the sum lattice, the windowed
    FFT against the direct log-space convolution."""

    def test_span_four_classes(self):
        for model in (PortfolioModel((SKEW,), weights=(1.0,)),
                      PortfolioModel((UNIT, DOUBLE, FOUR), rule=RoundRobin((1, 2, 1)))):
            for n in (200, 900):
                assert 2 * _window_radius(model, n) + 1 < _lattice_size(model, n)
                TestFftAgainstDirect._check(
                    model, n, (-0.3, -0.1, -0.01, 0.0, 0.02, 0.15, 0.5, 0.8, 0.99))


SUM_LATTICES = {
    # (model, g, h): the sum lies on its lowest value plus multiples of g * h
    "offsets -1 and -3, h = 2": (
        PortfolioModel((UNIT, LossClass("m3", (-3.0, 1.0), (0.25, 0.75))),
                       weights=(0.5, 0.5)), 1.0, 2),
    "h = 3": (
        PortfolioModel((LossClass("a", (-1.0, 2.0), (2 / 3, 1 / 3)),
                        LossClass("b", (-2.0, 1.0), (1 / 3, 2 / 3))), weights=(0.5, 0.5)),
        1.0, 3),
    "g = 3, h = 1": (
        PortfolioModel((LossClass("a", (-3.0, 3.0), (0.5, 0.5)),
                        LossClass("b", (-6.0, 3.0), (1 / 3, 2 / 3))), weights=(0.5, 0.5)),
        3.0, 1),
    "one class with gcd 2, h = 1": (
        PortfolioModel((UNIT, LossClass("b", (-2.0, 1.0), (1 / 3, 2 / 3))),
                       rule=RoundRobin((2, 1))), 1.0, 1),
}


class TestSumLattice:
    """The FFT on the sum's own lattice against the direct log-space
    convolution at every threshold index strictly between the edges,
    on the lattice of the support values: on the sum lattice and off it,
    where the threshold rounds up to the next sum lattice point."""

    @pytest.mark.parametrize("name", SUM_LATTICES)
    @pytest.mark.parametrize("n", [31, 200])
    def test_every_threshold(self, name, n):
        model, g, h = SUM_LATTICES[name]
        offset, logp = direct_log_pmf(model, n)
        assert latticize(model) == g
        assert math.gcd(*np.flatnonzero(np.isfinite(logp)).tolist()) == h
        assert _sum_lattice_step(model, n) == g * h
        TestFftAgainstDirect._check_levels(
            model, n, [(offset + k) * g / n for k in range(1, len(logp) - 1)])


def test_budget_holds_the_window_on_the_sum_lattice(monkeypatch, rr_mix):
    """{-1, +1} and {-2, +2} sums land on every second point: at n = 1000
    the window counted in those steps fits 50 000 bytes, one counted in
    unit steps would not."""
    offset, logp = direct_log_pmf(rr_mix, 1000)
    want = float(logsumexp(logp[500 - offset:]))
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
    window, size = 2 * _window_radius(pure_unit, n) + 1, _lattice_size(pure_unit, n)
    assert 20 * window < size
    # a budget below one double per lattice point still holds the window
    monkeypatch.setenv("LOSSDEV_MEMORY_BUDGET", str(4 * size))
    assert exact_log_tail(pure_unit, n, 0.01) < 0.0
    # a budget below one double per window point does not
    monkeypatch.setenv("LOSSDEV_MEMORY_BUDGET", str(8 * window - 8))
    with pytest.raises(MemoryBudgetError):
        exact_log_tail(pure_unit, n, 0.01)


def test_no_runtime_warning_at_spectral_zeros(pure_unit, eq_mix):
    # the {-1, +1} class on step 1 has exact spectral zeros at a quarter
    # of any transform length divisible by 4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for model in (pure_unit, eq_mix):
            for n in (100, 1000, 100_000):
                for x in (-0.5, 0.0, 0.3, 0.99):
                    exact_log_tail(model, n, x)
