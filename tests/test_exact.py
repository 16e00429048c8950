import math

import numpy as np
import pytest
from scipy.special import logsumexp

from lossdev import (
    IncommensurableSupportError,
    LossClass,
    MemoryBudgetError,
    PortfolioModel,
    RoundRobin,
    empirical_cgf,
    enumerate_tail,
    exact_distribution,
    exact_log_tail,
    exact_log_tail_rate,
    exact_tail,
    latticize,
    rate_I1,
)
from lossdev.exact import _direct_log_pmf, _threshold_index
from lossdev.legendre import transform_from_weights

from conftest import DOUBLE, UNIT, random_lattice_model


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


class TestDistributionInvariants:
    def test_mass_conservation(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            model, _ = random_lattice_model(rng)
            n = int(rng.integers(2, 60))
            dist = exact_distribution(model, n)
            assert abs(dist.total_mass() - 1.0) <= 1e-9 * n

    def test_symmetry_of_symmetric_classes(self, rr_mix):
        for n in (3, 10, 25):
            dist = exact_distribution(rr_mix, n)
            m = dist.masses[dist.masses > 0]
            assert np.allclose(m, m[::-1], atol=1e-12)
            for x in (0.3, 0.7, 1.1):
                upper = exact_tail(rr_mix, n, x)
                lower = exact_tail(rr_mix, n, -x, inclusive=False)
                assert upper == pytest.approx(1.0 - lower, abs=1e-12)


class TestChernoffDomination:
    def test_exact_below_chernoff(self):
        rng = np.random.default_rng(3)
        model, _ = random_lattice_model(rng)
        for n in (10, 50):
            weights = model.counts(n) / n
            x_max = float(sum(w * c.max_support for c, w in zip(model.classes, weights)))
            for x in np.linspace(0.05, 0.95, 8) * x_max:
                bound = transform_from_weights(model.classes, weights, float(x)).rate
                assert exact_tail(model, n, float(x)) <= math.exp(-n * bound) * (1 + 1e-9)


SKEW = LossClass("skew", (-1.0, 3.0), (0.75, 0.25))
FOUR = LossClass("four", (-2.0, -1.0, 1.0, 3.0), (0.25, 0.275, 0.325, 0.15))


class TestFftAgainstDirect:
    """The tilted FFT against the direct log-space convolution, to 1e-9
    relative in the log of the smaller of the two tails, at thresholds
    that are fractions of the top of the reachable range; 1 is the top
    edge, which has a closed form."""

    @staticmethod
    def _check(model, n, fractions):
        g = latticize(model)
        direct = _direct_log_pmf(model, n, g)
        top = float(model.counts(n) @ [c.max_support for c in model.classes]) / n
        for x in np.asarray(fractions) * top:
            got = exact_log_tail(model, n, x)
            k = _threshold_index(n * x, g, True) - direct.offset
            upper = float(logsumexp(direct.logp[k:]))
            lower = float(logsumexp(direct.logp[:k]))
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


def test_memory_budget_covers_fft(monkeypatch):
    model = PortfolioModel((FOUR,), weights=(1.0,))
    exact_tail(model, 1000, 0.5)  # the FFT arrays fit the default budget
    monkeypatch.setenv("LOSSDEV_MEMORY_BUDGET", "4096")
    with pytest.raises(MemoryBudgetError):
        exact_tail(model, 1000, 0.5)
