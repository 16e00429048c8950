import math

import numpy as np
import pytest

from lossdev import (
    AssumptionBounds,
    LossClass,
    PortfolioModel,
    RoundRobin,
    TiltingRangeError,
    exact_log_tail,
    exact_tail,
    sample_plain,
    sample_tilted,
)
from lossdev.cgf import tilted_laws
from lossdev.model import check_assumptions

from conftest import UNIT


def tilted_row(cls, lam):
    """The kernel's tilted probabilities of one class, on its support."""
    return tilted_laws((cls,), lam)[1][0, :len(cls.support)]


class TestTiltedClass:
    def test_tilt_probability(self, unit_class):
        t = tilted_row(unit_class, 1.0)
        p_up = math.e / (math.e + math.exp(-1.0))
        assert dict(zip(unit_class.support, t))[1.0] == pytest.approx(p_up, rel=1e-13)

    def test_zero_tilt_identity(self, double_class):
        t = tilted_row(double_class, 0.0)
        assert t.tolist() == pytest.approx(double_class.probs)

    def test_tilted_mean(self, unit_class):
        t = tilted_row(unit_class, 1.0)
        assert t @ unit_class.support == pytest.approx(math.tanh(1.0), rel=1e-13)

    def test_support_unchanged(self, double_class):
        """One probability per support point, kept in place even where
        the tilted mass underflows to 0."""
        t = tilted_row(double_class, -2.3)
        assert t.shape == (2,) and t.sum() == pytest.approx(1.0, rel=1e-15)
        assert tilted_row(WIDE_CLASSES["two-point"], 1.0).tolist() == [0.0, 1.0]


class TestSamplePlain:
    def test_bernoulli_half(self, pure_unit):
        est = sample_plain(pure_unit, 1, 0.5, 10**6, seed=1)
        assert abs(est.estimate - 0.5) <= 3 * 0.0005 + 1e-4

    def test_impossible_event_is_exact_zero(self, pure_unit):
        est = sample_plain(pure_unit, 5, 1.5, 10**4, seed=2)
        assert est.estimate == 0.0
        assert est.std_error == 0.0

    def test_two_coins(self, pure_unit):
        est = sample_plain(pure_unit, 2, 1.0, 10**6, seed=3)
        assert abs(est.estimate - 0.25) <= 3 * 0.00043 + 1e-4


class TestSampleTilted:
    def test_matches_exact_oracle(self, pure_unit):
        exact = exact_tail(pure_unit, 100, 0.5)
        est = sample_tilted(pure_unit, 100, 0.5, 10**5, seed=4)
        assert abs(est.estimate - exact) <= 3 * est.std_error

    def test_zero_tilt_reduces_to_plain(self, pure_unit):
        tilted = sample_tilted(pure_unit, 10, 0.0, 10**4, seed=5)
        plain = sample_plain(pure_unit, 10, 0.0, 10**4, seed=5)
        assert tilted.lam == pytest.approx(0.0, abs=1e-12)
        # zero tilt leaves the law unchanged, so the two estimators agree
        # statistically (up to fp jitter in the tilted probabilities)
        assert abs(tilted.estimate - plain.estimate) <= 5 * plain.std_error

    def test_variance_reduction(self, pure_unit):
        tilted = sample_tilted(pure_unit, 100, 0.5, 10**5, seed=6)
        plain = sample_plain(pure_unit, 100, 0.5, 10**5, seed=6)
        rel_tilted = tilted.std_error / tilted.estimate
        rel_plain = (plain.std_error / plain.estimate
                     if plain.estimate > 0 else math.inf)
        assert rel_tilted * 10 <= rel_plain

    def test_boundary_rejected(self, pure_unit):
        with pytest.raises(TiltingRangeError):
            sample_tilted(pure_unit, 10, 1.0, 100)
        with pytest.raises(TiltingRangeError):
            sample_tilted(pure_unit, 10, 1.5, 100)

    def test_heterogeneous_unbiasedness(self, unit_class, double_class):
        model = PortfolioModel((unit_class, double_class), rule=RoundRobin((1, 1)))
        exact = exact_tail(model, 60, 0.5)
        misses = 0
        for seed in range(10):
            est = sample_tilted(model, 60, 0.5, 2 * 10**4, seed=seed)
            if abs(est.estimate - exact) > 4 * est.std_error:
                misses += 1
        assert misses <= 1


class TestDeterminism:
    def test_bit_identical_repeats(self, pure_unit):
        a = sample_tilted(pure_unit, 50, 0.4, 10**4, seed=99)
        b = sample_tilted(pure_unit, 50, 0.4, 10**4, seed=99)
        assert a == b

    def test_seeds_differ(self, pure_unit):
        a = sample_plain(pure_unit, 50, 0.1, 10**4, seed=1)
        b = sample_plain(pure_unit, 50, 0.1, 10**4, seed=2)
        assert a.estimate != b.estimate


def test_likelihood_weight_identity(unit_class):
    # on a single contract the weight must equal p(v) / p_tilted(v) exactly
    lam = 0.7
    t = tilted_row(unit_class, lam)
    logphi = math.log(math.cosh(lam))
    for v, p, q in zip(unit_class.support, unit_class.probs, t):
        weight = math.exp(-lam * v + logphi)
        assert weight == pytest.approx(p / q, rel=1e-12)


WIDE_CLASSES = {
    "two-point": LossClass("a", (-1000.0, 1.0), (1 / 1001, 1000 / 1001)),
    "three-point": LossClass("a", (-1000.0, 0.0, 1.0), (1 / 2002, 0.5, 1000 / 2002)),
}


@pytest.mark.parametrize("name", WIDE_CLASSES)
def test_tilted_mass_underflow(name):
    """Half unit, half a wide class whose -1000 point has tilted mass
    exp(-1000 lam*) / phi, which underflows to 0: the sampler draws with
    that point at probability 0 and stays unbiased."""
    model = PortfolioModel((UNIT, WIDE_CLASSES[name]), weights=(0.5, 0.5))
    check_assumptions(model, AssumptionBounds(1000.0, 1.0))
    est = sample_tilted(model, 200, 0.85, 1000, seed=1)
    exact = math.exp(exact_log_tail(model, 200, 0.85))
    assert math.isfinite(est.estimate) and est.std_error > 0.0
    assert abs(est.estimate - exact) <= 5 * est.std_error
