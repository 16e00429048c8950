import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import log_ndtr

from lossdev import (
    AssumptionBounds,
    CltRegimeError,
    MdQuery,
    PortfolioModel,
    RoundRobin,
    md_log_prob_prediction,
    md_threshold,
    variance_sum,
)

from conftest import random_general_model


class TestVarianceSum:
    def test_pure_unit(self, pure_unit):
        assert variance_sum(pure_unit, 123) == pytest.approx(123.0)

    def test_round_robin_mixture(self, rr_mix):
        assert variance_sum(rr_mix, 10) == pytest.approx(5 * 1.0 + 5 * 4.0)

    def test_per_contract_bounds(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            model, bounds = random_general_model(rng)
            n = int(rng.integers(1, 10**4))
            bn = variance_sum(model, n)
            assert bounds.c1 * n - 1e-9 <= bn <= bounds.c0**2 * n + 1e-9


class TestThresholds:
    def test_degenerate_sandwich(self, pure_unit):
        q = MdQuery(c=1.0, alpha=0.3, n=100)
        th = md_threshold(q, pure_unit, AssumptionBounds(1.0, 1.0))
        want = 100 ** (0.3 - 0.5)
        assert th.exact == pytest.approx(want)
        assert th.lower == pytest.approx(want)
        assert th.upper == pytest.approx(want)

    def test_plug_in_arithmetic(self, rr_mix):
        q = MdQuery(c=1.0, alpha=0.3, n=10**4)
        th = md_threshold(q, rr_mix, AssumptionBounds(2.0, 1.0))
        # c * n^(alpha-1) * sqrt(B_n) with B_n = 2.5 * 10^4
        assert th.exact == pytest.approx(10**-2.8 * math.sqrt(2.5e4), rel=1e-12)

    def test_sandwich_on_random_models(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            model, bounds = random_general_model(rng)
            q = MdQuery(c=float(rng.uniform(0.1, 3.0)),
                        alpha=float(rng.uniform(0.01, 0.49)),
                        n=int(rng.integers(1, 10**6)))
            th = md_threshold(q, model, bounds)
            assert th.lower <= th.exact * (1 + 1e-12) + 1e-15
            assert th.exact <= th.upper * (1 + 1e-12) + 1e-15

    @given(alpha=st.floats(0.01, 0.49), c=st.floats(0.1, 5.0),
           n=st.integers(1, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_sandwich_property(self, alpha, c, n):
        from conftest import DOUBLE, UNIT
        mix = PortfolioModel((UNIT, DOUBLE), rule=RoundRobin((1, 1)))
        th = md_threshold(MdQuery(c, alpha, n), mix, AssumptionBounds(2.0, 1.0))
        assert th.lower <= th.exact * (1 + 1e-12)
        assert th.exact <= th.upper * (1 + 1e-12)


class TestPrediction:
    def test_leading_term(self):
        pred = md_log_prob_prediction(MdQuery(1.0, 0.3, 10**4))
        assert pred.leading == pytest.approx(0.5 * 10**2.4, rel=1e-12)

    def test_correction_ratio(self):
        pred = md_log_prob_prediction(MdQuery(1.0, 0.3, 10**4))
        assert pred.correction_scale / pred.leading == pytest.approx(
            2 * 10**-0.8, rel=1e-12)  # n^(3a-1/2) / (c^2 n^(2a) / 2)

    def test_clt_regime_rejected(self):
        with pytest.raises(CltRegimeError):
            md_log_prob_prediction(MdQuery(c=0.5, alpha=0.1, n=10))

    def test_gaussian_tail_matches_leading_term(self):
        q = MdQuery(1.0, 0.3, 10**6)
        ratio = -log_ndtr(-q.y) / md_log_prob_prediction(q).leading
        assert 0.9 <= ratio <= 1.1

