import math

import pytest

from lossdev import (
    build_counterexample,
    check_assumptions,
    enumerate_tail,
    exact_tail,
    rate_I1,
    rate_I2,
    subsequence_rates,
)
from lossdev.counterexample import DOUBLE, UNIT, schedule_depth_end
from lossdev.model import BlockSchedule, PortfolioModel


class TestBuild:
    def test_classes_satisfy_assumptions(self):
        model, bounds = build_counterexample()
        assert bounds.c0 == 2.0 and bounds.c1 == 1.0
        check_assumptions(model, bounds)

    def test_accelerating_block_layout(self):
        model, _ = build_counterexample(growth=2, depth=3)
        rule = model.rule
        # lengths 1, 2, 8: blocks [1], [2,3], [4..11]
        assert rule.blocks_upto(11) == [(1, 1, 0), (2, 3, 1), (4, 11, 0)]

    def test_density_extremes(self):
        model, _ = build_counterexample(growth=10, depth=6)
        from lossdev import density_profile
        prof = density_profile(model.rule, 10**5)
        assert prof.running_min < 0.15
        assert prof.running_max > 0.85

    def test_depth_end(self):
        model, _ = build_counterexample(growth=10)
        assert schedule_depth_end(model.rule, 3) == 1011

    def test_depth_end_stops_at_the_cap(self):
        # 2**53 blocks are never summed: the third already passes the cap
        model, _ = build_counterexample(growth=10)
        assert schedule_depth_end(model.rule, 2**53, cap=100) == 100
        assert schedule_depth_end(model.rule, 3, cap=5000) == 1011


class TestSubsequenceRates:
    def test_unit_block_ends_converge_to_I1(self):
        model, _ = build_counterexample()
        rep = subsequence_rates(model, 0.5, which=1, max_n=2000)
        assert [p.n for p in rep.points] == [1, 1011] and not rep.partial
        assert rep.target == pytest.approx(-rate_I1(0.5))
        assert rep.gap <= 0.02
        # the lower side of the sandwich, up to a log(n)/n prefactor allowance
        for p in rep.points:
            assert p.log_rate >= rep.target - 5 * math.log(max(p.n, 2)) / p.n

    def test_double_block_ends_structure(self):
        model, _ = build_counterexample()
        rep = subsequence_rates(model, 0.5, which=2, max_n=2000)
        assert [p.n for p in rep.points] == [11]
        assert rep.target == pytest.approx(-rate_I2(0.5))

    def test_infinite_target_above_unit_support(self):
        model, _ = build_counterexample()
        rep = subsequence_rates(model, 1.5, which=1, max_n=2000)
        assert rep.target == -math.inf
        # at unit-block ends the double class is too sparse to reach 1.5,
        # so the event is impossible and the rate marker is -inf
        assert rep.points[-1].log_rate == -math.inf

    def test_rejects_weighted_models(self, eq_mix):
        with pytest.raises(ValueError):
            subsequence_rates(eq_mix, 0.5, 1)

    def test_memory_budget_truncates_the_report(self, monkeypatch):
        # the n = 1 window fits in 1000 bytes, the n = 1011 one does not
        monkeypatch.setenv("LOSSDEV_MEMORY_BUDGET", "1000")
        model, _ = build_counterexample()
        rep = subsequence_rates(model, 0.5, which=1, max_n=2000)
        assert [p.n for p in rep.points] == [1] and rep.partial

    def test_block_end_past_2_53_truncates_the_report(self):
        # unit blocks end at 1 and 1 + 2**40 + 2**120
        rule = BlockSchedule(a0=1, growth=2**40, order=(0, 1), accelerating=True)
        model = PortfolioModel((UNIT, DOUBLE), rule=rule)
        rep = subsequence_rates(model, 0.5, which=1, max_n=2**121)
        assert [p.n for p in rep.points] == [1] and rep.partial


class TestSandwich:
    def test_product_lower_bound_small_n(self):
        model, _ = build_counterexample()
        # the mean over each class's contracts alone is a one-class portfolio
        unit, double = (PortfolioModel((c,), weights=(1.0,)) for c in model.classes)
        for n in (3, 5, 8, 11):
            full = exact_tail(model, n, 0.5)
            nu1, nu2 = map(int, model.counts(n))
            prod = (exact_tail(unit, nu1, 0.5, inclusive=False)
                    * exact_tail(double, nu2, 0.5, inclusive=False) if nu2 > 0 else 0.0)
            enum = enumerate_tail(model, n, 0.5, limit=11)
            assert full == pytest.approx(enum, abs=1e-12)
            assert full >= prod - 1e-12


class TestSectionMeans:
    def test_section_convergence_to_I1(self):
        model, _ = build_counterexample()
        n = 1003500  # inside the third unit block, nu_1 = 3490
        nu1 = int(model.counts(n)[0])
        assert nu1 >= 2000
        unit = PortfolioModel((model.classes[0],), weights=(1.0,))
        rate = math.log(exact_tail(unit, nu1, 0.5, inclusive=False)) / nu1
        assert abs(rate + rate_I1(0.5)) <= 0.02


def test_tail_at_one_positive_for_all_n():
    # the all-maxima outcome keeps P[M_n >= 1] strictly positive
    model, _ = build_counterexample()
    for n in (1, 2, 3, 7, 11, 50, 111, 500, 1011, 2000):
        assert exact_tail(model, n, 1.0) > 0.0
