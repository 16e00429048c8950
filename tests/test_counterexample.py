import math

import pytest

from lossdev import (
    build_counterexample,
    check_assumptions,
    enumerate_tail,
    exact_tail,
    rate_I1,
    rate_I2,
    sandwich_check,
    section_mean_tail,
    subsequence_rates,
)
from lossdev.counterexample import schedule_depth_end
from lossdev.model import BlockSchedule


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
        assert [p.n for p in rep.points] == [1, 1011]
        assert rep.target == pytest.approx(-rate_I1(0.5))
        assert rep.gap <= 0.02

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


class TestSandwich:
    def test_bounds_hold(self):
        model, _ = build_counterexample()
        points = sandwich_check(model, 0.5, [100, 1000, 2000])
        for p in points:
            assert p.upper_ok
            assert p.lower_ok

    def test_product_lower_bound_small_n(self):
        model, _ = build_counterexample()
        for n in (3, 5, 8, 11):
            full = exact_tail(model, n, 0.5)
            prod = (section_mean_tail(model, n, 1, 0.5)
                    * section_mean_tail(model, n, 2, 0.5)
                    if model.counts(n)[1] > 0 else 0.0)
            enum = enumerate_tail(model, n, 0.5, limit=11)
            assert full == pytest.approx(enum, abs=1e-12)
            assert full >= prod - 1e-12

    def test_rejects_x_outside_unit_range(self):
        model, _ = build_counterexample()
        with pytest.raises(ValueError):
            sandwich_check(model, 1.2, [10])


class TestSectionMeans:
    def test_two_unit_contracts(self):
        model, _ = build_counterexample(a0=2)
        # first block: two unit contracts
        assert model.counts(2).tolist() == [2, 0]
        assert section_mean_tail(model, 2, 1, 0.5) == pytest.approx(0.25)

    def test_zero_beyond_support(self):
        model, _ = build_counterexample()
        n = 11
        assert section_mean_tail(model, n, 1, 1.0) == 0.0
        assert section_mean_tail(model, n, 1, 0.99) > 0.0

    def test_section_convergence_to_I1(self):
        model, _ = build_counterexample()
        n = 1003500  # inside the third unit block, nu_1 = 3490
        nu1 = int(model.counts(n)[0])
        assert nu1 >= 2000
        rate = math.log(section_mean_tail(model, n, 1, 0.5)) / nu1
        assert abs(rate + rate_I1(0.5)) <= 0.02

    def test_requires_contracts_of_that_class(self):
        model, _ = build_counterexample()
        with pytest.raises(ValueError):
            section_mean_tail(model, 1, 2, 0.5)


def test_tail_at_one_positive_for_all_n():
    # the all-maxima outcome keeps P[M_n >= 1] strictly positive
    model, _ = build_counterexample()
    for n in (1, 2, 3, 7, 11, 50, 111, 500, 1011, 2000):
        assert exact_tail(model, n, 1.0) > 0.0
