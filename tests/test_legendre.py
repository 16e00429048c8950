import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DOUBLE, UNIT, random_general_model
from lossdev import (
    BlockSchedule,
    LossClass,
    PortfolioModel,
    RoundRobin,
    build_counterexample,
    legendre_transform,
    limit_cgf,
    rate_I1,
    rate_I2,
    rate_upper_bound,
)
import lossdev.legendre
from lossdev.cgf import TILT_TOL, envelope_cgf, mixture_cgf, point_tilt
from lossdev.exact import exact_log_tail_rate
from lossdev.legendre import MAX_LAMBDA, _two_point_rate, transform_from_weights
from lossdev.model import Refused, loads_model


class TestLegendreTransform:
    def test_interior_closed_form(self, pure_unit):
        x = math.tanh(1.0)
        rp = legendre_transform(pure_unit, x)
        assert rp.status == "interior"
        assert rp.lambda_star == pytest.approx(1.0, abs=1e-9)
        assert rp.rate == pytest.approx(x - math.log(math.cosh(1.0)), abs=1e-12)

    def test_origin(self, eq_mix):
        rp = legendre_transform(eq_mix, 0.0)
        assert rp.lambda_star == 0.0
        assert rp.rate == 0.0

    def test_boundary_value(self, pure_unit):
        rp = legendre_transform(pure_unit, 1.0)
        assert rp.status == "boundary"
        assert rp.rate == pytest.approx(math.log(2.0), abs=1e-12)

    def test_beyond_boundary(self, pure_unit):
        rp = legendre_transform(pure_unit, 1.5)
        assert rp.status == "infinite"
        assert rp.rate == math.inf

    def test_lower_side_mirror(self, pure_unit):
        rp = legendre_transform(pure_unit, -0.5)
        assert rp.status == "interior"
        assert rp.rate == pytest.approx(rate_I1(-0.5), abs=1e-10)
        assert rp.lambda_star < 0

    def test_solver_tolerance(self, eq_mix):
        for x in np.linspace(-2.4, 2.4, 25):
            rp = legendre_transform(eq_mix, float(x))
            if rp.status != "interior":
                continue
            resid = abs(limit_cgf(eq_mix, rp.lambda_star).d1 - x)
            assert resid <= 1e-10 * max(1.0, abs(x))

    def test_duality(self, eq_mix):
        for x in np.linspace(-2.0, 2.0, 21):
            rp = legendre_transform(eq_mix, float(x))
            if rp.status != "interior":
                continue
            lhs = limit_cgf(eq_mix, rp.lambda_star).value + rp.rate
            assert lhs == pytest.approx(rp.lambda_star * rp.x, abs=1e-9)

    def test_nonnegative_and_convex_on_grid(self, eq_mix):
        xs = np.linspace(-1.4, 1.4, 57)
        rates = [legendre_transform(eq_mix, float(x)).rate for x in xs]
        assert min(rates) >= 0.0
        for a, b, c in zip(rates, rates[1:], rates[2:]):
            assert b <= 0.5 * (a + c) + 1e-9


class TestClosedFormRates:
    def test_I1_values(self):
        assert rate_I1(0.0) == 0.0
        assert rate_I1(0.5) == pytest.approx(
            math.log(2) + 0.75 * math.log(0.75) + 0.25 * math.log(0.25), abs=1e-15)
        assert rate_I1(1.5) == math.inf
        assert rate_I1(1.0) == pytest.approx(math.log(2.0))

    def test_I2_values(self):
        assert rate_I2(0.0) == 0.0
        assert rate_I2(0.5) == pytest.approx(0.031583942401963216, abs=1e-12)
        assert rate_I2(2.0) == pytest.approx(math.log(2.0))
        assert rate_I2(-2.5) == math.inf

    def test_matches_numerical_transform(self, pure_unit, pure_double):
        for x in np.linspace(-0.99, 0.99, 51):
            got = legendre_transform(pure_unit, float(x)).rate
            assert abs(got - rate_I1(float(x))) <= 1e-8
        for x in np.linspace(-1.98, 1.98, 51):
            got = legendre_transform(pure_double, float(x)).rate
            assert abs(got - rate_I2(float(x))) <= 1e-8

    def test_strict_convexity(self):
        for rate, a in ((rate_I1, 1.0), (rate_I2, 2.0)):
            xs = np.arange(-a + 0.01, a - 0.01, 1e-3)
            vals = np.array([rate(float(x)) for x in xs])
            second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
            assert np.all(second > 0)


# the grid lossdev bound once took its sup over: 401 lambdas on [0, 20]
LAMBDA_GRID = np.linspace(0.0, 20.0, 401)
SKEW = LossClass("skew", (-1.0, 3.0), (0.75, 0.25))
OSCILLATING = {"growth-10": BlockSchedule(1, 10, (0, 1), accelerating=True),
               "growth-3": BlockSchedule(1, 3, (0, 1))}


def _grid_bound(model, x, grid=LAMBDA_GRID):
    """max over the grid of lam x minus the envelope of the mixture CGFs
    at the density extremes."""
    bar = np.max([mixture_cgf(model.classes, d, grid).value
                  for d in model.density_extremes()], axis=0)
    return (np.multiply.outer(x, grid) - bar).max(axis=-1)


def _claim_mix():
    path = Path(__file__).resolve().parents[1] / "demos" / "claim_mix.json"
    return loads_model(path.read_bytes())[0]


class TestRateUpperBound:
    @pytest.fixture
    def block_mix(self, unit_class, double_class):
        rule = BlockSchedule(a0=1, growth=10, order=(0, 1), accelerating=True)
        return PortfolioModel((unit_class, double_class), rule=rule)

    @pytest.fixture
    def kinked(self):
        """Round-robin (1, 1) of {-1, 3} at (3/4, 1/4) with {+-2}: the
        envelope of its two extremes has a kink at lambda ~ 0.4196, where
        its slope jumps from 1.467 to 1.564."""
        return PortfolioModel((SKEW, DOUBLE), rule=RoundRobin((1, 1)))

    def test_sandwiched_by_pure_rates(self, block_mix):
        """The densities reach both unit vectors, so the running sup of
        the CGF is log cosh 2 lambda: the bound is the transform of the
        double class alone, I2."""
        assert rate_upper_bound(block_mix, 0.5) == pytest.approx(rate_I2(0.5), abs=1e-12)

    @pytest.mark.parametrize("rule, bound, n, decay", [
        (BlockSchedule(1, 3, (0, 1)), 0.0390542, 265_720, 0.039076),
        (BlockSchedule(1, 10, (0, 1), accelerating=True), 0.0315839, 1_001_011, 0.031615),
    ], ids=["constant-ratio growth-3", "accelerating growth-10"])
    def test_below_the_exact_decay(self, rule, bound, n, decay):
        """Both schedules once got a bound above the exact decay rate from
        a max over three fixed n."""
        model = PortfolioModel((UNIT, DOUBLE), rule=rule)
        b = rate_upper_bound(model, 0.5)
        assert b == pytest.approx(bound, abs=1e-6)
        exact_decay = -exact_log_tail_rate(model, n, 0.5)
        assert exact_decay == pytest.approx(decay, abs=1e-6)
        assert b <= exact_decay

    @given(a0=st.integers(1, 3), growth=st.integers(2, 12),
           order=st.lists(st.integers(0, 1), min_size=1, max_size=3).map(tuple),
           accelerating=st.booleans(), x=st.floats(0.05, 1.5))
    @settings(max_examples=50, deadline=None)
    def test_certified_at_every_block_end(self, a0, growth, order, accelerating, x):
        """b <= -(1/n) log P[M_n >= x] at every block end up to 1e6."""
        rule = BlockSchedule(a0, growth, order, accelerating)
        model = PortfolioModel((UNIT, DOUBLE), rule=rule)
        b = rate_upper_bound(model, x)
        for n in sorted({e for c in set(order) for e in rule.block_ends(c, 10**6)}):
            decay = -exact_log_tail_rate(model, n, x)
            assert b <= decay + 1e-9 * max(1.0, decay), (n, b, decay)

    def test_positive_for_positive_x(self, block_mix):
        for x in (0.01, 0.05, 0.2):
            assert rate_upper_bound(block_mix, x) > 0.0

    def test_single_class_matches_transform(self, unit_class, pure_unit):
        model = PortfolioModel((unit_class,), rule=RoundRobin((1,)))
        j = rate_upper_bound(model, 0.5)
        assert j == pytest.approx(legendre_transform(pure_unit, 0.5).rate, abs=1e-12)

    def test_counterexample_is_the_double_class_rate(self):
        """Extremes (1, 0) and (0, 1): the envelope is log cosh 2 lambda
        for lambda >= 0, so b = I2(x) inside, log 2 at the top x = 2, and
        inf above it."""
        model, _ = build_counterexample()
        xs = np.linspace(0.0, 2.0, 202)[1:-1]
        np.testing.assert_allclose(rate_upper_bound(model, xs),
                                   [rate_I2(x) for x in xs], rtol=0.0, atol=1e-10)
        assert rate_upper_bound(model, 2.0) == pytest.approx(math.log(2.0), rel=1e-15)
        assert rate_upper_bound(model, 2.5) == math.inf

    def test_infinite_above_the_largest_reachable_average(self):
        """The growth-3 extremes are (1, 0) and (1/4, 3/4), so no average
        reaches past 1/4 + 3/2 = 1.75."""
        model = PortfolioModel((UNIT, DOUBLE), rule=OSCILLATING["growth-3"])
        assert rate_upper_bound(model, 1.75) == pytest.approx(math.log(2.0), rel=1e-15)
        assert rate_upper_bound(model, 2.0) == math.inf

    def test_at_most_the_rate_of_every_extreme(self, block_mix, kinked):
        """To round-off: away from a kink b is the rate of the extreme whose
        CGF binds, computed once in the envelope and once on its own."""
        xs = np.linspace(0.05, 2.0, 40)
        for model in (block_mix, kinked, _claim_mix()):
            b = rate_upper_bound(model, xs)
            for d in model.density_extremes():
                assert np.all(b <= transform_from_weights(model.classes, d, xs).rate + 1e-15)

    def test_zero_at_and_below_the_mean(self, kinked):
        """The log-MGF of {-1, 3} at lambda = 0 rounds to +1.1e-16."""
        b = rate_upper_bound(kinked, [-0.5, -0.0, 0.0])
        assert [math.copysign(1.0, v) for v in b] == [1.0, 1.0, 1.0] and not b.any()

    def test_solved_at_least_the_grid(self, block_mix, kinked):
        """The sup over every lambda >= 0 is at least the sup over the grid,
        at the thresholds of these tests and of the benchmark."""
        cases = [(block_mix, [0.01, 0.05, 0.2, 0.5]),
                 (kinked, np.linspace(0.05, 2.0, 40)),
                 (_claim_mix(), np.linspace(0.0, 0.9, 51))]
        for rule in OSCILLATING.values():
            model = PortfolioModel((UNIT, DOUBLE), rule=rule)
            cases.append((model, [0.5, 0.7]))
            cases.append((model, np.linspace(0.05, 1.5, 30)))
        for model, xs in cases:
            assert np.all(rate_upper_bound(model, xs) >= _grid_bound(model, np.asarray(xs)))

    def test_kinked_envelope(self, kinked):
        """x in (1.467, 1.564) sits on the kink, where no lambda solves the
        mean equation: the solve stops there, at least as high as a fine
        grid, and below the exact decay at every n <= 300 (checked at the
        kink and at every eighth x)."""
        xs = np.linspace(0.05, 2.0, 40)
        b = rate_upper_bound(kinked, xs)
        on_kink = (1.467 < xs) & (xs < 1.564)
        assert np.count_nonzero(on_kink) == 2
        fine = _grid_bound(kinked, xs, np.linspace(1e-4, 5.0, 200_001))
        assert np.all(b >= fine)
        np.testing.assert_allclose(b, fine, rtol=0.0, atol=1e-6)
        checked = on_kink | (np.arange(xs.size) % 8 == 0)
        for n in range(1, 301):
            for x, bound in zip(xs[checked], b[checked]):
                assert bound <= -exact_log_tail_rate(kinked, n, x), (n, x)

    def test_claim_mix(self):
        """A premium of 1 against a claim of -1000 at probability 1/1001:
        the maximizing lambda at x = 0.3 is about 0.02, below the grid's
        first step, and b stays below the exact decay."""
        model = _claim_mix()
        xs = np.linspace(0.0, 0.9, 51)[1:]
        assert np.all(rate_upper_bound(model, xs) > 0.0)
        b = rate_upper_bound(model, 0.3)
        for n in (10**3, 10**5):
            assert b <= -exact_log_tail_rate(model, n, 0.3)


class TestExpansion:
    def test_taylor_deviation_bounded(self):
        """max |I(x) - P6(x)| / x^8 over a grid, P6 the degree-6 even
        Taylor polynomial, stays bounded as the grid moves toward 0."""
        # stay above x ~ 0.03: below that the x^8 normalizer amplifies
        # float cancellation in the rate itself past the signal
        grids = [np.linspace(0.05, 0.2, 20), np.linspace(0.03, 0.12, 20)]
        for rate, (c2, c4, c6) in ((rate_I1, (1 / 2, 1 / 12, 1 / 30)),
                                   (rate_I2, (1 / 8, 1 / 192, 1 / 1920))):
            c_coarse, c_fine = (max(abs(rate(x) - (c2 * x**2 + c4 * x**4 + c6 * x**6)) / x**8
                                    for x in grid) for grid in grids)
            assert math.isfinite(c_coarse) and math.isfinite(c_fine)
            assert c_fine <= 2 * c_coarse + 1.0

    def test_example_at_tenth(self):
        p6 = 0.005 + (1 / 12) * 1e-4 + (1 / 30) * 1e-6
        assert abs(rate_I1(0.1) - p6) <= 1e-8 * 2.0

    def test_leading_coefficient(self):
        for x in (1e-3, 1e-4):
            assert rate_I1(x) / x**2 == pytest.approx(0.5, rel=1e-5)
            assert rate_I2(x) / x**2 == pytest.approx(0.125, rel=1e-5)


def test_transform_from_weights_respects_zero_weight(unit_class, double_class):
    rp = transform_from_weights((unit_class, double_class), (1.0, 0.0), 0.5)
    assert rp.rate == pytest.approx(rate_I1(0.5), abs=1e-10)


def _random_weighted(seed, max_classes=4):
    model, _ = random_general_model(np.random.default_rng(seed), max_classes)
    return model.classes, model.weights


def _range(classes, weights):
    lo = sum(w * c.min_support for c, w in zip(classes, weights))
    hi = sum(w * c.max_support for c, w in zip(classes, weights))
    return lo, hi


def _assert_stationary(classes, weights, xs, rp):
    """|Lambda'(lambda*) - x| <= TILT_TOL min(x - x_min, x_max - x), the
    gap measured from the end nearer x, at every interior point of ``rp``."""
    inside = np.asarray(rp.status) == "interior"
    lam, xs = np.atleast_1d(rp.lambda_star)[inside], xs[inside]
    p = mixture_cgf(classes, weights, lam)
    lo, hi = _range(classes, weights)
    target, rest = xs - lo, hi - xs
    gap = np.where(target <= rest, p.below - target, rest - p.above)
    assert np.all(np.abs(gap) <= TILT_TOL * np.minimum(target, rest))


class TestBatchedTransform:
    """The whole-grid transform against slow references: one-point calls,
    a dense lambda grid, and the closed-form edges."""

    @pytest.mark.parametrize("seed", range(6))
    def test_grid_equals_one_point_calls(self, seed):
        classes, weights = _random_weighted(seed)
        lo, hi = _range(classes, weights)
        xs = np.concatenate([np.linspace(lo - 0.3, hi + 0.3, 61), [0.0, lo, hi]])
        grid = transform_from_weights(classes, weights, xs)
        for i, x in enumerate(xs):
            one = transform_from_weights(classes, weights, np.array([x]))
            scalar = transform_from_weights(classes, weights, float(x))
            for p in (one, scalar):
                assert np.ndim(p.rate) == np.ndim(x) + (p is one)
                assert str(grid.status[i]) == str(np.ravel(p.status)[0])
                for field in ("lambda_star", "rate"):
                    want = float(np.ravel(getattr(p, field))[0])
                    got = float(getattr(grid, field)[i])
                    assert got == want or abs(got - want) <= 1e-13 * abs(want), (x, field)

    @pytest.mark.parametrize("seed", range(4))
    def test_rate_is_the_sup_over_a_dense_grid(self, seed):
        classes, weights = _random_weighted(seed, 3)
        lams = np.linspace(-4.0, 4.0, 80_001)
        cgf = mixture_cgf(classes, weights, lams)
        # thresholds whose maximiser lies well inside the lambda grid
        xs = mixture_cgf(classes, weights, np.linspace(-3.5, 3.5, 15)).d1
        rp = transform_from_weights(classes, weights, xs)
        assert np.all(rp.status == "interior")
        grid_sup = (np.multiply.outer(xs, lams) - cgf.value).max(axis=1)
        assert np.all(rp.rate >= grid_sup - 1e-12)
        np.testing.assert_allclose(rp.rate, grid_sup, rtol=0.0, atol=1e-6)

    def test_edges_and_outside(self):
        a = LossClass("a", (-1.0, 0.5), (1.0 / 3.0, 2.0 / 3.0))
        b = LossClass("b", (-2.0, 0.0, 2.0), (0.25, 0.5, 0.25))
        weights = (0.25, 0.75)
        lo, hi = _range((a, b), weights)
        assert (lo, hi) == (-1.75, 1.625)  # exact in binary
        xs = np.arange(-2.5, 2.5 + 1e-9, 0.125)  # holds lo and hi exactly
        rp = transform_from_weights((a, b), weights, xs)
        top = -(0.25 * math.log(2.0 / 3.0) + 0.75 * math.log(0.25))
        bottom = -(0.25 * math.log(1.0 / 3.0) + 0.75 * math.log(0.25))
        for x, lam, rate, status in zip(xs, rp.lambda_star, rp.rate, rp.status):
            if x == hi or x == lo:
                assert status == "boundary"
                assert rate == pytest.approx(top if x == hi else bottom, rel=1e-15)
                assert lam == (math.inf if x == hi else -math.inf)
            elif lo < x < hi:
                assert status == "interior" and math.isfinite(rate) and math.isfinite(lam)
            else:
                assert status == "infinite" and rate == math.inf
                assert lam == (math.inf if x > hi else -math.inf)
        assert transform_from_weights((a, b), weights, math.nan).status == "infinite"

    @given(seed=st.integers(0, 2**32 - 1),
           fractions=st.lists(st.floats(1e-6, 1 - 1e-6), min_size=1, max_size=8))
    @settings(max_examples=80, deadline=None)
    def test_stationarity(self, seed, fractions):
        classes, weights = _random_weighted(seed)
        lo, hi = _range(classes, weights)
        xs = lo + (hi - lo) * np.asarray(fractions)
        _assert_stationary(classes, weights, xs, transform_from_weights(classes, weights, xs))


def _seven_point_classes():
    """Six centered classes of 7 points each, drawn from the quarter
    lattice in [-3, 3]."""
    rng = np.random.default_rng(7)
    classes = []
    for i in range(6):
        sup = np.sort(rng.choice(np.arange(-12, 13), 7, replace=False) / 4.0)
        pr = rng.dirichlet(np.full(7, 2.0))
        classes.append(LossClass(f"c{i}", tuple((sup - sup @ pr).tolist()), tuple(pr.tolist())))
    return tuple(classes)


class TestSolverCost:
    """Kernel calls per solve: Newton on the logit of the tilted mean needs
    no bracket search before its first step."""

    @staticmethod
    def _calls(monkeypatch, classes, weights, x):
        calls = []

        def counted(*args):
            calls.append(1)
            return envelope_cgf(*args)

        monkeypatch.setattr(lossdev.legendre, "envelope_cgf", counted)
        rp = transform_from_weights(classes, weights, x)
        assert np.all(np.asarray(rp.status) == "interior")
        return len(calls)

    def test_unit_double_mix_near_the_edge(self, monkeypatch):
        assert self._calls(monkeypatch, (UNIT, DOUBLE), (0.5, 0.5), 0.99 * 1.5) <= 5

    def test_six_classes_over_a_300_point_grid(self, monkeypatch):
        classes = _seven_point_classes()
        weights = (1.0 / 6.0,) * 6
        lo, hi = _range(classes, weights)
        xs = np.linspace(lo, hi, 302)[1:-1]
        assert self._calls(monkeypatch, classes, weights, xs) <= 7

    def test_creeping_newton_bisects(self, monkeypatch):
        """A point of mass 1.8e-13 at the bottom of a class: near the top
        of the range Newton crept and took 145 kernel calls at x = 95% of
        the range, until a Newton step longer than half the one before the
        last bisected instead; it takes at most 18 now."""
        def centered(name, points, probs):
            mean = math.fsum(v * p for v, p in zip(points, probs))
            return LossClass(name, tuple(v - mean for v in points), probs)

        classes = (centered("a", (0, 6), (0.9953, 0.0047)),
                   centered("b", (0, 3, 5, 7), (1.8e-13, 0.4373, 0.2552, 0.3075 - 1.8e-13)),
                   centered("c", (0, 1), (0.4124, 0.5876)))
        weights = (4 / 9, 1 / 9, 4 / 9)
        lo, hi = _range(classes, weights)
        for t in np.linspace(0.94, 0.96, 21):
            x = np.array([lo + t * (hi - lo)])
            assert self._calls(monkeypatch, classes, weights, x) <= 20
            _assert_stationary(classes, weights, x, transform_from_weights(classes, weights, x))

    def test_support_of_1e9(self, monkeypatch):
        big = LossClass("big", (-1e9, 1e9), (0.5, 0.5))
        assert self._calls(monkeypatch, (big,), (1.0,), 0.9) <= 2

    @pytest.mark.parametrize("x, bound", [(1.5, 0.3121963592315126),
                                          (1.55, 0.33317724048106745)])
    def test_on_a_kink_of_the_envelope(self, monkeypatch, x, bound):
        """The kinked fixture of TestRateUpperBound at two x on its kink,
        where no lambda solves the mean equation: the solve bisects until
        its bracket closes to round-off, in at most 53 kernel calls, and
        the bound it stops at is pinned to 1e-12."""
        calls = []

        def counted(*args):
            calls.append(1)
            return envelope_cgf(*args)

        monkeypatch.setattr(lossdev.legendre, "envelope_cgf", counted)
        model = PortfolioModel((SKEW, DOUBLE), rule=RoundRobin((1, 1)))
        assert rate_upper_bound(model, x) == pytest.approx(bound, rel=0.0, abs=1e-12)
        assert len(calls) <= 53


def test_large_support_converges_to_its_rounding():
    """The stopping rule scales with the range: Lambda' of {-1e9, 1e9} is
    not resolved more finely than the rounding of values of that size."""
    big = LossClass("big", (-1e9, 1e9), (0.5, 0.5))
    rp = transform_from_weights((big,), (1.0,), 0.9)
    assert rp.status == "interior"
    assert rp.lambda_star == pytest.approx(math.atanh(0.9e-9) / 1e9, rel=1e-6)
    # the closed form cancels to about 1e-16 absolute at this x
    assert rp.rate == pytest.approx(_two_point_rate(0.9, 1e9), abs=1e-15)
    _assert_stationary((big,), (1.0,), np.array([0.9]), rp)


@pytest.mark.parametrize("weight", [0.0, 1e-12])
def test_light_wide_class_keeps_the_tolerance_fine(unit_class, weight):
    """A {-1e9, 1e9} class of weight 0 or 1e-12 next to the unit class: the
    tolerance follows the weighted range, not the widest support.  For
    lambda >> 1e-9 the wide class adds weight * (1e9 lambda - log 2) to the
    CGF, which shifts the unit rate by 1e9 weight."""
    big = LossClass("big", (-1e9, 1e9), (0.5, 0.5))
    rp = transform_from_weights((unit_class, big), (1.0, weight), 0.05)
    assert rp.status == "interior"
    assert rp.rate == pytest.approx(rate_I1(0.05 - 1e9 * weight) + weight * math.log(2.0),
                                    abs=1e-13)


def test_tiny_support_is_solved_on_its_own_scale():
    """{-1e-11, 1e-11}: every x is within 1e-10 of Lambda'(0), so only a
    tolerance and a lambda limit relative to the range give the rate
    I1(x / 1e-11), at lambda* = atanh(x / 1e-11) / 1e-11."""
    tiny = LossClass("tiny", (-1e-11, 1e-11), (0.5, 0.5))
    rp = transform_from_weights((tiny,), (1.0,), 0.5e-11)
    assert rp.status == "interior"
    assert rp.rate == pytest.approx(rate_I1(0.5), rel=1e-9)
    assert rp.lambda_star == pytest.approx(math.atanh(0.5) / 1e-11, rel=1e-9)


def test_lambda_beyond_the_bracket_limit_is_refused():
    """Support {-1, 1 - 1e-8, 1} (centered), with the top point e^30 times
    less likely than its neighbour: x halfway between the two puts lambda*
    at 30 / 1e-8 = 3e9, past MAX_LAMBDA / max(-x_min, x_max) = 1e9."""
    sup = np.array([-1.0, 1.0 - 1e-8, 1.0])
    pr = np.array([1.0, math.exp(-30.0)]) / (1.0 + math.exp(-30.0)) / 2.0
    pr = np.concatenate([[0.5], pr])
    sup = sup - sup @ pr
    clustered = LossClass("clustered", tuple(sup.tolist()), tuple(pr.tolist()))
    with pytest.raises(Refused, match="could not bracket lambda"):
        transform_from_weights((clustered,), (1.0,), (sup[1] + sup[2]) / 2)


def _skewed_mixture(rng):
    """1-3 centered classes of 2-5 points on scales 1e-3 to 1e3, some with
    masses down to 1e-12, under random weights."""
    classes = []
    for i in range(int(rng.integers(1, 4))):
        size = int(rng.integers(2, 6))
        sup = np.sort(rng.uniform(-1, 1, size)) * 10 ** rng.uniform(-3, 3)
        pr = np.maximum(rng.dirichlet(np.full(size, rng.choice([0.1, 1.0, 5.0]))), 1e-12)
        pr /= pr.sum()
        classes.append(LossClass(f"c{i}", tuple((sup - sup @ pr).tolist()), tuple(pr.tolist())))
    return tuple(classes), tuple(rng.dirichlet(np.ones(len(classes))).tolist())


def test_skewed_mixtures_near_the_edges():
    """Thresholds 1e-11 to 1e-1 of the range from either end: on these
    models Newton steps leave the bracket, and are replaced by bisection
    and, while an end is still open, by doubling."""
    rng = np.random.default_rng(0)
    for _ in range(40):
        classes, weights = _skewed_mixture(rng)
        lo, hi = _range(classes, weights)
        offsets = (hi - lo) * np.logspace(-11, -1, 11)
        xs = np.concatenate([lo + offsets, hi - offsets])
        rp = transform_from_weights(classes, weights, xs)
        assert np.all(rp.status == "interior")
        assert np.all(np.isfinite(rp.rate) & (rp.rate >= 0.0))
        _assert_stationary(classes, weights, xs, rp)


def _point_tilt_lambda(classes, weights, x):
    """lambda* at x from ``cgf.point_tilt``, the weights taken as counts
    and the shifts in units of the range's span."""
    lo, hi = _range(classes, weights)
    span = hi - lo
    tilt = [(c.probs, [(v - c.min_support) / span for v in c.support], w)
            for c, w in zip(classes, weights)]
    return point_tilt(tilt, float(x - lo) / span, float(hi - x) / span)[0] / span


def _wide_mixture(rng):
    """1-3 centered classes of 2-5 points under random weights, masses
    log-uniform down to 1e-30, and in half the models a claim of -10^3 to
    -10^9 at 1e-30 to 1e-12 that makes the range wide."""
    classes = []
    for i in range(int(rng.integers(1, 4))):
        size = int(rng.integers(2, 6))
        sup = np.sort(rng.uniform(-1, 1, size))
        pr = 10.0 ** rng.uniform(-30, 0, size)
        pr /= pr.sum()
        classes.append(LossClass(f"c{i}", tuple((sup - sup @ pr).tolist()), tuple(pr.tolist())))
    if rng.random() < 0.5:
        mass = 10.0 ** rng.uniform(-30, -12)
        sup = np.array([-(10.0 ** rng.uniform(3, 9)), 0.0])
        pr = np.array([mass, 1.0 - mass])
        classes.append(LossClass("claim", tuple((sup - sup @ pr).tolist()), tuple(pr.tolist())))
    return tuple(classes), tuple(rng.dirichlet(np.ones(len(classes))).tolist())


class TestAgreesWithPointTilt:
    """The grid solve runs the rule of ``cgf.point_tilt`` on arrays: both
    put lambda* in the same place, also where the range is wide and the
    threshold is near one of its ends."""

    def test_random_models_near_both_ends(self):
        """Each x alone, as the grid solve refuses a whole grid once
        doubling reaches its lambda limit on lambda*'s side, MAX_LAMBDA /
        x_max or MAX_LAMBDA / -x_min (the span where that end is 0): so
        only where |lambda*| is past half that limit."""
        rng = np.random.default_rng(21)
        compared = 0
        for _ in range(60):
            classes, weights = (_wide_mixture if rng.random() < 0.5 else _skewed_mixture)(rng)
            lo, hi = _range(classes, weights)
            offsets = (hi - lo) * np.logspace(-11, -1, 11)
            for x in np.concatenate([lo + offsets, hi - offsets]):
                want = _point_tilt_lambda(classes, weights, x)
                try:
                    rp = transform_from_weights(classes, weights, x)
                except Refused:
                    scale = (hi if want > 0 else -lo) or hi - lo
                    assert abs(want) * scale > MAX_LAMBDA / 2, (classes, weights, x)
                    continue
                assert rp.status == "interior"
                assert rp.lambda_star == pytest.approx(want, rel=1e-8), (classes, weights, x)
                compared += 1
        assert compared >= 0.9 * 60 * 22

    @pytest.mark.parametrize("x", [0.001, 0.03, 0.06])
    def test_wide_claim_against_a_40_digit_root(self, x):
        """demos/wide_claim.json: a claim of -1e8 at 1e-12 beside {-0.25,
        0.125} at (1/3, 2/3), so that max(-x_min, x_max) = 5e7.  A stop at
        |Lambda' - x| <= 1e-10 of that put lambda* at 0 for x = 0.001 and
        understated the rate by 1.4% and 2.0% at x = 0.03 and 0.06."""
        mpmath = pytest.importorskip("mpmath")
        path = Path(__file__).resolve().parents[1] / "demos" / "wide_claim.json"
        model, _ = loads_model(path.read_text())
        rp = legendre_transform(model, x)
        with mpmath.workdps(40):
            laws = [([mpmath.mpf(v) for v in c.support], [mpmath.mpf(p) for p in c.probs],
                     mpmath.mpf(w)) for c, w in zip(model.classes, model.weights)]

            def cgf(lam, slope):
                total = mpmath.mpf(0)
                for sup, probs, w in laws:
                    terms = [p * mpmath.exp(lam * v) for v, p in zip(sup, probs)]
                    total += w * (mpmath.fsum(t * v for t, v in zip(terms, sup)) / mpmath.fsum(terms)
                                  if slope else mpmath.log(mpmath.fsum(terms)))
                return total

            lo, hi = mpmath.mpf(0), mpmath.mpf(100)
            for _ in range(200):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if cgf(mid, True) < x else (lo, mid)
            rate = lo * mpmath.mpf(x) - cgf(lo, False)
            assert rp.status == "interior"
            assert rp.lambda_star == pytest.approx(float(lo), rel=1e-9)
            assert rp.rate == pytest.approx(float(rate), rel=1e-11)


def test_wide_claim_next_to_the_top_is_interior():
    """demos/wide_claim.json at x = x_max - 4e-5.  One edge tolerance of
    1e-12 max(-x_min, x_max) = 5e-5 called it the top and gave the edge
    rate 0.202733; each end's tolerance comes from the terms that make it,
    here 6.25e-14, and the rate is that of ``cgf.point_tilt``'s lambda*."""
    path = Path(__file__).resolve().parents[1] / "demos" / "wide_claim.json"
    model, _ = loads_model(path.read_text())
    x = _range(model.classes, model.weights)[1] - 4e-5
    rp = legendre_transform(model, x)
    lam = _point_tilt_lambda(model.classes, model.weights, x)
    assert rp.status == "interior"
    assert abs(rp.rate - (lam * x - mixture_cgf(model.classes, model.weights, lam).value)) <= 1e-10
