import math

import numpy as np
import pytest

from lossdev import (
    BlockSchedule,
    LossClass,
    PortfolioModel,
    RoundRobin,
    empirical_cgf,
    limit_cgf,
)
from lossdev.cgf import envelope_cgf, mixture_cgf


def class_log_mgf(cls, lam):
    """log phi(lam) of one class: the kernel on a one-class mixture."""
    return mixture_cgf((cls,), (1.0,), lam).value


class TestClassMgf:
    def test_symmetric_two_point(self, unit_class):
        assert math.exp(class_log_mgf(unit_class, 1.0)) == pytest.approx(math.cosh(1.0),
                                                                           rel=1e-14)

    def test_at_zero(self, double_class):
        assert math.exp(class_log_mgf(double_class, 0.0)) == 1.0

    def test_scaling_symmetry(self, double_class):
        # phi_2(lam) = phi_1(2 lam) for the +-2 class
        assert math.exp(class_log_mgf(double_class, 0.5)) == pytest.approx(math.cosh(1.0),
                                                                            rel=1e-14)

    def test_no_overflow_at_extreme_tilt(self, unit_class):
        v = math.exp(class_log_mgf(unit_class, 700.0))
        assert math.isfinite(v)
        assert class_log_mgf(unit_class, 700.0) == pytest.approx(700.0 - math.log(2), rel=1e-12)


class TestLimitCgf:
    def test_single_class_closed_form(self, pure_unit):
        p = limit_cgf(pure_unit, 1.0)
        assert p.value == pytest.approx(math.log(math.cosh(1.0)), rel=1e-13)
        assert p.d1 == pytest.approx(math.tanh(1.0), rel=1e-13)

    def test_origin(self, eq_mix):
        p = limit_cgf(eq_mix, 0.0)
        assert p.value == 0.0
        assert p.d1 == 0.0
        assert p.d2 == pytest.approx(0.5 * 1.0 + 0.5 * 4.0, rel=1e-13)

    def test_equal_weight_mixture(self, eq_mix):
        p = limit_cgf(eq_mix, 1.0)
        want = 0.5 * (math.log(math.cosh(1.0)) + math.log(math.cosh(2.0)))
        assert p.value == pytest.approx(want, rel=1e-13)

    def test_rejects_assigned_models(self, rr_mix):
        with pytest.raises(ValueError):
            limit_cgf(rr_mix, 1.0)


class TestEmpiricalCgf:
    def test_round_robin_matches_limit(self, rr_mix, eq_mix):
        assert empirical_cgf(rr_mix, 2, 1.0).value == pytest.approx(
            limit_cgf(eq_mix, 1.0).value, rel=1e-13)

    def test_at_zero(self, rr_mix):
        assert empirical_cgf(rr_mix, 17, 0.0).value == 0.0

    def test_block_end_near_pure_value(self, unit_class, double_class):
        model = PortfolioModel((unit_class, double_class),
                               rule=BlockSchedule(a0=1, growth=10, order=(0, 1),
                                                  accelerating=True))
        n = 1011  # end of the second unit block; nu_2(n)/n = 10/1011
        lam = 1.0
        got = empirical_cgf(model, n, lam).value
        pure = math.log(math.cosh(lam))
        slack = abs(math.log(math.cosh(2 * lam)) - pure) * (10 / n)
        assert abs(got - pure) <= slack + 1e-12

    def test_converges_to_limit_like_one_over_n(self, rr_mix, eq_mix):
        lam = 1.3
        lim = limit_cgf(eq_mix, lam).value
        gap3 = abs(empirical_cgf(rr_mix, 10**3, lam).value - lim)
        gap4 = abs(empirical_cgf(rr_mix, 10**4, lam).value - lim)
        c = gap3 * 10**3
        assert gap4 <= (c + 1e-9) / 10**4


class TestCgfShape:
    def test_convexity_on_wide_grid(self, eq_mix):
        for lam in np.linspace(-20, 20, 81):
            assert limit_cgf(eq_mix, float(lam)).d2 >= 0.0

    def test_derivatives_match_finite_differences(self, eq_mix):
        h = 1e-5
        for lam in np.linspace(-5, 5, 21):
            lam = float(lam)
            p = limit_cgf(eq_mix, lam)
            up = limit_cgf(eq_mix, lam + h).value
            dn = limit_cgf(eq_mix, lam - h).value
            d1_fd = (up - dn) / (2 * h)
            d2_fd = (up - 2 * p.value + dn) / h**2
            assert d1_fd == pytest.approx(p.d1, rel=1e-6, abs=1e-8)
            assert d2_fd == pytest.approx(p.d2, rel=1e-4, abs=1e-5)

    def test_small_lambda_quadratic_bound(self, eq_mix):
        c0 = 2.0
        for lam in np.linspace(-0.1 / c0, 0.1 / c0, 21):
            assert limit_cgf(eq_mix, float(lam)).value <= c0**2 * lam**2 + 1e-15


class TestCumulants:
    """kappa_1 and kappa_2 are the kernel's d1 and d2 at lambda = 0."""

    def test_unit_class(self, unit_class):
        p = mixture_cgf((unit_class,), (1.0,), 0.0)
        assert (p.value, p.d1, p.d2) == (0.0, 0.0, 1.0)

    def test_double_class_scaling(self, double_class):
        assert mixture_cgf((double_class,), (1.0,), 0.0).d2 == pytest.approx(4.0)

    def test_first_cumulant_always_zero(self):
        cls = LossClass("skew", (-3.0, 1.0), (0.25, 0.75))
        p = mixture_cgf((cls,), (1.0,), 0.0)
        assert p.d1 == pytest.approx(0.0, abs=1e-12)
        assert p.d2 == pytest.approx(3.0)


def _fsum_cgf(classes, weights, lam):
    """Slow oracle: the mixture CGF and its derivatives at one lambda,
    class by class, with math.fsum and the max exponent shifted out."""
    value = d1 = d2 = 0.0
    for cls, w in zip(classes, weights):
        if w == 0.0:
            continue
        expo = [lam * v + math.log(p) for v, p in zip(cls.support, cls.probs)]
        top = max(expo)
        e = [math.exp(a - top) for a in expo]
        s = math.fsum(e)
        mean = math.fsum(ei * v for ei, v in zip(e, cls.support)) / s
        var = math.fsum(ei * (v - mean) ** 2 for ei, v in zip(e, cls.support)) / s
        value += w * (top + math.log(s))
        d1 += w * mean
        d2 += w * var
    return value, d1, d2


def _random_classes(rng, sizes):
    out = []
    for i, size in enumerate(sizes):
        sup = np.sort(rng.choice(np.arange(-12, 13), size, replace=False) / 4.0)
        pr = rng.dirichlet(np.ones(size) * 2)
        pr = pr / pr.sum()
        out.append(LossClass(f"r{i}", tuple((sup - sup @ pr).tolist()), tuple(pr.tolist())))
    return tuple(out)


class TestKernelAgainstFsum:
    """The array kernel against a per-class, per-lambda math.fsum oracle."""

    @pytest.mark.parametrize("seed", range(5))
    def test_mixed_support_sizes(self, seed):
        rng = np.random.default_rng(seed)
        classes = _random_classes(rng, [2, 3, 4, 5, 6, 7])  # every row padded but the last
        weights = rng.dirichlet(np.ones(len(classes)))
        c0 = max(max(abs(c.min_support), abs(c.max_support)) for c in classes)
        lams = np.concatenate([np.linspace(-6.0, 6.0, 49), [-700.0 / c0, 700.0 / c0]])
        got = mixture_cgf(classes, weights, lams)
        assert got.value.shape == got.d1.shape == got.d2.shape == lams.shape
        assert np.all(np.isfinite(got.value)) and np.all(np.isfinite(got.d2))
        for i, lam in enumerate(lams):
            value, d1, d2 = _fsum_cgf(classes, weights, float(lam))
            assert got.value[i] == pytest.approx(value, rel=1e-12, abs=1e-14)
            assert got.d1[i] == pytest.approx(d1, rel=1e-12, abs=1e-14)
            assert got.d2[i] == pytest.approx(d2, rel=1e-10, abs=1e-14)

    def test_zero_weight_class_contributes_nothing(self, unit_class, double_class):
        wide = LossClass("wide", (-50.0, 0.0, 50.0), (0.25, 0.5, 0.25))
        lams = np.array([-700.0, -3.0, 0.0, 0.5, 700.0])
        with_zero = mixture_cgf((unit_class, wide, double_class), (0.5, 0.0, 0.5), lams)
        without = mixture_cgf((unit_class, double_class), (0.5, 0.5), lams)
        for field in ("value", "d1", "d2"):
            np.testing.assert_allclose(getattr(with_zero, field), getattr(without, field),
                                       rtol=1e-15, atol=0.0)
        assert np.all(np.isfinite(with_zero.value))

    def test_scalar_lambda_gives_scalars(self, eq_mix):
        p = limit_cgf(eq_mix, 1.0)
        assert all(np.ndim(v) == 0 for v in (p.lam, p.value, p.d1, p.d2))
        grid = limit_cgf(eq_mix, np.array([1.0]))
        assert grid.value[0] == p.value and grid.d1[0] == p.d1 and grid.d2[0] == p.d2

    def test_class_log_mgf_over_array(self, unit_class):
        lams = np.array([-2.0, 0.0, 2.0])
        np.testing.assert_allclose(class_log_mgf(unit_class, lams),
                                   np.log(np.cosh(lams)), rtol=1e-15, atol=0.0)


class TestStackOfRows:
    """One kernel call for several weight rows: a mixture per row, and the
    upper envelope over them."""

    ROWS = np.array([[1.0, 0.0], [0.5, 0.5], [0.25, 0.75]])

    def test_rows_match_one_row_calls(self, unit_class, double_class):
        classes, lams = (unit_class, double_class), np.linspace(-3.0, 3.0, 13)
        stacked = mixture_cgf(classes, self.ROWS, lams)
        for field in ("value", "d1", "d2"):
            assert getattr(stacked, field).shape == (lams.size, len(self.ROWS))
            for k, row in enumerate(self.ROWS):
                np.testing.assert_allclose(getattr(stacked, field)[:, k],
                                           getattr(mixture_cgf(classes, row, lams), field),
                                           rtol=1e-15, atol=1e-15)

    def test_envelope_takes_the_binding_row(self, unit_class, double_class):
        classes, lams = (unit_class, double_class), np.array([-2.0, 0.5, 3.0])
        env = envelope_cgf(classes, self.ROWS, lams)
        stacked = mixture_cgf(classes, self.ROWS, lams)
        np.testing.assert_array_equal(env.value, stacked.value.max(axis=1))
        # log cosh 2 lam is the largest on both sides: the double class alone
        assert np.all(env.value <= mixture_cgf(classes, [0.0, 1.0], lams).value + 1e-15)
        scalar = envelope_cgf(classes, self.ROWS, 0.5)
        assert np.ndim(scalar.value) == 0 and scalar.value == env.value[1]

    def test_largest_curvature_binds_at_zero(self, unit_class):
        """Every row's CGF rounds to about 0 at lam = 0; the envelope's
        curvature there is the largest row's on both sides."""
        claims = LossClass("claims", (-1000.0, 1.0), (1 / 1001, 1000 / 1001))
        p = envelope_cgf((unit_class, claims), np.eye(2), np.zeros(1))
        assert p.d2[0] == pytest.approx(claims.variance, rel=1e-12)
