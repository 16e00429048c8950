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
from lossdev import mc
from lossdev.cgf import tilted_laws
from lossdev.model import check_assumptions, reaches

from conftest import DOUBLE, UNIT, random_lattice_model


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

    @pytest.mark.parametrize("n, x, want, se", [
        (100, 0.9, 0.0, math.inf),  # P ~ 1e-17: no hit, but the event can happen
        (100, -0.9, 1.0, math.inf),  # only hits, but the event can fail
        (5, -1.0, 1.0, 0.0),  # a certain event
    ])
    def test_one_sided_sample(self, pure_unit, n, x, want, se):
        est = sample_plain(pure_unit, n, x, 1000, seed=2)
        assert (est.estimate, est.std_error) == (want, se)

    def test_one_replicate_has_no_error_bar(self, pure_unit):
        estimates = set()
        for seed in range(8):
            est = sample_plain(pure_unit, 3, 0.1, 1, seed=seed)
            estimates.add(est.estimate)
            assert est.std_error == math.inf
        assert estimates == {0.0, 1.0}

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


WIDE = LossClass("wide", (-8.0, 8.0), (0.5, 0.5))
THREE = LossClass("three", (-1.0, 0.0, 1.0), (0.3, 0.4, 0.3))


def _recorded_draws(monkeypatch):
    """Record the contract counts and the sums of every ``_sample_sums`` call."""
    calls = []
    real = mc._sample_sums

    def recording(classes, counts, *args):
        sums = real(classes, counts, *args)
        calls.append((counts.tolist(), sums.copy()))
        return sums

    monkeypatch.setattr(mc, "_sample_sums", recording)
    return calls


def _log_norm(model, n, lam):
    """sum_c nu_c log phi_c(lam), the log of the likelihood weight's scale."""
    return float((tilted_laws(model.classes, lam)[0] * model.counts(n)).sum())


def _pair_values(model, n, x, est, a, b):
    """f(a_i + b_j) for every pair, one call of ``reaches`` each: the
    likelihood weight where the pair is counted (the event above the
    mean, its complement below), else 0."""
    log_norm = _log_norm(model, n, est.lam)
    below = est.lam < 0.0
    f = np.zeros((a.size, b.size))
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            if reaches(ai + bj, n * x) != below:
                f[i, j] = math.exp(-est.lam * (ai + bj) + log_norm)
    return f


PAIR_CASES = {
    # model, n, x: thresholds above and below the mean, on and off the sum's lattice
    "mix above, on the lattice": ((UNIT, DOUBLE), (0.5, 0.5), 20, 0.5),
    "mix above, off the lattice": ((UNIT, DOUBLE), (0.5, 0.5), 20, 0.45),
    "mix below, on the lattice": ((UNIT, DOUBLE), (0.5, 0.5), 20, -0.3),
    "mix below, off the lattice": ((UNIT, DOUBLE), (0.5, 0.5), 20, -0.25),
    "lone class, halved": ((UNIT,), (1.0,), 21, 0.35),
    "lone class below": ((UNIT,), (1.0,), 21, -0.3),
    "one contract": ((UNIT,), (1.0,), 1, 0.5),
    "one class carries the variance": ((UNIT, WIDE), (0.75, 0.25), 16, 0.5),
}


class TestPairAverage:
    """The pair step against a brute-force loop over all N^2 pairs."""

    @pytest.mark.parametrize("name", PAIR_CASES)
    @pytest.mark.parametrize("n_samples", [2, 17, 60])
    def test_equals_the_brute_force_loop(self, name, n_samples, monkeypatch):
        classes, weights, n, x = PAIR_CASES[name]
        model = PortfolioModel(classes, weights=weights)
        calls = _recorded_draws(monkeypatch)
        est = sample_tilted(model, n, x, n_samples, seed=7)
        (_, a), (_, b) = calls
        f = _pair_values(model, n, x, est, a, b)
        mean = f.mean()
        se = math.sqrt((f.mean(axis=1).var(ddof=1) + f.mean(axis=0).var(ddof=1)) / n_samples)
        assert est.estimate == pytest.approx(1.0 - mean if est.lam < 0 else mean,
                                             rel=1e-12, abs=1e-15)
        if mean == 0.0:
            assert est.std_error == math.inf
        elif se > 1e-9 * mean:
            assert est.std_error == pytest.approx(se, rel=1e-9)
            assert est.log_std_error == pytest.approx(math.log(se), abs=1e-9)
        else:  # every g_A and g_B equal: 0 up to their rounding
            assert est.std_error <= 1e-12 * mean

    def test_groups(self, monkeypatch):
        calls = _recorded_draws(monkeypatch)
        for classes, weights, n in [((UNIT,), (1.0,), 21), ((UNIT,), (1.0,), 1),
                                    ((UNIT, WIDE), (0.75, 0.25), 16),
                                    ((UNIT, DOUBLE, WIDE), (0.5, 0.25, 0.25), 16)]:
            sample_tilted(PortfolioModel(classes, weights=weights), n, 0.3, 10, seed=1)
        groups = [counts for counts, _ in calls]
        assert groups == [[11], [10],            # a lone class is halved by count
                          [1], [0],              # one contract: B is empty
                          [0, 4], [12, 0],       # the wide class alone in A
                          [0, 0, 4], [8, 4, 0]]  # whole classes, largest variance first

    @pytest.mark.parametrize("classes, weights, n, x", [
        ((UNIT,), (1.0,), 100, 0.5),
        ((UNIT,), (1.0,), 1000, -0.3),
        ((UNIT, DOUBLE), (0.8, 0.2), 1000, 0.3),
        ((UNIT, THREE), (0.4, 0.6), 500, -0.3),
    ])
    def test_beats_the_single_sum_average(self, classes, weights, n, x, monkeypatch):
        """The pair average's relative standard error is at least 3x below
        that of averaging f(a_i + b_i) over the same draws, one sum each,
        on tails with -log P from 15 to 50 (4x to 6x here).  The gain
        shrinks on shallow tails and unequal groups: 2.6x on the 50/50
        unit/double mix at n = 100, x = 0.6, whose groups carry tilted
        variance 4:1, and 2.7x on the unit class at n = 100, x = 0.2,
        where P is 0.03."""
        model = PortfolioModel(classes, weights=weights)
        calls = _recorded_draws(monkeypatch)
        est = sample_tilted(model, n, x, 10**4, seed=11)
        (_, a), (_, b) = calls
        s = a + b
        f = np.where(reaches(s, n * x) != (est.lam < 0),
                     np.exp(-est.lam * s + _log_norm(model, n, est.lam)), 0.0)
        single_se = f.std(ddof=1) / math.sqrt(s.size)
        assert est.std_error * 3.0 <= single_se

    def test_no_counted_pair(self, pure_unit):
        """Seed 43 draws no 10-contract sum of 10 at 3 replicates per group."""
        above = sample_tilted(pure_unit, 10, 0.9, 3, seed=43)
        assert (above.estimate, above.std_error) == (0.0, math.inf)
        assert (above.log_estimate, above.log_std_error) == (-math.inf, math.inf)
        below = sample_tilted(pure_unit, 10, -0.9, 3, seed=43)
        assert (below.estimate, below.std_error, below.log_estimate) == (1.0, math.inf, 0.0)
        assert math.copysign(1.0, below.log_estimate) == 1.0

    def test_one_replicate_has_no_error_estimate(self, eq_mix):
        assert sample_tilted(eq_mix, 20, 0.5, 1, seed=2).std_error == math.inf


def test_first_counted_follows_reaches_through_rounding():
    """Levels whose cut falls within a few ulps of one pair sum a_i + b_j,
    on ascending b with runs of equal values: the first counted index is
    the one a loop of ``reaches`` gives, also where ``searchsorted``
    against the cut minus a_i rounds to the other side."""
    rng = np.random.default_rng(0)
    crossings = 0
    for _ in range(600):
        a = np.sort(rng.uniform(-0.3, 0.3, 40))
        b = np.sort(np.concatenate([rng.uniform(-0.3, 0.3, 40)] * 2)[:50])
        inclusive = bool(rng.integers(2))
        pair = a[rng.integers(40)] + b[rng.integers(50)]
        # |level| < 1, so the slack is 1e-12 and the cut is level -+ 1e-12
        level = pair + (1e-12 if inclusive else -1e-12) + int(rng.integers(-3, 4)) * 2.0**-55
        want = [int(np.argmax(np.append(reaches(ai + b, level, inclusive), True))) for ai in a]
        assert mc._first_counted(a, b, level, inclusive).tolist() == want
        cut = level - 1e-12 if inclusive else level + 1e-12
        naive = np.searchsorted(b, cut - a, side="left" if inclusive else "right")
        crossings += naive.tolist() != want
    assert crossings >= 5


@pytest.mark.parametrize("n", [10**5, 10**6])
def test_log_estimate_below_the_smallest_double(pure_unit, n):
    """log P[M_n >= 0.5] is about -0.1309 n, far below the log of the
    smallest double: the estimate underflows to 0, its logs do not."""
    est = sample_tilted(pure_unit, n, 0.5, 2000, seed=5)
    log_p = exact_log_tail(pure_unit, n, 0.5)
    assert log_p < -10**4
    assert est.estimate == 0.0 and est.std_error == 0.0
    rel_error = math.exp(est.log_std_error - est.log_estimate)
    assert 0.0 < rel_error < 0.05
    assert abs(math.expm1(est.log_estimate - log_p)) <= 4 * rel_error


def test_log_estimate_below_the_mean(pure_unit):
    """1 - P is about 1e-10 at n = 1000, x = -0.2: the log column keeps the
    complement that 1 - complement rounds away."""
    est = sample_tilted(pure_unit, 1000, -0.2, 2000, seed=6)
    complement = -math.expm1(exact_log_tail(pure_unit, 1000, -0.2))
    assert abs(-math.expm1(est.log_estimate) - complement) <= 4 * est.std_error


def test_coverage_against_the_exact_oracle():
    """Seeded random lattice models and thresholds on both sides of the
    mean: the z-scores of the pair average against ``exact_log_tail``
    look standard normal."""
    rng = np.random.default_rng(2024)
    zs = []
    while len(zs) < 80:
        model, _ = random_lattice_model(rng)
        n = int(rng.integers(2, 300))
        w = model.counts(n) / n
        lo = sum(wi * c.min_support for c, wi in zip(model.classes, w))
        hi = sum(wi * c.max_support for c, wi in zip(model.classes, w))
        x = float(rng.choice([lo, hi]) * rng.uniform(0.05, 0.8))
        est = sample_tilted(model, n, x, 1000, seed=len(zs))
        log_p = exact_log_tail(model, n, x)
        if est.lam < 0:  # the complement is what was estimated
            zs.append((math.expm1(log_p) - math.expm1(est.log_estimate)) / est.std_error)
        else:
            zs.append(math.expm1(est.log_estimate - log_p) / math.exp(est.log_std_error - log_p))
    zs = np.array(zs)
    assert np.abs(zs).max() < 4.5
    assert abs(zs.mean()) < 0.35 and 0.7 < zs.std() < 1.3
