import math

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import chi2

from lossdev import (
    AssumptionBounds,
    LossClass,
    PortfolioModel,
    RoundRobin,
    TiltingRangeError,
    empirical_cgf,
    enumerate_tail,
    exact_log_tail,
    exact_tail,
    legendre_transform,
    sample_plain,
    sample_tilted,
)
from lossdev import cgf, mc
from lossdev.cgf import mixture_cgf
from lossdev.exact import WINDOW_EPS
from lossdev.legendre import transform_from_weights
from lossdev.model import check_assumptions, loads_model, reaches

from conftest import CLAIM_RAW, DOUBLE, UNIT, WIDE_CLAIM, life_class, random_lattice_model
from oracle import direct_log_pmf


def tilted_row(cls, lam):
    """The point tilt's probabilities of one class tilted by lam, on its
    support, in units of its span as ``sample_tilted`` takes them."""
    span = cls.max_support - cls.min_support
    shifts = [(v - cls.min_support) / span for v in cls.support]
    laws = cgf._tilted_laws(cgf._point_classes([(cls.probs, shifts, 1)]), lam * span)[0]
    return np.array(laws[0])


class TestTiltedClass:
    """The tilted class laws of ``cgf.point_tilt``, which ``exact`` and
    ``mc`` share."""

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


class TestPointTilt:
    """The sampler's tilt, from ``cgf.point_tilt``, against the Legendre
    grid solve, which it no longer calls, at thresholds a tenth, half and
    nine tenths of the way from the mean to either edge."""

    @staticmethod
    def _check(model, n):
        counts = model.counts(n)
        lo = math.fsum(nu * c.min_support for c, nu in zip(model.classes, counts)) / n
        hi = math.fsum(nu * c.max_support for c, nu in zip(model.classes, counts)) / n
        for x in (f * edge for f in (0.1, 0.5, 0.9) for edge in (lo, hi)):
            want = transform_from_weights(model.classes, counts / n, x).lambda_star
            assert sample_tilted(model, n, x, 2).lam == pytest.approx(want, rel=1e-8), (n, x)

    def test_random_lattice_models(self):
        rng = np.random.default_rng(20)
        for _ in range(40):
            model, _ = random_lattice_model(rng)
            self._check(model, int(rng.integers(1, 500)))

    def test_no_lattice(self):
        """A life contract at q = 1/pi beside the unit and double classes:
        no common step."""
        model = PortfolioModel((UNIT, DOUBLE, life_class(1 / math.pi)), weights=(0.3, 0.2, 0.5))
        for n in (7, 1000):
            self._check(model, n)

    def test_target_near_the_top_of_a_wide_range(self):
        """A claim of -1e8 at 1e-12 beside a small class: the range's scale
        is 5e7 and x lies within 0.06 of its top.  A stop at |Lambda' - x|
        <= 1e-10 of that scale would end at lambda 0 for x = 0.001; the
        point tilt counts the target down from the top and puts the mean
        on it."""
        claim = LossClass("claim", (-1e8, 1e-4 / (1 - 1e-12)), (1e-12, 1 - 1e-12))
        small = LossClass("small", (-0.25, 0.125), (1 / 3, 2 / 3))
        model = PortfolioModel((claim, small), weights=(0.5, 0.5))
        for x in (0.001, 0.01, 0.03, 0.06):
            lam = sample_tilted(model, 1000, x, 10).lam
            assert empirical_cgf(model, 1000, lam).d1 == pytest.approx(x, rel=1e-12)

    def test_threshold_next_to_the_top_of_a_wide_range(self):
        """``demos/wide_claim.json`` at n = 100, x = 4e-5 below the top.
        One edge tolerance of 1e-12 of max(-bottom, top) = 5e9 refused it;
        the top's own, 1e-12 sum_c nu_c |v_max,c|, leaves it inside, and
        the tilt is ``legendre_transform``'s."""
        model, _ = loads_model(WIDE_CLAIM.read_bytes())
        want = legendre_transform(model, 0.06251)
        assert want.status == "interior"
        est = sample_tilted(model, 100, 0.06251, 2000, seed=12)
        assert est.lam == pytest.approx(want.lambda_star, rel=1e-9)
        assert math.isfinite(est.log_estimate)
        log_p = exact_log_tail(model, 100, 0.06251)
        assert abs(math.expm1(est.log_estimate - log_p)) <= 4 * math.exp(est.log_std_error - log_p)

    def test_support_of_1e9(self):
        """On {-1e9, 1e9} the tilt is atanh(x / 1e9) / 1e9."""
        model = PortfolioModel((LossClass("big", (-1e9, 1e9), (0.5, 0.5)),), weights=(1.0,))
        self._check(model, 10)
        for f in (-0.9, 0.1, 0.5):
            lam = sample_tilted(model, 10, f * 1e9, 2).lam
            assert lam == pytest.approx(math.atanh(f) / 1e9, rel=1e-12)


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

    @pytest.mark.parametrize("classes, n, x, n_samples", [
        ((UNIT, DOUBLE), 50, 0.1, 10**4),  # one group on the lattice: its law
        ((UNIT, life_class(1 / math.pi)), 40, 0.05, 3000),  # on no lattice: per class
        ((UNIT,), 3, 0.1, 2),
    ])
    def test_from_multiplicities(self, classes, n, x, n_samples, monkeypatch):
        """The estimate and standard error from the distinct sums and
        their counts equal the mean and the standard deviation, over
        sqrt(N), of the N indicators."""
        calls = _recorded_draws(monkeypatch)
        model = PortfolioModel(classes, weights=(1 / len(classes),) * len(classes))
        est = sample_plain(model, n, x, n_samples, seed=4)
        ((_, sums),) = calls
        hits = reaches(sums, n * x).astype(float)
        assert 0.0 < hits.mean() < 1.0
        assert est.estimate == pytest.approx(hits.mean(), rel=1e-12)
        assert est.std_error == pytest.approx(hits.std(ddof=1) / math.sqrt(n_samples), rel=1e-12)


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
FOUR = LossClass("four", (-2.0, 0.0, 1.0, 3.0), (0.375, 0.175, 0.3, 0.15))


def _recorded_draws(monkeypatch):
    """Record the contract counts and the N sums of every ``_sample_sums``
    call, its distinct values each repeated as often as it was drawn."""
    calls = []
    real = mc._sample_sums

    def recording(classes, counts, *args):
        values, mult = real(classes, counts, *args)
        assert (np.diff(values) > 0).all() and mult.min() >= 1
        calls.append((counts.tolist(), np.repeat(values, mult)))
        return values, mult

    monkeypatch.setattr(mc, "_sample_sums", recording)
    return calls


def _log_norm(model, n, lam):
    """sum_c nu_c log phi_c(lam), the log of the likelihood weight's scale."""
    return float(mixture_cgf(model.classes, model.counts(n), lam).value)


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
    # below the mean the sums and their counts are negated and reversed;
    # the skewed class's counts are not symmetric
    "skewed class below": ((UNIT, FOUR), (0.5, 0.5), 20, -0.3),
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
        # the draws come sorted: pairing them in that order is comonotone
        s = a + np.random.default_rng(11).permutation(b)
        f = np.where(reaches(s, n * x) != (est.lam < 0),
                     np.exp(-est.lam * s + _log_norm(model, n, est.lam)), 0.0)
        single_se = f.std(ddof=1) / math.sqrt(s.size)
        assert est.std_error * 3.0 <= single_se

    def test_no_counted_pair(self, pure_unit, monkeypatch):
        """Seed 43 draws no 10-contract sum of 10, or of -10, at 3
        replicates per group of 5 contracts."""
        calls = _recorded_draws(monkeypatch)
        above = sample_tilted(pure_unit, 10, 0.9, 3, seed=43)
        (_, a), (_, b) = calls
        assert a.max() + b.max() < 10.0  # the precondition: no counted pair
        assert (above.estimate, above.std_error) == (0.0, math.inf)
        assert (above.log_estimate, above.log_std_error) == (-math.inf, math.inf)
        below = sample_tilted(pure_unit, 10, -0.9, 3, seed=43)
        (_, a), (_, b) = calls[2:]
        assert a.min() + b.min() > -10.0
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


def test_claim_raw_against_the_exact_oracle(monkeypatch):
    """The centered raw claims of ``demos/claim_raw.json`` up to n = 1e6,
    where the oracle's window fits 64 MB."""
    monkeypatch.setenv("LOSSDEV_MEMORY_BUDGET", "64000000")
    model, _ = loads_model(CLAIM_RAW.read_bytes())
    for n in (10**3, 10**5, 10**6):
        est = sample_tilted(model, n, 0.3, 1000, seed=n)
        log_p = exact_log_tail(model, n, 0.3)
        z = math.expm1(est.log_estimate - log_p) / math.exp(est.log_std_error - log_p)
        assert abs(z) < 4.5, (n, z)


def _with_life_class(model, q):
    """``model`` with a centered life contract {-q, 1 - q} added: a
    quarter of the weight, or a round-robin run of one."""
    classes = (*model.classes, life_class(q))
    if model.is_weighted:
        return PortfolioModel(classes, weights=(*(0.75 * w for w in model.weights), 0.25))
    return PortfolioModel(classes, rule=RoundRobin((*model.rule.weights, 1)))


def test_coverage_against_the_exact_oracle():
    """Seeded random lattice models and thresholds on both sides of the
    mean: the z-scores of the pair average against ``exact_log_tail``
    look standard normal.  Every other model holds a life contract whose
    values share no lattice step, with q = 1/pi or 1/e, where the oracle
    puts the class's minimum in the offset of the sum."""
    rng = np.random.default_rng(2024)
    zs = []
    while len(zs) < 80:
        model, _ = random_lattice_model(rng)
        if len(zs) % 2:
            model = _with_life_class(model, (1 / math.pi, 1 / math.e)[len(zs) // 2 % 2])
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


def _random_lattice_class(rng, step=None):
    """A centered class of 2-7 points, 1-3 steps of ``step`` apart, or of
    0.25, 1/3 or 1 at random, with masses log-uniform down to 1e-30."""
    size = int(rng.integers(2, 8))
    steps = np.concatenate([[0], np.cumsum(rng.integers(1, 4, size - 1))])
    probs = 10.0 ** rng.uniform(-30, 0, size)
    probs /= probs.sum()
    support = steps * (step or float(rng.choice([0.25, 1 / 3, 1.0])))
    return LossClass("c", tuple((support - support @ probs).tolist()), tuple(probs.tolist()))


def _law_distance(model, n):
    """The total variation between ``_sum_law`` of the model's live
    classes as one group, on a window of any size, and the direct
    convolution of ``tests/oracle.py``, the mass the window leaves out,
    and whether the window is narrower than the lattice."""
    live = [(c, int(nu), np.asarray(c.probs)) for c, nu in zip(model.classes, model.counts(n))
            if nu > 0]
    offset, g, logp = direct_log_pmf(model, n)
    values, q = mc._sum_law(live, 10**9)
    # the window's values are offset + g (first + i), rounded once
    first = round((values[0] - offset) / g)
    assert values.tolist() == [math.fsum([offset, g * t])
                               for t in range(first, first + q.size)], model
    p = np.exp(logp)
    window = p[first:first + q.size]
    left_out = p[:first].sum() + p[first + q.size:].sum()
    return 0.5 * (np.abs(q - window).sum() + left_out), left_out, q.size < p.size


class TestSumLaw:
    """The law of a group's sum, which a group on a lattice draws by one
    multinomial over its window, against the direct convolution of
    ``tests/oracle.py``."""

    def test_against_direct_convolution(self):
        rng = np.random.default_rng(22)
        narrower = 0
        for _ in range(16):
            cls = _random_lattice_class(rng)
            nu = int(rng.integers(1, 301))
            distance, left_out, narrow = _law_distance(PortfolioModel((cls,), weights=(1.0,)), nu)
            assert distance <= 1e-12, (cls, nu)
            if narrow:
                narrower += 1
                assert left_out <= WINDOW_EPS, (cls, nu)
        assert narrower >= 4

    def test_two_classes_on_different_steps(self):
        """A class on steps of 1 beside one on steps of 1/3: one group on
        the lattice of step 1/3, each class's spectrum taken about its
        own point nearest its mean."""
        rng = np.random.default_rng(23)
        narrower = 0
        for _ in range(8):
            classes = (_random_lattice_class(rng, 1.0), _random_lattice_class(rng, 1 / 3))
            model = PortfolioModel(classes, rule=RoundRobin(tuple(rng.integers(1, 4).tolist()
                                                                  for _ in range(2))))
            n = int(rng.integers(2, 301))
            distance, left_out, narrow = _law_distance(model, n)
            assert distance <= 1e-12, (classes, n)
            if narrow:
                narrower += 1
                assert left_out <= WINDOW_EPS, (classes, n)
        assert narrower >= 2

    def test_chi_square_of_a_tilted_five_point_class(self):
        """10^5 sums of 200 contracts of a five-point class under a tilt,
        binned where the oracle expects at least 5 each: the chi-square
        statistic is not extreme."""
        cls = LossClass("five", (-1.0, -0.5, 0.0, 0.5, 1.5), (0.15, 0.25, 0.35, 0.1, 0.15))
        nu, theta, draws = 200, 0.3, 10**5
        steps = np.array([0, 1, 2, 3, 5])
        tilted = np.array(cls.probs) * np.exp(theta * steps)
        tilted /= tilted.sum()
        _, g, logp = direct_log_pmf(PortfolioModel((cls,), weights=(1.0,)), nu)
        logp = logp + theta * np.arange(logp.size)
        want = draws * np.exp(logp - logsumexp(logp))
        values, mult = mc._sample_sums((cls,), np.array([nu]), draws, mc._rng(3), [tilted])
        assert mult.sum() == draws
        t = np.rint((values - nu * cls.min_support) / g).astype(int)
        assert t.min() >= 0 and t.max() < logp.size
        got = np.bincount(t, weights=mult, minlength=logp.size)
        # the outermost bins take the tails where fewer than 5 are expected
        lo, hi = np.flatnonzero(want >= 5.0)[[0, -1]]
        got = np.concatenate([[got[:lo + 1].sum()], got[lo + 1:hi], [got[hi:].sum()]])
        want = np.concatenate([[want[:lo + 1].sum()], want[lo + 1:hi], [want[hi:].sum()]])
        stat = float(((got - want) ** 2 / want).sum())
        assert chi2.sf(stat, got.size - 1) > 1e-3, (stat, got.size)


INCOMMENSURABLE = LossClass("irrational", (-1.0, 0.0, math.sqrt(2.0)),
                            (0.3, 0.7 - 0.3 / math.sqrt(2.0), 0.3 / math.sqrt(2.0)))


@pytest.mark.parametrize("other, n, n_samples, x, oracle", [
    # gaps 1 and sqrt(2): no lattice, at n = 10 against enumeration
    (INCOMMENSURABLE, 10, 4000, 0.7, enumerate_tail),
    # 1000 contracts of {-2, 0, 1, 3} hold all but WINDOW_EPS of their
    # sum on some 1400 lattice points, more than the 1000 replicates
    (FOUR, 2000, 1000, 0.25, exact_log_tail),
])
def test_multinomial_beside_the_sum_law(other, n, n_samples, x, oracle, monkeypatch):
    """A class on no lattice, or whose window holds more points than the
    replicates, still takes a multinomial, beside the unit class, which
    takes its sum's law; the estimate is within 4 standard errors."""
    model = PortfolioModel((UNIT, other), weights=(0.5, 0.5))
    taken = []
    real = mc._sum_law

    def recording(live, *args):
        law = real(live, *args)
        taken.append(([cls.name for cls, _, _ in live], law is not None))
        return law

    monkeypatch.setattr(mc, "_sum_law", recording)
    est = sample_tilted(model, n, x, n_samples, seed=8)
    assert sorted(taken) == [([other.name], False), (["unit"], True)]
    got = oracle(model, n, x)
    p = got if oracle is enumerate_tail else math.exp(got)
    assert 0.0 < p < 1e-2 and abs(est.estimate - p) <= 4 * est.std_error, (est, p)
