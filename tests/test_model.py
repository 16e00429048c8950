import copy
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lossdev import (
    AssumptionBounds,
    BlockSchedule,
    LossClass,
    PortfolioModel,
    RoundRobin,
    check_assumptions,
    density_profile,
    loads_model,
)
from lossdev.model import ModelError, apportion

from oracle import numpy_loss_class


class TestLossClass:
    def test_probs_renormalized_exactly(self):
        eps = 5e-13
        cls = LossClass("c", (-1.0, 1.0), (0.5 + eps / 2, 0.5 + eps / 2))
        assert math.fsum(cls.probs) == pytest.approx(1.0, abs=1e-15)

    def test_zero_mass_points_removed(self):
        cls = LossClass("c", (-1.0, 0.5, 1.0), (0.5, 0.0, 0.5))
        assert cls.support == (-1.0, 1.0)

    def test_prob_sum_violation(self):
        with pytest.raises(ModelError, match=r"sum to 0\.9, not 1"):
            LossClass("c", (-1.0, 1.0), (0.45, 0.45))

    def test_probability_above_one(self):
        # refused before the sum, which would overflow to infinity
        with pytest.raises(ModelError, match=r"outside \[0, 1\]"):
            LossClass("c", (-1.0, 1.0), (1.7e308, 1.7e308))

    def test_not_centered(self):
        with pytest.raises(ModelError, match="mean"):
            LossClass("c", (0.0, 1.0), (0.5, 0.5))

    def test_zero_variance(self):
        with pytest.raises(ModelError, match="variance"):
            LossClass("c", (0.0,), (1.0,))

    def test_moments(self, unit_class):
        assert unit_class.mean == 0.0
        assert unit_class.variance == 1.0


@st.composite
def loss_class_args(draw):
    """(name, support, probs) of 1-7 points: centered classes, raw ones,
    and ones with a probability outside [0, 1], a point that is not
    finite or a duplicate point."""
    k = draw(st.integers(1, 7))
    values = draw(st.lists(st.floats(-1e6, 1e6), min_size=k, max_size=k, unique=True))
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k))
    total = math.fsum(weights)
    # off by up to twice the tolerance of the sum: both sides of the check
    probs = [w / total * (1.0 + draw(st.floats(-2e-12, 2e-12))) if total > 0 else w
             for w in weights]
    kind = draw(st.sampled_from(["centered", "raw", "probability", "not finite", "duplicate"]))
    if kind == "centered" and total > 0:
        mean = math.fsum(v * p for v, p in zip(values, probs))
        values = [v - mean for v in values]
    elif kind == "probability":
        probs[draw(st.integers(0, k - 1))] = draw(st.sampled_from([-1e-300, -0.5, 1.5, 1e308]))
    elif kind == "not finite":
        target = draw(st.sampled_from([values, probs]))
        target[draw(st.integers(0, k - 1))] = draw(st.sampled_from([math.nan, math.inf,
                                                                    -math.inf]))
    elif kind == "duplicate" and k > 1:
        values[1] = values[0]
    return "c", tuple(values), tuple(probs)


def _outcome(build, args):
    try:
        support, probs = build(*args)
    except ModelError as exc:
        # the mean is summed another way: the message names it to the last digit
        return re.sub(r"mean \S+ is", "mean is", str(exc))
    return [v.hex() for v in support], [p.hex() for p in probs]


@settings(max_examples=500, deadline=None)
@given(loss_class_args())
def test_loss_class_matches_the_numpy_reference(args):
    """The loader validates in Python floats: up to 7 points it keeps every
    support and probability bit and every ModelError of the numpy form,
    whose sum of fewer than 8 values runs left to right."""
    def build(*a):
        cls = LossClass(*a)
        return cls.support, cls.probs

    assert _outcome(build, args) == _outcome(numpy_loss_class, args)


class TestAssumptionBounds:
    def test_c1_cannot_exceed_c0_squared(self):
        with pytest.raises(ModelError):
            AssumptionBounds(c0=1.0, c1=1.5)

    def test_positive(self):
        with pytest.raises(ModelError):
            AssumptionBounds(c0=0.0, c1=0.1)

    @pytest.mark.parametrize("c0", [1.42e146, 1.3e154, 1e201])
    def test_c0_cap(self, c0):
        # 2**53 * c0^2 overflows above about 1.4127e146
        with pytest.raises(ModelError, match="too large"):
            AssumptionBounds(c0=c0, c1=1.0)
        assert AssumptionBounds(c0=1.41e146, c1=1.0).c0 == 1.41e146


class TestValidateModel:
    """``check_assumptions``: the c0 bound and the c1 variance floor."""

    def test_clean_symmetric_class(self, pure_unit):
        check_assumptions(pure_unit, AssumptionBounds(1.0, 1.0))

    def test_bound_exceeded(self, pure_double):
        with pytest.raises(ModelError, match=r"^class 'double' violates bound: "
                                             r"\|support\| reaches 2\.0 > c0 = 1\.0$"):
            check_assumptions(pure_double, AssumptionBounds(1.0, 1.0))

    def test_variance_floor(self):
        thin = LossClass("thin", (-1.0, 1.0), (0.5, 0.5))
        small = LossClass("small", (-0.1, 0.1), (0.5, 0.5))
        model = PortfolioModel((thin, small), weights=(0.5, 0.5))
        with pytest.raises(ModelError, match=r"^class 'small' violates variance floor: "
                                             r"variance 0\.01\d* < c1 = 0\.5$"):
            check_assumptions(model, AssumptionBounds(1.0, 0.5))


class TestAssignmentRules:
    def test_round_robin_counts(self):
        rule = RoundRobin((1, 1))
        assert rule.counts(10).tolist() == [5, 5]

    def test_block_counts_by_hand(self):
        rule = BlockSchedule(a0=1, growth=10, order=(0, 1))
        assert rule.counts(11).tolist() == [1, 10]
        assert rule.counts(111).tolist() == [101, 10]

    @given(n=st.integers(1, 5000),
           weights=st.lists(st.integers(1, 4), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_round_robin_counts_sum_and_density(self, n, weights):
        rule = RoundRobin(tuple(weights))
        counts = rule.counts(n)
        assert counts.sum() == n
        for i, w in enumerate(weights):
            assert abs(counts[i] / n - w / sum(weights)) <= sum(weights) / n

    @given(n=st.integers(1, 3000), a0=st.integers(1, 3),
           growth=st.integers(2, 5), accel=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_block_counts_sum(self, n, a0, growth, accel):
        rule = BlockSchedule(a0=a0, growth=growth, order=(0, 1), accelerating=accel)
        assert rule.counts(n).sum() == n

    @given(n=st.integers(1, 200),
           weights=st.lists(st.integers(0, 4), min_size=1, max_size=4).filter(any))
    @settings(max_examples=60, deadline=None)
    def test_round_robin_counts_match_the_expanded_cycle(self, n, weights):
        cycle = np.repeat(np.arange(len(weights)), weights)
        slots = np.resize(cycle, n)
        want = np.bincount(slots, minlength=len(weights))
        assert RoundRobin(tuple(weights)).counts(n).tolist() == want.tolist()

    def test_huge_round_robin_weight_is_not_expanded(self):
        rule = RoundRobin((10**12, 1))
        assert rule.counts(10**6).tolist() == [10**6, 0]
        assert rule.counts(10**12 + 3).tolist() == [10**12 + 2, 1]
        prof = density_profile(rule, 10**5)
        assert prof.running_min == prof.running_max == 1.0


def _density_path(rule, n_max):
    """d(n) for n = 1..n_max from an explicit assignment array: the
    expanded cycle for round-robin, each block's span for blocks."""
    if isinstance(rule, RoundRobin):
        assign = np.resize(np.repeat(np.arange(rule.n_classes), rule.weights), n_max)
    else:
        assign = np.concatenate([np.full(e - s + 1, c) for s, e, c in rule.blocks_upto(n_max)])
    onehot = np.eye(rule.n_classes)[assign]
    return np.cumsum(onehot, axis=0) / np.arange(1, n_max + 1)[:, None]


rules = st.one_of(
    st.lists(st.integers(0, 5), min_size=1, max_size=4).filter(any)
    .map(lambda w: RoundRobin(tuple(w))),
    st.builds(BlockSchedule, a0=st.integers(1, 4), growth=st.integers(2, 6),
              order=st.lists(st.integers(0, 3), min_size=1, max_size=4).map(tuple),
              accelerating=st.booleans()))


class TestDensityExtremes:
    @given(rule=rules, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_hull_holds_every_density(self, rule, seed):
        """max over n <= 3000 of a . d(n) never exceeds the max over the
        extremes, for 20 random functionals a: a . d is linear, so this
        is what the bound's certification needs."""
        path = _density_path(rule, 3000)
        ext = rule.density_extremes()
        assert ext.shape[1] == rule.n_classes
        assert np.allclose(ext.sum(axis=1), 1.0) and np.all(ext >= 0.0)
        a = np.random.default_rng(seed).uniform(-1.0, 1.0, (20, rule.n_classes))
        assert np.all((path @ a.T).max(axis=0) <= (ext @ a.T).max(axis=0) + 1e-12)

    def test_constant_ratio_growth_3(self):
        """Unit densities 1 at n = 1 and 1/4 at n = 4; the block ends
        after those stay between them."""
        ext = BlockSchedule(1, 3, (0, 1)).density_extremes()
        assert ext[:, 0].tolist() == [1.0, 0.25]

    def test_weighted_model_uses_its_positive_classes(self, unit_class, double_class):
        model = PortfolioModel((unit_class, double_class, unit_class), weights=(0.5, 0.0, 0.5))
        assert model.density_extremes().tolist() == [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]

    def test_rule_padded_to_the_model_classes(self, unit_class, double_class):
        model = PortfolioModel((unit_class, double_class), rule=RoundRobin((1,)))
        assert model.density_extremes().tolist() == [[1.0, 0.0]]


class TestDensityProfile:
    def test_round_robin_settles(self):
        prof = density_profile(RoundRobin((1, 1)), 1000)
        assert 0.499 <= prof.density[-1] <= 0.501

    def test_accelerating_blocks_oscillate(self):
        rule = BlockSchedule(a0=1, growth=10, order=(0, 1), accelerating=True)
        prof = density_profile(rule, 10**5)
        assert prof.running_min < 0.15
        assert prof.running_max > 0.85

    def test_geometric_blocks_oscillate_weakly(self):
        rule = BlockSchedule(a0=1, growth=10, order=(0, 1))
        prof = density_profile(rule, 10**5)
        assert prof.running_min < 0.15
        assert prof.running_max > 0.85

    def test_degenerate(self):
        prof = density_profile(RoundRobin((1, 1)), 1)
        assert prof.n.tolist() == [1]
        assert prof.density[0] in (0.0, 1.0)


class TestApportion:
    def test_counts_sum(self):
        for n in (1, 7, 100, 999):
            counts = apportion(np.array([0.2, 0.3, 0.5]), n)
            assert counts.sum() == n

    def test_tie_goes_to_lower_index(self):
        assert apportion(np.array([0.5, 0.5]), 3).tolist() == [2, 1]


VALID_DOC = {
    "bounds": {"c0": 2.0, "c1": 1.0},
    "classes": [
        {"name": "unit", "support": [-1, 1], "probs": [0.5, 0.5]},
        {"name": "double", "support": [-2, 2], "probs": [0.5, 0.5]},
    ],
    "regime": {"weighted": {"weights": [0.5, 0.5]}},
}


class TestLoadModel:
    def test_well_formed(self):
        model, bounds = loads_model(json.dumps(VALID_DOC))
        assert len(model.classes) == 2
        assert bounds.c0 == 2.0
        assert model.is_weighted

    def test_assigned_blocks(self):
        doc = dict(VALID_DOC)
        doc["regime"] = {"assigned": {"blocks": {"a0": 1, "growth": 10, "order": [0, 1]}}}
        model, _ = loads_model(json.dumps(doc))
        assert isinstance(model.rule, BlockSchedule)

    def test_bad_prob_sum(self):
        doc = json.loads(json.dumps(VALID_DOC))
        doc["classes"][0]["probs"] = [0.5, 0.4]
        with pytest.raises(ModelError, match="sum"):
            loads_model(json.dumps(doc))

    def test_non_centered_names_class(self):
        doc = json.loads(json.dumps(VALID_DOC))
        doc["classes"][1]["support"] = [-1, 2]
        with pytest.raises(ModelError, match="double"):
            loads_model(json.dumps(doc))

    def test_center_flag(self):
        doc = json.loads(json.dumps(VALID_DOC))
        doc["classes"][1] = {"name": "raw", "support": [0, 4], "probs": [0.5, 0.5],
                             "center": True}
        model, _ = loads_model(json.dumps(doc))
        assert abs(model.classes[1].mean) <= 1e-10

    def test_center_flag_large_support(self):
        # the centered mean, 8.1e-08, is rounding in values of order 3e9
        doc = json.loads(json.dumps(VALID_DOC))
        doc["bounds"]["c0"] = 4e9
        doc["classes"][1] = {"name": "raw", "support": [0, 1e9, 3000000000.1],
                             "probs": [0.3, 0.3, 0.4], "center": True}
        model, _ = loads_model(json.dumps(doc))
        assert abs(model.classes[1].mean) <= 1e-10 * 3e9

    def test_center_flag_exact_support(self):
        doc = json.loads(json.dumps(VALID_DOC))
        doc["bounds"]["c0"] = 7.5
        doc["classes"][1] = {"name": "raw", "support": [0, 10], "probs": [0.75, 0.25],
                             "center": True}
        model, _ = loads_model(json.dumps(doc))
        assert model.classes[1].support == (-2.5, 7.5)

    @pytest.mark.parametrize("field, value", [("center", "no"), ("center", "false"),
                                              ("center", 1), ("center", None),
                                              ("accelerating", "false"), ("accelerating", 0)])
    def test_flags_are_booleans(self, field, value):
        """bool("false") is True: a flag that is not JSON true or false is
        refused with its field, not read as one or the other."""
        doc = json.loads(json.dumps(VALID_DOC))
        if field == "center":
            doc["classes"][1]["center"] = value
        else:
            doc["regime"] = {"assigned": {"blocks": {"a0": 1, "growth": 10, "order": [0, 1],
                                                     "accelerating": value}}}
        with pytest.raises(ModelError, match=rf"\.{field} is not a bool"):
            loads_model(json.dumps(doc))

    def test_parse_error_reports_line(self):
        with pytest.raises(ModelError, match="line"):
            loads_model("{not json")

    def test_missing_field(self):
        with pytest.raises(ModelError, match="c1"):
            loads_model(json.dumps({"bounds": {"c0": 1}, "classes": [], "regime": {}}))


@pytest.mark.parametrize("kwargs", [{}, {"weights": (1.0,), "rule": RoundRobin((1,))}],
                         ids=["neither", "both"])
def test_portfolio_takes_exactly_one_of_weights_and_rule(unit_class, kwargs):
    with pytest.raises(ModelError, match="exactly one of weights / rule"):
        PortfolioModel((unit_class,), **kwargs)


RULE_FIELDS_NOT_WHOLE = {
    "negative order index": {"blocks": {"a0": 1, "growth": 10, "order": [0, -1]}},
    "fractional order index": {"blocks": {"a0": 1, "growth": 10, "order": [0, 0.5]}},
    "fractional a0": {"blocks": {"a0": 1.9, "growth": 10, "order": [0, 1]}},
    "fractional growth": {"blocks": {"a0": 1, "growth": 2.7, "order": [0, 1]}},
    "fractional round-robin weight": {"round_robin": {"weights": [0.5, 1]}},
    "round-robin weight beyond 2**53": {"round_robin": {"weights": [1e300, 1]}},
}


@pytest.mark.parametrize("case", sorted(RULE_FIELDS_NOT_WHOLE))
def test_rule_fields_must_be_whole_numbers(case):
    """No rule field is truncated: 0.5 would make class 0 never assigned,
    and -1 would wrap to the last class."""
    doc = json.loads(json.dumps(VALID_DOC))
    doc["regime"] = {"assigned": RULE_FIELDS_NOT_WHOLE[case]}
    with pytest.raises(ModelError, match="whole numbers"):
        loads_model(json.dumps(doc))


def test_integer_literal_beyond_the_double_range():
    text = json.dumps(VALID_DOC).replace('"c0": 2.0', '"c0": ' + "9" * 400)
    with pytest.raises(ModelError, match=r"bounds\.c0 is not finite"):
        loads_model(text)


NON_FINITE = [float("nan"), float("inf"), float("-inf")]
NUMBER_FIELDS = {
    "support": lambda doc, v: doc["classes"][0].update(support=[-1, v]),
    "probs": lambda doc, v: doc["classes"][1].update(probs=[0.5, v]),
    "weights": lambda doc, v: doc["regime"]["weighted"].update(weights=[v, 0.5]),
    "round-robin weights": lambda doc, v: doc.update(
        regime={"assigned": {"round_robin": {"weights": [1, v]}}}),
    "bound c0": lambda doc, v: doc["bounds"].update(c0=v),
    "bound c1": lambda doc, v: doc["bounds"].update(c1=v),
}


class TestNonFiniteRejected:
    """JSON NaN and Infinity parse to floats; every number must be finite."""

    @pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", sorted(NUMBER_FIELDS))
    def test_rejected(self, field, value):
        doc = json.loads(json.dumps(VALID_DOC))
        NUMBER_FIELDS[field](doc, value)
        with pytest.raises(ModelError, match="not finite"):
            loads_model(json.dumps(doc))

    def test_overflowing_literal(self):
        text = json.dumps(VALID_DOC).replace('"c0": 2.0', '"c0": 1e400')
        with pytest.raises(ModelError, match=r"bounds\.c0 is not finite"):
            loads_model(text)

    def test_non_numeric(self):
        doc = json.loads(json.dumps(VALID_DOC))
        doc["classes"][0]["support"] = [-1, "one"]
        with pytest.raises(ModelError, match=r"classes\[0\]\.support\[1\] is not a number"):
            loads_model(json.dumps(doc))


# one malformed number at each location loads_model reads numbers from,
# written into the document as the placeholder "@"
def _blocks(**fields):
    return lambda doc: doc.update(regime={"assigned": {"blocks": {
        "a0": 1, "growth": 10, "order": [0, 1], **fields}}})


MALFORMED_AT = {
    "bounds.c0": lambda doc: doc["bounds"].update(c0="@"),
    "classes[1].support[1]": lambda doc: doc["classes"][1].update(support=[-2, "@"]),
    "classes[1].probs[1]": lambda doc: doc["classes"][1].update(probs=[0.5, "@"]),
    "regime.weighted.weights[1]": lambda doc: doc["regime"]["weighted"].update(
        weights=[0.5, "@"]),
    "round_robin.weights[1]": lambda doc: doc.update(
        regime={"assigned": {"round_robin": {"weights": [1, "@"]}}}),
    "blocks.a0": _blocks(a0="@"),
    "blocks.growth": _blocks(growth="@"),
    "blocks.order[1]": _blocks(order=[0, "@"]),
}
# (JSON text of the value, what the message says of it)
MALFORMED = {"string": ('"x"', "is not a number: 'x'"), "nan": ("NaN", "is not finite: nan"),
             "infinity": ("Infinity", "is not finite: inf"),
             "overflow": ("1e400", "is not finite: inf")}


@pytest.mark.parametrize("value", sorted(MALFORMED))
@pytest.mark.parametrize("where", sorted(MALFORMED_AT))
def test_malformed_number_message(where, value):
    """The message names the field and the value, byte for byte, wherever
    the number sits: loads_model converts a list whole and looks at each
    item only when that fails."""
    doc = copy.deepcopy(VALID_DOC)
    MALFORMED_AT[where](doc)
    text, said = MALFORMED[value]
    with pytest.raises(ModelError) as err:
        loads_model(json.dumps(doc).replace('"@"', text))
    assert str(err.value) == f"{where} {said}"


class TestNonFiniteConstructors:
    """The Python constructors refuse what loads_model refuses: NaN fails
    every ``x > tol`` style check, so it needs its own."""

    @pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf"])
    def test_loss_class(self, value):
        with pytest.raises(ModelError, match="finite"):
            LossClass("a", (-1.0, value), (0.5, 0.5))
        with pytest.raises(ModelError, match="finite"):
            LossClass("a", (-1.0, 1.0), (0.5, value))

    @pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf"])
    def test_portfolio_weights(self, unit_class, value):
        with pytest.raises(ModelError, match="finite"):
            PortfolioModel((unit_class,), weights=(value,))
        with pytest.raises(ModelError, match="finite"):
            PortfolioModel((unit_class, unit_class), weights=(value, 0.5))

    @pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf"])
    def test_bounds_and_round_robin(self, value):
        with pytest.raises(ModelError, match="finite"):
            AssumptionBounds(c0=value, c1=1.0)
        with pytest.raises(ModelError, match="finite"):
            AssumptionBounds(c0=1.0, c1=value)
        with pytest.raises(ModelError, match="finite"):
            RoundRobin((1, value))
