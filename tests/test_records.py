"""The package's records: read-only, equal and hashed by their field
values, with the ``repr`` a frozen dataclass gives."""

import copy
import pickle
from pathlib import Path

import pytest

import lossdev
from lossdev import cgf, loads_model
from lossdev.cgf import CgfPoint
from lossdev.counterexample import SubsequencePoint, SubsequenceReport
from lossdev.legendre import RatePoint
from lossdev.mc import TailEstimate
from lossdev.model import (AssumptionBounds, BlockSchedule, DensityProfile, LossClass,
                           PortfolioModel, Record, RoundRobin)
from lossdev.moderate import MdPrediction, MdQuery, MdThresholds

CLAIM_MIX = Path(__file__).resolve().parents[1] / "demos" / "claim_mix.json"
UNIT = LossClass("unit", (-1.0, 1.0), (0.5, 0.5))

# every record class, with the arguments of one instance
RECORDS = [
    (LossClass, ("a", (-1.0, 1.0), (0.5, 0.5))),
    (AssumptionBounds, (2.0, 1.0)),
    (RoundRobin, ((1, 2),)),
    (BlockSchedule, (1, 10, (0, 1), True)),
    (PortfolioModel, ((UNIT,), (1.0,))),
    (DensityProfile, ((1, 2), (1.0, 0.5), 0.5, 1.0)),
    (CgfPoint, (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)),
    (RatePoint, (0.3, 0.5, 0.1, "interior")),
    (TailEstimate, (0.1, 0.01, 100, "tilted", 1, 0.5, -2.3, -4.6)),
    (SubsequencePoint, (10, 0.9, -0.2)),
    (SubsequenceReport, (0.5, 1, (SubsequencePoint(10, 0.9, -0.2),), -0.13, 0.07)),
    (MdQuery, (1.5, 0.25, 100)),
    (MdThresholds, (0.3, 0.4, 0.2)),
    (MdPrediction, (11.25, 0.56)),
]
IDS = [cls.__name__ for cls, _ in RECORDS]
# the records that take their fields as they are, by Record.__init__
PLAIN = [(cls, args) for cls, args in RECORDS if cls.__init__ is Record.__init__]


def test_every_record_class_is_in_the_table():
    for name in lossdev.__all__:  # executes every lazy layer
        getattr(lossdev, name)
    defined = {cls for cls in Record.__subclasses__() if cls.__module__.startswith("lossdev.")}
    assert defined == {cls for cls, _ in RECORDS}


@pytest.mark.parametrize(("cls", "args"), PLAIN, ids=[cls.__name__ for cls, _ in PLAIN])
def test_wrong_field_count_is_a_type_error(cls, args):
    for wrong in (args[:-1], (*args, None)):
        with pytest.raises(TypeError, match=rf"^{cls.__name__}\(\) takes {len(args)} fields"):
            cls(*wrong)


@pytest.mark.parametrize(("cls", "args"), RECORDS, ids=IDS)
def test_equal_values_give_equal_records_and_hashes(cls, args):
    a, b = cls(*args), cls(*args)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize(("cls", "args"), RECORDS, ids=IDS)
def test_fields_are_the_slots_in_order(cls, args):
    record = cls(*args)
    assert record._values() == tuple(getattr(record, name) for name in cls.__slots__)
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize(("cls", "args"), RECORDS, ids=IDS)
def test_never_equal_to_another_class(cls, args):
    record = cls(*args)
    for other, other_args in RECORDS:
        if other is not cls:
            assert record != other(*other_args)
    assert record != record._values()
    assert record.__eq__(record._values()) is NotImplemented


def test_same_values_in_another_class_are_not_equal():
    assert MdThresholds(0.3, 0.4, 0.2) != SubsequencePoint(0.3, 0.4, 0.2)
    assert MdThresholds(0.3, 0.4, 0.2) != (0.3, 0.4, 0.2)


@pytest.mark.parametrize(("cls", "args"), RECORDS, ids=IDS)
def test_fields_are_read_only(cls, args):
    record = cls(*args)
    for name in cls.__slots__:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.no_such_field = 1
    assert record == cls(*args)


@pytest.mark.parametrize(("cls", "args"), RECORDS, ids=IDS)
def test_copy_and_pickle_keep_the_fields(cls, args):
    record = cls(*args)
    for twin in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and twin == record


def test_repr_reads_as_the_dataclass_repr():
    assert repr(LossClass("a", (-1, 1), (0.5, 0.5))) == (
        "LossClass(name='a', support=(-1.0, 1.0), probs=(0.5, 0.5))")
    model, bounds = loads_model(CLAIM_MIX.read_bytes())
    assert repr(model) == (
        "PortfolioModel(classes=(LossClass(name='unit', support=(-1.0, 1.0), "
        "probs=(0.5, 0.5)), LossClass(name='claims', support=(-1000.0, 1.0), "
        "probs=(0.000999000999000999, 0.999000999000999))), weights=(0.5, 0.5), rule=None)")
    assert repr(bounds) == "AssumptionBounds(c0=1000.0, c1=1.0)"
    assert repr(PortfolioModel((UNIT,), rule=RoundRobin((2,)))) == (
        "PortfolioModel(classes=(LossClass(name='unit', support=(-1.0, 1.0), "
        "probs=(0.5, 0.5)),), weights=None, rule=RoundRobin(weights=(2,)))")
    assert repr(BlockSchedule(1, 10, (0, 1), accelerating=True)) == (
        "BlockSchedule(a0=1, growth=10, order=(0, 1), accelerating=True)")


def test_defaults_and_keywords():
    assert BlockSchedule(1, 10, (0, 1)).accelerating is False
    assert BlockSchedule(a0=1, growth=10, order=(0, 1)) == BlockSchedule(1, 10, (0, 1), False)
    assert PortfolioModel((UNIT,), weights=(1.0,)).rule is None
    assert PortfolioModel(classes=(UNIT,), rule=RoundRobin((1,))).weights is None
    point = SubsequencePoint(10, 0.9, -0.2)
    assert SubsequenceReport(0.5, 1, (point,), -0.13, 0.07).partial is False


def test_models_loaded_twice_share_the_class_matrix():
    data = CLAIM_MIX.read_bytes()
    first, _ = loads_model(data)
    second, _ = loads_model(data)
    assert first == second and first is not second
    assert hash(first.classes) == hash(second.classes)
    cgf._class_matrix(first.classes)
    hits = cgf._class_matrix.cache_info().hits
    assert cgf._class_matrix(second.classes) is cgf._class_matrix(first.classes)
    assert cgf._class_matrix.cache_info().hits == hits + 2
