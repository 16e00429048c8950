"""Fuzzing the front end: every input ends in a documented exit code with
at most one ``error:`` line on stderr and no traceback, and the loader
centers any class that asks for it."""

import contextlib
import copy
import io
import json
import math

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from lossdev.cli import dispatch
from lossdev.exact import enumerate_tail, exact_tail
from lossdev.model import CENTER_TOL, loads_model


def run(argv):
    """(exit code, stderr lines) of one CLI call; an escaping exception
    fails the test with its traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(argv)
    event(f"exit {code}")
    return code, err.getvalue().splitlines()


def error_lines(lines):
    return [line for line in lines if line.startswith("error:")]


JUNK_TEXT = st.sampled_from(["", "x", "1.5", "-0.5", "nan", "inf", "-inf", "1e400", "0x10"])
EDGE_WHOLE = st.one_of(st.integers(1, 12), st.integers(1, 12),
                       st.sampled_from([-1, 0, 2**53, 2**53 + 1, 10**30]))
OPTIONS = {
    "growth": EDGE_WHOLE,
    "depth": EDGE_WHOLE,
    "a0": EDGE_WHOLE,
    "x": st.floats(-2.5, 2.5) | st.floats(allow_nan=False, allow_infinity=False),
}


@settings(max_examples=50, deadline=None)
@given(options=st.fixed_dictionaries(
           {}, optional={name: values.map(str) for name, values in OPTIONS.items()}),
       max_n=st.integers(-3, 10_000).map(str),
       junk=st.one_of(*[st.none()] * 3, st.tuples(st.sampled_from([*OPTIONS, "max-n"]),
                                                   JUNK_TEXT)))
@example(options={}, max_n="0", junk=None)
@example(options={"depth": "1"}, max_n="1", junk=None)
@example(options={"growth": "1"}, max_n="100", junk=None)
@example(options={"a0": "0"}, max_n="100", junk=None)
def test_counterexample_options(options, max_n, junk):
    """Small and edge values, at most one of them not a number; the
    subcommand reads no model file, so it never exits 1."""
    options = {**options, "max-n": max_n, **dict([junk] if junk else [])}
    code, err = run(["counterexample", *(f"--{k}={v}" for k, v in options.items())])
    assert code in (0, 2, 3)
    assert len(error_lines(err)) == (code != 0)


UNIT = {"name": "unit", "support": [-1, 1], "probs": [0.5, 0.5]}
DOUBLE = {"name": "double", "support": [-2, 2], "probs": [0.5, 0.5], "center": False}
BASES = [
    {"bounds": {"c0": 2, "c1": 1}, "classes": [UNIT, DOUBLE],
     "regime": {"weighted": {"weights": [0.5, 0.5]}}},
    {"bounds": {"c0": 2, "c1": 1}, "classes": [UNIT, DOUBLE],
     "regime": {"assigned": {"round_robin": {"weights": [2, 1]}}}},
    {"bounds": {"c0": 2, "c1": 1}, "classes": [UNIT, DOUBLE],
     "regime": {"assigned": {"blocks": {"a0": 1, "growth": 10, "order": [0, 1],
                                        "accelerating": True}}}},
]
JUNK = st.sampled_from([None, True, False, "x", "", [], {}, [1, "a"], {"a": 1}, 0, -1, 0.5,
                        2.5, -3.7, 2**60, float("nan"), float("inf"), float("-inf")])


def _paths(node, path=()):
    """Every path into a JSON document, the root first."""
    yield path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, path + (key,))


@st.composite
def mutated_documents(draw):
    """A valid document with one to three fields replaced by junk (wrong
    types, NaN, Infinity, negative or fractional numbers) or deleted."""
    doc = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))[1:] or [()]))
        if not path:
            break
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(draw(JUNK))
    return json.dumps(doc)


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "model.json"


@settings(max_examples=100, deadline=None)
@given(text=mutated_documents())
@example(text=json.dumps({**BASES[0], "classes": None}))
@example(text=json.dumps({**BASES[0], "regime": None}))
def test_mutated_model_documents(doc_path, text):
    """A document that loads validates cleanly (exit 0); any other ends
    in one ``error:`` line and exit 1, the model-file code."""
    doc_path.write_text(text)
    code, err = run(["validate", str(doc_path)])
    assert code in (0, 1)
    assert len(error_lines(err)) == code


@settings(max_examples=100, deadline=None)
@given(support=st.lists(st.integers(-400, 400), min_size=2, max_size=6, unique=True)
       .map(lambda v: [k / 4 for k in v]),
       masses=st.lists(st.floats(0.01, 1.0), min_size=6, max_size=6))
def test_centered_class(support, masses):
    """A class with ``"center": true`` loads with mean 0, its support the
    file's support shifted by one constant."""
    masses = masses[:len(support)]
    probs = [m / math.fsum(masses) for m in masses]
    model, _ = loads_model(json.dumps({
        "bounds": {"c0": 1000, "c1": 1e-6},
        "classes": [{"name": "raw", "support": support, "probs": probs, "center": True}],
        "regime": {"weighted": {"weights": [1.0]}}}))
    (cls,) = model.classes
    assert abs(cls.mean) <= CENTER_TOL
    assert len(cls.support) == len(support)
    shifts = [v - c for v, c in zip(sorted(support), cls.support)]
    assert max(shifts) - min(shifts) <= 1e-12 * max(map(abs, support))


@settings(max_examples=100, deadline=None)
@given(support=st.lists(st.integers(-50, 50), min_size=2, max_size=4, unique=True),
       masses=st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
       beside_unit=st.booleans(), n=st.integers(1, 6),
       picks=st.lists(st.integers(0, 3), min_size=6, max_size=6),
       nudge=st.sampled_from([-0.5, 0.0, 0.5]))
def test_centered_class_is_exact(support, masses, beside_unit, n, picks, nudge):
    """A raw integer support with ``"center": true`` has values on no
    common step, but gaps on one: ``exact`` takes it, alone or beside the
    unit class, and agrees with enumeration at a sum of the contracts'
    own points or half a step of the gaps beside it."""
    masses = masses[:len(support)]
    probs = [m / math.fsum(masses) for m in masses]
    raw = {"name": "raw", "support": support, "probs": probs, "center": True}
    model, _ = loads_model(json.dumps({
        "bounds": {"c0": 100, "c1": 1e-6},
        "classes": [UNIT, raw] if beside_unit else [raw],
        "regime": {"weighted": {"weights": [0.5, 0.5] if beside_unit else [1.0]}}}))
    contracts = [c for c, nu in zip(model.classes, model.counts(n)) for _ in range(nu)]
    total = sum(c.support[i % len(c.support)] for c, i in zip(contracts, picks))
    step = math.gcd(*(v - min(support) for v in support), *([2] if beside_unit else []))
    x = (total + nudge * step) / n
    for inclusive in (True, False):
        want = enumerate_tail(model, n, x, inclusive)
        assert exact_tail(model, n, x, inclusive) == pytest.approx(want, rel=1e-12)


EDGE_SIZE = st.sampled_from([0, -1, 2**53, 2**53 + 1, 10**20])
QUERY_OPTIONS = {
    "n": st.integers(1, 200) | EDGE_SIZE,
    "x": st.floats(-2.5, 2.5) | st.floats(allow_nan=False, allow_infinity=False),
    "samples": st.integers(1, 5000) | st.just(10**5) | EDGE_SIZE,
    "seed": st.integers(0, 2**70) | EDGE_SIZE,
}
TAKES = {"exact": ("n", "x"), "mc": ("n", "x", "samples", "seed"), "mdp": ("n",)}


@pytest.fixture(scope="module")
def mix_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "mix.json"
    path.write_text(json.dumps(BASES[0]))
    return str(path)


@settings(max_examples=100, deadline=None)
@given(sub=st.sampled_from(["exact", "mc", "mdp"]), tilted=st.booleans(),
       values=st.fixed_dictionaries(QUERY_OPTIONS))
@example(sub="exact", tilted=False, values={"n": 10**20, "x": 0.5})
@example(sub="mc", tilted=False, values={"n": 10**20, "x": 0.5})
@example(sub="mdp", tilted=False, values={"n": 10**20})
@example(sub="mc", tilted=False, values={"n": 10, "x": 0.5, "samples": 2**53})
@example(sub="mc", tilted=False, values={"n": 10, "x": 0.5, "seed": -1})
@example(sub="mc", tilted=True, values={"n": 4, "x": -1.2, "samples": 1000, "seed": 4})  # < mean
def test_query_options(mix_path, sub, tilted, values):
    """Extreme sizes, thresholds, sample counts and seeds on the unit/double
    mix end in 0, 2 (bad option) or 3 (refused), never 1; a budget of
    1 MiB refuses huge lattices and sample arrays before they are built."""
    argv = [sub, "--model", mix_path, *(f"--{k}={v}" for k, v in values.items()
                                        if k in TAKES[sub])]
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("LOSSDEV_MEMORY_BUDGET", str(2**20))
        code, err = run(argv + (["--tilted"] if tilted and sub == "mc" else []))
    assert code in (0, 2, 3)
    assert len(error_lines(err)) == (code != 0)
