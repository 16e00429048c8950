"""The package namespace, and what importing it loads."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lossdev

ROOT = Path(__file__).resolve().parents[1]
DEMOS = [str(ROOT / "demos" / name) for name in ("claim_mix.json", "claim_raw.json")]


def test_every_public_name_resolves():
    for name in lossdev.__all__:
        assert getattr(lossdev, name) is not None, name


def test_dir_lists_the_public_names_and_the_layers():
    names = dir(lossdev)
    assert set(lossdev.__all__) <= set(names)
    for layer in ("model", "cgf", "legendre", "exact", "mc", "moderate", "counterexample"):
        assert layer in names


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        lossdev.no_such_name  # noqa: B018
    assert not hasattr(lossdev, "latticize")


@pytest.mark.parametrize("layer", ["cgf", "legendre", "exact", "mc", "moderate",
                                   "counterexample"])
def test_each_layer_is_one_module_object(layer):
    module = getattr(lossdev, layer)
    assert module is sys.modules[f"lossdev.{layer}"]


def test_names_follow_a_replaced_layer_function(monkeypatch):
    def replaced(*args):
        return 0.5

    monkeypatch.setattr(lossdev.exact, "exact_tail", replaced)
    assert lossdev.exact_tail is replaced


def test_import_validate_and_help_load_no_numpy():
    """``import lossdev``, ``validate`` of both demo model files and
    ``--help`` run in Python floats; the first ``exact`` after them
    loads its layer and numpy, and works.  The records are plain
    classes: after ``rate`` and ``mc --tilted`` too, ``dataclasses`` is
    not loaded (numpy does not load it either)."""
    script = (
        "import contextlib, io, sys\n"
        "import lossdev\n"
        "from lossdev.cli import dispatch\n"
        f"for path in {DEMOS!r}:\n"
        "    assert dispatch(['validate', path]) == 0\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert dispatch(['--help']) == 0\n"
        "print('numpy' in sys.modules)\n"
        f"assert dispatch(['exact', '--model', {DEMOS[0]!r}, '--n', '1000', '--x', '0.3']) == 0\n"
        "print('numpy' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert dispatch(['rate', '--model', {DEMOS[0]!r}, '--x', '0.3']) == 0\n"
        f"    assert dispatch(['mc', '--model', {DEMOS[0]!r}, '--n', '1000', '--x', '0.3',\n"
        "                     '--samples', '2000', '--tilted']) == 0\n"
        "print('dataclasses' in sys.modules)\n")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[-2] == "True" and lines[-5] == "False", done.stdout
    assert lines[-3].startswith("1000,0.29999999999999999,"), done.stdout
    assert lines[-1] == "False", done.stdout


def test_no_source_file_imports_dataclasses():
    sources = sorted((ROOT / "src" / "lossdev").glob("*.py"))
    assert sources
    for source in sources:
        for line in source.read_text().splitlines():
            assert not re.match(r"\s*(import|from)\s+dataclasses\b", line), (source, line)
