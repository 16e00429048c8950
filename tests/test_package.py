"""The package namespace, and what importing it loads."""

import os
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
    loads its layer and numpy, and works."""
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
        "print('numpy' in sys.modules)\n")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[-1] == "True" and lines[-4] == "False", done.stdout
    assert lines[-2].startswith("1000,0.29999999999999999,"), done.stdout
