import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import DEPLETED_WINDOW, DEPLETED_X
from lossdev.cgf import empirical_cgf, limit_cgf
from lossdev.cli import EXIT_CODES, _fmt, dispatch, emit_curve
from lossdev.exact import IncommensurableSupportError
from lossdev.legendre import _two_point_rate
from lossdev.mc import TiltingRangeError
from lossdev.model import MemoryBudgetError, ModelError, Refused, loads_model
from lossdev.moderate import CltRegimeError

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def unit_model_file(tmp_path):
    doc = {"bounds": {"c0": 1, "c1": 1},
           "classes": [{"name": "unit", "support": [-1, 1], "probs": [0.5, 0.5]}],
           "regime": {"weighted": {"weights": [1.0]}}}
    path = tmp_path / "unit.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def bad_model_file(tmp_path):
    doc = {"bounds": {"c0": 1, "c1": 1},
           "classes": [{"name": "u", "support": [-1, 1], "probs": [0.5, 0.4]}],
           "regime": {"weighted": {"weights": [1.0]}}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def mix_model_file(tmp_path):
    """The weighted 50/50 mix of the unit and the double class."""
    doc = {"bounds": {"c0": 2, "c1": 1},
           "classes": [{"name": "unit", "support": [-1, 1], "probs": [0.5, 0.5]},
                       {"name": "double", "support": [-2, 2], "probs": [0.5, 0.5]}],
           "regime": {"weighted": {"weights": [0.5, 0.5]}}}
    path = tmp_path / "mix.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def round_robin_file(tmp_path):
    """The unit and the double class assigned round-robin, one each."""
    path = tmp_path / "round_robin.json"
    path.write_text(json.dumps({
        "bounds": {"c0": 2, "c1": 1},
        "classes": [{"name": "unit", "support": [-1, 1], "probs": [0.5, 0.5]},
                    {"name": "double", "support": [-2, 2], "probs": [0.5, 0.5]}],
        "regime": {"assigned": {"round_robin": {"weights": [1, 1]}}}}))
    return str(path)


def _two_point_file(tmp_path, c0, a):
    """A weighted model file of the class {-a, +a} under the bound c0 and
    the variance floor min(1, a^2)."""
    path = tmp_path / f"two_point_{c0:g}_{a:g}.json"
    path.write_text(json.dumps({
        "bounds": {"c0": c0, "c1": min(1, a * a)},
        "classes": [{"name": "d", "support": [-a, a], "probs": [0.5, 0.5]}],
        "regime": {"weighted": {"weights": [1.0]}}}))
    return str(path)


class TestEmitCurve:
    def test_empty_points_header_only(self):
        assert emit_curve([], ["a", "b"]) == "a,b\n"

    def test_seventeen_digit_rendering(self):
        text = emit_curve([(1 / 3,)], ["v"])
        assert text == "v\n0.33333333333333331\n"

    def test_infinity_rendering(self):
        assert "inf" in emit_curve([(float("inf"),)], ["rate"])

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            emit_curve([(1, 2)], ["only"])

    @pytest.mark.parametrize("bad", [(1.0, 2), (1.0, 2, "x", 3)])
    def test_arity_mismatch_on_a_later_row(self, bad):
        rows = [(0.5, 1, "a"), (0.25, 2, "b"), bad]
        with pytest.raises(ValueError):
            emit_curve(rows, ["x", "n", "s"])

    def test_template_matches_per_value_rendering(self):
        rows = [(math.inf, 10**17 + 1, "interior", -0.0),
                (-math.inf, 2**63, "infinite", 1 / 3),
                (-0.0, -(10**20), "boundary", math.nan),
                (1e-300, 0, "", -2.5e17)]
        want = "a,b,c,d\n" + "".join(",".join(_fmt(v) for v in r) + "\n" for r in rows)
        assert emit_curve(rows, ["a", "b", "c", "d"]) == want
        assert want.splitlines()[1] == "inf,100000000000000001,interior,-0"


class TestDispatch:
    def test_validate_ok(self, unit_model_file, capsys):
        assert dispatch(["validate", unit_model_file]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "class,clause,detail"

    def test_validate_ok_prints_the_header_alone(self, unit_model_file, capsys):
        assert dispatch(["validate", unit_model_file]) == 0
        assert capsys.readouterr().out == "class,clause,detail\n"

    def test_validate_bad_file(self, bad_model_file, capsys):
        assert dispatch(["validate", bad_model_file]) == 1

    def test_unknown_subcommand(self, capsys):
        assert dispatch(["frobnicate"]) == 2

    def test_rate_value(self, unit_model_file, capsys):
        assert dispatch(["rate", "--model", unit_model_file, "--x", "0.5"]) == 0
        captured = capsys.readouterr()
        row = captured.out.splitlines()[1].split(",")
        assert float(row[2]) == pytest.approx(0.13081203594113694, abs=1e-12)
        manifest = json.loads(captured.err.splitlines()[-1])
        assert manifest["subcommand"] == "rate"
        assert len(manifest["model_hash"]) == 64

    def test_exact_quarter(self, unit_model_file, capsys):
        assert dispatch(["exact", "--model", unit_model_file, "--n", "2", "--x", "1"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert float(row[2]) == pytest.approx(0.25)

    def test_rate_infinite_row(self, unit_model_file, capsys):
        dispatch(["rate", "--model", unit_model_file, "--x", "2.0"])
        row = capsys.readouterr().out.splitlines()[1]
        assert row.endswith("inf,infinite")

    def test_negative_exponent_notation_is_a_number(self, unit_model_file, capsys):
        assert dispatch(["rate", "--model", unit_model_file, "--x", "-1e308"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 1 and rows[0].endswith(",infinite")
        assert dispatch(["rate", "--model", unit_model_file, "--x", "-1.5E-1"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert float(row[0]) == -0.15 and row[3] == "interior"

    def test_mc_reproducible(self, unit_model_file, capsys):
        argv = ["mc", "--model", unit_model_file, "--n", "50", "--x", "0.5",
                "--samples", "2000", "--tilted", "--seed", "42"]
        assert dispatch(argv) == 0
        first = capsys.readouterr().out
        assert dispatch(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_mc_columns(self, unit_model_file, capsys):
        """The log columns follow the first four; at n = 100000 the estimate
        underflows to 0 and log P is about -13086.6."""
        assert dispatch(["mc", "--model", unit_model_file, "--n", "100000", "--x", "0.5",
                         "--samples", "2000", "--tilted", "--seed", "1"]) == 0
        header, row = capsys.readouterr().out.splitlines()
        assert header == "estimate,std_error,method,lambda_star,log_estimate,log_std_error"
        cols = dict(zip(header.split(","), row.split(",")))
        assert (cols["estimate"], cols["std_error"], cols["method"]) == ("0", "0", "tilted")
        assert float(cols["log_estimate"]) == pytest.approx(-13086.6, abs=0.2)
        assert float(cols["log_std_error"]) < float(cols["log_estimate"]) - 3.0

    def test_mdp(self, unit_model_file, capsys):
        assert dispatch(["mdp", "--model", unit_model_file, "--n", "10000"]) == 0
        header, row = capsys.readouterr().out.splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert float(cols["predicted_minus_log_prob"]) == pytest.approx(0.5 * 10**2.4)

    def test_cgf_curve(self, unit_model_file, round_robin_file, capsys):
        """The limit CGF of a weighted model; the empirical CGF of an
        assigned one at --n, 1000 by default."""
        for path, argv, n in ((unit_model_file, ["--points", "5"], None),
                              (round_robin_file, ["--n", "7", "--points", "3"], 7),
                              (round_robin_file, ["--points", "3"], 1000)):
            assert dispatch(["cgf", "--model", path, *argv]) == 0
            model, _ = loads_model(Path(path).read_bytes())
            grid = np.linspace(-5.0, 5.0, int(argv[-1]))
            p = limit_cgf(model, grid) if n is None else empirical_cgf(model, n, grid)
            want = ["lambda,value,d1,d2"] + [",".join(f"{v:.17g}" for v in row)
                                             for row in zip(p.lam, p.value, p.d1, p.d2)]
            assert capsys.readouterr().out.splitlines() == want

    def test_counterexample_summary(self, capsys):
        argv = ["counterexample", "--growth", "10", "--depth", "4", "--x", "0.5",
                "--max-n", "2000"]
        assert dispatch(argv) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "section,n,density_class1,log_rate"
        assert "rate_separation=" in out.splitlines()[-1]
        assert out.splitlines()[-1].endswith(",partial1=False,partial2=False")

    def test_bound_positive(self, tmp_path, capsys):
        doc = {"bounds": {"c0": 2, "c1": 1},
               "classes": [{"name": "u", "support": [-1, 1], "probs": [0.5, 0.5]},
                            {"name": "d", "support": [-2, 2], "probs": [0.5, 0.5]}],
               "regime": {"assigned": {"blocks": {"a0": 1, "growth": 10,
                                                  "order": [0, 1],
                                                  "accelerating": True}}}}
        path = tmp_path / "blocks.json"
        path.write_text(json.dumps(doc))
        assert dispatch(["bound", "--model", str(path), "--x", "0.5"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert 0.0 < float(row[1]) < 0.14

    def test_bound_below_the_mean_is_zero_not_minus_zero(self, round_robin_file, tmp_path,
                                                          capsys):
        # the log-MGF of {-1, 3} at lambda = 0 rounds to +1.1e-16
        skew = tmp_path / "skew_round_robin.json"
        skew.write_text(json.dumps({
            "bounds": {"c0": 3, "c1": 1},
            "classes": [{"name": "skew", "support": [-1, 3], "probs": [0.75, 0.25]},
                        {"name": "double", "support": [-2, 2], "probs": [0.5, 0.5]}],
            "regime": {"assigned": {"round_robin": {"weights": [1, 1]}}}}))
        for path in (round_robin_file, str(skew)):
            for x, row in (("-0.5", "-0.5,0"), ("0", "0,0")):
                assert dispatch(["bound", "--model", path, f"--x={x}"]) == 0
                assert capsys.readouterr().out.splitlines()[1] == row

    @pytest.mark.parametrize("a", [1e9, 1.41e146])
    def test_default_rate_grid_on_a_wide_support(self, tmp_path, capsys, a):
        """{-a, a} under c0 = a, up to the c0 cap: every default grid point
        converges to the closed form."""
        assert dispatch(["rate", "--model", _two_point_file(tmp_path, a, a)]) == 0
        rows = [r.split(",") for r in capsys.readouterr().out.splitlines()[1:]]
        assert len(rows) == 51 and all(r[3] == "interior" for r in rows)
        for x, _, rate, _ in rows:
            assert float(rate) == pytest.approx(_two_point_rate(float(x), a), abs=1e-15)


class TestExitCodes:
    """One test per entry of cli.EXIT_CODES: a single ``error:`` line on
    stderr and the documented code, never a traceback."""

    @staticmethod
    def _fails(argv, code, capsys):
        assert dispatch(argv) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_model_error(self, bad_model_file, capsys):
        self._fails(["exact", "--model", bad_model_file, "--n", "10", "--x", "0.5"], 1, capsys)

    def test_validate_non_finite_weight(self, tmp_path, capsys):
        text = json.dumps({"bounds": {"c0": 1, "c1": 1},
                           "classes": [{"name": "unit", "support": [-1, 1],
                                        "probs": [0.5, 0.5]}],
                           "regime": {"weighted": {"weights": [float("nan")]}}})
        path = tmp_path / "nan.json"
        path.write_text(text)
        assert "NaN" in text
        self._fails(["validate", str(path)], 1, capsys)

    def test_missing_model_file(self, tmp_path, capsys):
        self._fails(["rate", "--model", str(tmp_path / "absent.json"), "--x", "0.5"], 2, capsys)

    def test_tilting_range(self, unit_model_file, capsys):
        self._fails(["mc", "--model", unit_model_file, "--n", "100", "--x", "1.0",
                     "--tilted", "--samples", "10"], 3, capsys)

    def test_clt_regime(self, unit_model_file, capsys):
        # y = c n^alpha = 0.5 * 1 <= 1
        self._fails(["mdp", "--model", unit_model_file, "--n", "1", "--c", "0.5"], 3, capsys)

    def test_memory_budget(self, unit_model_file, monkeypatch, capsys):
        monkeypatch.setenv("LOSSDEV_MEMORY_BUDGET", "128")
        self._fails(["exact", "--model", unit_model_file, "--n", "1000", "--x", "0.5"], 3, capsys)

    def test_rate_on_an_assigned_model(self, round_robin_file, capsys):
        self._fails(["rate", "--model", round_robin_file, "--x", "0.5"], 3, capsys)

    def test_solver_error(self, unit_model_file, monkeypatch, capsys):
        monkeypatch.setattr("lossdev.cgf.MAX_ITER", 0)
        self._fails(["rate", "--model", unit_model_file, "--x", "0.5"], 3, capsys)

    def test_depleted_window(self, tmp_path, capsys):
        path = tmp_path / "depleted.json"
        path.write_text(json.dumps(DEPLETED_WINDOW))
        self._fails(["exact", "--model", str(path), "--n", "71", "--x", repr(DEPLETED_X)], 3,
                    capsys)

    def test_incommensurable_supports(self, tmp_path, capsys):
        root2 = 2 ** 0.5
        path = tmp_path / "root2.json"
        path.write_text(json.dumps({
            "bounds": {"c0": 2, "c1": 1},
            "classes": [{"name": "unit", "support": [-1, 1], "probs": [0.5, 0.5]},
                        {"name": "root2", "support": [-root2, root2], "probs": [0.5, 0.5]}],
            "regime": {"weighted": {"weights": [0.5, 0.5]}}}))
        self._fails(["exact", "--model", str(path), "--n", "10", "--x", "0.5"], 3, capsys)

    @pytest.mark.parametrize("sub", ["exact", "mc", "mdp"])
    def test_portfolio_size(self, unit_model_file, sub, capsys):
        argv = [sub, "--model", unit_model_file, "--n", "0"]
        if sub != "mdp":
            argv += ["--x", "0.5"]
        self._fails(argv, 3, capsys)

    def test_mdp_alpha_out_of_range(self, unit_model_file, capsys):
        self._fails(["mdp", "--model", unit_model_file, "--n", "100", "--alpha", "0.7"],
                    2, capsys)

    @pytest.mark.parametrize("sub", ["rate", "bound", "cgf"])
    def test_no_grid_points(self, unit_model_file, sub, capsys):
        self._fails([sub, "--model", unit_model_file, "--points", "0"], 2, capsys)

    @pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
    def test_non_finite_threshold(self, unit_model_file, value, capsys):
        self._fails(["rate", "--model", unit_model_file, "--x", value], 2, capsys)

    @pytest.mark.parametrize("argv, code", [
        (["--max-n", "0"], 3),  # no block end at or below max-n
        (["--depth", "1", "--max-n", "1"], 3),
        (["--growth", "1"], 2),  # an option, not a model file
        (["--a0", "0"], 2),
    ])
    def test_counterexample_options(self, argv, code, capsys):
        self._fails(["counterexample", *argv], code, capsys)

    def test_validate_violation(self, tmp_path, capsys):
        """Each file breaks one rule of the model: a single ``error:`` line
        that names it, and no CSV."""
        unit = {"name": "u", "support": [-1, 1], "probs": [0.5, 0.5]}
        weighted = {"weighted": {"weights": [1.0]}}
        cases = {
            "bound": ({"name": "d", "support": [-2, 2], "probs": [0.5, 0.5]}, weighted),
            "length mismatch or empty": ({"name": "e", "support": [], "probs": []}, weighted),
            "length mismatch": ({"name": "m", "support": [-1, 1], "probs": [1.0]}, weighted),
            "no support points with positive mass": (
                {"name": "z", "support": [-1, 1], "probs": [0, 0]}, weighted),
            "duplicate support values": (
                {"name": "dup", "support": [-1, -1, 1], "probs": [0.25, 0.25, 0.5]}, weighted),
            # no mean to subtract: the class refuses the probabilities
            "positive mass": (
                {"name": "c", "support": [0, 2], "probs": [0, 0], "center": True}, weighted),
            # bool("no") and bool("false") are True: only JSON true and false are flags
            "classes[0].center is not a bool": ({**unit, "center": "no"}, weighted),
            "blocks.accelerating is not a bool": (unit, {"assigned": {"blocks": {
                "a0": 1, "growth": 10, "order": [0], "accelerating": "false"}}}),
            "one weight per class": (unit, {"weighted": {"weights": [0.5, 0.5]}}),
            "class index out of range": (
                unit, {"assigned": {"round_robin": {"weights": [1, 1]}}}),
            "'round_robin' or 'blocks'": (unit, {"assigned": {}}),
        }
        for i, (message, (cls, regime)) in enumerate(cases.items()):
            path = tmp_path / f"bad_{i}.json"
            path.write_text(json.dumps({"bounds": {"c0": 1, "c1": 1}, "classes": [cls],
                                        "regime": regime}))
            assert dispatch(["validate", str(path)]) == 1, message
            captured = capsys.readouterr()
            assert captured.out == ""
            err = captured.err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]

    @pytest.mark.parametrize("c0, a", [(1e201, 1.0), (1.3e154, 1.3e154)])
    def test_c0_over_the_cap(self, tmp_path, c0, a, capsys):
        self._fails(["validate", _two_point_file(tmp_path, c0, a)], 1, capsys)

    def test_support_far_over_c0(self, tmp_path, capsys):
        # the zero-variance check squares nothing, so no overflow warning
        # comes before the bound check's line
        assert dispatch(["validate", _two_point_file(tmp_path, 1.0, 1e200)]) == 1
        assert capsys.readouterr().err == (
            "error: class 'd' violates bound: |support| reaches 1e+200 > c0 = 1.0\n")

    @pytest.mark.parametrize("sub", ["cgf"])
    def test_lambda_times_support_overflows(self, tmp_path, sub, capsys):
        argv = [sub, "--model", _two_point_file(tmp_path, 2.0, 2.0), "--lambda-max", "1e308"]
        self._fails(argv, 3, capsys)

    def test_model_path_is_a_directory(self, tmp_path, capsys):
        self._fails(["exact", "--model", str(tmp_path), "--n", "10", "--x", "0.5"], 2, capsys)

    def test_model_file_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"bounds": {"c0": 1, "c1": 1}, "classes": [{"name": "\xe9"}]}')
        self._fails(["validate", str(path)], 1, capsys)

    @pytest.mark.parametrize("sub", ["exact", "mc", "mdp"])
    def test_portfolio_size_above_2_53(self, mix_model_file, sub, capsys):
        argv = [sub, "--model", mix_model_file, "--n", str(10**20)]
        if sub != "mdp":
            argv += ["--x", "0.5"]
        self._fails(argv, 3, capsys)

    def test_samples_over_the_memory_budget(self, mix_model_file, capsys):
        self._fails(["mc", "--model", mix_model_file, "--n", "10", "--x", "0.5",
                     "--samples", str(2**53)], 3, capsys)

    def test_sum_law_over_the_memory_budget(self, unit_model_file, monkeypatch, capsys):
        """10^5 unit contracts hold their sum on a window of 3750 lattice
        points: 3750 plain replicates fit 190000 bytes, the window's
        spectrum and its inverse do not."""
        argv = ["mc", "--model", unit_model_file, "--n", "100000", "--x", "0.01",
                "--samples", "3750"]
        monkeypatch.setenv("LOSSDEV_MEMORY_BUDGET", "190000")
        assert dispatch(argv) == 3
        assert capsys.readouterr().err.startswith("error: lattice arrays of 26264 doubles")
        monkeypatch.setenv("LOSSDEV_MEMORY_BUDGET", "220000")
        assert dispatch(argv) == 0

    def test_memory_budget_not_a_whole_number(self, unit_model_file, monkeypatch, capsys):
        monkeypatch.setenv("LOSSDEV_MEMORY_BUDGET", "2GB")
        self._fails(["exact", "--model", unit_model_file, "--n", "10", "--x", "0.5"], 3, capsys)

    def test_negative_seed(self, unit_model_file, capsys):
        self._fails(["mc", "--model", unit_model_file, "--n", "10", "--x", "0.5",
                     "--seed", "-1"], 2, capsys)

    def test_counterexample_ends_past_2_53(self, capsys):
        # the class-1 end near 1.15e18 is past 2**53: it truncates the
        # report, as an end over the memory budget does, and the class-2
        # end near 1e6 is still printed
        assert dispatch(["counterexample", "--growth", "1048576",
                         "--max-n", str(10**19)]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert "class2_ends,1048577," in "\n".join(rows)
        assert rows[-1].startswith("summary,")
        assert rows[-1].endswith(",partial1=True,partial2=False")
        # at growth 10 the class-2 end 1000010001001011 is below 2**53:
        # the summary says whether the memory budget left it out
        assert dispatch(["counterexample", "--max-n", str(2**53)]) == 0
        rows = capsys.readouterr().out.splitlines()
        left_out = "class2_ends,1000010001001011," not in "\n".join(rows)
        assert rows[-1].endswith(f",partial1=False,partial2={left_out}")


def test_c0_just_under_the_cap_runs_clean(tmp_path, capsys):
    # 2**53 * c0^2 is finite: every subcommand runs without an overflow
    c0 = 1.41e146
    path, x = _two_point_file(tmp_path, c0, c0), str(c0 / 2)
    runs = [["validate", path], ["cgf", "--model", path],
            ["rate", "--model", path, "--x", x], ["bound", "--model", path, "--x", x],
            ["exact", "--model", path, "--n", "100", "--x", x],
            ["mc", "--model", path, "--n", "100", "--x", x, "--samples", "1000"],
            ["mc", "--model", path, "--n", "100", "--x", x, "--samples", "1000", "--tilted"],
            ["mdp", "--model", path, "--n", str(2**53)]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in runs:
            assert dispatch(argv) == 0, argv
    out = capsys.readouterr().out
    # every inf is plain sampling's: it sees no hit at P ~ 3e-7, which
    # bounds the error bar by nothing
    assert "nan" not in out and out.count("inf") == 3
    assert "\n0,inf,plain,0,-inf,inf\n" in out


def test_three_kinds_of_failure():
    """A refusal of any module maps to exit 3 through its base class."""
    assert EXIT_CODES == {ModelError: 1, OSError: 2, Refused: 3}
    for kind in (TiltingRangeError, CltRegimeError, IncommensurableSupportError,
                 MemoryBudgetError):
        assert issubclass(kind, Refused)
    assert issubclass(MemoryBudgetError, MemoryError)


def test_model_file_read_once(unit_model_file, monkeypatch, capsys):
    """The manifest hashes the bytes the loader parsed."""
    import builtins
    opened = []
    real = builtins.open

    def counted(file, *args, **kwargs):
        opened.append(file)
        return real(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counted)
    assert dispatch(["rate", "--model", unit_model_file, "--x", "0.5"]) == 0
    assert opened.count(unit_model_file) == 1
    manifest = json.loads(capsys.readouterr().err.splitlines()[-1])
    with real(unit_model_file, "rb") as fh:
        assert manifest["model_hash"] == hashlib.sha256(fh.read()).hexdigest()


def test_tilted_below_the_mean_estimates_the_complement(unit_model_file, capsys):
    """P = 15/16 at n = 4, x = -0.9 on the unit class: below the mean the
    tilted estimator weights the unlikely complement, so every seed beats
    plain sampling's standard error and lands within 4 of its own."""
    def run(seed, *tilted):
        assert dispatch(["mc", "--model", unit_model_file, "--n", "4", "--x", "-0.9",
                         "--samples", "10000", "--seed", str(seed), *tilted]) == 0
        row = dict(zip(*(line.split(",") for line in capsys.readouterr().out.splitlines())))
        return float(row["estimate"]), float(row["std_error"])

    for seed in range(10):
        (est, se), (_, plain_se) = run(seed, "--tilted"), run(seed)
        assert 0.0 < se < plain_se
        assert abs(est - 15 / 16) <= 4 * se


def test_exact_runs_the_oracle_once(unit_model_file, tmp_path, monkeypatch, capsys):
    import lossdev.exact
    calls = []
    real = lossdev.exact.exact_log_tail

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(lossdev.exact, "exact_log_tail", counted)
    # the lattice tolerance is relative: {-1e-10, +1e-10} is the unit
    # class scaled, with the same tail at the scaled threshold
    tiny = _two_point_file(tmp_path, 1e-10, 1e-10)
    for path, x in ((unit_model_file, "0.5"), (tiny, "5e-11")):
        calls.clear()
        assert dispatch(["exact", "--model", path, "--n", "100", "--x", x]) == 0
        assert len(calls) == 1
        header, row = capsys.readouterr().out.splitlines()
        assert header == "n,x,tail_probability,log_rate"
        _, _, tail, rate = row.split(",")
        # sum of C(100, k) / 2**100 over k >= 75 is 2.818141017102701e-07
        assert tail == "2.8181410171027202e-07"
        assert float(rate) == pytest.approx(math.log(float(tail)) / 100, rel=1e-12)


def test_exact_prints_plus_zero_for_a_near_certain_event(unit_model_file, capsys):
    # P[S_2000 >= -1800] = 1 - 5e-433 rounds to 1, its log to +0
    assert dispatch(["exact", "--model", unit_model_file, "--n", "2000", "--x", "-0.9"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "2000,-0.90000000000000002,1,0"


def test_claim_mix_file_fits_64mb(monkeypatch, capsys):
    """The life-insurance model file at n = 1e6, as the CI step runs it."""
    path = Path(__file__).resolve().parents[1] / "demos" / "claim_mix.json"
    monkeypatch.setenv("LOSSDEV_MEMORY_BUDGET", "64000000")
    assert dispatch(["exact", "--model", str(path), "--n", "1000000", "--x", "0.3"]) == 0
    log_rate = float(capsys.readouterr().out.splitlines()[1].split(",")[3])
    assert -1.21e-4 < log_rate < -1.19e-4


def test_claim_raw_file_fits_64mb(monkeypatch, capsys):
    """Raw claims {0, 1000} with "center": true, whose centered values
    share no lattice step, at n = 1e6, as the CI step runs it."""
    path = Path(__file__).resolve().parents[1] / "demos" / "claim_raw.json"
    monkeypatch.setenv("LOSSDEV_MEMORY_BUDGET", "64000000")
    assert dispatch(["exact", "--model", str(path), "--n", "1000000", "--x", "0.3"]) == 0
    log_rate = float(capsys.readouterr().out.splitlines()[1].split(",")[3])
    assert -2.98e-5 < log_rate < -2.96e-5


def test_no_threads_option(unit_model_file, capsys):
    assert dispatch(["--threads", "2", "validate", unit_model_file]) == 2


def test_no_checkpoints_option(unit_model_file, capsys):
    """The bound takes its density extremes from the model."""
    assert dispatch(["bound", "--model", unit_model_file, "--x", "0.5",
                     "--checkpoints", "100"]) == 2


@pytest.mark.parametrize("option", [["--lambda-max", "5"], ["--lambda-points", "9"]])
def test_no_lambda_grid_options(unit_model_file, option, capsys):
    """The bound solves for its lambda."""
    assert dispatch(["bound", "--model", unit_model_file, "--x", "0.5", *option]) == 2


def test_parser_built_once_and_calls_share_no_state(unit_model_file, monkeypatch, capsys):
    import lossdev.cli
    built = []
    real = lossdev.cli.build_parser

    def counted():
        built.append(1)
        return real()

    monkeypatch.setattr(lossdev.cli, "build_parser", counted)
    lossdev.cli._parser.cache_clear()
    try:
        def run(argv):
            assert dispatch(argv) == 0
            captured = capsys.readouterr()
            return captured.out.splitlines(), json.loads(captured.err.splitlines()[-1])["params"]

        lines, params = run(["cgf", "--model", unit_model_file, "--points", "3",
                             "--lambda-min", "-1"])
        assert len(lines) == 4 and params["lambda_min"] == -1.0
        lines, params = run(["rate", "--model", unit_model_file, "--x-min", "-0.5",
                             "--x-max", "0.5", "--points", "5"])
        assert len(lines) == 6 and "lambda_min" not in params and "n" not in params
        lines, params = run(["cgf", "--model", unit_model_file])
        assert len(lines) == 102 and params["lambda_min"] == -5.0 and params["points"] == 101
        lines, params = run(["rate", "--model", unit_model_file])
        assert len(lines) == 52 and params["x_min"] == -0.9 and params["x"] is None
        assert len(built) == 1
    finally:
        lossdev.cli._parser.cache_clear()


def test_cli_imports_no_scipy(unit_model_file):
    """scipy is a test dependency only: importing the package and running
    ``validate`` and ``exact`` leave no scipy module loaded."""
    script = (
        "import sys\n"
        "import lossdev\n"
        "from lossdev.cli import dispatch\n"
        f"assert dispatch(['validate', {unit_model_file!r}]) == 0\n"
        f"assert dispatch(['exact', '--model', {unit_model_file!r},"
        " '--n', '500', '--x', '0.3']) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n")
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
