"""Command-line front end: model loading, subcommand dispatch, CSV on
stdout, and a JSON run manifest on stderr for reproducibility.

Exit codes (``EXIT_CODES`` maps the exceptions): 0 success, 1 the model
file fails validation (bytes that are not UTF-8, a flag that is not
JSON true or false, a c0 above about 1.4e146), 2 usage error (bad
arguments such as a negative ``--seed``, or a model path that is
missing, a directory or unreadable), 3 computation
refused (any ``model.Refused``: threshold outside the tilting range,
query in the CLT regime, arrays over the memory budget, a
``$LOSSDEV_MEMORY_BUDGET`` that is not a whole number, solver failure,
an exact tail whose window sum the spectrum's round-off outweighs,
support gaps without a common step, n outside [1, 2**53], a ``cgf``
lambda grid whose product with a class span overflows, a weighted-model
query such as ``rate`` on an assigned model, or a ``counterexample``
with no block end at or below ``--max-n``).  Errors print one ``error:`` line on stderr, not a
traceback.
The model file is read once, as bytes: the manifest hashes them and
``model.loads_model`` parses them.
Each CSV row is rendered from one format template built from the first
row's types: floats with 17 significant digits (``{:.17g}``, so an
infinite rate is the literal ``inf``), everything else with ``str``.

Building the parser and ``validate`` use only the pure-Python
``model`` layer.  Each subcommand calls its numerical layer through
the module object the package registered for it (``exact.exact_log_tail``,
not a name bound here), and the layer, with numpy, loads on that first
call: ``validate`` and ``--help`` load no numpy, and a function replaced
on a layer module is the one the CLI calls.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import re
import sys
import time

from . import __version__, cgf, counterexample, exact, legendre, mc, moderate
from .model import DEFAULT_MAX_N, DEFAULT_SEED, MAX_COUNT, ModelError, Refused, loads_model

# exit code of each exception a subcommand may end with; 2 is also the
# code argparse gives a usage error
EXIT_CODES = {ModelError: 1, OSError: 2, Refused: 3}


def _field(v) -> str:
    """The format field of one CSV value: 17 significant digits for a
    float, ``str`` for anything else."""
    return "{:.17g}" if isinstance(v, float) else "{}"


def _fmt(v) -> str:
    return _field(v).format(v)


def emit_curve(points, schema, out=None) -> str:
    """Render homogeneous point tuples as CSV under the given header, every
    row from one template built from the first row's types."""
    lines, template = [",".join(schema)], None
    for p in points:
        if len(p) != len(schema):
            raise ValueError("point arity does not match schema")
        if template is None:
            template = ",".join(map(_field, p))
        lines.append(template.format(*p))
    text = "\n".join(lines) + "\n"
    if out is not None:
        out.write(text)
    return text


def _manifest(args: argparse.Namespace, data: bytes | None, wall: float) -> None:
    params = {k: v for k, v in vars(args).items() if k != "func"}
    doc = {
        "subcommand": args.subcommand,
        "params": params,
        "model_hash": hashlib.sha256(data).hexdigest() if data is not None else None,
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "wall_time_s": wall,
    }
    print(json.dumps(doc), file=sys.stderr)


def _cmd_validate(args, model, bounds) -> int:
    # loads_model raises ModelError on the first assumption violation, so
    # a file that loads has none: the violation table is its header alone
    emit_curve([], ["class", "clause", "detail"], sys.stdout)
    return 0


def _cmd_cgf(args, model, bounds) -> int:
    import numpy as np
    cgf.check_lambda(model.classes, (args.lambda_min, args.lambda_max))
    grid = np.linspace(args.lambda_min, args.lambda_max, args.points)
    p = (cgf.limit_cgf(model, grid) if model.is_weighted
         else cgf.empirical_cgf(model, args.n, grid))
    emit_curve(zip(*(v.tolist() for v in (p.lam, p.value, p.d1, p.d2))),
               ["lambda", "value", "d1", "d2"], sys.stdout)
    return 0


def _x_grid(args):
    import numpy as np
    if args.x is not None:
        return np.array([args.x])
    return np.linspace(args.x_min, args.x_max, args.points)


def _cmd_rate(args, model, bounds) -> int:
    rp = legendre.legendre_transform(model, _x_grid(args))
    emit_curve(zip(*(v.tolist() for v in (rp.x, rp.lambda_star, rp.rate, rp.status))),
               ["x", "lambda_star", "rate", "status"], sys.stdout)
    return 0


def _cmd_bound(args, model, bounds) -> int:
    xs = _x_grid(args)
    bound = legendre.rate_upper_bound(model, xs)
    emit_curve(zip(xs.tolist(), bound.tolist()), ["x", "decay_rate_lower_bound"], sys.stdout)
    return 0


def _cmd_exact(args, model, bounds) -> int:
    lt = exact.exact_log_tail(model, args.n, args.x)
    emit_curve([(args.n, args.x, math.exp(lt), lt / args.n)],
               ["n", "x", "tail_probability", "log_rate"], sys.stdout)
    return 0


def _cmd_mc(args, model, bounds) -> int:
    if args.tilted:
        est = mc.sample_tilted(model, args.n, args.x, args.samples, args.seed)
    else:
        est = mc.sample_plain(model, args.n, args.x, args.samples, args.seed)
    emit_curve([(est.estimate, est.std_error, est.method, est.lam,
                 est.log_estimate, est.log_std_error)],
               ["estimate", "std_error", "method", "lambda_star", "log_estimate",
                "log_std_error"], sys.stdout)
    return 0


def _cmd_mdp(args, model, bounds) -> int:
    q = moderate.MdQuery(args.c, args.alpha, args.n)
    th = moderate.md_threshold(q, model, bounds)
    pred = moderate.md_log_prob_prediction(q)
    emit_curve([(q.n, q.alpha, q.c, th.exact, th.lower, th.upper,
                 pred.leading, pred.correction_scale)],
               ["n", "alpha", "c", "threshold_exact", "threshold_lower",
                "threshold_upper", "predicted_minus_log_prob",
                "correction_scale"], sys.stdout)
    return 0


def _cmd_counterexample(args) -> int:
    model, _ = counterexample.build_counterexample(growth=args.growth, depth=args.depth,
                                                   a0=args.a0)
    max_n = counterexample.schedule_depth_end(model.rule, args.depth, cap=args.max_n)
    r1, r2 = (counterexample.subsequence_rates(model, args.x, which, max_n=max_n)
              for which in (1, 2))
    rows = [(f"class{which}_ends", p.n, p.density_unit, p.log_rate)
            for which, rep in ((1, r1), (2, r2)) for p in rep.points]
    emit_curve(rows, ["section", "n", "density_class1", "log_rate"], sys.stdout)
    print(f"summary,target1={_fmt(r1.target)},gap1={_fmt(r1.gap)},"
          f"target2={_fmt(r2.target)},gap2={_fmt(r2.gap)},"
          f"rate_separation={_fmt(abs(r1.points[-1].log_rate - r2.points[-1].log_rate))},"
          f"partial1={_fmt(r1.partial)},partial2={_fmt(r2.partial)}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line, like every other
    failure, instead of the usage text, and takes ``-1e308``, ``-1.5E+2``
    or ``-.5`` as a negative number, not as an option name."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _checked(kind, ok, want):
    """An argparse ``type`` converting with ``kind`` and refusing values
    for which ``ok`` is false."""
    def convert(text):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"must be {want}, got {text!r}")
        return value
    return convert


_count = _checked(int, lambda v: 1 <= v <= MAX_COUNT, "a whole number in [1, 2**53]")
_finite = _checked(float, math.isfinite, "a finite number")
_positive = _checked(float, lambda v: 0 < v < math.inf, "a finite number > 0")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="lossdev", description="deviation estimates for bounded-loss portfolios")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=fn)
        return p

    p = add("validate", _cmd_validate, help="check a model file against the assumptions")
    p.add_argument("model")

    p = add("cgf", _cmd_cgf, help="CGF curve (lambda, value, d1, d2) as CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--lambda-min", type=_finite, default=-5.0)
    p.add_argument("--lambda-max", type=_finite, default=5.0)
    p.add_argument("--points", type=_count, default=101)
    p.add_argument("--n", type=int, default=1000,
                   help="portfolio size for assigned models (empirical CGF)")

    for name, fn, hlp in [("rate", _cmd_rate, "Legendre-transform rate curve"),
                          ("bound", _cmd_bound, "tail decay lower bound for assigned models")]:
        p = add(name, fn, help=hlp)
        p.add_argument("--model", required=True)
        p.add_argument("--x", type=_finite, default=None)
        p.add_argument("--x-min", type=_finite, default=-0.9)
        p.add_argument("--x-max", type=_finite, default=0.9)
        p.add_argument("--points", type=_count, default=51)

    p = add("exact", _cmd_exact, help="exact tail probability by lattice convolution")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", type=_finite, required=True)

    p = add("mc", _cmd_mc, help="Monte Carlo tail estimate")
    p.add_argument("--model", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", type=_finite, required=True)
    p.add_argument("--samples", type=_count, default=100_000)
    p.add_argument("--seed", type=_checked(int, lambda v: v >= 0, "a whole number >= 0"),
                   default=DEFAULT_SEED)
    p.add_argument("--tilted", action="store_true")

    p = add("mdp", _cmd_mdp, help="moderate-deviation thresholds and prediction")
    p.add_argument("--model", required=True)
    p.add_argument("--c", type=_positive, default=1.0)
    p.add_argument("--alpha", default=0.3,
                   type=_checked(float, lambda v: 0 < v < 0.5, "a number in (0, 1/2)"))
    p.add_argument("--n", type=int, required=True)

    p = add("counterexample", _cmd_counterexample,
            help="distinct subsequential decay rates for the two-class interlacement")
    p.add_argument("--growth", default=10, type=_checked(
        int, lambda v: 2 <= v <= MAX_COUNT, "a whole number in [2, 2**53]"))
    p.add_argument("--depth", type=_count, default=6)
    p.add_argument("--x", type=_finite, default=0.5)
    p.add_argument("--a0", type=_count, default=1)
    p.add_argument("--max-n", type=int, default=DEFAULT_MAX_N)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves it unchanged."""
    return build_parser()


def dispatch(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    t0 = time.perf_counter()
    data = None
    try:
        if "model" in args:  # every subcommand but counterexample reads one
            with open(args.model, "rb") as fh:
                data = fh.read()
            code = args.func(args, *loads_model(data))
        else:
            code = args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(c for kind, c in EXIT_CODES.items() if isinstance(exc, kind))
    _manifest(args, data, time.perf_counter() - t0)
    return code


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
