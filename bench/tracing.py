"""Spans around the calls into each lossdev layer, and the per-layer
metrics derived from them.

The benchmark wraps the program's functions from the outside; the
program itself carries no tracing.  A function is patched wherever its
name is bound: ``mixture_cgf``, for example, in ``lossdev.cgf``,
``lossdev.legendre`` and ``lossdev.mc``.  Functions that a version of the
program does not have are skipped and listed in ``Tracer.missing``.  A
metric fed only by missing functions still reads 0, because every
per-layer metric must carry a number; ``run.py`` names the missing
functions on stderr so that such a 0 can be told from a measured one.

Spans are kept in flat arrays (name, parent, start, end, one number of
extra data) until the run ends.  A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import re
import subprocess
import sys
from array import array
from contextlib import contextmanager
from statistics import median
from time import perf_counter_ns

import numpy as np


def _samples(args, kwargs, result):
    return args[3] if len(args) > 3 else kwargs.get("n_samples", 0)


def _lambdas(args, kwargs, result):
    return np.size(args[2] if len(args) > 2 else kwargs.get("lam", 0.0))


def _lattice_points(args, kwargs, result):
    return len(getattr(result, "logp", ()))


def _group_kind(args, kwargs):
    cls = args[0] if args else kwargs["cls"]
    return "exact._class_group.binomial" if len(cls.support) == 2 else "exact._class_group.iterated"


# (module, attribute, span name or a function of the arguments giving it, extra data)
TARGETS = [
    ("lossdev.cli", "dispatch", "cli.dispatch", None),
    ("lossdev.model", "load_model", "model.load", None),
    ("lossdev.model", "loads_model", "model.load", None),
    ("lossdev.model", "PortfolioModel.counts", "model.counts", None),
    ("lossdev.cgf", "mixture_cgf", "cgf.mixture_cgf", _lambdas),
    ("lossdev.cgf", "limit_cgf", "cgf.entry", None),
    ("lossdev.cgf", "empirical_cgf", "cgf.entry", None),
    ("lossdev.cgf", "class_log_mgf", "cgf.entry", None),
    ("lossdev.cgf", "class_mgf", "cgf.entry", None),
    ("lossdev.legendre", "_solve_mean_equation", "legendre.solve", None),
    ("lossdev.legendre", "transform_from_weights", "legendre.transform", None),
    ("lossdev.legendre", "legendre_transform", "legendre.entry", None),
    ("lossdev.legendre", "rate_upper_bound", "legendre.bound", None),
    ("lossdev.exact", "exact_log_tail", "exact.log_tail", None),
    ("lossdev.exact", "exact_tail", "exact.entry", None),
    ("lossdev.exact", "exact_log_tail_rate", "exact.entry", None),
    ("lossdev.exact", "_class_group", _group_kind, _lattice_points),
    ("lossdev.exact", "_log_convolve", "exact._log_convolve", _lattice_points),
    ("lossdev.exact", "_group_tail", "exact._group_tail", None),
    ("lossdev.mc", "sample_tilted", "mc.sample", _samples),
    ("lossdev.mc", "sample_plain", "mc.sample", _samples),
    ("lossdev.mc", "tilted_class", "mc.tilted_class", None),
    ("lossdev.mc", "_sample_sums", "mc._sample_sums", None),
    ("lossdev.counterexample", "subsequence_rates", "counterexample.subsequence_rates", None),
]

# per-layer metric name, unit
PER_LAYER = [
    ("cli.self_ms", "ms"), ("cli.exact_oracle_runs_per_query", "count"),
    ("model.load_ms", "ms"), ("model.counts_calls", "count"), ("model.counts_ms", "ms"),
    ("cgf.calls", "count"), ("cgf.lambda_evals", "count"), ("cgf.self_ms", "ms"),
    ("legendre.cgf_evals_per_solve", "count"), ("legendre.self_ms", "ms"),
    ("legendre.bound_ms", "ms"),
    ("exact.tail_ms", "ms"), ("exact.group_iterated_ms", "ms"),
    ("exact.group_binomial_ms", "ms"), ("exact.convolve_calls", "count"),
    ("exact.convolve_ms", "ms"), ("exact.group_tail_ms", "ms"),
    ("exact.lattice_points", "count"), ("exact.lattice_mb", "MB"),
    ("mc.samples", "count"), ("mc.batches_per_op", "count"), ("mc.sample_sums_ms", "ms"),
    ("mc.ns_per_sample", "ns"), ("mc.tilt_ms", "ms"), ("mc.self_ms", "ms"),
    ("counterexample.subsequence_ms", "ms"),
    ("setup.import_ms", "ms"), ("setup.import_scipy_ms", "ms"),
]


class Tracer:
    """Span recorder; ``install`` patches the lossdev modules already
    imported, ``span`` opens one of the benchmark's own spans."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.missing: list[str] = []
        self.reset()

    def reset(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.extra = array("d")
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.extra.append(0.0)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, fn, name, extra):
        fixed = None if callable(name) else self._id(name)

        def traced(*args, **kwargs):
            i = self._open(fixed if fixed is not None else self._id(name(args, kwargs)))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if extra is not None:
                self.extra[i] = extra(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = {m: mod for m, mod in sys.modules.items()
                   if m == "lossdev" or m.startswith("lossdev.")}
        for module, path, name, extra in TARGETS:
            owner = modules.get(module)
            *classes, attr = path.split(".")
            for cls_name in classes:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{module}.{path}")
                continue
            traced = self.wrap(original, name, extra)
            setattr(owner, attr, traced)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)

    def layer_metrics(self) -> dict[str, float]:
        """Per-operation layer metrics over the spans recorded since the
        last reset; operations are the spans named ``op.<kind>``."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        extra = np.frombuffer(self.extra, dtype=np.float64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        own = dur - child
        root = np.where(nested, parent, np.arange(len(parent)))
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up

        def mask(pattern):
            ids = [i for i, n in enumerate(self.names) if re.fullmatch(pattern, n)]
            return np.isin(name, ids)

        ops = mask(r"op\..*")
        n_ops = max(int(ops.sum()), 1)

        def per_op_ms(m):
            return float(own[m].sum()) / n_ops / 1e6

        def ratio(a, b):
            return float(a) / float(b) if b else 0.0

        exact_ops = mask(r"op\.exact")
        in_exact_op = np.isin(root, np.flatnonzero(exact_ops))
        solve = mask(r"legendre\.solve")
        cgf = mask(r"cgf\.mixture_cgf")
        sample = mask(r"mc\.sample")
        sums = mask(r"mc\._sample_sums")
        tilt = (mask(r"legendre\.transform|mc\.tilted_class")
                & nested & np.isin(parent, np.flatnonzero(sample)))
        lattice = mask(r"exact\._class_group\..*|exact\._log_convolve")
        points = float(extra[lattice].sum()) / n_ops
        return {
            "cli.self_ms": per_op_ms(mask(r"cli\..*")),
            "cli.exact_oracle_runs_per_query": ratio(
                (mask(r"exact\.log_tail") & in_exact_op).sum(), exact_ops.sum()),
            "model.load_ms": per_op_ms(mask(r"model\.load")),
            "model.counts_calls": ratio(mask(r"model\.counts").sum(), n_ops),
            "model.counts_ms": per_op_ms(mask(r"model\.counts")),
            "cgf.calls": ratio(cgf.sum(), n_ops),
            "cgf.lambda_evals": ratio(extra[cgf].sum(), n_ops),
            "cgf.self_ms": per_op_ms(mask(r"cgf\..*")),
            "legendre.cgf_evals_per_solve": ratio(
                (cgf & nested & np.isin(parent, np.flatnonzero(solve))).sum(), solve.sum()),
            "legendre.self_ms": per_op_ms(mask(r"legendre\.(solve|transform|entry)")),
            "legendre.bound_ms": per_op_ms(mask(r"legendre\.bound")),
            "exact.tail_ms": per_op_ms(mask(r"exact\.(log_tail|entry)")),
            "exact.group_iterated_ms": per_op_ms(mask(r"exact\._class_group\.iterated")),
            "exact.group_binomial_ms": per_op_ms(mask(r"exact\._class_group\.binomial")),
            "exact.convolve_calls": ratio(mask(r"exact\._log_convolve").sum(), n_ops),
            "exact.convolve_ms": per_op_ms(mask(r"exact\._log_convolve")),
            "exact.group_tail_ms": per_op_ms(mask(r"exact\._group_tail")),
            "exact.lattice_points": points,
            "exact.lattice_mb": 8.0 * points / 1e6,
            "mc.samples": ratio(extra[sample].sum(), n_ops),
            "mc.batches_per_op": ratio(sample.sum(), n_ops),
            "mc.sample_sums_ms": per_op_ms(sums),
            "mc.ns_per_sample": ratio(own[sums].sum(), extra[sample].sum()),
            "mc.tilt_ms": float(dur[tilt].sum()) / n_ops / 1e6,
            "mc.self_ms": per_op_ms(sample),
            "counterexample.subsequence_ms": per_op_ms(mask(r"counterexample\..*")),
        }


def import_times(env: dict, runs: int = 3) -> dict[str, float]:
    """``import lossdev`` in fresh processes under ``python -X importtime``:
    the median total, and the median time spent in scipy modules."""
    total, scipy = [], []
    for _ in range(runs):
        err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import lossdev"],
                             env=env, capture_output=True, text=True, check=True).stderr
        t, s = _parse_importtime(err)
        total.append(t)
        scipy.append(s)
    return {"setup.import_ms": median(total), "setup.import_scipy_ms": median(scipy)}


def _parse_importtime(text: str) -> tuple[float, float]:
    """(cumulative ms of lossdev, cumulative ms of the outermost scipy
    imports) from ``-X importtime`` lines; children precede parents."""
    entries = []
    for line in text.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            entries.append((len(m.group(3)), m.group(4), int(m.group(2))))
    total = scipy = 0.0
    open_scipy: list[int] = []  # depths of enclosing scipy imports, walking parents first
    for depth, mod, cumulative in reversed(entries):
        while open_scipy and open_scipy[-1] >= depth:
            open_scipy.pop()
        is_scipy = mod == "scipy" or mod.startswith("scipy.")
        if is_scipy and not open_scipy:
            scipy += cumulative
        if is_scipy:
            open_scipy.append(depth)
        if mod == "lossdev":
            total = cumulative
    return total / 1e3, scipy / 1e3
