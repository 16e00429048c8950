"""Reference values and output checks, one pair per operation kind.

References come from ``reference.py`` and are computed in the benchmark's
own process, never in the measured one.  Each check parses the CSV the
program printed by column name and returns None when the output is
right, or a one-line reason.  Tolerances are stated once, here.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

import reference as ref
import workloads as wl

TAIL_RTOL = 1e-9        # log-tails: |log P - reference| <= TAIL_RTOL * max(1, |reference|)
CGF_RTOL = 1e-12        # CGF value, d1, d2 ...
CGF_ATOL = 1e-13        # ... plus this times the magnitude of the largest term
RATE_TOL = 1e-9         # rate against the reference transform and the stationarity identity
SLOPE_TOL = 1e-8        # Lambda'(lambda*) = x, relative to max(1, |x|)
EDGE_TOL = 1e-9         # x this close to an edge of the reachable range is on the edge
MC_Z = 5.0              # combined tilted-mc estimate within this many standard errors
LAMBDA_GRID = np.linspace(-60.0, 60.0, 4801)


class KnownFault(str):
    """The reason of a failure the program is known to have (see
    README.md).  Every other reason, including a raise, a non-zero exit
    code or unreadable output from the same operation, is unexpected."""


def rows(text: str) -> list[dict]:
    """CSV records by column name, skipping the counterexample summary."""
    body = "\n".join(line for line in text.splitlines() if not line.startswith("summary,"))
    return list(csv.DictReader(io.StringIO(body)))


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def _weights(model: dict) -> list[float]:
    return model["doc"]["regime"]["weighted"]["weights"]


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

class References:
    """Reference data of one spec, keyed by operation index."""

    def __init__(self, spec: dict):
        self.spec = spec
        self._lf = None
        self.ops = [self._for(op) for op in spec["ops"]]

    def log_factorials(self, n: int) -> np.ndarray:
        if self._lf is None or len(self._lf) <= n:
            self._lf = ref.log_factorials(max(n, wl.OSC_MAX_N))
        return self._lf

    def _for(self, op: dict):
        model = self.spec["models"].get(op.get("model"))
        kind = op["kind"]
        if kind == "rate":
            return self._rate(model, op)
        if kind == "cgf":
            return self._cgf(model, op)
        if kind in ("exact", "mc"):
            n = op["n"]
            if model["unit_double"]:
                log_p = self._unit_double(model, n, op["x"])
            else:
                log_p = ref.lattice_log_tail(
                    [(i, pr) for i, (_, pr) in zip(model["idx"], model["classes"])],
                    wl.counts(model, n), wl.threshold(model, n, op["x"]))
            out = {"log_p": log_p}
            if kind == "mc":
                out["lam"] = ref.solve_tilt(model["classes"], wl.weights_at(model, n),
                                            float(op["x"]))
            return out
        if kind == "bound":
            b = model["doc"]["regime"]["assigned"]["blocks"]
            ends = sorted(e for c in (0, 1) for e in ref.block_ends(
                b["a0"], b["growth"], b["order"], b["accelerating"], c, wl.OSC_MAX_N))
            return {"decay": [[e, -self._unit_double(model, e, op["x"]) / e] for e in ends]}
        if kind == "counterexample":
            model = wl.unit_double({"assigned": {"blocks": {
                "a0": 1, "growth": op["growth"], "order": [0, 1], "accelerating": True}}})
            depth_end = sum(op["growth"] ** (j * (j + 1) // 2) for j in range(op["depth"]))
            top = min(depth_end, op["max_n"])
            ends = {str(c): ref.block_ends(1, op["growth"], [0, 1], True, c, top) for c in (0, 1)}
            every = ends["0"] + ends["1"]
            return {"ends": ends,
                    "log_rate": {str(e): self._unit_double(model, e, op["x"]) / e for e in every},
                    "unit": {str(e): wl.counts(model, e)[0] for e in every}}
        raise ValueError(f"unknown operation kind {kind!r}")

    def _unit_double(self, model: dict, n: int, x: str) -> float:
        nu = wl.counts(model, n)
        return ref.unit_double_log_tail(nu[0], nu[1], wl.threshold(model, n, x),
                                        self.log_factorials(n))

    def _rate(self, model: dict, op: dict) -> dict:
        a = op["argv"]
        xs = np.linspace(float(a[a.index("--x-min") + 1]), float(a[a.index("--x-max") + 1]),
                         int(a[a.index("--points") + 1]))
        classes, w = model["classes"], _weights(model)
        lo, hi = ref.reachable(classes, w)
        value = ref.mixture_cgf(classes, w, LAMBDA_GRID)[0]
        inside = (xs > lo + EDGE_TOL) & (xs < hi - EDGE_TOL)
        rates = np.full(xs.shape, math.inf)
        rates[inside] = ref.legendre(classes, w, xs[inside])
        grid_sup = (LAMBDA_GRID[None, :] * xs[:, None] - value[None, :]).max(axis=1)
        return {"xs": xs.tolist(), "lo": lo, "hi": hi, "rates": rates.tolist(),
                "grid_sup": grid_sup.tolist(),
                "edge_rates": [ref.legendre(classes, w, lo), ref.legendre(classes, w, hi)]}

    def _cgf(self, model: dict, op: dict) -> dict:
        a = op["argv"]
        lams = np.linspace(float(a[a.index("--lambda-min") + 1]),
                           float(a[a.index("--lambda-max") + 1]),
                           int(a[a.index("--points") + 1]))
        value, d1, d2 = ref.mixture_cgf(model["classes"], _weights(model), lams)
        c0 = model["doc"]["bounds"]["c0"]
        return {"lams": lams.tolist(), "value": value.tolist(), "d1": d1.tolist(),
                "d2": d2.tolist(), "c0": c0}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check(spec: dict, refs: References, index: int, output: dict) -> str | None:
    """None when operation ``index`` produced ``output`` correctly."""
    if output.get("error"):
        return f"raised {output['error']}"
    for code, _ in output["calls"]:
        if code != 0:
            return f"exit code {code}"
    op = spec["ops"][index]
    texts = [text for _, text in output["calls"]]
    try:
        return CHECKS[op["kind"]](spec, op, refs.ops[index], texts)
    except (KeyError, ValueError, IndexError) as exc:
        return f"unreadable output: {exc!r}"


def check_rate(spec, op, r, texts):
    recs = rows(texts[0])
    if len(recs) != len(r["xs"]):
        return f"{len(recs)} rows for {len(r['xs'])} points"
    model = spec["models"][op["model"]]
    classes, w = model["classes"], _weights(model)
    lo, hi = r["lo"], r["hi"]
    rates = []
    for rec, x, want, gsup in zip(recs, r["xs"], r["rates"], r["grid_sup"]):
        got_x, lam, rate, status = (float(rec["x"]), float(rec["lambda_star"]),
                                    float(rec["rate"]), rec["status"])
        rates.append(rate)
        if got_x != x:
            return f"grid point {got_x!r} is not {x!r}"
        at_lo, at_hi = abs(x - lo) <= EDGE_TOL, abs(x - hi) <= EDGE_TOL
        if at_lo or at_hi:
            # on an edge the rate is finite; only a point just outside it
            # may be reported as out of range
            outside = x < lo if at_lo else x > hi
            if status == "infinite" and outside and rate == math.inf:
                continue
            edge = r["edge_rates"][0 if at_lo else 1]
            if status != "boundary" or not _close(rate, edge, RATE_TOL * (1 + edge)):
                return f"x={x}: on the edge of [{lo}, {hi}] but status {status} rate {rate}"
            continue
        if x > hi or x < lo:
            if status != "infinite" or rate != math.inf:
                return f"x={x}: outside [{lo}, {hi}] but status {status} rate {rate}"
            continue
        if status != "interior" or not math.isfinite(rate) or rate < 0:
            return f"x={x}: inside the range but status {status} rate {rate}"
        if not _close(rate, want, RATE_TOL * (1 + want)):
            return f"x={x}: rate {rate} differs from the reference {want}"
        value, d1, _ = (float(v[0]) for v in ref.mixture_cgf(classes, w, [lam]))
        if not _close(d1, x, SLOPE_TOL * max(1.0, abs(x))):
            return f"x={x}: Lambda'(lambda*) = {d1}"
        if not _close(rate, max(lam * x - value, 0.0), RATE_TOL * (1 + rate)):
            return f"x={x}: rate {rate} is not lambda* x - Lambda(lambda*)"
        if rate < gsup - RATE_TOL * (1 + abs(gsup)):
            return f"x={x}: rate {rate} below the grid supremum {gsup}"
        if x == 0.0 and rate > 1e-12:
            return f"rate at x=0 is {rate}"
    finite = np.asarray(rates)
    for i in range(1, len(finite) - 1):
        tri = finite[i - 1:i + 2]
        if np.all(np.isfinite(tri)) and tri[0] - 2 * tri[1] + tri[2] < -RATE_TOL * (1 + tri.max()):
            return f"rates not convex at x={r['xs'][i]}"
    return None


def check_cgf(spec, op, r, texts):
    recs = rows(texts[0])
    if len(recs) != len(r["lams"]):
        return f"{len(recs)} rows for {len(r['lams'])} points"
    c0 = r["c0"]
    for rec, lam, value, d1, d2 in zip(recs, r["lams"], r["value"], r["d1"], r["d2"]):
        if float(rec["lambda"]) != lam:
            return f"lambda {rec['lambda']} is not {lam!r}"
        for col, want, scale in (("value", value, 1 + abs(lam) * c0),
                                 ("d1", d1, c0), ("d2", d2, c0 * c0)):
            got = float(rec[col])
            if not _close(got, want, CGF_RTOL * abs(want) + CGF_ATOL * scale):
                return f"lambda={lam}: {col} {got!r} differs from the reference {want!r}"
    return None


def check_exact(spec, op, r, texts):
    (rec,) = rows(texts[0])
    n, x = int(rec["n"]), float(rec["x"])
    tail, log_rate = float(rec["tail_probability"]), float(rec["log_rate"])
    if n != op["n"] or x != float(op["x"]):
        return f"row is for n={n} x={x}"
    want = r["log_p"]
    if want == -math.inf:
        return None if log_rate == -math.inf and tail == 0.0 else f"impossible event got {log_rate}"
    if not _close(n * log_rate, want, TAIL_RTOL * max(1.0, abs(want))):
        return f"log P = {n * log_rate!r}, reference {want!r}"
    if not math.isclose(tail, math.exp(n * log_rate), rel_tol=1e-9, abs_tol=1e-300):
        return f"tail_probability {tail!r} is not exp(n log_rate)"
    return None


def check_counterexample(spec, op, r, texts):
    text = texts[0]
    summary = dict(kv.split("=", 1) for kv in
                   next(line for line in text.splitlines()
                        if line.startswith("summary,")).split(",")[1:])
    last = {}
    for which in (1, 2):
        sect = [rec for rec in rows(text) if rec["section"] == f"class{which}_ends"]
        ns = [int(rec["n"]) for rec in sect]
        if ns != r["ends"][str(which - 1)]:
            return f"class{which} rows at n={ns}, block ends are {r['ends'][str(which - 1)]}"
        for rec, n in zip(sect, ns):
            lr, dens = float(rec["log_rate"]), float(rec["density_class1"])
            want = r["log_rate"][str(n)]
            if not _close(lr, want, TAIL_RTOL * max(1.0 / n, abs(want))):
                return f"class{which} n={n}: log rate {lr!r}, reference {want!r}"
            if dens != r["unit"][str(n)] / n:
                return f"n={n}: density {dens!r}"
        last[which] = float(sect[-1]["log_rate"])
    x = float(op["x"])
    for which, rate in ((1, ref.rate_unit), (2, ref.rate_double)):
        target, gap = float(summary[f"target{which}"]), float(summary[f"gap{which}"])
        if not _close(target, -rate(x), 1e-12):
            return f"target{which} {target!r} is not -I{which}({x}) = {-rate(x)!r}"
        if not _close(gap, abs(last[which] - target), 1e-12):
            return f"gap{which} {gap!r} is not |last log rate - target|"
    sep = float(summary["rate_separation"])
    if not (sep > 0 and _close(sep, abs(last[1] - last[2]), 1e-12)):
        return f"rate_separation {sep!r}"
    return None


def check_bound(spec, op, r, texts):
    """A certified lower bound b on the decay rate must satisfy
    P[M_n >= x] <= exp(-n b), i.e. b <= -(1/n) log P, at every n; it is
    checked at every block end up to about 1e6."""
    (rec,) = rows(texts[0])
    b = float(rec["decay_rate_lower_bound"])
    n, decay = min(r["decay"], key=lambda e: e[1])
    if not b <= decay + TAIL_RTOL:
        return KnownFault(f"bound {b:.6g} exceeds the decay rate {decay:.6g} at n={n}")
    return None


def check_mc(spec, op, r, texts):
    ests, ses = [], []
    for text in texts:
        (rec,) = rows(text)
        if rec["method"] != "tilted":
            return f"method {rec['method']}"
        lam = float(rec["lambda_star"])
        if not _close(lam, r["lam"], 1e-7 * max(1.0, abs(r["lam"]))):
            return f"tilt {lam!r}, reference {r['lam']!r}"
        ests.append(float(rec["estimate"]))
        ses.append(float(rec["std_error"]))
    k = len(ests)
    est, se = sum(ests) / k, math.sqrt(sum(s * s for s in ses)) / k
    if k > op["max_batches"] or not 0 < se <= op["rse"] * est:
        return f"{k} batches reached estimate {est!r} std error {se!r}"
    p = math.exp(r["log_p"])
    if abs(est - p) > MC_Z * se:
        return f"estimate {est!r} is {abs(est - p) / se:.1f} std errors from {p!r}"
    return None


CHECKS = {"rate": check_rate, "cgf": check_cgf, "exact": check_exact,
          "counterexample": check_counterexample, "bound": check_bound, "mc": check_mc}
