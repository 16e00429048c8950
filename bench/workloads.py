"""Seeded inputs of the four workloads: model files and operation lists.

Every size that drives an operation's cost (grid points, n, target decay,
batch size) is swept per model by stratified sampling: k operations of
one kind on one model draw one value from the central part of each of k
equal strata of the range, in a seeded order.  Class counts, support
sizes and regimes follow a fixed schedule.  The seed therefore moves
values inside strata and picks probabilities, supports and thresholds,
but every seed gets the same spread of costs, so the percentiles of a
run do not jump between seeds.

A spec is plain JSON: the model files the program reads, and for each
operation the argument list a user would type plus what the checks need.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import reference as ref

WORKLOADS = ("curves", "lattice", "oscillating", "tilted-mc")

MC_BATCH_RSE = 0.02      # a tilted-mc operation stops at this relative std error
MC_MAX_BATCHES = 40      # ... or fails after this many batches
# Five strata per model put the median and the 90th percentile of a
# sweep in the middle of a stratum, not on the gap between two.
SWEEP_JITTER = 0.3
CURVES_SWEEP = 5         # rate and cgf grid sizes per model
LATTICE_MODELS = 10
LATTICE_SWEEP = 5        # values of n per lattice model
MC_SWEEP = 5             # (n, decay, batch size) per tilted-mc model
UNIT = ([-1.0, 1.0], [0.5, 0.5])
DOUBLE = ([-2.0, 2.0], [0.5, 0.5])


def sweep(rng, lo: float, hi: float, count: int) -> list[float]:
    """One value from the central part (SWEEP_JITTER) of each of ``count``
    equal strata of [lo, hi] in log-space, in random order."""
    u = (rng.permutation(count) + 0.5 + SWEEP_JITTER * (rng.random(count) - 0.5)) / count
    return (lo * (hi / lo) ** u).tolist()


def centered_probs(rng, values) -> list[float]:
    """Random positive probabilities on ``values`` with mean exactly zero
    up to rounding: the negative side is scaled by the positive side's
    first moment and vice versa."""
    v = np.asarray(values, dtype=float)
    p = rng.uniform(0.3, 1.0, v.size)
    neg, pos = v < 0, v > 0
    m_neg = float((p[neg] * -v[neg]).sum())
    m_pos = float((p[pos] * v[pos]).sum())
    scale = np.where(neg, m_pos, np.where(pos, m_neg, 0.5 * (m_neg + m_pos)))
    p = p * scale
    return (p / p.sum()).tolist()


def lattice_indices(rng, points: int, span: int) -> list[int]:
    """``points`` distinct integers spanning exactly ``span``, with both
    signs, in increasing order."""
    low = -int(rng.integers(1, span))
    inner = rng.choice(np.arange(low + 1, low + span), points - 2, replace=False)
    return sorted([low, low + span, *map(int, inner)])


def dyadic_weights(rng, k: int, denom: int = 64) -> list[float]:
    """k positive weights that are multiples of 1/denom and sum to 1
    exactly, so that n * w and the apportionment are exact."""
    parts = rng.multinomial(denom - k, np.ones(k) / k) + 1
    return [int(c) / denom for c in parts]


def _lattice_classes(rng, shapes, step: str) -> list[dict]:
    """Lattice classes with the given (points, span); redrawn until the
    indices of all classes share no common factor, so the lattice step
    is exactly ``step``."""
    while True:
        idx = [lattice_indices(rng, pts, span) for pts, span in shapes]
        if math.gcd(*[abs(i) for cls in idx for i in cls if i]) == 1:
            break
    return [{"idx": i, "support": [k * float(step) for k in i],
             "probs": centered_probs(rng, i)} for i in idx]


def _general_class(rng, points: int) -> dict:
    """Support of random reals in [-3, 3] with both signs: no common lattice."""
    while True:
        v = np.sort(rng.uniform(-3.0, 3.0, points))
        if v[0] < -0.2 and v[-1] > 0.2 and np.all(np.diff(v) > 1e-3):
            break
    return {"support": v.tolist(), "probs": centered_probs(rng, v)}


def _model(classes: list[dict], regime: dict, step: str | None = None) -> dict:
    var = [sum(p * v * v for v, p in zip(c["support"], c["probs"])) for c in classes]
    doc = {"bounds": {"c0": max(abs(v) for c in classes for v in c["support"]),
                      "c1": min(var) * (1.0 - 1e-9)},
           "classes": [{"name": f"c{i}", "support": c["support"], "probs": c["probs"]}
                       for i, c in enumerate(classes)],
           "regime": regime}
    return {"doc": doc, "classes": [[c["support"], c["probs"]] for c in classes],
            "idx": [c.get("idx") for c in classes], "step": step, "unit_double": False}


def unit_double(regime: dict) -> dict:
    """The paper's unit {-1, +1} and double {-2, +2} classes under ``regime``."""
    m = _model([{"support": UNIT[0], "probs": UNIT[1], "idx": [-1, 1]},
                {"support": DOUBLE[0], "probs": DOUBLE[1], "idx": [-2, 2]}],
               regime, step="1")
    m["doc"]["bounds"] = {"c0": 2.0, "c1": 1.0}
    m["unit_double"] = True
    return m


def counts(model: dict, n: int) -> list[int]:
    """Class counts among contracts 1..n, from the model's regime."""
    regime = model["doc"]["regime"]
    k = len(model["classes"])
    if "weighted" in regime:
        return ref.apportioned_counts(regime["weighted"]["weights"], n)
    rule = regime["assigned"]
    if "round_robin" in rule:
        return ref.round_robin_counts(rule["round_robin"]["weights"], n)
    b = rule["blocks"]
    return ref.block_counts(b["a0"], b["growth"], b["order"],
                            b.get("accelerating", False), k, n)


def weights_at(model: dict, n: int) -> list[float]:
    return [c / n for c in counts(model, n)]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _dyadic_grid(lo: float, hi: float, points: int) -> tuple[float, float]:
    """Ends of a ``points``-point grid covering [lo, hi] whose step is a
    multiple of 1/1024 and which holds x = 0 exactly."""
    h = math.ceil((hi - lo) / (points - 1) * 1024) / 1024
    below = math.ceil(-lo / h)
    return -below * h, (points - 1 - below) * h


def curves(rng) -> tuple[dict, list[dict]]:
    """Rate and CGF curves on weighted models of 2-6 classes with 2-7
    support points, alternately lattice and not, plus the paper's
    equal unit/double mix.  Every model gets the full sweep of grid sizes
    for both subcommands."""
    models = {}
    for m in range(10):
        k = 2 + m % 5
        shapes = [2 + (m + 3 * j) % 6 for j in range(k)]
        if m % 2 == 0:
            step = str(rng.choice(["0.25", "0.5", "1"]))
            classes = _lattice_classes(rng, [(p, 8) for p in shapes], step)
        else:
            classes = [_general_class(rng, p) for p in shapes]
        models[f"m{m:02d}"] = _model(
            classes, {"weighted": {"weights": dyadic_weights(rng, k)}})
    models["mix"] = unit_double({"weighted": {"weights": [0.5, 0.5]}})
    ops = []
    for name, mdl in models.items():
        path = f"{{models}}/{name}.json"
        for p in sweep(rng, 20, 300, CURVES_SWEEP):
            p = int(round(p))
            lo, hi = ref.reachable(mdl["classes"], mdl["doc"]["regime"]["weighted"]["weights"])
            pad = 0.08 * (hi - lo)
            x_min, x_max = _dyadic_grid(lo - pad, hi + pad, p)
            ops.append({"kind": "rate", "model": name, "argv": [
                "rate", "--model", path, "--x-min", repr(x_min), "--x-max", repr(x_max),
                "--points", str(p)]})
        for p in sweep(rng, 20, 300, CURVES_SWEEP):
            lam = [round(float(v) * 16) / 16 for v in rng.uniform(1.0, 8.0, 2)]
            ops.append({"kind": "cgf", "model": name, "argv": [
                "cgf", "--model", path, "--lambda-min", repr(-lam[0]),
                "--lambda-max", repr(lam[1]), "--points", str(int(round(p)))]})
    return models, _shuffled(rng, ops)


def _shuffled(rng, ops: list[dict]) -> list[dict]:
    return [ops[i] for i in rng.permutation(len(ops))]


def lattice(rng) -> tuple[dict, list[dict]]:
    """Exact tails on 2-3 class lattice models (3-5 support points on a
    span of 4 lattice steps), weighted and round-robin; every model gets
    the full sweep of n."""
    models = {}
    for m in range(LATTICE_MODELS):
        k = 2 + m // 2 % 2
        step = str(rng.choice(["0.25", "0.5", "1"]))
        classes = _lattice_classes(rng, [(3 + (m + j) % 3, 4) for j in range(k)], step)
        if m % 2 == 0:
            regime = {"weighted": {"weights": dyadic_weights(rng, k, 32)}}
        else:
            regime = {"assigned": {"round_robin": {"weights": [1 + (m + j) % 3 for j in range(k)]}}}
        models[f"m{m:02d}"] = _model(classes, regime, step)
    ops = [_exact_op(rng, models[name], name, int(round(n)), 0.05, 0.9, 4)
           for name in models for n in sweep(rng, 200, 2000, LATTICE_SWEEP)]
    return models, _shuffled(rng, ops)


def _exact_op(rng, model: dict, name: str, n: int, lo: float, hi: float,
              digits: int) -> dict:
    """``exact`` at a threshold x drawn in (lo, hi) times the largest
    reachable average, written with ``digits`` decimals."""
    top = sum(c * max(s) for c, (s, _) in zip(counts(model, n), model["classes"])) / n
    x = f"{max(rng.uniform(lo, hi) * top, 10.0 ** -digits):.{digits}f}"
    return {"kind": "exact", "model": name, "n": n, "x": x,
            "argv": ["exact", "--model", f"{{models}}/{name}.json",
                     "--n", str(n), "--x", x]}


OSC_BLOCKS = {"blocks10": {"a0": 1, "growth": 10, "order": [0, 1], "accelerating": True},
              "blocks3": {"a0": 1, "growth": 3, "order": [0, 1], "accelerating": False}}
OSC_MAX_N = 1_100_000
OSC_BOUND_X = ("0.5", "0.7")
OSC_COUNTEREXAMPLES = ((10, 4), (3, 12), (4, 6), (6, 5))


def oscillating(rng) -> tuple[dict, list[dict]]:
    """The paper's counterexample: unit/double models on the accelerating
    growth-10 block schedule and on a constant-ratio growth-3 schedule.
    ``exact`` on a log sweep of n from 1e2 to 1e6 plus every block end in
    that range, the ``counterexample`` subcommand, and ``bound``."""
    models = {name: unit_double({"assigned": {"blocks": b}})
              for name, b in OSC_BLOCKS.items()}
    ops = []
    for name, b in OSC_BLOCKS.items():
        ends = sorted(e for c in (0, 1) for e in ref.block_ends(
            b["a0"], b["growth"], b["order"], b["accelerating"], c, OSC_MAX_N) if e >= 100)
        sizes = [int(round(v)) for v in sweep(rng, 100, 1_000_000, 12)] + ends
        ops += [_exact_op(rng, models[name], name, n, 0.05, 0.95, 2) for n in sizes]
        # the bound's inputs do not depend on the seed: see checks.check_bound
        ops += [{"kind": "bound", "model": name, "x": x,
                 "argv": ["bound", "--model", f"{{models}}/{name}.json", "--x", x]}
                for x in OSC_BOUND_X]
    for growth, depth in OSC_COUNTEREXAMPLES:
        x = f"{rng.uniform(0.2, 0.8):.2f}"
        ops.append({"kind": "counterexample", "growth": growth, "depth": depth, "x": x,
                    "max_n": OSC_MAX_N,
                    "argv": ["counterexample", "--growth", str(growth), "--depth", str(depth),
                             "--x", x, "--max-n", str(OSC_MAX_N)]})
    return models, _shuffled(rng, ops)


def tilted_mc(rng) -> tuple[dict, list[dict]]:
    """Tilted Monte Carlo to 2% relative standard error on weighted,
    round-robin and block models of lattice classes with 2-5 support
    points; every model gets the full sweep of n, of the target decay
    -log P and of the batch size."""
    models = {}
    for m in range(9):
        k = 2 + m % 2
        step = str(rng.choice(["0.25", "0.5", "1"]))
        classes = _lattice_classes(rng, [(2 + (m + j) % 4, 4) for j in range(k)], step)
        if m % 3 == 0:
            regime = {"weighted": {"weights": dyadic_weights(rng, k, 32)}}
        elif m % 3 == 1:
            regime = {"assigned": {"round_robin": {"weights": [1 + (m + j) % 3 for j in range(k)]}}}
        else:
            regime = {"assigned": {"blocks": {"a0": 1 + m % 4, "growth": 2 + m % 2,
                                              "order": list(range(k)), "accelerating": False}}}
        models[f"m{m:02d}"] = _model(classes, regime, step)
    ops = []
    for name, mdl in models.items():
        for n, decay, b in zip(*(sweep(rng, lo, hi, MC_SWEEP) for lo, hi in
                                 ((200, 5000), (8, 120), (6000, 15000)))):
            n = int(round(n))
            x = _threshold_for_decay(mdl, n, decay)
            ops.append({"kind": "mc", "model": name, "n": n, "x": x,
                        "samples": int(round(b, -2)), "seed_base": int(rng.integers(1, 2**31)),
                        "rse": MC_BATCH_RSE, "max_batches": MC_MAX_BATCHES,
                        "argv": ["mc", "--model", f"{{models}}/{name}.json", "--n", str(n),
                                 "--x", x, "--tilted"]})
    return models, _shuffled(rng, ops)


def _threshold_for_decay(model: dict, n: int, decay: float) -> str:
    """x with n * I_n(x) close to ``decay``, I_n the Chernoff rate of the
    finite-n class mix, found by bisection on the tilt.  The decay is
    capped at half of n I_n at the top of the reachable range, so that x
    stays well inside it, where tilting is defined."""
    classes, w = model["classes"], weights_at(model, n)
    decay = min(decay, 0.5 * n * ref.legendre(classes, w, ref.reachable(classes, w)[1]))
    lo, hi = 0.0, 1.0
    while _decay(classes, w, n, hi) < decay:
        hi *= 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _decay(classes, w, n, mid) < decay else (lo, mid)
    d1 = float(ref.mixture_cgf(classes, w, [lo])[1][0])
    return f"{d1:.4g}"


def _decay(classes, w, n, lam) -> float:
    value, d1, _ = ref.mixture_cgf(classes, w, [lam])
    return n * float(lam * d1[0] - value[0])


BUILDERS = {"curves": curves, "lattice": lattice, "oscillating": oscillating,
            "tilted-mc": tilted_mc}


def build(workload: str, seed: int, out_dir: Path, root: Path) -> dict:
    """Write the workload's model files under ``out_dir`` and return the
    spec; argument lists name the files relative to ``root``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    models, ops = BUILDERS[workload](rng)
    model_dir = out_dir / "models"
    model_dir.mkdir(parents=True, exist_ok=True)
    rel = model_dir.resolve().relative_to(root.resolve()).as_posix()
    for name, m in models.items():
        (model_dir / f"{name}.json").write_text(json.dumps(m["doc"], indent=1))
        m["file"] = f"{rel}/{name}.json"
    for op in ops:
        op["argv"] = [a.replace("{models}", rel) for a in op["argv"]]
    return {"workload": workload, "seed": seed, "models": models, "ops": ops}


def threshold(model: dict, n: int, x: str) -> int:
    """Lattice index of the threshold n * x (see reference.threshold_index)."""
    return ref.threshold_index(n, x, model["step"])

