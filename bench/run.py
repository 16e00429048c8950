"""lossdev benchmark: one workload, one seed, one JSON line of results.

    python3 bench/run.py --workload lattice --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The run generates the workload's
model files and operation list from the seed, computes the reference
values in this process, times ``setup_s`` in fresh processes, then runs
the operations in one fresh worker process (``worker.py``) and checks
every output it printed.  The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``, a separate run with every layer wrapped in spans).

``--generate`` only writes the model files, the operation list and the
references under bench/out/<workload>-<seed>/ and exits.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402  (benchmark modules next to this file)
import workloads  # noqa: E402

SETUP_RUNS = 7          # fresh processes timed for setup_s; the median is reported
WORKER_TIMEOUT_S = 150  # beyond --seconds

SETUP_SNIPPET = """
import sys, time
t0 = time.perf_counter()
import lossdev
from lossdev.cli import dispatch
import io, contextlib
for path in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        if dispatch(["validate", path]) != 0:
            sys.exit(f"{path} does not validate")
print(time.perf_counter() - t0)
"""


def child_env(root: Path) -> dict:
    """Environment of the measured processes: the checkout's sources and
    single-threaded native libraries, so the one client runs alone."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_seconds(files: list[str], env: dict, root: Path) -> float:
    """Median over fresh processes of: import lossdev, then validate the
    workload's model files through the CLI.  Nothing is imported before
    the clock starts, so a lazier import shows."""
    times = []
    for _ in range(SETUP_RUNS):
        out = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, *files], cwd=root, env=env,
                             capture_output=True, text=True, timeout=60, check=True).stdout
        times.append(float(out.split()[-1]))
    return statistics.median(times)


def generate(workload: str, seed: int, root: Path):
    out_dir = HERE / "out" / f"{workload}-{seed}"
    spec = workloads.build(workload, seed, out_dir, root)
    refs = checks.References(spec)
    (out_dir / "spec.json").write_text(json.dumps(spec))
    (out_dir / "references.json").write_text(json.dumps(refs.ops))
    return out_dir, spec, refs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="lossdev benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--generate", action="store_true",
                    help="write model files, operations and references, then exit")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "lossdev" / "__init__.py").is_file():
        print(f"no lossdev sources under {root / 'src'}: run from a checkout root",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2

    out_dir, spec, refs = generate(args.workload, args.seed, root)
    if args.generate:
        print(out_dir)
        return 0
    env = child_env(root)
    if args.trace:
        import tracing
        imports = tracing.import_times(env)
    else:
        setup_s = setup_seconds([m["file"] for m in spec["models"].values()], env, root)

    result_path = out_dir / f"result-trace{args.trace}.json"
    subprocess.run([sys.executable, str(HERE / "worker.py"), "--spec", str(out_dir / "spec.json"),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--out", str(result_path)],
                   cwd=root, env=env, timeout=args.seconds + WORKER_TIMEOUT_S, check=True)
    res = json.loads(result_path.read_text())

    # every distinct output of every operation is checked; an operation
    # fails in every execution if any of its outputs fails, and an
    # unexpected reason outranks the known fault
    verdicts = []
    for i, outs in enumerate(res["outputs"]):
        reasons = [r for r in (checks.check(spec, refs, i, o) for o in outs) if r]
        reasons.sort(key=lambda r: isinstance(r, checks.KnownFault))
        verdicts.append(reasons[0] if reasons else None)
    n_ops = len(spec["ops"])
    attempted = len(res["latency_ns"])
    failed = sum(1 for k in range(attempted) if verdicts[k % n_ops])
    unexpected = [(i, spec["ops"][i]["argv"], v) for i, v in enumerate(verdicts)
                  if v and not isinstance(v, checks.KnownFault)]
    for i, op_argv, reason in unexpected:
        print(f"FAILED op {i}: {' '.join(op_argv)}: {reason}", file=sys.stderr)

    if args.trace:
        if res["untraced"]:
            print("not in this version, so the metrics fed only by them read 0: "
                  + ", ".join(res["untraced"]), file=sys.stderr)
        layers = {**res["layers"], **imports}
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in tracing.PER_LAYER}
    else:
        lat_ms = [v / 1e6 for v in res["latency_ns"]]
        metrics = {
            "ops_per_s": {"value": attempted / (res["elapsed_ns"] / 1e9), "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
            "op_p90_ms": {"value": statistics.quantiles(lat_ms, n=10)[-1], "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_kb"] * 1024 / 1e6, "unit": "MB"},
        }
    print(f"{args.workload} seed {args.seed}: {attempted} operations in {res['rounds']} rounds "
          f"of {n_ops}, {failed} failed", file=sys.stderr)
    print(json.dumps({"correct": not unexpected, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
