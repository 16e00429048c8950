"""The measured process: one client in a closed loop.

Runs one workload's operation list through ``lossdev.cli.dispatch``
in-process, one operation at a time: one warm-up operation, then whole
rounds of the list until the run has lasted ``--seconds`` and attempted
at least MIN_OPS operations.  Each operation's stdout and exit code
are kept for the checks, which run in the parent after this process has
exited; a round that prints the same as the first adds nothing to check.

    python3 bench/worker.py --spec SPEC.json --seconds 20 --trace 0 --out RESULT.json
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import resource
import sys
import time

MIN_OPS = 100  # so that at least 10 executions lie beyond the 90th percentile


def run_op(dispatch, op: dict) -> dict:
    """Run one operation; ``calls`` lists (exit code, stdout) per dispatch."""
    calls = []

    def call(argv):
        out = io.StringIO()
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = out, io.StringIO()
        try:
            code = dispatch(argv)
        finally:
            sys.stdout, sys.stderr = saved
        calls.append([code, out.getvalue()])
        return code, out.getvalue()

    try:
        if op["kind"] != "mc":
            call(op["argv"])
        else:
            # batches with fresh seeds until the combined relative standard
            # error reaches op["rse"]: latency is time to a stated accuracy
            ests, var = [], 0.0
            for k in range(op["max_batches"]):
                code, text = call(op["argv"] + ["--samples", str(op["samples"]),
                                                "--seed", str(op["seed_base"] + k)])
                if code != 0:
                    break
                (rec,) = csv.DictReader(io.StringIO(text))
                ests.append(float(rec["estimate"]))
                var += float(rec["std_error"]) ** 2
                est = sum(ests) / len(ests)
                if 0 < math.sqrt(var) / len(ests) <= op["rse"] * est:
                    break
    except Exception as exc:  # a failing operation is counted, not fatal
        return {"calls": calls, "error": repr(exc)}
    return {"calls": calls, "error": None}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spec", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    with open(args.spec, encoding="utf-8") as fh:
        ops = json.load(fh)["ops"]
    import lossdev.cli

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    def timed(op):
        if tracer is None:
            return run_op(lossdev.cli.dispatch, op)
        with tracer.span(f"op.{op['kind']}"):
            return run_op(lossdev.cli.dispatch, op)

    timed(ops[0])
    if tracer is not None:
        tracer.reset()
    latency_ns, outputs = [], [[] for _ in ops]
    start = time.perf_counter_ns()
    while True:
        for i, op in enumerate(ops):
            t0 = time.perf_counter_ns()
            result = timed(op)
            latency_ns.append(time.perf_counter_ns() - t0)
            if result not in outputs[i]:
                outputs[i].append(result)
        elapsed = time.perf_counter_ns() - start
        if elapsed >= args.seconds * 1e9 and len(latency_ns) >= MIN_OPS:
            break
    doc = {"latency_ns": latency_ns, "elapsed_ns": elapsed, "rounds": len(latency_ns) // len(ops),
           "outputs": outputs,
           "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        doc["layers"] = tracer.layer_metrics()
        doc["untraced"] = tracer.missing
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
