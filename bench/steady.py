"""Steadiness of the benchmark: two sets of runs of the same code.

    python3 bench/steady.py --runs 10 [--first-seed 1]

Runs ``bench/run.py`` once per seed on every workload of BENCHMARK.json,
for ``run_seconds`` each, in two sets of ``--runs`` seeds (the second
set continues the seeds of the first), interleaving the workloads so
that a change in machine load reaches all of them.  For every workload
and end-to-end metric it prints each set's median and quartiles, the
spread (quartile distance over the median) and whether the sets agree
within the bound in BENCHMARK.json: every spread within the bound, the
second median no worse than the first by more than the bound, every run
correct, and the same share of failed operations in both sets.  Raw result lines are
appended to bench/out/steady.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         capture_output=True, text=True, timeout=600, check=True).stdout
    return json.loads(out.splitlines()[-1])


def summary(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description="two sets of benchmark runs, compared")
    ap.add_argument("--runs", type=int, default=10, help="seeds per set")
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    workloads = [w["name"] for w in bench["workloads"]]
    sets = (0, 1)

    log = HERE / "out" / "steady.jsonl"
    log.parent.mkdir(exist_ok=True)
    results = {(w, s): [] for w in workloads for s in sets}
    for s in sets:
        for k in range(args.runs):
            seed = args.first_seed + s * args.runs + k
            for w in workloads:
                res = run_once(w, seed, bench["run_seconds"])
                results[w, s].append(res)
                with log.open("a") as fh:
                    fh.write(json.dumps({"workload": w, "set": s, "seed": seed, **res}) + "\n")
                print(f"set {s + 1} seed {seed} {w}: "
                      + " ".join(f"{m}={v['value']:.4g}" for m, v in res["metrics"].items()),
                      file=sys.stderr)

    ok = True
    for w in workloads:
        shares = [{r["failed"] / r["attempted"] for r in results[w, s]} for s in sets]
        same_share = len(set().union(*shares)) == 1
        correct = all(r["correct"] for s in sets for r in results[w, s])
        ok &= same_share and correct
        print(f"\n{w}: failed share {sorted(set().union(*shares))}"
              f"{'' if same_share else '  DIFFERS'}; correct in every run: {correct}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cells, meds = [], []
            for s in sets:
                med, q1, q3, spread = summary([r["metrics"][name]["value"] for r in results[w, s]])
                meds.append(med)
                cells.append(f"{med:10.4g} [{q1:.4g}, {q3:.4g}] spread {spread:6.3f}")
                if spread > bound:
                    ok = False
                    cells[-1] += " WIDE"
            worse = (meds[1] - meds[0]) / meds[0] * (1 if metric["better"] == "lower" else -1)
            agree = worse <= bound
            ok &= agree
            verdict = f" | change {worse:+.3f} {'ok' if agree else 'WORSE'} (bound {bound})"
            print(f"  {name:12s} {metric['unit']:4s} " + " | ".join(cells) + verdict)
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
