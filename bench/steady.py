"""Steadiness check: run the benchmark twice on the same commit and compare.

    python3 bench/steady.py [--seeds 10] [--workloads capsweep,cli]

For every workload, two sets each run ``bench/run.py --trace 0`` for the
``run_seconds`` of ``BENCHMARK.json`` once per seed (seeds 1..N), each in
its own process.  For every end-to-end metric it prints the median of each
set and the spread, the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.  It fails
(exit 1) when a spread exceeds the metric's bound in ``BENCHMARK.json``,
when the second set's median is worse than the first's by more than the
bound, or when a run fails or reports ``correct: false``.  Aim for spreads
below a third of the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_set(workload, seeds, seconds):
    results = []
    for seed in seeds:
        cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"run failed: {workload} seed {seed} exit {proc.returncode}", flush=True)
            results.append(None)
            continue
        result = json.loads(lines[-1])
        print(f"  {workload} seed {seed}: correct={result['correct']} " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in sorted(result["metrics"].items())), flush=True)
        results.append(result)
    return results


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def worse_by(first, second, better):
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args(argv)

    ok = True
    seeds = range(1, args.seeds + 1)
    for workload in args.workloads.split(","):
        sets = []
        for k in range(2):
            print(f"{workload}: set {k + 1}", flush=True)
            sets.append(run_set(workload, seeds, bench["run_seconds"]))
        runs = [r for s in sets for r in s]
        if any(r is None or not r["correct"] for r in runs):
            print(f"FAIL {workload}: a run failed or reported correct=false")
            ok = False
            continue
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cols = []
            for s in sets:
                values = [r["metrics"][name]["value"] for r in s]
                cols.append((statistics.median(values), spread(values)))
            verdict = "ok"
            if any(sp > bound for _, sp in cols):
                verdict = "SPREAD>BOUND"
            elif any(sp > bound / 3 for _, sp in cols):
                verdict = "spread>bound/3"
            if worse_by(cols[0][0], cols[1][0], metric["better"]) > bound:
                verdict = "MEDIAN SHIFT>BOUND"
            ok = ok and verdict in ("ok", "spread>bound/3")
            text = "  ".join(f"median {m:.5g} spread {sp:.4f}" for m, sp in cols)
            print(f"{workload:9s} {name:12s} bound {bound:<5} {text}  {verdict}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
