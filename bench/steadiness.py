"""Run each workload as two sets of k runs on the same code and compare them.

    python3 bench/steadiness.py --k 10

Every workload in BENCHMARK.json is run for its run_seconds, each run
with its own seed (set A: 100 .. 100+k-1, set B: the next k).
For every end-to-end metric it prints, per set, the median, the quartiles
and the spread (interquartile distance over the median), then the ratio
of the two medians.  The bounds in BENCHMARK.json are set from these
figures: each spread except setup_s's should sit well inside its bound,
and the two medians should agree within it.  All runs are also written
to .bench_out/steadiness.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED_BASE = 100


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    bench_spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench_spec["end_to_end"]}
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--k", type=int, default=10)
    args = p.parse_args()
    seconds = bench_spec["run_seconds"]

    record = {}
    for workload in (w["name"] for w in bench_spec["workloads"]):
        sets = []
        for s in range(2):
            seeds = range(SEED_BASE + s * args.k, SEED_BASE + (s + 1) * args.k)
            sets.append([run_once(workload, seed, seconds) for seed in seeds])
        record[workload] = sets
        print(f"\n{workload}: two sets of {args.k} runs, {seconds} s each")
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in sets]
        correct = all(r["correct"] for runs in sets for r in runs)
        print(f"  failed share A {shares[0]:.6f}  B {shares[1]:.6f}  all correct: {correct}")
        print(f"  {'metric':<14}{'median A':>11}{'q1..q3 A':>22}{'spread A':>10}"
              f"{'median B':>11}{'spread B':>10}{'B/A':>8}{'spread all':>12}{'bound':>7}")
        for name in bounds:
            values = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            (ma, qa1, qa3, sa), (mb, _, _, sb) = (spread(v) for v in values)
            print(f"  {name:<14}{ma:11.4f}{qa1:11.4f}{qa3:11.4f}{sa:10.3f}"
                  f"{mb:11.4f}{sb:10.3f}{mb / ma:8.3f}{spread(values[0] + values[1])[3]:12.3f}{bounds[name]:7.2f}")
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
