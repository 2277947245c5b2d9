"""Benchmark of the freegroups toolkit: one workload, one seed, one JSON line.

    python3 bench/run.py --workload toolkit --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The parent process makes the inputs
from the seed (``workloads.generate``), then starts fresh workload
processes (``child.py``) one after another with a fixed environment.

* ``--trace 0`` prints the end-to-end metrics.  ``setup_s`` is the median,
  over several fresh processes, of the time from starting the process to
  its inputs being built.  The other four come from one more process
  that runs whole rounds of the workload's checked operations.  All times
  are corrected to the nominal host speed (see ``hostspeed.py``).
* ``--trace 1`` runs half the rounds untraced and half traced and prints
  the per-layer metrics plus the tracing overhead; spans go to
  ``.bench_out/``.

A run does a fixed number of rounds, derived from ``--seconds`` and the
nominal round time of its workload, so the work measured is the same on
every commit and ``run_s`` moves with the program's speed.

An operation that raises is counted as failed and skipped.  An output
that disagrees with its reference makes ``correct`` false, and the run
then exits with code 1 after printing its JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

import workloads  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402

# Median round time (at nominal host speed) of the code this benchmark was
# written against; fixes how many rounds a run of --seconds does.
NOMINAL_ROUND_S = {"verify-separation": 2.6, "verify-solution": 3.7, "toolkit": 3.6}
SETUP_SAMPLES = 9  # fresh processes that stop once their inputs are built
SETUP_KERNELS = 3  # kernel runs whose median corrects each set-up sample
# The whole run must end well inside 180 s, whatever the program's speed.
RUN_BUDGET_S = 170.0
# Fresh, single-threaded, same hash seed on every run.
CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "LC_ALL": "C.UTF-8",
}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = {k: os.environ[k] for k in ("PATH", "HOME") if k in os.environ}
    env.update(CHILD_ENV)
    return env


def run_child(args: list[str], deadline: float) -> tuple[float, dict | None]:
    """Start one workload process; return (seconds to READY, its result or None)."""
    cmd = [sys.executable, str(BENCH / "child.py"), *args]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "READY" or code != 0:
        raise BenchError(f"workload process exited with code {code} ({' '.join(args)})")
    lines = rest.strip().splitlines()
    return setup, json.loads(lines[-1]) if lines else None


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S

    if not (ROOT / "src" / "freegroups" / "__init__.py").is_file():
        print(f"bench: no freegroups sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    inputs_path = out_dir / f"inputs-{tag}.json"
    inputs_path.write_text(json.dumps(workloads.generate(args.workload, args.seed)))

    rounds = max(1, round(args.seconds / NOMINAL_ROUND_S[args.workload]))
    # A program far slower than at the seed stops after the round that
    # crosses this, so the run still ends in time; a traced run has two halves.
    timed_cap = min(2.5 * args.seconds, RUN_BUDGET_S / 2) / (2 if args.trace else 1)
    common = ["--workload", args.workload, "--inputs", str(inputs_path), "--deadline", str(timed_cap)]

    try:
        if args.trace:
            half = max(1, rounds // 2)
            _, plain = run_child(common + ["--rounds", str(half)], deadline)
            trace_path = out_dir / f"trace-{tag}.json"
            _, traced = run_child(
                common + ["--rounds", str(half), "--trace", "1", "--trace-out", str(trace_path)], deadline
            )
            runs = [plain, traced]
            overhead = traced["run_s"] / (plain["run_s"] * traced["rounds"] / plain["rounds"]) - 1
            metrics = dict(traced["layers"])
            metrics["trace.overhead_pct"] = metric(100 * overhead, "%")
            print(f"tracing overhead on run_s: {100 * overhead:+.1f}% ({traced['rounds']} rounds each)", file=sys.stderr)
            for name, ms in list(traced["self_ms"].items())[:12]:
                print(f"  self {ms:10.2f} ms/round  {name}", file=sys.stderr)
        else:
            speed = HostSpeed(SETUP_KERNELS)
            setups = []
            for _ in range(SETUP_SAMPLES):
                setup, _ = run_child(common + ["--setup-only"], deadline)
                setups.append(setup / speed.factor(setup))
            _, result = run_child(common + ["--rounds", str(rounds)], deadline)
            runs = [result]
            print(f"raw wall time of the {result['rounds']} rounds: {result['raw_run_s']:.3f} s", file=sys.stderr)
            metrics = {
                "setup_s": metric(statistics.median(setups), "s"),
                "run_s": metric(result["run_s"], "s"),
                "round_p50_s": metric(statistics.median(result["round_s"]), "s"),
                "cpu_s": metric(result["cpu_s"], "s"),
                "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
            }
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = all(r["correct"] for r in runs)
    for name, m in metrics.items():
        print(f"{args.workload}  {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload}  operations attempted = {attempted}, failed = {failed}, correct = {correct}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    # A wrong output makes the run's times no measurement of the program.
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
