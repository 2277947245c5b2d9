"""One workload process: build the inputs, run whole rounds, check every output.

Started by ``run.py`` in a fresh interpreter with a fixed environment.
Protocol on stdout: the line ``READY`` once the inputs are built (the
parent times set-up up to that line), then one JSON line with the
results.  The program's own output never reaches stdout: CLI calls print
into a buffer.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(SRC))

import freegroups  # noqa: E402
import freegroups.cli  # noqa: E402

import workloads  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from spans import Tracer  # noqa: E402

# Per-layer metrics: name -> unit, as BENCHMARK.json lists them.  Layers a
# workload does not run read 0.  The tracing overhead is run.py's.
LAYER_UNITS = {
    m["name"]: m["unit"]
    for m in json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    if m["name"] != "trace.overhead_pct"
}

# Toolkit metrics that are the time of one family of operations, by op-name prefix.
OP_METRICS = {
    "stallings.intersect_ms": "intersect",
    "stallings.contains_ms": "contains.",
    "whitehead.is_primitive_ms": "is_primitive.",
    "whitehead.minimize_tuple_ms": "minimize_tuple.",
    "whitehead.is_free_factor_ms": "is_free_factor.",
    "splittings.britton_reduce_ms": "britton.",
    "endos.orbit_bounded_ms": "orbit_bounded",
    "words.pow_ms": "pow",
    "words.is_conjugate_ms": "is_conjugate",
    "words.extract_root_ms": "extract_root",
}
SERIES = {  # metric prefix -> (op-name prefix, input key holding the sizes)
    "stallings.fold": ("fold.s", "fold"),
    "stallings.malnormal": ("malnormal.s", "malnormal"),
    "splittings.britton": ("britton.s", "britton"),
}


def slope(sizes: list[float], times: list[float]) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(s) for s in sizes]
    ys = [math.log(max(t, 1e-9)) for t in times]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def layer_metrics(tracer: Tracer, inputs: dict, op_times: list[dict], per_round: list[dict]) -> dict:
    """Per-layer metrics: medians over rounds of per-round sums."""
    rounds = len(op_times)
    med = statistics.median
    out = {name: 0.0 for name in LAYER_UNITS}
    absent = set(tracer.absent)

    def spans(name: str) -> list[float]:
        return tracer.per_round(rounds, name)

    def ops(prefix: str) -> list[float]:
        return [sum(t for n, t in r.items() if n.startswith(prefix)) for r in op_times]

    layer_spans = {
        "cli.main_s": ("cli.main", 1.0),
        "closure.build_counterexample_ms": ("closure.build_counterexample", 1e3),
        "closure.dcl_separation_s": ("closure.dcl_separation_check", 1.0),
        "bulk.words_of_length_s": ("_bulk.words_of_length", 1.0),
        "bulk.bulk_reduce_s": ("_bulk.bulk_reduce", 1.0),
        "bulk.cyclic_bounds_s": ("_bulk.cyclic_bounds", 1.0),
    }
    for metric, (name, scale) in layer_spans.items():
        if name in absent:
            del out[metric]
        else:
            out[metric] = med(spans(name)) * scale

    whole = ("closure.verify_counterexample", "closure.build_counterexample", "closure.dcl_separation_check")
    if absent.isdisjoint(whole):
        verify, build, dcl = (spans(n) for n in whole)
        out["closure.solution_set_s"] = med(v - b - d for v, b, d in zip(verify, build, dcl))
    else:
        del out["closure.solution_set_s"]

    counted = {
        "bulk.rows_enumerated": "_bulk.words_of_length.rows",
        "bulk.rows_reduced": "_bulk.bulk_reduce.rows",
        "whitehead.move_applications": "whitehead.WhiteheadMove.apply",
        "splittings.hnn_equal_calls": "splittings.hnn_equal",
    }
    for metric, key in counted.items():
        if key.split(".rows")[0] in absent:
            del out[metric]
        else:
            out[metric] = med(r.get(key, 0) for r in per_round)
    if "bulk.bulk_reduce_s" in out and "bulk.rows_reduced" in out:
        rates = [r.get("_bulk.bulk_reduce.rows", 0) / t if t > 0 else 0.0
                 for r, t in zip(per_round, spans("_bulk.bulk_reduce"))]
        out["bulk.bulk_reduce_rows_per_s"] = med(rates)
    else:
        del out["bulk.bulk_reduce_rows_per_s"]

    if "fold" in inputs:  # the toolkit
        for metric, prefix in OP_METRICS.items():
            out[metric] = med(ops(prefix)) * 1e3
        for metric, (prefix, key) in SERIES.items():
            sizes = [item["size"] for item in inputs[key]]
            times = [med(ops(f"{prefix}{i}")) for i in range(1, len(sizes) + 1)]
            if metric != "splittings.britton":
                for i, t in enumerate(times, 1):
                    out[f"{metric}_s{i}_ms"] = t * 1e3
            out[f"{metric}_exponent"] = slope(sizes, times)
    return out


def self_times(tracer: Tracer, rounds: int) -> dict:
    """Median per-round self time (ms) and call count of every span name."""
    covered = tracer.child_time()
    self_ms: dict[str, list[float]] = {}
    calls: dict[str, list[int]] = {}
    for idx, (name, _, _, _, rnd, _) in enumerate(tracer.spans):
        if name.startswith("op:"):
            name = "op:" + name[3:].split(".")[0]
        self_ms.setdefault(name, [0.0] * rounds)[rnd] += (tracer.duration(idx) - covered[idx]) * 1e3
        calls.setdefault(name, [0] * rounds)[rnd] += 1
    return {
        name: {"self_ms": statistics.median(v), "calls": statistics.median(calls[name])}
        for name, v in sorted(self_ms.items(), key=lambda kv: -statistics.median(kv[1]))
    }


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--inputs", required=True)
    p.add_argument("--rounds", type=int, default=1)
    p.add_argument("--deadline", type=float, default=120.0)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--trace-out")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    if Path(freegroups.__file__).resolve().parent != SRC / "freegroups":
        print(f"bench: imported freegroups from {freegroups.__file__}, not {SRC}", file=sys.stderr)
        return 3
    inputs = json.loads(Path(args.inputs).read_text())
    workload = workloads.build(args.workload, inputs, freegroups)
    out = sys.stdout
    out.write("READY\n")
    out.flush()
    if args.setup_only:
        return 0

    correct = True
    for name, check in workload.once:
        if not check():
            print(f"bench: input check {name} failed", file=sys.stderr)
            correct = False

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        for name in tracer.absent:
            print(f"bench: trace target {name} is absent; its metrics are left out", file=sys.stderr)

    attempted = failed = 0
    speed = HostSpeed()
    round_s: list[float] = []  # at nominal host speed
    raw_s = cpu_s = 0.0
    op_times: list[dict] = []
    per_round_counts: list[dict] = []
    snapshot: dict = {}
    for rnd in range(args.rounds):
        if tracer is not None:
            tracer.round = rnd
        results, times = [], {}
        for op in workload.ops:
            attempted += 1
            span = tracer.enter("op:" + op.name) if tracer is not None else None
            c = time.process_time()
            s = time.perf_counter()
            try:
                results.append((op, op.call()))
            except Exception:  # a failing call is counted, reported and skipped
                failed += 1
                traceback.print_exc()
            finally:
                wall = time.perf_counter() - s
                cpu = time.process_time() - c
                if span is not None:
                    tracer.leave(span)
            factor = speed.factor(wall)
            if span is not None:
                tracer.factors[span] = factor
            times[op.name] = wall / factor
            raw_s += wall
            cpu_s += cpu / factor
        round_s.append(sum(times.values()))
        op_times.append(times)
        for op, result in results:
            try:
                ok = op.check(result)
            except Exception:  # an output the check cannot read is a wrong output
                traceback.print_exc()
                ok = False
            if not ok:
                print(f"bench: round {rnd}: output of {op.name} is wrong", file=sys.stderr)
                correct = False
        if tracer is not None:
            now = {**tracer.counts, **tracer.rows}
            per_round_counts.append({k: v - snapshot.get(k, 0) for k, v in now.items()})
            snapshot = now
        if raw_s > args.deadline:
            break

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "rounds": len(round_s),
        "round_s": round_s,
        "run_s": sum(round_s),
        "raw_run_s": raw_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        layers = layer_metrics(tracer, inputs, op_times, per_round_counts)
        result["layers"] = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in layers.items()}
        summary = self_times(tracer, len(round_s))
        result["self_ms"] = {name: v["self_ms"] for name, v in summary.items()}
        if args.trace_out:
            Path(args.trace_out).write_text(json.dumps({
                "workload": args.workload,
                "rounds": len(round_s),
                "absent": tracer.absent,
                "wrapped": tracer.wrapped,
                "self": summary,
                "counts_per_round": per_round_counts,
                "spans": tracer.spans,
            }))
    out.write(json.dumps(result) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
