#!/usr/bin/env python3
"""Benchmark for gossipq: whole-trial host time, exact counts, layer trace.

    python3 benchmarks/run.py --workload approx-wide --seed 1 --seconds 25 --trace 0
    python3 benchmarks/run.py --workload all          # every workload in turn

Run from the root of a source checkout; gossipq is imported from
``src/``. Each run builds a fixed plan of trials from ``--seed``, sets up
(import, input generation, one untimed warm-up trial) three times and
keeps the median (once when tracing), then runs the whole plan once
(pass 1) and repeats it from the start until ``--seconds`` have passed.
Rounds, messages, failures and the digest come from pass 1, so they do
not depend on speed; every repeated trial must reproduce its pass-1
record.

With ``--trace 1`` every trial of pass 1 runs twice, untraced and traced
in alternating order, and the run reports the per-layer metrics and the
tracing overhead instead of the end-to-end ones. Spans are written to
``benchmarks/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit status is
0 whenever the benchmark ran, whatever the trials' outcome, and non-zero
when it cannot run (no ``src/gossipq`` in the checkout, a bad argument).
See benchmarks/README.md for the metrics.
"""
from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("approx-wide", "robust-wide", "exact-narrow", "sketch-merge")
SETUPS = 3
CHILD_TIMEOUT_S = 170


class CannotRun(RuntimeError):
    """The benchmark cannot run in this directory."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise CannotRun(f"{path} not found")
    return json.loads(path.read_text())


def set_up(workload: str, seed: int):
    """Import gossipq from the checkout, build the plan, run one warm-up
    trial. Returns (seconds taken, workloads module, plan)."""
    t0 = time.perf_counter()
    src = ROOT / "src"
    if not (src / "gossipq" / "__init__.py").is_file():
        raise CannotRun(f"no gossipq sources under {src}")
    sys.path[:0] = [str(src), str(BENCH_DIR)]
    import gossipq
    import workloads

    if Path(gossipq.__file__).resolve().parent != (src / "gossipq").resolve():
        raise CannotRun(f"imported gossipq from {gossipq.__file__}, not {src}")
    plan = workloads.make_plan(workload, seed)
    workloads.run_trial(plan[0])
    return time.perf_counter() - t0, workloads, plan


def child_setup_seconds(workload: str, seed: int) -> float:
    """Set up once in a fresh interpreter, so the import is paid again."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise CannotRun(f"set-up child failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def host_probe_ms() -> float:
    """Median time of a fixed numpy kernel (gather + sort of 2^20 floats).

    Recorded at the start and end of a run to tell machine drift from a
    program change; no metric is divided by it.
    """
    import numpy as np

    rng = np.random.default_rng(20171124)
    x = rng.random(1 << 20)
    idx = rng.integers(0, 1 << 20, size=1 << 20)
    buf = np.empty_like(x)
    samples = []
    for _ in range(9):
        # in place, so the allocator's state does not enter the timing
        t0 = time.perf_counter()
        np.take(x, idx, out=buf)
        buf.sort()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples) * 1e3


def tail(times: list[float]) -> tuple[float, int]:
    """Highest whole percentile with at least ten trials beyond it.

    Nearest-rank: the value at sorted index ceil(p/100 * N) - 1. Below 11
    trials no percentile has ten beyond it and the maximum is reported
    as p100.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100
    p = math.floor(100 * (n - 10) / n)
    index = max(0, math.ceil(p / 100 * n) - 1)
    return ordered[index], p


def measure(workloads, plan, seconds: float) -> tuple[dict, dict, list]:
    """Untraced run: pass 1, then repeats until the deadline."""
    records, times, node_rounds = [], [], 0
    mismatches = 0
    seconds_by_label: dict[str, float] = {}
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while i < len(plan) or time.perf_counter() < deadline:
        trial = plan[i % len(plan)]
        record, elapsed = workloads.run_trial(trial)
        if i < len(plan):
            records.append(record)
        elif record != records[i % len(plan)]:
            mismatches += 1
        times.append(elapsed)
        seconds_by_label[trial.label] = seconds_by_label.get(trial.label, 0.0) + elapsed
        node_rounds += trial.n * record.rounds
        i += 1
    wall = time.perf_counter() - start
    tail_value, tail_p = tail(times)
    metrics = {
        "trial_s_p50": statistics.median(times),
        "trial_s_tail": tail_value,
        "trials_per_s": len(times) / wall,
        "ns_per_node_round": sum(times) * 1e9 / max(1, node_rounds),
    }
    info = {"trials_timed": len(times), "trial_s_tail_percentile": tail_p,
            "repeat_mismatches": mismatches, "seconds_by_label": seconds_by_label}
    return metrics, info, records


def measure_traced(workloads, plan, label: str) -> tuple[dict, dict, list]:
    """Traced run: each pass-1 trial untraced and traced, order alternating."""
    from tracer import Tracer

    tracer = Tracer()
    records, untraced_s, traced_s = [], 0.0, 0.0
    mismatches = 0
    for i, trial in enumerate(plan):
        pair = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.trial = i
                tracer.install()
                try:
                    pair[traced] = workloads.run_trial(trial)
                finally:
                    tracer.uninstall()
            else:
                pair[traced] = workloads.run_trial(trial)
        records.append(pair[False][0])
        untraced_s += pair[False][1]
        traced_s += pair[True][1]
        if pair[True][0] != pair[False][0]:
            mismatches += 1
    metrics = tracer.per_layer(len(plan))
    metrics["trace.overhead_ratio"] = traced_s / untraced_s - 1.0
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{label}.jsonl"
    tracer.write(trace_path)
    info = {"repeat_mismatches": mismatches,
            "trace_file": str(trace_path.relative_to(ROOT)),
            "top_self_s": [[name, s / len(plan)] for name, s in tracer.top_self()]}
    return metrics, info, records


def run_workload(args) -> dict:
    spec = load_spec()
    # setup_s is an end-to-end metric; a traced run sets up only once
    setups = [] if args.trace else [
        child_setup_seconds(args.workload, args.seed) for _ in range(SETUPS - 1)]
    own_setup, workloads, plan = set_up(args.workload, args.seed)
    setups.append(own_setup)

    probe_start = host_probe_ms()
    label = f"{args.workload}-seed{args.seed}"
    if args.trace:
        metrics, info, records = measure_traced(workloads, plan, label)
        wanted = spec["per_layer"]
    else:
        metrics, info, records = measure(workloads, plan, args.seconds)
        metrics.update(
            setup_s=statistics.median(setups),
            rounds_per_trial=statistics.fmean(r.rounds for r in records),
            messages_per_trial=statistics.fmean(r.messages for r in records),
            ok_share=sum(r.failure is None for r in records) / len(records),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
        wanted = spec["end_to_end"]
    probe_end = host_probe_ms()

    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(metrics):
        raise CannotRun(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(names)}")

    failures: dict[str, int] = {}
    for r in records:
        if r.failure is not None:
            failures[r.failure] = failures.get(r.failure, 0) + 1
    undeclared = any(k.startswith("undeclared:") for k in failures)
    extras = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "digest": workloads.digest(records), "distinct_trials": len(plan),
        "failures": failures, "setups_s": setups,
        "host_probe_ms": {"start": probe_start, "end": probe_end},
        **info,
    }
    for m in wanted:
        print(f"{m['name']:44s} {metrics[m['name']]:.6g} {m['unit']}  ({m['better']} is better)")
    print(json.dumps(extras))
    return {
        "correct": not undeclared and info["repeat_mismatches"] == 0,
        "attempted": len(records),
        "failed": sum(failures.values()),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def run_all(args) -> dict:
    """Each workload in its own interpreter, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 60,
        )
        if proc.returncode != 0:
            raise CannotRun(f"{workload} failed:\n{proc.stderr}")
        lines = proc.stdout.strip().splitlines()
        print(f"== {workload}", *lines[:-1], sep="\n", flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = value
    return combined


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--setup-only", action="store_true",
                    help="set up once and print the seconds it took")
    args = ap.parse_args(argv)
    try:
        if args.setup_only:
            if args.workload == "all":
                raise CannotRun("--setup-only needs one workload")
            print(json.dumps({"setup_s": set_up(args.workload, args.seed)[0]}))
            return 0
        result = run_all(args) if args.workload == "all" else run_workload(args)
    except (CannotRun, subprocess.TimeoutExpired) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
