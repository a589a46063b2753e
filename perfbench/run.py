#!/usr/bin/env python3
"""knotfloer benchmark: one workload, untraced (end-to-end) or traced (per layer).

    python3 perfbench/run.py --workload pair-sweep --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ./src.  One
process, no threads.  A run repeats whole passes over the workload's
operations until the timed passes add up to --seconds (at least one pass).
The seed shuffles the operation order within each pass.  After every pass,
outside the timed region, each answer is compared with the frozen table in
expected.json; a wrong answer aborts with exit code 1.  An operation that
raises is a failure: it is counted, not aborted on.

Output: a detail line (every metric, the seed, the tail percentile and its
sample count, the failures) and, last, one JSON line with the keys
correct, attempted, failed and metrics.  --trace 0 reports the end-to-end
metrics; --trace 1 loads the tracer, runs untraced passes for half of
--seconds, then traced passes, and reports the per-layer metrics and the
tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NoReturn

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("cable-pipeline", "pair-sweep", "homology-products")
SETUP_SAMPLES = 7       # set-ups per run (one here, the rest in fresh processes)
TAIL_BEYOND = 10        # samples above the reported tail percentile
# String hashing decides set and dict order inside knotfloer, and with it
# up to ~40% of the run time (the answers do not change).  Every run uses
# one hash seed, so that runs measure the same work.
HASH_SEED = "0"

# Every end-to-end metric with its unit.  GATED ones are the ones
# BENCHMARK.json bounds.  The others are printed on the detail line only:
# exists/none are undefined on homology-products, fail_share is 0 on two
# workloads, and the op latencies of cable-pipeline (3 samples per op in a
# 30 s run) spread by up to 0.32 of their median over ten seeds on a shared
# 2-vCPU host, more than the largest bound a gate may have (0.25).
E2E_UNITS = {
    "setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "exists_p50_ms": "ms", "none_p50_ms": "ms", "fail_share": "ratio",
    "decided_share": "ratio", "peak_rss_mb": "MB",
}
GATED = ("setup_s", "wall_s", "decided_share", "peak_rss_mb")


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "cfk.bytes":
        return "bytes"
    return "count"


def fail(message: str, code: int = 1) -> NoReturn:
    print(f"benchmark error: {message}", file=sys.stderr)
    sys.exit(code)


def import_program():
    """Import the package from the checkout's src/ and the workload module."""
    if not (SRC / "knotfloer" / "__init__.py").is_file():
        fail(f"no knotfloer sources under {SRC}", 2)
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads
    return workloads


def timed_setup(workload: str):
    t0 = time.perf_counter()
    workloads = import_program()
    state = workloads.setup(workload)
    return workloads, state, time.perf_counter() - t0


def setup_probe(workload: str) -> float:
    """Set-up time in a fresh interpreter, imports included."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", workload,
         "--setup-probe"], capture_output=True, text=True, timeout=120,
        check=True)
    return float(out.stdout.strip().splitlines()[-1])


# -- passes ------------------------------------------------------------------

def pass_order(ops, rng: random.Random):
    order = []
    for level in sorted({op.level for op in ops}):
        group = [op for op in ops if op.level == level]
        rng.shuffle(group)
        order += group
    return order


def run_pass(ops, state0: dict, rng: random.Random):
    """One timed pass; returns (wall seconds, [(op, seconds, result, error)])."""
    state = dict(state0)
    records = []
    gc.collect()
    start = time.perf_counter()
    for op in pass_order(ops, rng):
        t0 = time.perf_counter()
        try:
            result, error = op.fn(state), None
        except Exception as exc:  # an op that raises is a counted failure
            result, error = None, f"{type(exc).__name__}: {exc}"
        records.append((op, time.perf_counter() - t0, result, error))
        state[op.name] = result
    return time.perf_counter() - start, records


def check_pass(records, expected: dict, checker) -> list[str]:
    """Compare answers with the frozen table; exit 1 on a wrong answer.
    Returns the failure messages of ops that raised."""
    failures = []
    for op, _, result, error in records:
        if error is not None:
            failures.append(f"{op.name}: {error}")
            continue
        want = expected.get(op.name)
        if want is None:
            fail(f"no expected answer for {op.name!r}")
        got = json.loads(json.dumps(checker.answer(op.name, result)))
        facts = {k: v["expect"] for k, v in want.items()}
        if got != facts:
            fail(f"wrong answer for {op.name!r}: got {got}, expected {facts}")
    return failures


class Run:
    """Timed passes of one workload plus the answer checks between them."""

    def __init__(self, workloads, workload: str, state0: dict, seed: int):
        self.ops = workloads.ops(workload)
        self.state0 = state0
        self.rng = random.Random(seed)
        self.expected = json.loads((HERE / "expected.json").read_text())[workload]
        self.checker = workloads.Checker()
        self.verdict_kind = workloads.verdict_kind
        self.walls: list[float] = []
        self.op_times: dict[str, list[float]] = {op.name: [] for op in self.ops}
        self.kind_times = {"exists": [], "none": []}
        self.attempted = self.failed = 0
        self.failures: set[str] = set()
        self.layer_figures: list[dict] = []

    def one_pass(self, tracer=None) -> float:
        """A timed pass, then its checks.  With a tracer, the trace is
        cleared before the pass and its figures kept right after it, so
        the checks never count as traced work."""
        if tracer is not None:
            tracer.reset()
        wall, records = run_pass(self.ops, self.state0, self.rng)
        if tracer is not None:
            self.layer_figures.append(tracer.layer_metrics())
        failures = check_pass(records, self.expected, self.checker)
        self.walls.append(wall)
        for op, dt, result, error in records:
            self.op_times[op.name].append(dt)
            kind = self.verdict_kind(result)
            if kind is not None:
                self.kind_times[kind].append(dt)
        self.attempted += len(records)
        self.failed += len(failures)
        self.failures.update(failures)
        return wall

    def repeat(self, seconds: float, tracer=None, between=None) -> None:
        """Passes until their timed total reaches `seconds`; `between(share)`
        runs after each pass with the share of `seconds` spent so far."""
        spent, passes = 0.0, 0
        while spent < seconds or passes == 0:
            spent += self.one_pass(tracer)
            passes += 1
            if between is not None:
                between(min(1.0, spent / seconds) if seconds > 0 else 1.0)


def ms_median(values):
    return statistics.median(values) * 1000 if values else None


def tail_ms(op_times: dict) -> tuple[float, float, int]:
    """The highest percentile of the per-op median latencies that has
    TAIL_BEYOND ops above it.  Returns (ms, percentile, ops)."""
    medians = sorted(statistics.median(t) for t in op_times.values())
    n = len(medians)
    rank = max(0, n - TAIL_BEYOND - 1)
    return medians[rank] * 1000, 100.0 * (rank + 1) / n, n


# -- the two kinds of run ----------------------------------------------------

def end_to_end(args) -> tuple[dict, dict, Run]:
    workloads, state0, own_setup = timed_setup(args.workload)
    setups = [own_setup]

    def probe_setups(share: float) -> None:
        # spread the set-up samples over the run, not in one burst
        while len(setups) < 1 + int((SETUP_SAMPLES - 1) * share):
            setups.append(setup_probe(args.workload))

    run = Run(workloads, args.workload, state0, args.seed)
    run.repeat(args.seconds, between=probe_setups)
    tail, pct, n = tail_ms(run.op_times)
    all_times = [t for times in run.op_times.values() for t in times]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(run.walls),
        "op_p50_ms": ms_median(all_times),
        "op_tail_ms": tail,
        "exists_p50_ms": ms_median(run.kind_times["exists"]),
        "none_p50_ms": ms_median(run.kind_times["none"]),
        "fail_share": run.failed / run.attempted,
        "decided_share": (run.attempted - run.failed) / run.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    extra = {"op_tail_percentile": pct, "op_tail_ops": n,
             "op_tail_samples_per_op": len(run.walls),
             "setup_samples": setups,
             "verdict_samples": {k: len(v) for k, v in run.kind_times.items()},
             "op_median_ms": {k: ms_median(v) for k, v in run.op_times.items()}}
    return metrics, extra, run


def traced(args) -> tuple[dict, dict, Run]:
    workloads, state0, _ = timed_setup(args.workload)
    run = Run(workloads, args.workload, state0, args.seed)
    run.repeat(args.seconds / 2)
    untraced_wall = statistics.median(run.walls)
    import layertrace
    tracer = layertrace.LayerTracer(extra_modules=[workloads])
    traced_walls_from = len(run.walls)
    tracer.install()
    try:
        run.repeat(args.seconds, tracer)
    finally:
        tracer.uninstall()
    traced_wall = statistics.median(run.walls[traced_walls_from:])
    per_pass = run.layer_figures
    values = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    values["trace.overhead_s"] = traced_wall - untraced_wall
    metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    extra = {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
             "traced_passes": len(per_pass)}
    return metrics, extra, run


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, str(Path(__file__)),
                                   *sys.argv[1:]],
                  {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.setup_probe:
        print(repr(timed_setup(args.workload)[2]))
        return 0

    metrics, extra, run = (traced if args.trace else end_to_end)(args)
    detail = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "passes": len(run.walls),
              "ops_per_pass": len(run.ops), **extra,
              "failures": sorted(run.failures), "metrics": metrics}
    print(json.dumps({"detail": detail}))
    reported = metrics if args.trace else {k: metrics[k] for k in GATED}
    print(json.dumps({"correct": True, "attempted": run.attempted,
                      "failed": run.failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
