#!/usr/bin/env python3
"""Quick smoke check of the benchmark: one pass per workload, both modes.

    python3 perfbench/smoke.py

Run from the repository root (about a minute).  For every workload it runs
run.py untraced and traced with --seconds 0 (one pass each).  It asserts
that the last line has exactly the keys correct, attempted, failed and
metrics; that every end-to-end metric is printed by name with its unit;
and that the traced run prints every per-layer metric of BENCHMARK.json
with its unit.  It prints every metric as it goes and exits 1 on the first
mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "exists_p50_ms": "ms", "none_p50_ms": "ms", "fail_share": "ratio",
    "decided_share": "ratio", "peak_rss_mb": "MB",
}
SEARCH_WORKLOADS = {"cable-pipeline", "pair-sweep"}


def run(workload: str, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        sys.exit(f"{workload} trace={trace}: exit {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def check_units(where: str, printed: dict, wanted: dict) -> None:
    if set(printed) != set(wanted):
        sys.exit(f"{where}: metrics {sorted(set(printed) ^ set(wanted))} "
                 "missing or unexpected")
    for name, unit in wanted.items():
        if printed[name]["unit"] != unit:
            sys.exit(f"{where}: {name} has unit {printed[name]['unit']}, "
                     f"expected {unit}")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name, unit in gated.items():
        if END_TO_END.get(name) != unit:
            sys.exit(f"BENCHMARK.json: {name} [{unit}] is not an end-to-end metric")
    for w in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, gated), (1, layers)):
            detail, last = run(w, trace)
            where = f"{w} trace={trace}"
            if set(last) != {"correct", "attempted", "failed", "metrics"}:
                sys.exit(f"{where}: last line has keys {sorted(last)}")
            if last["correct"] is not True or last["attempted"] < 1:
                sys.exit(f"{where}: correct={last['correct']} "
                         f"attempted={last['attempted']}")
            check_units(where, last["metrics"], wanted)
            if trace == 0:
                check_units(where + " detail", detail["metrics"], END_TO_END)
                for kind in ("exists_p50_ms", "none_p50_ms"):
                    defined = detail["metrics"][kind]["value"] is not None
                    if defined != (w in SEARCH_WORKLOADS):
                        sys.exit(f"{where}: {kind} defined={defined}")
            print(f"ok  {where}: {last['attempted']} ops, "
                  f"{last['failed']} failed")
            for name, m in detail["metrics"].items():
                print(f"    {name} = {m['value']} {m['unit']}")


if __name__ == "__main__":
    main()
