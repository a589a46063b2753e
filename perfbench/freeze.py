#!/usr/bin/env python3
"""Regenerate perfbench/expected.json, the benchmark's frozen answer table.

    python3 perfbench/freeze.py

Run from the repository root.  Runs one pass of every workload and tags
each answer fact with its source:

  paper     stated by the paper (torsion order 2n-1, the forced involution
            values, unknot->cable2 exists, cable2->unknot and
            cable3->cable2 have none, bound(cable2) >= 2).  The value is
            written from the claim, and the script refuses to freeze if the
            program disagrees.
  oracle    U-module homology of a product, from the brute-force
            hfk_minus_oracle in tests/oracles.py; the program must agree.
  cap40     a query that raises at the default exponent cap, answered by
            the same search at cap 40 (a complete map space).
  recheck   a found map passed is_chain_map and verify_almost_local.
  seed      frozen from the program as it stands.

Only rerun this when an answer is meant to change, and say why.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE), str(ROOT / "tests")]

import knotfloer as kf  # noqa: E402
import workloads  # noqa: E402
from oracles import hfk_minus_oracle  # noqa: E402
from run import WORKLOADS, run_pass  # noqa: E402

FORCED = [["a", ["a"]], ["b", ["a", "b"]], ["f", ["g"]], ["g", ["f"]]]
PAPER_VERDICTS = {"search unknot->cable2": "exists",
                  "search cable2->unknot": "none",
                  "search cable3->cable2": "none"}


def paper_facts(name: str) -> dict:
    """Facts the paper states for op `name`."""
    verb, _, subject = name.partition(" ")
    if verb == "torsion":
        n = int(subject.removeprefix("cable"))
        return {"torsion_order": 2 * n - 1}
    if verb == "enumerate":
        return {"forced_values": [FORCED]}
    if name in PAPER_VERDICTS:
        return {"verdict": PAPER_VERDICTS[name]}
    if name == "bound cable2":
        return {"bound": 2}
    return {}


def at_cap40(op, state):
    """Answer a query that fails at the default cap with the cap raised."""
    a, b = op.name.removeprefix("search ").split("->")
    spec = kf.LocalSearchSpec((state["lib"][a], state["iotas"][a]),
                              (state["lib"][b], state["iotas"][b]), cap=40)
    return kf.search_local_map(spec)


def freeze(workload: str) -> dict:
    state0 = workloads.setup(workload)
    _, records = run_pass(workloads.ops(workload), state0, random.Random(0))
    checker = workloads.Checker()
    state = dict(state0)
    state.update((op.name, result) for op, _, result, _ in records)
    table = {}
    for op, _, result, error in records:
        source = "seed"
        if error is not None:
            result, source = at_cap40(op, state), "cap40"
        facts = json.loads(json.dumps(checker.answer(op.name, result)))
        entry = {k: {"expect": v, "source": source} for k, v in facts.items()}
        for k, claim in paper_facts(op.name).items():
            if facts[k] != claim:
                sys.exit(f"{op.name}: program says {k}={facts[k]}, paper {claim}")
            entry[k] = {"expect": claim, "source": "paper"}
        if "reverified" in facts:
            if facts["reverified"] is not True:
                sys.exit(f"{op.name}: found map fails re-verification")
            entry["reverified"]["source"] = "recheck"
        if op.name.startswith("hfk_minus "):
            towers, torsion = hfk_minus_oracle(state[op.name.replace(
                "hfk_minus", "tensor", 1)])
            oracle = {"towers": towers, "torsion": [list(t) for t in torsion]}
            for k, v in oracle.items():
                if facts[k] != v:
                    sys.exit(f"{op.name}: program {k}={facts[k]}, oracle {v}")
                entry[k] = {"expect": v, "source": "oracle"}
        table[op.name] = entry
    return table


def main() -> None:
    lines = []
    for name in WORKLOADS:
        table = freeze(name)
        ops = [f"  {json.dumps(op)}: {json.dumps(table[op], sort_keys=True)}"
               for op in sorted(table)]
        lines.append(f" {json.dumps(name)}: {{\n" + ",\n".join(ops) + "\n }")
    text = "{\n" + ",\n".join(lines) + "\n}\n"
    (HERE / "expected.json").write_text(text)
    print(f"wrote {HERE / 'expected.json'}")


if __name__ == "__main__":
    main()
