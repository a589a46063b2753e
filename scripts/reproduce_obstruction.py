#!/usr/bin/env python3
"""End-to-end run of the cable obstruction pipeline.

Builds the (2n-1,-1)-cable complexes of the figure-eight knot, verifies
them, enumerates their almost involutions, and decides the local-map
questions that separate the cables from the unknot and from each other.
Everything is exact; nonexistence lines are certificates over the whole
grading-complete search space, quantified over all involution
completions.

Every step covers each cable up to --max-n: involutions (cable 6 has 32
completions), the decisions cable n -> cable n-1 and back, and the
connected complex and bound of each completion.  --max-n 5 runs in about
0.6 s and --max-n 6 in about 1.5 s on one core.

Usage:
  python scripts/reproduce_obstruction.py [--max-n 3]
"""

import argparse
import time

from knotfloer import (LocalSearchSpec, build_cable, build_unknot,
                       connected_complex, enumerate_almost_iotas, hfk_minus,
                       search_local_map, torsion_order)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=3,
                        help="largest cable parameter to process")
    args = parser.parse_args()

    unknot = build_unknot()
    cables = {n: build_cable(n) for n in range(2, args.max_n + 1)}

    print("== builder checks ==")
    for n, C in cables.items():
        r = C.validate()
        assert r.ok and r.reduced
        d = hfk_minus(C)
        print(f"cable {n}: {len(C)} generators, torsion order "
              f"{torsion_order(d)} (expected {2 * n - 1})")

    print("\n== almost involutions ==")
    iotas = {}
    for n, C in cables.items():
        t0 = time.time()
        iotas[n] = enumerate_almost_iotas(C)
        print(f"cable {n}: {len(iotas[n])} completions "
              f"({time.time() - t0:.2f}s); forced values on a, b, f, g:")
        sample = iotas[n][0]
        for g in ("a", "b", "f", "g"):
            targets = " + ".join(
                t for t, _, _ in sample.map.row_terms(C.index(g)))
            print(f"    iota({g}) = {targets}   mod (U,V)")

    print("\n== local-map decisions (almost mode) ==")

    def decide(src, tgt, label):
        t0 = time.time()
        cert = search_local_map(LocalSearchSpec((src, None), (tgt, None)))
        verdict = "EXISTS" if cert.exists else "NONE"
        extra = "" if cert.exists else f"  [{cert.token.render()}]"
        print(f"{label}: {verdict} ({time.time() - t0:.2f}s){extra}")

    decide(unknot, cables[2], "unknot -> cable 2")
    decide(cables[2], unknot, "cable 2 -> unknot")
    for n in range(3, args.max_n + 1):
        decide(cables[n], cables[n - 1], f"cable {n} -> cable {n - 1}")
        decide(cables[n - 1], cables[n], f"cable {n - 1} -> cable {n}")

    print("\n== connected complexes and unknotting bounds ==")
    for n, C in cables.items():
        for k, io in enumerate(iotas[n]):
            t0 = time.time()
            conn = connected_complex(C, io)
            # concordance_unknotting_bound(C, io), without a second search
            bound = torsion_order(hfk_minus(conn))
            print(f"cable {n} (involution {k}): connected complex has "
                  f"{len(conn)} generators, concordance unknotting bound "
                  f">= {bound} ({time.time() - t0:.2f}s)")


if __name__ == "__main__":
    main()
