"""The benchmark's workloads: set-up, timed operations, and answers.

Every workload is a list of operations.  An operation is one user-facing
call (or a render/parse round trip) into knotfloer's public API.  It
reads its inputs from the pass state, which starts as a copy of the
set-up objects, and stores its result there under its own name so that
later operations can use it.  Operations carry a dependency level; the
workload seed shuffles the order within each level, never across levels.

`answer` turns a result into plain JSON facts.  It runs outside the timed
region and re-verifies every found map, so checking costs no op time.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable

import knotfloer as kf
from knotfloer.complexes import dualize


@dataclass(frozen=True)
class Op:
    """One timed call: `fn(state)` with the pass state."""

    name: str
    level: int
    fn: Callable[[dict], Any]


def _digest(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


# -- set-up ------------------------------------------------------------------

def setup(workload: str) -> dict:
    """Library builds and, for the sweep, every complex's almost involutions."""
    if workload == "cable-pipeline":
        return {"unknot": kf.build_unknot()}
    if workload == "pair-sweep":
        lib = _sweep_library()
        return {"lib": lib,
                "iotas": {k: kf.enumerate_almost_iotas(C) for k, C in lib.items()}}
    if workload == "homology-products":
        state = {f"cable{n}": kf.build_cable(n) for n in range(2, 13)}
        state["fig8"] = kf.build_figure_eight()
        state["cable2*"] = dualize(state["cable2"])
        for n in (2, 3):
            state[f"iota{n}"] = kf.enumerate_almost_iotas(state[f"cable{n}"])[0]
        return state
    raise ValueError(f"unknown workload {workload!r}")


def _sweep_library() -> dict:
    lib = {"unknot": kf.build_unknot(), "fig8": kf.build_figure_eight(),
           "cable2": kf.build_cable(2), "cable3": kf.build_cable(3)}
    for name in ("fig8", "cable2", "cable3"):
        lib[name + "*"] = dualize(lib[name])
    return lib


# -- operations --------------------------------------------------------------

# the paper's pipeline: queries quantified over every completion
PIPELINE_QUERIES = (("unknot", 2), (2, "unknot"), (3, 2), (2, 3), (4, 3), (3, 4))
SWEEP_NAMES = ("unknot", "fig8", "fig8*", "cable2", "cable3", "cable2*", "cable3*")
PRODUCT_SUMS = (("cable2", "cable2"), ("cable3", "cable2"), ("cable3", "cable3"),
                ("fig8", "cable3"), ("cable2", "cable2*"))
PRODUCT_IOTA_SUMS = ((2, 2), (3, 2))


def ops(workload: str) -> list[Op]:
    if workload == "cable-pipeline":
        return _pipeline_ops()
    if workload == "pair-sweep":
        return _sweep_ops()
    if workload == "homology-products":
        return _product_ops()
    raise ValueError(f"unknown workload {workload!r}")


def _pipeline_ops() -> list[Op]:
    out = []
    for n in (2, 3, 4):
        k, e = f"build cable{n}", f"enumerate cable{n}"
        out += [
            Op(k, 0, lambda s, n=n: kf.build_cable(n)),
            Op(f"validate cable{n}", 1, lambda s, k=k: s[k].validate()),
            Op(f"torsion cable{n}", 1,
               lambda s, k=k: kf.torsion_order(kf.hfk_minus(s[k]))),
            Op(e, 1, lambda s, k=k: kf.enumerate_almost_iotas(s[k])),
            Op(f"connected cable{n}", 2,
               lambda s, k=k, e=e: kf.connected_complex(s[k], s[e][0])),
            Op(f"bound cable{n}", 2,
               lambda s, k=k, e=e: kf.concordance_unknotting_bound(s[k], s[e][0])),
        ]

    def side(s, x):
        if x == "unknot":
            return (s["unknot"], None)
        return (s[f"build cable{x}"], s[f"enumerate cable{x}"])

    for a, b in PIPELINE_QUERIES:
        name = f"search {_label(a)}->{_label(b)}"
        out.append(Op(name, 2, lambda s, a=a, b=b: kf.search_local_map(
            kf.LocalSearchSpec(side(s, a), side(s, b)))))
    return out


def _label(x) -> str:
    return x if isinstance(x, str) else f"cable{x}"


def _sweep_ops() -> list[Op]:
    def query(s, a, b):
        return kf.search_local_map(kf.LocalSearchSpec(
            (s["lib"][a], s["iotas"][a]), (s["lib"][b], s["iotas"][b])))

    return [Op(f"search {a}->{b}", 0, lambda s, a=a, b=b: query(s, a, b))
            for a in SWEEP_NAMES for b in SWEEP_NAMES]


def _roundtrip(T):
    text = kf.render_cfk(T)
    return T, text, kf.parse_cfk(text)


def _product_ops() -> list[Op]:
    out = [Op(f"torsion cable{n}", 0,
              lambda s, n=n: kf.torsion_order(kf.hfk_minus(s[f"cable{n}"])))
           for n in range(2, 13)]
    for a, b in PRODUCT_SUMS:
        t = f"tensor {a}#{b}"
        out += [
            Op(t, 0, lambda s, a=a, b=b: kf.tensor(s[a], s[b])),
            Op(f"hfk_minus {a}#{b}", 1, lambda s, t=t: kf.hfk_minus(s[t])),
            Op(f"hfk_hat {a}#{b}", 1, lambda s, t=t: kf.hfk_hat(s[t])),
            Op(f"cfk roundtrip {a}#{b}", 1, lambda s, t=t: _roundtrip(s[t])),
        ]
    for m, n in PRODUCT_IOTA_SUMS:
        args = (f"cable{m}", f"iota{m}", f"cable{n}", f"iota{n}")
        for variant in (1, 2):
            p = f"product_iota cable{m}#cable{n} v{variant}"
            out += [
                Op(p, 0, lambda s, args=args, v=variant: kf.product_iota(
                    *(s[x] for x in args), v)),
                Op(f"validate_iota cable{m}#cable{n} v{variant}", 1,
                   lambda s, p=p: kf.validate_iota(s[p].map.source, s[p])),
            ]
        out.append(Op(f"product_equivalence cable{m}#cable{n}", 0,
                      lambda s, args=args: kf.product_equivalence(
                          *(s[x] for x in args))))
    return out


# -- answers -----------------------------------------------------------------

class Checker:
    """Turns op results into JSON facts; re-verifies each distinct found
    map once per run (maps are compared by their canonical rendering)."""

    def __init__(self):
        self._verified: dict[tuple, bool] = {}

    def answer(self, op_name: str, result: Any) -> dict:
        """Facts about `result`, chosen by the op name's first word."""
        verb = op_name.split(" ", 1)[0]
        return getattr(self, "_" + verb)(result)

    def _build(self, C):
        return {"generators": len(C)}

    _connected = _tensor = _build

    def _validate(self, rep):
        return {"ok": rep.ok, "reduced": rep.reduced}

    def _torsion(self, order):
        return {"torsion_order": order}

    def _enumerate(self, iotas):
        forced = sorted({tuple((g, tuple(t for t in io.map.source.names()
                                         if t in io.map.of_gen(g)))
                               for g in ("a", "b", "f", "g"))
                         for io in iotas})
        return {"completions": len(iotas), "forced_values": forced,
                "digest": _digest(io.render() for io in iotas)}

    def _bound(self, value):
        return {"bound": value}

    def _search(self, cert):
        if not cert.exists:
            return {"verdict": "none"}
        i1, i2 = cert.iota_pair
        key = (cert.found.source.name, cert.found.target.name,
               cert.found.render(), i1.render(), i2.render())
        if key not in self._verified:
            self._verified[key] = (kf.is_chain_map(cert.found)
                                   and kf.verify_almost_local(cert.found, i1, i2))
        return {"verdict": "exists", "reverified": self._verified[key]}

    def _hfk_minus(self, d):
        return {"towers": list(d.tower_gradings),
                "torsion": [list(t) for t in d.torsion]}

    def _hfk_hat(self, h):
        return {"ranks": [list(r) for r in h.ranks]}

    def _cfk(self, triple):
        T, text, parsed = triple
        return {"equal": parsed.complex == T and parsed.iota is None,
                "bytes": len(text.encode())}

    def _product_iota(self, iota):
        return {"digest": _digest([iota.render()])}

    def _validate_iota(self, rep):
        return {"ok": rep.ok}

    def _product_equivalence(self, fg):
        return {"chain_maps": all(kf.is_chain_map(m) for m in fg)}


def verdict_kind(result: Any) -> str | None:
    """'exists' or 'none' for a local-map certificate, else None."""
    if isinstance(result, kf.LocalCertificate):
        return "exists" if result.exists else "none"
    return None
