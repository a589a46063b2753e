"""What a complex and an involution keep: `Complex.u_homology`, the
`validate_iota` report and the maximal self-local maps.  Each is built on
first use and kept on the object; the answers and the errors stay those
of a fresh computation (`test_morphism` and `test_localequiv` pin that a
kept failing report still fails, and that an involution of an equal copy
is still rejected)."""

import sys
from pathlib import Path

import pytest

import knotfloer.localequiv as localequiv
import knotfloer.morphism as morphism
from knotfloer.complexes import dualize, quotient
from knotfloer.errors import ResourceError, StructuralError
from knotfloer.homology import UHomology, hfk_minus
from knotfloer.knotlib import build_cable, build_figure_eight, build_unknot
from knotfloer.localequiv import concordance_unknotting_bound, connected_complex
from knotfloer.morphism import MapSpace, enumerate_almost_iotas
from knotfloer.ring import Ideal
from oracles import hfk_minus_oracle

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _sweep_workload():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads


# -- the kept homology -------------------------------------------------------

def test_pair_sweep_builds_each_homology_once(monkeypatch):
    workloads = _sweep_workload()
    built, reports = [], []
    init, report = UHomology.__init__, morphism.IotaReport

    def counting_init(self, C):
        built.append(C.name)
        init(self, C)

    def counting_report(*args):
        reports.append(args)
        return report(*args)

    monkeypatch.setattr(UHomology, "__init__", counting_init)
    monkeypatch.setattr(morphism, "IotaReport", counting_report)
    state = dict(workloads.setup("pair-sweep"))
    for op in workloads.ops("pair-sweep"):
        state[op.name] = op.fn(state)
    assert len(state["lib"]) == 7 and len(workloads.ops("pair-sweep")) == 49
    assert len(built) == 7
    assert sorted(built) == sorted(C.name for C in state["lib"].values())
    # one report per given involution, not one per query it takes part in
    assert len(reports) == sum(map(len, state["iotas"].values()))


@pytest.mark.parametrize("C", [build_unknot(), build_figure_eight(),
                               dualize(build_figure_eight()), build_cable(2),
                               build_cable(3), dualize(build_cable(2)),
                               dualize(build_cable(3))],
                         ids=lambda C: C.name)
def test_kept_homology_matches_oracle(C):
    first = hfk_minus(C)
    assert C.u_homology is C.u_homology
    d = hfk_minus(C)
    assert d == first
    tower, torsion = hfk_minus_oracle(C)
    assert (list(d.tower_gradings), sorted(d.torsion)) == (tower, torsion)


def test_unsupported_ring_raises_on_every_call(k2):
    C = quotient(k2, Ideal.max_ideal())
    for _ in range(2):
        with pytest.raises(StructuralError) as err:
            hfk_minus(C)
        assert "U-module homology needs" in str(err.value)
    assert C._u_homology is None


# -- the kept maximal self-local map -----------------------------------------

def test_bound_reuses_the_connected_map(monkeypatch):
    C = build_cable(3)
    iota = enumerate_almost_iotas(C)[0]
    kill_candidates, sweeps = localequiv._kill_candidates, []

    def counting_candidates(C, fspace, killed):
        sweeps.append(C.name)
        return kill_candidates(C, fspace, killed)

    monkeypatch.setattr(localequiv, "_kill_candidates", counting_candidates)
    conn = connected_complex(C, iota)
    assert concordance_unknotting_bound(C, iota) == 3
    assert connected_complex(C, iota) == conn
    connected_complex(C, iota, budget=10**6)
    dim = MapSpace.build(C, C, "eq", (0, 0), C.ring).dim
    with pytest.raises(ResourceError) as err:
        connected_complex(C, iota, budget=dim - 1)
    assert err.value.size == dim
    assert connected_complex(C, iota, budget=dim) == conn
    assert sweeps == [C.name]  # one sweep per iota, whatever the budget


def test_budget_below_the_map_space_still_raises(k2):
    iota = enumerate_almost_iotas(k2)[0]
    dim = MapSpace.build(k2, k2, "eq", (0, 0), k2.ring).dim
    conn = connected_complex(k2, iota)
    for _ in range(2):
        with pytest.raises(ResourceError) as err:
            connected_complex(k2, iota, budget=dim - 1)
        assert err.value.size == dim
    assert connected_complex(k2, iota) == conn
