"""Acceptance suite: one test per criterion, with pinned time budgets.

Each test prints a `criterion N: PASS/FAIL` line (visible with -s or in
captured output).  Expected values tagged as derived were computed with
the independent oracle in oracles.py and then frozen here.
"""

import random
import time

import pytest

from conftest import random_reduced_complex
from helpers import (alexander, find_isomorphism, forced_iota_constraints,
                     rename, unit_coefficient_constant)
from knotfloer.cfk import parse_cfk, render_cfk
from knotfloer.complexes import dualize
from knotfloer.errors import ResourceError
from knotfloer.homology import hfk_minus, torsion_order
from knotfloer.knotlib import build_cable, build_figure_eight, build_unknot
from knotfloer.localequiv import (LocalSearchSpec, SelfLocalFamily,
                                  concordance_unknotting_bound,
                                  connected_complex, search_local_map,
                                  verify_almost_local)
from knotfloer.morphism import (MapSpace, chain_defect, derivative_maps,
                                enumerate_almost_iotas, identity_map,
                                is_chain_map, validate_iota)
from knotfloer.ring import Ideal
from knotfloer.tensorsum import (pair_name, product_equivalence, product_iota,
                                 tensor)
from oracles import RingElt, d_of, grading_fitting_pairs, hfk_minus_oracle

ONE = RingElt.one()
ALL_BUILDERS = [build_unknot, build_figure_eight] + [
    lambda n=n: build_cable(n) for n in range(2, 7)]


def report(k: int, started: float, limit: float):
    elapsed = time.time() - started
    assert elapsed < limit, f"criterion {k} exceeded {limit}s ({elapsed:.1f}s)"
    print(f"criterion {k}: PASS ({elapsed:.2f}s < {limit:.0f}s)")


def test_criterion_1_builder_fidelity():
    t0 = time.time()
    C = build_figure_eight()
    U, V = RingElt.mono(1, 0), RingElt.mono(0, 1)
    assert d_of(C, "a") == {} and d_of(C, "e") == {}
    assert d_of(C, "b") == {"c": U, "d": V}
    assert d_of(C, "c") == {"e": V}
    assert d_of(C, "d") == {"e": U}
    phi, psi = derivative_maps(C)
    assert phi.action == {"b": {"c": ONE}, "d": {"e": ONE}}
    assert psi.action == {"b": {"d": ONE}, "c": {"e": ONE}}
    assert psi.compose(phi).action == {"b": {"e": ONE}}
    gradings = {"a": (0, 0, 0), "b": (0, 0, 0), "c": (1, -1, 1),
                "d": (-1, 1, -1), "e": (0, 0, 0)}
    for name, (gu, gv, alex) in gradings.items():
        g = C.generator(name)
        assert (g.gr_u, g.gr_v, alexander(g)) == (gu, gv, alex)
    for n in range(2, 7):
        r = build_cable(n).validate()
        assert r.d_squared and r.grading_law and r.reduced
    report(1, t0, 1.0)


def test_criterion_2_torsion_orders():
    t0 = time.time()
    for n in range(2, 6):
        C = build_cable(n)
        d = hfk_minus(C)
        assert torsion_order(d) == 2 * n - 1
        tower, torsion = hfk_minus_oracle(C)
        assert list(d.tower_gradings) == tower
        assert sorted(d.torsion) == torsion
    report(2, t0, 5.0)


def test_criterion_3_forced_involutions():
    t0 = time.time()
    for n in (2, 3):
        C = build_cable(n)
        cands = enumerate_almost_iotas(C)
        assert cands, f"no almost involution found for cable {n}"
        for gen, targets in forced_iota_constraints(n):
            for data in cands:
                assert set(data.map.of_gen(gen)) == set(targets)
        for data in cands:
            assert validate_iota(C, data).ok
    report(3, t0, 60.0)


def test_criterion_4_obstruction_instances():
    t0 = time.time()
    unknot, k2, k3 = build_unknot(), build_cable(2), build_cable(3)
    up = search_local_map(LocalSearchSpec((unknot, None), (k2, None)))
    assert up.exists and up.found.action == {"a": {"a": ONE}}
    down = search_local_map(LocalSearchSpec((k2, None), (unknot, None)))
    assert not down.exists and down.token.iota_pairs >= 2
    step = search_local_map(LocalSearchSpec((k3, None), (k2, None)))
    assert not step.exists and step.token.iota_pairs >= 8
    # the searched spaces hold every grading-compatible map, so the
    # tokens cover all candidates
    for cert, (s, t) in ((down, (k2, unknot)), (step, (k3, k2))):
        fspace = MapSpace.build(s, t, "eq", (0, 0), s.ring)
        assert fspace.pairs == grading_fitting_pairs(s, t, "eq", (0, 0),
                                                     s.ring)
        assert cert.token.unknowns == fspace.dim
    report(4, t0, 300.0)


def test_criterion_5_connected_complex():
    t0 = time.time()
    k2 = build_cable(2)
    iotas = enumerate_almost_iotas(k2)
    try:
        for io in iotas:
            conn = connected_complex(k2, io)
            d = hfk_minus(conn)
            # U * (torsion of HFK- of the connected complex) != 0
            assert torsion_order(d) >= 2
            assert concordance_unknotting_bound(k2, io) >= 2
    except ResourceError:
        # fallback: the coefficient forcing holds across every
        # self-local equivalence
        for io in iotas:
            fam = SelfLocalFamily(k2, io, 2_000_000)
            assert unit_coefficient_constant(fam, "b", "b") == (True, 1)
            assert unit_coefficient_constant(fam, "c", "c") == (True, 1)
    report(5, t0, 600.0)


def test_criterion_6_product_laws():
    t0 = time.time()
    k2 = build_cable(2)
    unknot = build_unknot()
    io = enumerate_almost_iotas(k2)[0]
    T = tensor(k2, k2)
    ia = product_iota(k2, io, k2, io, 1, T)
    ib = product_iota(k2, io, k2, io, 2, T)
    assert validate_iota(T, ia).ok
    assert validate_iota(T, ib).ok
    f, g = product_equivalence(k2, io, k2, io, T)
    assert verify_almost_local(f, ia, ib)
    assert verify_almost_local(g, ib, ia)
    for left in (tensor(unknot, k2), tensor(k2, unknot)):
        assert find_isomorphism(left, k2) is not None
    report(6, t0, 60.0)


def test_criterion_7_property_suites():
    t0 = time.time()
    # reduced-homotopy law on 100 seeded random reduced complexes
    for seed in range(100):
        rng = random.Random(9000 + seed)
        C = random_reduced_complex(rng)
        assert C.validate().ok and C.is_reduced
        for variance in ("eq", "skew"):
            space = MapSpace.build(C, C, variance, (1, 1), C.ring)
            bits = rng.getrandbits(space.dim) if space.dim else 0
            H = space.map_from_bits(bits)
            null = chain_defect(H)
            assert null.reduce_to(Ideal.max_ideal()).is_zero()
            f = identity_map(C)
            if variance == "eq":
                g = f + null
                assert (f.reduce_to(Ideal.max_ideal())
                        + g.reduce_to(Ideal.max_ideal())).is_zero()
    # derivative-map laws on all builders
    for builder in ALL_BUILDERS:
        C = builder()
        phi, psi = derivative_maps(C)
        assert is_chain_map(phi) and is_chain_map(psi)
        assert phi.bidegree == (1, -1) and psi.bidegree == (-1, 1)
    # dualize is an involution up to relabeling
    for builder in ALL_BUILDERS:
        C = builder()
        DD = dualize(dualize(C))
        assert rename(DD, {g.name: g.name[:-2] for g in DD.basis}) == C
    # serialization round trips, byte for byte
    for builder in ALL_BUILDERS:
        C = builder()
        text = render_cfk(C)
        assert render_cfk(parse_cfk(text).complex) == text
    report(7, t0, 120.0)
