"""Chain maps, derivative maps, homotopies, and involution enumeration."""

import os
import random
import subprocess
import sys

import pytest

from conftest import random_reduced_complex
from knotfloer.complexes import Complex, dualize, quotient
from knotfloer.errors import ResourceError, StructuralError
from knotfloer.knotlib import (build_cable, build_figure_eight, build_unknot,
                               forced_iota_constraints)
from knotfloer.morphism import (IotaData, LinMap, MapSpace, _square_solutions,
                                _square_system, auto_cap, chain_defect,
                                derivative_maps, enumerate_almost_iotas,
                                identity_map, is_chain_map, solve_homotopy,
                                validate_iota, zero_map)
from knotfloer.ring import Ideal, Mono, RingElt
from knotfloer.tensorsum import tensor
from oracles import gray_walk_almost_iotas, gray_walk_solutions

U, V = RingElt.mono(1, 0), RingElt.mono(0, 1)
ONE = RingElt.one()


def unit_action(pairs):
    out = {}
    for src, tgt, coeff in pairs:
        out.setdefault(src, {})[tgt] = coeff
    return out


# -- derivative maps --------------------------------------------------------

def test_fig8_derivative_table(fig8):
    phi, psi = derivative_maps(fig8)
    assert phi.action == unit_action([("b", "c", ONE), ("d", "e", ONE)])
    assert psi.action == unit_action([("b", "d", ONE), ("c", "e", ONE)])
    assert psi.compose(phi).action == unit_action([("b", "e", ONE)])


def test_unknot_derivatives_vanish(unknot):
    phi, psi = derivative_maps(unknot)
    assert phi.is_zero() and psi.is_zero()


def _commutator_with_derivative(C, var):
    """Independent recomputation of [d, D_var] on basis elements."""
    out = {}
    for src, row in C.diff_items():
        acc = {}
        for tgt, coeff in row.items():
            terms = []
            for m in coeff:
                if var == "U" and m.i % 2:
                    terms.append(Mono(m.i - 1, m.j))
                if var == "V" and m.j % 2:
                    terms.append(Mono(m.i, m.j - 1))
            if terms:
                acc[tgt] = RingElt(terms)
        if acc:
            out[src] = acc
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cable_derivatives_match_brute_force(n):
    C = build_cable(n)
    phi, psi = derivative_maps(C)
    assert phi.action == _commutator_with_derivative(C, "U")
    assert psi.action == _commutator_with_derivative(C, "V")
    assert is_chain_map(phi) and is_chain_map(psi)


def test_k2_phi_values(k2):
    phi, psi = derivative_maps(k2)
    assert phi.of_gen("b") == {"d": V}
    assert phi.of_gen("d") == {"f": ONE}
    assert psi.of_gen("b") == {"d": U}
    assert psi.of_gen("c") == {"f": ONE}


@pytest.mark.parametrize("builder", ["unknot", "fig8", "k2", "k3"])
def test_derivative_grading_shifts(builder, request):
    C = request.getfixturevalue(builder)
    phi, psi = derivative_maps(C)
    assert phi.bidegree == (1, -1) and psi.bidegree == (-1, 1)
    for src, row in phi.action.items():
        gu, gv = C.grading(src)
        for tgt, coeff in row.items():
            tu, tv = C.grading(tgt)
            for m in coeff:
                assert (tu - 2 * m.i, tv - 2 * m.j) == (gu + 1, gv - 1)


# -- chain maps -------------------------------------------------------------

def test_identity_is_chain_map(k2):
    assert is_chain_map(identity_map(k2))


def test_unknot_to_k2_inclusion(unknot, k2):
    f = LinMap(unknot, k2, "eq", (0, 0), {"a": {"a": ONE}})
    assert is_chain_map(f)


def test_fig8_projection_counterexample(fig8):
    f = LinMap(fig8, fig8, "eq", (-1, 1), {"c": {"a": ONE}})
    assert not is_chain_map(f)


def test_bidegree_mismatch_is_structural_error(fig8):
    with pytest.raises(StructuralError):
        LinMap(fig8, fig8, "eq", (0, 0), {"c": {"a": ONE}})


# -- homotopies -------------------------------------------------------------

def test_equal_maps_have_zero_homotopy(k2):
    f = zero_map(k2, k2, "skew", (0, 0))
    H = solve_homotopy(f, f)
    assert H is not None and H.is_zero()


@pytest.mark.parametrize("n", [2, 3])
def test_corner_difference_is_null_homotopic(n):
    C = build_cable(n)
    f = zero_map(C, C, "skew", (0, 0))
    g = LinMap(C, C, "skew", (0, 0),
               {"b": {"f": RingElt.mono(n - 1, 0), "g": RingElt.mono(0, n - 1)}})
    H = solve_homotopy(f, g)
    assert H is not None
    assert H.of_gen("b") == {"d": ONE}
    assert (chain_defect(H) + g).is_zero()


@pytest.mark.parametrize("n", [2, 3])
def test_single_corner_not_homotopic_mod_box(n):
    C = quotient(build_cable(n), Ideal.box(n, n))
    f = zero_map(C, C, "skew", (0, 0), Ideal.box(n, n))
    g = LinMap(C, C, "skew", (0, 0), {"b": {"f": RingElt.mono(n - 1, 0)}},
               Ideal.box(n, n))
    assert solve_homotopy(f, g) is None


@pytest.mark.parametrize("seed", range(12))
def test_null_homotopies_vanish_mod_uv(seed):
    # on reduced complexes dH + Hd always lies in (U,V): the engine of
    # the reduced-homotopy principle
    rng = random.Random(3000 + seed)
    C = random_reduced_complex(rng)
    for variance in ("eq", "skew"):
        space = MapSpace.build(C, C, variance, (1, 1), C.ring)
        if space.dim == 0:
            continue
        bits = rng.getrandbits(space.dim)
        H = space.map_from_bits(bits)
        assert chain_defect(H).reduce_to(Ideal.max_ideal()).is_zero()


@pytest.mark.parametrize("seed", range(8))
def test_homotopic_chain_maps_agree_mod_uv(seed):
    rng = random.Random(4000 + seed)
    C = random_reduced_complex(rng)
    f = identity_map(C)
    space = MapSpace.build(C, C, "eq", (1, 1), C.ring)
    bits = rng.getrandbits(space.dim) if space.dim else 0
    g = f + chain_defect(space.map_from_bits(bits))
    assert (f.reduce_to(Ideal.max_ideal())
            + g.reduce_to(Ideal.max_ideal())).is_zero()


@pytest.mark.parametrize("seed", range(6))
def test_phi_independent_of_basis_up_to_homotopy(k2, seed):
    from conftest import (_apply_transvection, random_graded_transvection,
                          transvection_maps)
    rng = random.Random(5000 + seed)
    choice = random_graded_transvection(rng, k2, require_positive=True)
    assert choice is not None
    x, y, m = choice
    Cnew = _apply_transvection(k2, x, y, m)
    assert Cnew.validate().ok
    fwd, bwd = transvection_maps(k2, Cnew, x, y, m)
    phi_old, psi_old = derivative_maps(k2)
    phi_new, psi_new = derivative_maps(Cnew)
    for old, new in ((phi_old, phi_new), (psi_old, psi_new)):
        transported = fwd.compose(old).compose(bwd)
        assert is_chain_map(transported)
        assert solve_homotopy(transported, new) is not None


# -- involutions ------------------------------------------------------------

def test_unknot_iota_identity_valid(unknot):
    iota = IotaData(LinMap(unknot, unknot, "skew", (0, 0),
                           {"a": {"a": ONE}}, Ideal.max_ideal()), "almost")
    assert validate_iota(unknot, iota).ok


def test_unknot_enumeration_is_identity_only(unknot):
    cands = enumerate_almost_iotas(unknot)
    assert len(cands) == 1
    assert cands[0].map.action == {"a": {"a": ONE}}


def test_zero_on_tower_is_rejected(k2, k2_iotas):
    action = {k: dict(v) for k, v in k2_iotas[0].map.action.items()}
    del action["a"]
    bad = IotaData(LinMap(k2, k2, "skew", (0, 0), action, Ideal.max_ideal()),
                   "almost")
    assert not validate_iota(k2, bad).ok


def test_k2_enumeration_forced_values(k2, k2_iotas):
    assert len(k2_iotas) >= 1
    for gen, targets in forced_iota_constraints(2):
        for data in k2_iotas:
            assert set(data.map.of_gen(gen)) == set(targets)


def test_k3_enumeration_forced_values(k3, k3_iotas):
    assert len(k3_iotas) >= 1
    for gen, targets in forced_iota_constraints(3):
        for data in k3_iotas:
            assert set(data.map.of_gen(gen)) == set(targets)


def test_enumerated_iotas_validate(k2, k2_iotas, fig8, fig8_iotas):
    for C, cands in ((k2, k2_iotas), (fig8, fig8_iotas)):
        for data in cands:
            assert validate_iota(C, data).ok


def test_fig8_full_iotas_found_and_validate(fig8):
    # the skew homotopy space of fig8 is zero, so almost actions lift
    # uniquely; check one lift as a genuine involution
    action = {"a": {"a": ONE, "e": ONE}, "b": {"b": ONE, "a": ONE},
              "c": {"d": ONE}, "d": {"c": ONE}, "e": {"e": ONE}}
    iota = IotaData(LinMap(fig8, fig8, "skew", (0, 0), action), "full")
    rep = validate_iota(fig8, iota)
    assert rep.ok and rep.witness is not None


def test_fig8_identity_not_a_valid_involution(fig8):
    action = {"a": {"a": ONE}, "b": {"b": ONE}, "c": {"d": ONE},
              "d": {"c": ONE}, "e": {"e": ONE}}
    iota = IotaData(LinMap(fig8, fig8, "skew", (0, 0), action), "full")
    assert not validate_iota(fig8, iota).ok


def test_enumeration_size_guard():
    from knotfloer.complexes import Generator
    big = Complex([Generator(f"x{k}", 0, 0) for k in range(65)], {})
    with pytest.raises(ResourceError):
        enumerate_almost_iotas(big)


ORACLE_COMPLEXES = {
    "unknot": build_unknot,
    "fig8": build_figure_eight,
    "fig8*": lambda: dualize(build_figure_eight()),
    "cable2": lambda: build_cable(2),
    "cable3": lambda: build_cable(3),
    "cable4": lambda: build_cable(4),
    "cable2*": lambda: dualize(build_cable(2)),
    "cable3*": lambda: dualize(build_cable(3)),
}


@pytest.mark.parametrize("name", list(ORACLE_COMPLEXES))
def test_cover_solve_matches_gray_walk(name):
    C = ORACLE_COMPLEXES[name]()
    system = _square_system(C)
    walk = set(gray_walk_solutions(system.z0, system.lin, system.cross))
    solved = set()
    for t0, null in _square_solutions(system):
        points = {t0}
        for v in null:
            points |= {p ^ v for p in points}
        solved |= points
    assert solved == walk
    assert enumerate_almost_iotas(C) == gray_walk_almost_iotas(system, walk)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_cable_completion_count(n):
    C = build_cable(n)
    cands = enumerate_almost_iotas(C)
    assert len(cands) == 2 ** (n - 1)
    for data in cands:
        for gen, targets in forced_iota_constraints(n):
            assert set(data.map.of_gen(gen)) == set(targets)
        assert validate_iota(C, data).ok


def test_fig8_square_exceeds_cover_budget():
    T = tensor(build_figure_eight(), build_figure_eight())
    with pytest.raises(ResourceError, match="vertex cover of 33 ") as err:
        enumerate_almost_iotas(T)
    assert err.value.size == 33


def test_enumeration_independent_of_hash_seed():
    script = ("from knotfloer import build_cable, enumerate_almost_iotas\n"
              "for n in (2, 3, 4):\n"
              "    for d in enumerate_almost_iotas(build_cable(n)):\n"
              "        print(d.render())\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        outs.append(subprocess.run([sys.executable, "-c", script], env=env,
                                   capture_output=True, text=True,
                                   check=True, timeout=120).stdout)
    assert outs[0] == outs[1] and outs[0].count("iota a = a") == 14


def test_auto_cap_covers_gradings(k3):
    cap = auto_cap(k3)
    space = MapSpace.build(k3, k3, "skew", (0, 0), k3.ring, cap)
    wider = MapSpace.build(k3, k3, "skew", (0, 0), k3.ring, cap + 1)
    assert space.pairs == wider.pairs
