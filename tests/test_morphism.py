"""Chain maps, derivative maps, homotopies, and involution enumeration."""

import functools
import itertools
import os
import random
import subprocess
import sys

import pytest

import knotfloer.morphism as morphism
from conftest import random_reduced_complex
from knotfloer.complexes import Complex, dualize, quotient
from knotfloer.errors import ResourceError, StructuralError
from knotfloer.knotlib import (build_cable, build_figure_eight, build_unknot,
                               forced_iota_constraints)
from knotfloer.localequiv import LocalSearchSpec, search_local_map
from knotfloer.morphism import (IotaData, LinMap, MapSpace, chain_defect,
                                derivative_maps, differential_map,
                                enumerate_almost_iotas, identity_map,
                                is_chain_map, validate_iota, zero_map)
from knotfloer.ring import Ideal, Mono
from knotfloer.tensorsum import product_iota, tensor
from oracles import (RingElt, diff_items, exhaustive_square_solutions,
                     grading_fitting_pairs, linmap_composition_columns,
                     linmap_d_commutator_columns, linmap_intertwining_columns,
                     map_of_action, solve_homotopy)

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
    for src, row in diff_items(C):
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
    f = map_of_action(unknot, k2, "eq", (0, 0), {"a": {"a": ONE}})
    assert is_chain_map(f)


def test_fig8_projection_counterexample(fig8):
    f = map_of_action(fig8, fig8, "eq", (-1, 1), {"c": {"a": ONE}})
    assert not is_chain_map(f)


def test_bidegree_mismatch_is_structural_error(fig8):
    with pytest.raises(StructuralError):
        map_of_action(fig8, fig8, "eq", (0, 0), {"c": {"a": ONE}})


def test_maps_on_equal_but_distinct_complexes_compare_by_rows(fig8):
    A, B = build_cable(2), build_cable(2)
    assert A == B and A is not B
    phi_a, phi_b = derivative_maps(A)[0], derivative_maps(B)[0]
    assert phi_a == phi_b and phi_b == phi_a
    space = MapSpace.build(B, B, "eq", (1, -1), B.ring)
    for k in (0, space.dim - 1):
        changed = space.map_from_bits(space.bits_from_map(phi_b) ^ 1 << k)
        assert sum(a != b for a, b in zip(changed.rows, phi_b.rows)) == 1
        assert phi_a != changed and changed != phi_a
    # a reordered basis: the rows differ, the terms by name do not
    shuffled = Complex(list(fig8.basis)[::-1],
                       {s: dict(r) for s, r in diff_items(fig8)})
    assert identity_map(fig8) == identity_map(shuffled)
    assert derivative_maps(fig8)[1] == derivative_maps(shuffled)[1]


def test_equal_maps_on_a_reordered_basis_hash_equal():
    k2 = build_cable(2)
    reversed_k2 = Complex(list(k2.basis)[::-1],
                          {s: dict(r) for s, r in diff_items(k2)})
    d, d_reversed = differential_map(k2), differential_map(reversed_k2)
    assert d.rows != d_reversed.rows and d.render() != d_reversed.render()
    assert d == d_reversed and hash(d) == hash(d_reversed)
    assert len({d, d_reversed}) == 1


@pytest.mark.parametrize("outer_ideal,inner_ideal", [
    (Ideal.principal_v(), Ideal.box(3, 1)),
    (Ideal.box(3, 1), Ideal.principal_v()),
], ids=["v-after-box31", "box31-after-v"])
def test_compose_over_nested_ideals(k3, outer_ideal, inner_ideal):
    # (V) lies in (U^3, V, UV): the composite lives over the larger ideal
    phi, psi = derivative_maps(k3)
    f = psi.reduce_to(outer_ideal).compose(phi.reduce_to(inner_ideal))
    assert f.ideal == Ideal.box(3, 1)
    assert f == psi.compose(phi).reduce_to(Ideal.box(3, 1))
    assert not f.is_zero()


# -- homotopies -------------------------------------------------------------

def test_equal_maps_have_zero_homotopy(k2):
    f = zero_map(k2, k2, "skew", (0, 0))
    H = solve_homotopy(f, f)
    assert H is not None and H.is_zero()


@pytest.mark.parametrize("n", [2, 3])
def test_corner_difference_is_null_homotopic(n):
    C = build_cable(n)
    f = zero_map(C, C, "skew", (0, 0))
    g = map_of_action(C, C, "skew", (0, 0), {"b": {
        "f": RingElt.mono(n - 1, 0), "g": RingElt.mono(0, n - 1)}})
    H = solve_homotopy(f, g)
    assert H is not None
    assert H.of_gen("b") == {"d": ONE}
    assert (chain_defect(H) + g).is_zero()


@pytest.mark.parametrize("n", [2, 3])
def test_single_corner_not_homotopic_mod_box(n):
    C = quotient(build_cable(n), Ideal.box(n, n))
    f = zero_map(C, C, "skew", (0, 0), Ideal.box(n, n))
    g = map_of_action(C, C, "skew", (0, 0),
                      {"b": {"f": RingElt.mono(n - 1, 0)}}, Ideal.box(n, n))
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
    iota = IotaData(map_of_action(unknot, unknot, "skew", (0, 0),
                                  {"a": {"a": ONE}}, Ideal.max_ideal()))
    assert validate_iota(unknot, iota).ok


def test_unknot_enumeration_is_identity_only(unknot):
    cands = enumerate_almost_iotas(unknot)
    assert len(cands) == 1
    assert cands[0].map.action == {"a": {"a": ONE}}


def test_zero_on_tower_is_rejected(k2, k2_iotas):
    action = {k: dict(v) for k, v in k2_iotas[0].map.action.items()}
    del action["a"]
    bad = IotaData(map_of_action(k2, k2, "skew", (0, 0), action,
                                 Ideal.max_ideal()))
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


def test_fig8_identity_not_a_valid_involution(fig8):
    action = {"a": {"a": ONE}, "b": {"b": ONE}, "c": {"d": ONE},
              "d": {"c": ONE}, "e": {"e": ONE}}
    iota = IotaData(map_of_action(fig8, fig8, "skew", (0, 0), action,
                                  Ideal.max_ideal()))
    rep = validate_iota(fig8, iota)
    assert not rep.ok and not rep.squares
    assert rep.messages == ("iota^2 != 1 + Psi Phi mod (U,V)",)
    # the kept report stays failing, and so does every search with iota
    assert validate_iota(fig8, iota) is rep
    for _ in range(2):
        with pytest.raises(StructuralError) as err:
            search_local_map(LocalSearchSpec((fig8, iota), (fig8, None)))
        assert str(err.value) == ("involution fails validation: "
                                  "iota^2 != 1 + Psi Phi mod (U,V)")


def test_iota_over_the_full_ring_is_rejected(unknot):
    with pytest.raises(StructuralError) as err:
        IotaData(map_of_action(unknot, unknot, "skew", (0, 0),
                               {"a": {"a": ONE}}))
    assert str(err.value) == "almost iota must be reduced mod (U,V)"


def test_linear_variance_is_rejected(unknot):
    with pytest.raises(StructuralError) as err:
        LinMap(unknot, unknot, "linear", (0, 0), Ideal.max_ideal(), [1])
    assert str(err.value) == "unknown variance 'linear'"


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


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_cable_completion_count(n):
    C = build_cable(n)
    cands = enumerate_almost_iotas(C)
    assert len(cands) == 2 ** (n - 1)
    for data in cands:
        for gen, targets in forced_iota_constraints(n):
            assert set(data.map.of_gen(gen)) == set(targets)
        assert validate_iota(C, data).ok


WALK_COMPLEXES = {"unknot": build_unknot, "fig8": build_figure_eight,
                  **{f"cable{n}": functools.partial(build_cable, n)
                     for n in range(2, 7)}}


@pytest.mark.parametrize("name", [*WALK_COMPLEXES,
                                  *(f"{k}*" for k in WALK_COMPLEXES)])
def test_pruned_walk_matches_exhaustive_cover_loop(name):
    C = WALK_COMPLEXES[name.rstrip("*")]()
    system = morphism._square_system(dualize(C) if name.endswith("*") else C)
    got, want = ({(t0, tuple(null)) for t0, null in solutions(system)}
                 for solutions in (morphism._square_solutions,
                                   exhaustive_square_solutions))
    assert got == want and got


def test_pruned_walk_solve_counts(monkeypatch):
    # one relaxation per node the walk visits, an exact GF2System solve
    # at each leaf; below the cover of 2n classes on cable n the whole
    # tree has 2^(2n + 1) - 1 nodes
    solves = []

    def counting(cls):
        class Counting(cls):
            def __init__(self, *args):
                solves.append(cls.__name__)
                super().__init__(*args)
        return Counting

    systems = [morphism._square_system(build_cable(n)) for n in range(2, 7)]
    monkeypatch.setattr(morphism, "Echelon", counting(morphism.Echelon))
    monkeypatch.setattr(morphism, "GF2System", counting(morphism.GF2System))
    counts = []
    for system in systems:
        solves.clear()
        found = list(morphism._square_solutions(system))
        counts.append((len(solves), solves.count("GF2System"), len(found)))
    assert counts == [(11, 4, 2), (23, 8, 4), (51, 16, 8), (115, 32, 16),
                      (259, 64, 32)]


def test_fig8_square_exceeds_cover_budget():
    T = tensor(build_figure_eight(), build_figure_eight())
    with pytest.raises(ResourceError, match="vertex cover of 33 ") as err:
        enumerate_almost_iotas(T)
    assert err.value.size == 33


def test_enumeration_independent_of_hash_seed():
    script = ("from knotfloer import build_cable, enumerate_almost_iotas\n"
              "from knotfloer import product_equivalence, product_iota\n"
              "for n in (2, 3, 4):\n"
              "    for d in enumerate_almost_iotas(build_cable(n)):\n"
              "        print(d.render())\n"
              "k2, k3 = build_cable(2), build_cable(3)\n"
              "i2, i3 = enumerate_almost_iotas(k2), enumerate_almost_iotas(k3)\n"
              "for v in (1, 2):\n"
              "    print(product_iota(k3, i3[0], k2, i2[-1], v).render())\n"
              "for m in product_equivalence(k3, i3[0], k2, i2[-1]):\n"
              "    print(m.render('e'))\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        outs.append(subprocess.run([sys.executable, "-c", script], env=env,
                                   capture_output=True, text=True,
                                   check=True, timeout=120).stdout)
    assert outs[0] == outs[1] and outs[0].count("iota a = a") == 14
    assert outs[0].count("iota a|a = a|a") == 2
    assert outs[0].count("map e variance eq : a|a -> a|a") == 2


def test_map_space_is_grading_complete():
    # the space holds every grading-compatible monomial, with no bound
    lib = [build_unknot(), build_figure_eight(), build_cable(2), build_cable(3)]
    lib += [dualize(C) for C in lib]
    ideals = (Ideal.zero(), Ideal.max_ideal(), Ideal.uv())
    bidegrees = list(itertools.product((-1, 0, 1), repeat=2))
    largest = 0
    for A, B in itertools.product(lib, repeat=2):
        for variance, bi, ideal in itertools.product(("eq", "skew"),
                                                     bidegrees, ideals):
            space = MapSpace.build(A, B, variance, bi, ideal)
            assert space.pairs == grading_fitting_pairs(A, B, variance, bi,
                                                        ideal)
            largest = max([largest] + [max(m.i, m.j) for _, _, m in space.pairs])
    # cable2* -> cable2 needs U^5, more than a bound taken from either
    # complex's own grading span (4) allows
    assert largest >= 5


def _layout_shapes():
    """(A, B, variance, bidegree, ideal) over the library grid of
    `test_map_space_is_grading_complete`, and over random reduced
    complexes and their duals."""
    lib = [build_unknot(), build_figure_eight(), build_cable(2), build_cable(3)]
    lib += [dualize(C) for C in lib]
    rng = random.Random("layout")
    randoms = [random_reduced_complex(rng, max_pieces=3) for _ in range(4)]
    randoms += [dualize(C) for C in randoms]
    shapes = itertools.product(("eq", "skew"),
                               itertools.product((-1, 0, 1), repeat=2),
                               (Ideal.zero(), Ideal.max_ideal(), Ideal.uv()))
    for (A, B), (variance, bi, ideal) in itertools.product(
            itertools.chain(itertools.product(lib, repeat=2),
                            zip(randoms, randoms[1:] + randoms[:1])),
            list(shapes)):
        yield A, B, variance, bi, ideal


def test_map_space_coordinate_layout():
    # coordinates run source by source, targets ascending: basis map k is
    # the single term pairs[k], and bits survive a trip through a map
    rng = random.Random("layout bits")
    for A, B, variance, bi, ideal in _layout_shapes():
        space = MapSpace.build(A, B, variance, bi, ideal)
        assert space.dim == len(space.pairs)
        for k, (x, y, m) in enumerate(space.pairs):
            f = space.map_from_bits(1 << k)
            assert f.action == {x: {y: RingElt.mono(m.i, m.j)}}
        for _ in range(3):
            bits = rng.getrandbits(space.dim) if space.dim else 0
            assert space.bits_from_map(space.map_from_bits(bits)) == bits


# -- map-space operators against composed LinMaps ----------------------------

@functools.cache
def _oracle_complex(name):
    return ORACLE_COMPLEXES[name]()


@functools.cache
def _oracle_iotas(name):
    """The first and the last completion, to keep the oracle quick."""
    iotas = enumerate_almost_iotas(_oracle_complex(name))
    return iotas[:1] + iotas[1:][-1:]


def _outcome(columns):
    """The columns, or the text of the StructuralError they raise."""
    try:
        return columns()
    except StructuralError as err:
        return f"error: {err}"


ORDERED_PAIRS = list(itertools.product(ORACLE_COMPLEXES, repeat=2))


@pytest.mark.parametrize("src,tgt", ORDERED_PAIRS)
def test_d_commutator_columns_match_linmap_oracle(src, tgt):
    A, B = _oracle_complex(src), _oracle_complex(tgt)
    for variance in ("eq", "skew"):
        for bi in ((0, 0), (1, 1)):
            space = MapSpace.build(A, B, variance, bi, A.ring)
            slot = MapSpace.build(A, B, variance, (bi[0] - 1, bi[1] - 1),
                                  A.ring)
            assert (_outcome(lambda: space.d_commutator_columns(slot))
                    == _outcome(lambda: linmap_d_commutator_columns(space, slot)))


def test_d_commutator_outside_slot_message():
    # the term U^5 f0_1 on c0_1* lands in the complete slot
    A, B = _oracle_complex("cable2*"), _oracle_complex("cable2")
    space = MapSpace.build(A, B, "eq", (0, 0), A.ring)
    slot = MapSpace.build(A, B, "eq", (-1, -1), A.ring)
    assert (space.d_commutator_columns(slot)
            == linmap_d_commutator_columns(space, slot))
    assert ("c0_1*", "f0_1", Mono(5, 0)) in slot.pairs
    # a slot of another shape, or over a smaller ideal, cannot hold them
    wrong = MapSpace.build(A, B, "eq", (0, 0), A.ring)
    with pytest.raises(StructuralError) as err:
        space.d_commutator_columns(wrong)
    assert str(err.value) == (
        "slot cable2* -> cable2 (eq, bidegree (0, 0), ideal zero) cannot "
        "hold the composite cable2* -> cable2 (eq, bidegree (-1, -1), "
        "ideal zero)")
    mod_uv = MapSpace.build(A, B, "eq", (0, 0), Ideal.max_ideal())
    with pytest.raises(StructuralError, match=r"ideal zero\) cannot hold .* "
                                              r"ideal max\)$"):
        mod_uv.d_commutator_columns(slot)


@pytest.mark.parametrize("src,tgt", ORDERED_PAIRS)
def test_intertwining_columns_match_linmap_oracle(src, tgt):
    A, B = _oracle_complex(src), _oracle_complex(tgt)
    fspace = MapSpace.build(A, B, "eq", (0, 0), A.ring)
    slot = MapSpace.build(A, B, "skew", (0, 0), Ideal.max_ideal())
    for i1 in _oracle_iotas(src):
        pre = fspace.precompose_columns(i1.map, slot)
        for i2 in _oracle_iotas(tgt):
            post = fspace.postcompose_columns(i2.map, slot)
            assert ([a ^ b for a, b in zip(pre, post)]
                    == linmap_intertwining_columns(fspace, slot, i1, i2))


def test_operator_columns_match_linmap_oracle_on_a_product():
    # fig8 x cable2, both product involutions: many sources share a
    # bigrading, and with it their masks and packed rows
    A, B = _oracle_complex("fig8"), _oracle_complex("cable2")
    T = tensor(A, B)
    iotas = [product_iota(A, _oracle_iotas("fig8")[0], B,
                          _oracle_iotas("cable2")[0], variant, T)
             for variant in (1, 2)]
    space = MapSpace.build(T, T, "eq", (0, 0), T.ring)
    assert len(set(space.masks)) <= len(T.grading_index.cells) < len(T)
    slot = MapSpace.build(T, T, "eq", (-1, -1), T.ring)
    assert (space.d_commutator_columns(slot)
            == linmap_d_commutator_columns(space, slot))
    int_slot = MapSpace.build(T, T, "skew", (0, 0), Ideal.max_ideal())
    for i1, i2 in itertools.product(iotas, repeat=2):
        pre = space.precompose_columns(i1.map, int_slot)
        post = space.postcompose_columns(i2.map, int_slot)
        assert ([a ^ b for a, b in zip(pre, post)]
                == linmap_intertwining_columns(space, int_slot, i1, i2))


@pytest.mark.parametrize("src,tgt", [("cable2", "cable3"), ("cable3*", "cable2"),
                                     ("fig8", "fig8*"), ("cable3", "cable3")])
def test_composition_columns_match_linmap_oracle(src, tgt):
    # full-ring maps g of both variances, so exponents are transported
    A, B = _oracle_complex(src), _oracle_complex(tgt)
    rng = random.Random(f"{src}{tgt}")
    for u_var, g_var in itertools.product(("eq", "skew"), repeat=2):
        space = MapSpace.build(A, B, u_var, (0, 0), A.ring)
        slot = MapSpace.build(A, B, "eq" if u_var == g_var else "skew",
                              (0, 0), A.ring)
        for side, C in (("pre", A), ("post", B)):
            gspace = MapSpace.build(C, C, g_var, (0, 0), C.ring)
            g = gspace.map_from_bits(rng.getrandbits(gspace.dim))
            columns = (space.precompose_columns if side == "pre"
                       else space.postcompose_columns)
            assert (_outcome(lambda: columns(g, slot)) == _outcome(
                lambda: linmap_composition_columns(space, g, slot, side)))


def test_operator_columns_independent_of_hash_seed():
    script = (
        "from knotfloer import MapSpace, build_cable, build_figure_eight\n"
        "from knotfloer import enumerate_almost_iotas\n"
        "from knotfloer.complexes import dualize\n"
        "from knotfloer.ring import Ideal\n"
        "lib = [build_figure_eight(), build_cable(2), build_cable(3),\n"
        "       dualize(build_cable(2))]\n"
        "for A in lib:\n"
        "    for B in lib:\n"
        "        for var in ('eq', 'skew'):\n"
        "            f = MapSpace.build(A, B, var, (0, 0), A.ring)\n"
        "            s = MapSpace.build(A, B, var, (-1, -1), A.ring)\n"
        "            print(f.d_commutator_columns(s))\n"
        "        f = MapSpace.build(A, B, 'eq', (0, 0), A.ring)\n"
        "        s = MapSpace.build(A, B, 'skew', (0, 0), Ideal.max_ideal())\n"
        "        for i in enumerate_almost_iotas(A):\n"
        "            print(f.precompose_columns(i.map, s))\n"
        "        for i in enumerate_almost_iotas(B):\n"
        "            print(f.postcompose_columns(i.map, s))\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        outs.append(subprocess.run([sys.executable, "-c", script], env=env,
                                   capture_output=True, text=True,
                                   check=True, timeout=120).stdout)
    assert outs[0] == outs[1]
    assert all(line.startswith("[") for line in outs[0].splitlines())
