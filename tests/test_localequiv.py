"""Local-map search, self-local families, connected complexes."""

import functools
import itertools
import random

import pytest

from knotfloer.errors import ResourceError, StructuralError
from knotfloer.homology import hfk_minus, torsion_order
from knotfloer.complexes import dualize
from knotfloer.knotlib import build_cable, build_figure_eight, build_unknot
import knotfloer.localequiv as localequiv
from knotfloer.localequiv import (DEFAULT_BUDGET, LocalSearchSpec,
                                  SelfLocalFamily, concordance_unknotting_bound,
                                  connected_complex, image_complex,
                                  search_local_map, verify_almost_local)
from knotfloer.morphism import (IotaData, MapSpace, enumerate_almost_iotas,
                                validate_iota, zero_map)
from knotfloer.ring import Ideal
from knotfloer.tensorsum import tensor
from oracles import (RingElt, fixpoint_maximal_self_local,
                     grading_fitting_pairs, homogeneous_pair_exponents,
                     kernel_space_oracle, kill_candidates_list)

ONE = RingElt.one()


# -- search_local_map --------------------------------------------------------

def test_unknot_to_k2_exists(unknot, k2):
    cert = search_local_map(LocalSearchSpec((unknot, None), (k2, None)))
    assert cert.exists
    assert cert.found.action == {"a": {"a": ONE}}


def test_k2_to_unknot_nonexistent(unknot, k2):
    cert = search_local_map(LocalSearchSpec((k2, None), (unknot, None)))
    assert not cert.exists
    assert cert.token is not None
    assert cert.token.iota_pairs == 2


def test_k3_to_k2_nonexistent(k2, k3):
    cert = search_local_map(LocalSearchSpec((k3, None), (k2, None)))
    assert not cert.exists
    assert cert.token.iota_pairs == len(enumerate_almost_iotas(k3)) * 2


@pytest.mark.parametrize("direction", ["k2u", "k3k2"])
def test_nonexistence_over_complete_space(monkeypatch, unknot, k2, k3,
                                          direction):
    # every map space the search builds holds every grading-compatible
    # monomial, so the token covers all maps, not a truncation of them
    src, tgt = (k2, unknot) if direction == "k2u" else (k3, k2)
    built = []
    build = MapSpace.build

    def recording(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(MapSpace, "build", staticmethod(recording))
    cert = search_local_map(LocalSearchSpec((src, None), (tgt, None)))
    assert not cert.exists
    searched = [s for s in built if s.source is src and s.target is tgt]
    assert [(s.variance, s.bidegree, s.ideal) for s in searched] == [
        ("eq", (0, 0), src.ring), ("eq", (-1, -1), src.ring),
        ("skew", (0, 0), Ideal.max_ideal())]
    assert cert.token.unknowns == searched[0].dim
    for space in built:
        assert space.pairs == grading_fitting_pairs(
            space.source, space.target, space.variance, space.bidegree,
            space.ideal)


def test_self_map_exists_and_reverifies(k2):
    cert = search_local_map(LocalSearchSpec((k2, None), (k2, None)))
    assert cert.exists
    i1, i2 = cert.iota_pair
    assert verify_almost_local(cert.found, i1, i2)


def test_asymmetry_of_local_classes(unknot, k2):
    ab = search_local_map(LocalSearchSpec((unknot, None), (k2, None)))
    ba = search_local_map(LocalSearchSpec((k2, None), (unknot, None)))
    assert ab.exists and not ba.exists


def test_budget_guard(k2, k3):
    with pytest.raises(ResourceError):
        search_local_map(LocalSearchSpec((k3, None), (k2, None), budget=10))


# Verdicts on every ordered pair of the library complexes and their duals,
# involutions enumerated, recorded with the former exponent cap raised to 40
# (then a complete space) before map spaces became complete by construction:
# "exists", or the nonexistence token's (unknowns, equations, iota_pairs).
VERDICTS = {
    ("unknot", "unknot"): "exists",
    ("unknot", "fig8"): (3, 6, 2),
    ("unknot", "cable2"): "exists",
    ("unknot", "cable3"): "exists",
    ("unknot", "unknot*"): "exists",
    ("unknot", "fig8*"): (3, 6, 2),
    ("unknot", "cable2*"): (4, 9, 2),
    ("unknot", "cable3*"): (6, 25, 4),
    ("fig8", "unknot"): (3, 6, 2),
    ("fig8", "fig8"): "exists",
    ("fig8", "cable2"): "exists",
    ("fig8", "cable3"): "exists",
    ("fig8", "unknot*"): (3, 6, 2),
    ("fig8", "fig8*"): "exists",
    ("fig8", "cable2*"): (14, 71, 4),
    ("fig8", "cable3*"): (20, 181, 8),
    ("cable2", "unknot"): (4, 9, 2),
    ("cable2", "fig8"): (14, 71, 4),
    ("cable2", "cable2"): "exists",
    ("cable2", "cable3"): "exists",
    ("cable2", "unknot*"): (4, 9, 2),
    ("cable2", "fig8*"): (14, 71, 4),
    ("cable2", "cable2*"): (18, 96, 4),
    ("cable2", "cable3*"): (26, 242, 8),
    ("cable3", "unknot"): (6, 25, 4),
    ("cable3", "fig8"): (20, 181, 8),
    ("cable3", "cable2"): (71, 382, 8),
    ("cable3", "cable3"): "exists",
    ("cable3", "unknot*"): (6, 25, 4),
    ("cable3", "fig8*"): (20, 181, 8),
    ("cable3", "cable2*"): (26, 242, 8),
    ("cable3", "cable3*"): (38, 656, 16),
    ("unknot*", "unknot"): "exists",
    ("unknot*", "fig8"): (3, 6, 2),
    ("unknot*", "cable2"): "exists",
    ("unknot*", "cable3"): "exists",
    ("unknot*", "unknot*"): "exists",
    ("unknot*", "fig8*"): (3, 6, 2),
    ("unknot*", "cable2*"): (4, 9, 2),
    ("unknot*", "cable3*"): (6, 25, 4),
    ("fig8*", "unknot"): (3, 6, 2),
    ("fig8*", "fig8"): "exists",
    ("fig8*", "cable2"): "exists",
    ("fig8*", "cable3"): "exists",
    ("fig8*", "unknot*"): (3, 6, 2),
    ("fig8*", "fig8*"): "exists",
    ("fig8*", "cable2*"): (14, 71, 4),
    ("fig8*", "cable3*"): (20, 181, 8),
    ("cable2*", "unknot"): "exists",
    ("cable2*", "fig8"): "exists",
    ("cable2*", "cable2"): "exists",
    ("cable2*", "cable3"): "exists",
    ("cable2*", "unknot*"): "exists",
    ("cable2*", "fig8*"): "exists",
    ("cable2*", "cable2*"): "exists",
    ("cable2*", "cable3*"): (71, 382, 8),
    ("cable3*", "unknot"): "exists",
    ("cable3*", "fig8"): "exists",
    ("cable3*", "cable2"): "exists",
    ("cable3*", "cable3"): "exists",
    ("cable3*", "unknot*"): "exists",
    ("cable3*", "fig8*"): "exists",
    ("cable3*", "cable2*"): "exists",
    ("cable3*", "cable3*"): "exists",
}


@functools.cache
def _library(name):
    base = {"unknot": build_unknot, "fig8": build_figure_eight,
            "cable2": lambda: build_cable(2), "cable3": lambda: build_cable(3),
            "cable4": lambda: build_cable(4)}
    if name.endswith("*"):
        return dualize(_library(name[:-1]))
    return base[name]()


@pytest.mark.parametrize("src,tgt", list(VERDICTS))
def test_verdict_table(src, tgt):
    cert = search_local_map(LocalSearchSpec((_library(src), None),
                                            (_library(tgt), None)))
    if VERDICTS[src, tgt] == "exists":
        assert cert.exists and cert.token is None
        assert verify_almost_local(cert.found, *cert.iota_pair)
    else:
        assert not cert.exists
        token = cert.token
        assert ((token.unknowns, token.equations, token.iota_pairs)
                == VERDICTS[src, tgt])


def test_invalid_iota_in_list_raises_validation_text(k2, k2_iotas, k3_iotas):
    # the list is validated with one d and one 1 + Psi Phi mod (U,V); each
    # involution still gets the checks and the message of validate_iota
    zero = IotaData(zero_map(k2, k2, "skew", (0, 0), Ideal.max_ideal()))
    assert validate_iota(k2, zero).messages == (
        "iota^2 != 1 + Psi Phi mod (U,V)",)
    for data in ([zero], [k2_iotas[0], zero, k2_iotas[1]], [*k2_iotas, zero]):
        with pytest.raises(StructuralError) as err:
            search_local_map(LocalSearchSpec((k2, data), (k2, None)))
        assert str(err.value) == ("involution fails validation: "
                                  "iota^2 != 1 + Psi Phi mod (U,V)")
    with pytest.raises(StructuralError) as err:
        search_local_map(LocalSearchSpec((k2, [k2_iotas[0], k3_iotas[0]]),
                                         (k2, None)))
    assert str(err.value) == "iota is defined on a different basis"


# -- self-local families -----------------------------------------------------

def _sample_members(fam, count, seed):
    """The family's particular member, then count - 1 random members."""
    rng = random.Random(seed)
    t_part, t_null = fam.inner.solution_space()
    out = []
    for k in range(count):
        t = t_part
        for w in t_null:
            if k and rng.getrandbits(1):
                t ^= w
        out.append(fam.fspace.map_from_bits(fam.family.point(t)))
    return out


def test_unknot_self_local_is_identity(unknot):
    iu = enumerate_almost_iotas(unknot)[0]
    fam = SelfLocalFamily(unknot, iu, 2_000_000)
    assert fam.inner.nullspace_basis() == []
    f = fam.fspace.map_from_bits(
        fam.family.point(fam.inner.particular_solution()))
    assert f.action == {"a": {"a": ONE}}
    assert verify_almost_local(f, iu, iu)


def test_k2_diagonal_coefficients_forced(k2, k2_iotas):
    # <f(b), b> = 1 and <f(c), c> = 1 across the whole family, proven
    # from the affine structure rather than by sampling
    for io in k2_iotas:
        fam = SelfLocalFamily(k2, io, 2_000_000)
        assert fam.unit_coefficient_constant("b", "b") == (True, 1)
        assert fam.unit_coefficient_constant("c", "c") == (True, 1)


def test_k2_sampled_members_verify(k2, k2_iotas):
    fam = SelfLocalFamily(k2, k2_iotas[0], 2_000_000)
    for f in _sample_members(fam, 12, seed=7):
        assert verify_almost_local(f, k2_iotas[0], k2_iotas[0])
        assert f.of_gen("b").get("b") == ONE
        assert f.of_gen("c").get("c") == ONE


def test_identity_is_self_local(k2, k2_iotas):
    from knotfloer.morphism import identity_map
    ident = identity_map(k2)
    for io in k2_iotas:
        assert verify_almost_local(ident, io, io)


def test_maximality_restriction_injective(k2, k2_iotas):
    # for the maximal f of the connected complex and sampled self-local g,
    # g restricted to im f is injective: ker(g o f) = ker f on the
    # truncated module
    io = k2_iotas[0]
    f = localequiv._maximal_self_local(k2, io, DEFAULT_BUDGET)
    ker_f = kernel_space_oracle(k2, f)
    fam = SelfLocalFamily(k2, io, 2_000_000)
    for g in _sample_members(fam, 6, seed=11):
        assert kernel_space_oracle(k2, g.compose(f)) == ker_f


# -- connected complex -------------------------------------------------------

def test_connected_unknot(unknot):
    iu = enumerate_almost_iotas(unknot)[0]
    conn = connected_complex(unknot, iu)
    assert len(conn) == 1
    assert hfk_minus(conn) == hfk_minus(unknot)


def test_connected_k2_torsion_survives(k2, k2_iotas):
    for io in k2_iotas:
        conn = connected_complex(k2, io)
        assert conn.validate().ok
        d = hfk_minus(conn)
        assert d.tower_count == 1
        assert torsion_order(d) >= 2


def test_connected_k2_independent_of_order(k2, k2_iotas):
    # the sweep runs forward; the oracle's reverse sweep gives the same
    # homology
    for io in k2_iotas:
        reverse = fixpoint_maximal_self_local(k2, io, "reverse")
        assert hfk_minus(connected_complex(k2, io)) == hfk_minus(
            image_complex(k2, reverse))


def test_bound_values(unknot, fig8, fig8_iotas, k2, k2_iotas):
    iu = enumerate_almost_iotas(unknot)[0]
    assert concordance_unknotting_bound(unknot, iu) == 0
    for io in k2_iotas:
        assert concordance_unknotting_bound(k2, io) >= 2
    # derived value, frozen after the first pipeline run
    for io in fig8_iotas:
        assert concordance_unknotting_bound(fig8, io) == 1


def test_kernel_space_basics(k2, k2_iotas):
    from knotfloer.morphism import identity_map
    io = k2_iotas[0]
    f = localequiv._maximal_self_local(k2, io, DEFAULT_BUDGET)
    terms, ker = kernel_space_oracle(k2, f)
    assert kernel_space_oracle(k2, identity_map(k2)) == (terms, ())
    assert len(ker) > 0


IMAGE_SOURCES = ("unknot", "fig8", "k2", "k3", "k2*", "k2 mod UV",
                 "k3 mod UV", "random", "random mod UV")


def _random_chain_maps(C, rng, count):
    """The identity and random grading-preserving chain maps C -> C."""
    from knotfloer.linalg import GF2System
    from knotfloer.morphism import MapSpace, differential_map, identity_map

    space = MapSpace.build(C, C, "eq", (0, 0), C.ring)
    slot = MapSpace.build(C, C, "eq", (-1, -1), C.ring)
    d = differential_map(C)
    system = GF2System(space.dim)
    assert system.add_equations(space.operator_rows(slot, d, d))
    null = system.nullspace_basis()
    maps = [identity_map(C)]
    for _ in range(count):
        bits = 0
        for v in null:
            if rng.getrandbits(1):
                bits ^= v
        maps.append(space.map_from_bits(bits))
    return maps


@pytest.mark.parametrize("name", IMAGE_SOURCES)
def test_image_complex_matches_element_oracle(name, request):
    # any equivariant grading-preserving chain map, not only self-local
    # ones; the image may fail to be closed under d, in the same way
    from conftest import random_reduced_complex
    from knotfloer.complexes import dualize, quotient
    from oracles import element_image_complex

    def outcome(build):
        try:
            return build()
        except StructuralError as err:
            return str(err)

    rng = random.Random(name)
    base = name.split()[0].rstrip("*")
    if base == "random":
        sources = [random_reduced_complex(rng, max_pieces=5, transvections=5)
                   for _ in range(12)]
    else:
        sources = [request.getfixturevalue(base)]
    for C in sources:
        if name.endswith("*"):
            C = dualize(C)
        if name.endswith("mod UV"):
            C = quotient(C, Ideal.uv())
        for f in _random_chain_maps(C, rng, 5):
            assert (outcome(lambda: image_complex(C, f))
                    == outcome(lambda: element_image_complex(C, f)))


# -- one system for the search and the self-local family -----------------------

SELF_LOCAL_LIBRARY = ("unknot", "fig8", "cable2", "cable3", "cable4",
                      "fig8*", "cable2*", "cable3*", "cable4*")


@pytest.mark.parametrize("name", SELF_LOCAL_LIBRARY)
def test_maximal_self_local_matches_fixpoint_oracle(name):
    # chain maps first, intertwining and locality over their parameters,
    # one greedy sweep: the same map as the joint family swept forward to
    # a fixpoint, on every completion
    from oracles import JointSelfLocalFamily

    C = _library(name)
    for io in enumerate_almost_iotas(C):
        f = localequiv._maximal_self_local(C, io, 2_000_000)
        assert f.rows == fixpoint_maximal_self_local(C, io, "forward").rows
        fam, joint = SelfLocalFamily(C, io, 2_000_000), JointSelfLocalFamily(C, io)
        for x in C.names():
            for y in C.names():
                if C.grading(x) == C.grading(y):
                    assert (fam.unit_coefficient_constant(x, y)
                            == joint.unit_coefficient_constant(x, y))


@pytest.mark.parametrize("n", (2, 3, 4))
def test_connected_complex_is_the_image_of_the_fixpoint_map(n):
    # on every completion of cable n and of its dual: the image of the
    # oracle's forward fixpoint, and the reverse fixpoint's image has the
    # same gradings and homology
    for C in (build_cable(n), dualize(build_cable(n))):
        for io in enumerate_almost_iotas(C):
            conn = connected_complex(C, io)
            forward, reverse = (
                image_complex(C, fixpoint_maximal_self_local(C, io, order),
                              name=conn.name)
                for order in ("forward", "reverse"))
            assert conn == forward and len(conn) == 7
            assert (sorted((g.gr_u, g.gr_v) for g in reverse.basis)
                    == sorted((g.gr_u, g.gr_v) for g in conn.basis))
            assert hfk_minus(reverse) == hfk_minus(conn)


SWEEP_LIBRARY = ("unknot", "fig8", "fig8*", "cable2", "cable3", "cable2*",
                 "cable3*")


def test_locality_row_matches_locality_bit():
    # the locality row, read as a functional of t, is `_locality_bit` of
    # the family's member at t, on every ordered pair of the pair-sweep
    # library; a target whose tower lies in another grading gives 0 = 1,
    # and one whose maps from the unknot all carry V gives 0 there
    from knotfloer.complexes import Complex, Generator

    rng = random.Random("locality")
    shifted, v_shifted = (Complex([Generator("a", u, v)], {}, Ideal.zero(),
                                  f"unknot{u}{v}") for u, v in ((2, 2), (0, 2)))
    targets = [_library(name) for name in SWEEP_LIBRARY] + [shifted, v_shifted]
    seen = set()
    for name in SWEEP_LIBRARY:
        hom = _library(name).u_homology
        tower, grading = hom.tower_generator()
        for tgt in targets:
            fspace, family, row, _ = localequiv._chain_maps(
                hom, tgt.u_homology, 2_000_000)
            width = family.width
            if tgt is shifted:
                assert row == 1 << width
            for _ in range(16):
                t = rng.getrandbits(width)
                f = fspace.map_from_bits(family.point(t))
                holds = (row & t).bit_count() % 2 == row >> width & 1
                assert holds == localequiv._locality_bit(f, tower, grading,
                                                         tgt.u_homology)
                seen.add(holds)
    assert seen == {False, True}


def test_chain_map_families_match_null_basis_oracle(monkeypatch):
    # the family read off the solved chain system against the null-basis
    # family it replaced, on every ordered pair of the pair-sweep library:
    # the same free count, dim - rank; the same points and locality row
    # once the oracle's parameter i is moved to the i-th free unknown;
    # and the same certificate from the whole search run on either family
    from knotfloer.linalg import Echelon
    from knotfloer.morphism import _spread, differential_map, is_chain_map
    from oracles import NullBasisAffineSpace

    rng = random.Random("families")
    lib = {name: _library(name) for name in SWEEP_LIBRARY}
    iotas = {name: enumerate_almost_iotas(C) for name, C in lib.items()}
    verdicts = set()
    for a, b in itertools.product(SWEEP_LIBRARY, repeat=2):
        A, B = lib[a], lib[b]
        homs = (A.u_homology, B.u_homology, DEFAULT_BUDGET)
        spec = LocalSearchSpec((A, iotas[a]), (B, iotas[b]))
        fspace, family, row, n_chain = localequiv._chain_maps(*homs)
        cert = search_local_map(spec)
        with monkeypatch.context() as patch:
            patch.setattr(localequiv, "AffineSpace",
                          NullBasisAffineSpace.of_system)
            _, oracle, oracle_row, oracle_n = localequiv._chain_maps(*homs)
            oracle_cert = search_local_map(spec)

        chain_slot = MapSpace.build(A, B, "eq", (-1, -1), A.ring)
        rank = Echelon(fspace.operator_rows(
            chain_slot, differential_map(B), differential_map(A))).rank
        free = [k for k, eq in enumerate(family.equations) if eq == 1 << k]
        free_mask = sum(1 << k for k in free)
        assert len(free) == len(oracle.null) == fspace.dim - rank
        assert family.width == fspace.dim and n_chain == oracle_n
        t_bits = (1 << oracle.width) - 1
        assert row == (_spread(oracle_row & t_bits, free)
                       | (oracle_row >> oracle.width) << family.width)
        for _ in range(6):
            t = rng.getrandbits(oracle.width)
            x = family.point(_spread(t, free))
            assert x == oracle.point(t)
            pivots = rng.getrandbits(fspace.dim) & ~free_mask
            assert family.point(_spread(t, free) | pivots) == x
            assert is_chain_map(fspace.map_from_bits(x))

        assert cert.token == oracle_cert.token
        assert cert.exists == oracle_cert.exists
        if cert.exists:
            assert cert.found.rows == oracle_cert.found.rows
            assert all(x is y for x, y in zip(cert.iota_pair,
                                              oracle_cert.iota_pair))
        verdicts.add(cert.exists)
    assert verdicts == {False, True}


def test_iota_of_an_equal_copy_is_rejected(k2):
    # an involution enumerated on a second build of the same complex, with
    # its report and its maximal self-local map already kept there
    copy = build_cable(2)
    other = enumerate_almost_iotas(copy)[0]
    assert validate_iota(copy, other).ok
    connected_complex(copy, other)
    calls = [lambda: validate_iota(k2, other),
             lambda: search_local_map(LocalSearchSpec((k2, other), (k2, None))),
             lambda: search_local_map(LocalSearchSpec((k2, None), (k2, [other]))),
             lambda: SelfLocalFamily(k2, other, 2_000_000),
             lambda: connected_complex(k2, other),
             lambda: concordance_unknotting_bound(k2, other)]
    for call in calls:
        with pytest.raises(StructuralError) as err:
            call()
        assert str(err.value) == "iota is defined on a different basis"


def test_self_local_outputs_independent_of_hash_seed():
    import os
    import subprocess
    import sys

    script = ("from knotfloer import build_cable, enumerate_almost_iotas\n"
              "from knotfloer.cfk import render_cfk\n"
              "from knotfloer.complexes import dualize\n"
              "from knotfloer.localequiv import (_maximal_self_local,\n"
              "                                  connected_complex)\n"
              "for n in (2, 3, 4):\n"
              "    for C in (build_cable(n), dualize(build_cable(n))):\n"
              "        for io in enumerate_almost_iotas(C):\n"
              "            print(render_cfk(connected_complex(C, io)))\n"
              "            print(_maximal_self_local(C, io, 2_000_000).rows)\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        outs.append(subprocess.run([sys.executable, "-c", script], env=env,
                                   capture_output=True, text=True,
                                   check=True, timeout=120).stdout)
    assert outs[0] == outs[1] and outs[0].count("_conn ring full") == 28


# -- the kill candidates, one at a time ---------------------------------------

@pytest.mark.parametrize("order", ["forward", "reverse"])
@pytest.mark.parametrize("n", (2, 3, 4))
def test_kill_candidates_match_the_list_reference(n, order):
    # the oracle's reverse sweep reads the same candidates backwards
    C = build_cable(n)
    fspace = MapSpace.build(C, C, "eq", (0, 0), C.ring)
    candidates = list(localequiv._kill_candidates(C, fspace, ()))
    if order == "reverse":
        candidates.reverse()
    assert candidates == kill_candidates_list(C, fspace, order)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_pair_candidates_are_homogeneous(n):
    # U^a V^b x + U^a' V^b' y lies in one bigrading, so each target gets
    # one monomial: every row is one target, reached from x, y or both
    C = build_cable(n)
    fspace = MapSpace.build(C, C, "eq", (0, 0), C.ring)
    candidates = localequiv._kill_candidates(C, fspace, ())
    pairs = [(x, y) for i, x in enumerate(C.basis) for y in C.basis[i + 1:]
             if (x.gr_u - y.gr_u) % 2 == 0]
    for (x, y), rows in zip(pairs, list(candidates)[len(C):], strict=True):
        (a, b), (a2, b2) = homogeneous_pair_exponents(x, y)
        assert (x.gr_u - 2 * a, x.gr_v - 2 * b) == (y.gr_u - 2 * a2,
                                                     y.gr_v - 2 * b2)
        assert min(a, a2) == min(b, b2) == 0
        terms = [[fspace.pairs[k] for k in row] for row in rows]
        targets = [{tgt for _, tgt, _ in row} for row in terms]
        assert all(len(t) == 1 for t in targets)
        assert len(set().union(*targets)) == len(rows)
        for row in terms:
            assert {src for src, _, _ in row} <= {x.name, y.name}
            if len(row) == 2:  # U^a m x and U^a' m' y are one monomial
                (_, _, m), (_, _, m2) = row
                assert (a + m.i, b + m.j) == (a2 + m2.i, b2 + m2.j)


def _killing_complex(name):
    """(C, its involutions): a cable, or cable2 x cable2 with the variant-1
    product of the first completions."""
    if name != "cable2#cable2":
        C = _library(name)
        return C, enumerate_almost_iotas(C)
    from knotfloer.tensorsum import product_iota

    k2 = build_cable(2)
    i2 = enumerate_almost_iotas(k2)[0]
    T = tensor(k2, k2)
    return T, [product_iota(k2, i2, k2, i2, 1, T)]


@pytest.mark.parametrize("name", ["cable2", "cable3", "cable4",
                                  "cable2#cable2"])
def test_sweep_skips_pairs_of_killed_generators(monkeypatch, name):
    # a candidate accepted with one unknown per row kills its generators,
    # and the sweep skips the pairs of two killed generators: it builds
    # the list reference less some pairs, and the same sweep over the
    # whole list gives the same map
    C, iotas = _killing_complex(name)
    fspace = MapSpace.build(C, C, "eq", (0, 0), C.ring)
    reference = kill_candidates_list(C, fspace, "forward")
    kill_candidates, swept = localequiv._kill_candidates, []

    def recording(C, fspace, killed):
        return (swept.append(rows) or rows
                for rows in kill_candidates(C, fspace, killed))

    skipped = 0
    for io in iotas:
        swept.clear()
        monkeypatch.setattr(localequiv, "_kill_candidates", recording)
        f = localequiv._maximal_self_local(C, io, 2_000_000)
        monkeypatch.setattr(localequiv, "_kill_candidates",
                            lambda C, fspace, killed: iter(reference))
        g = localequiv._maximal_self_local(C, io, 2_000_001)
        assert f.rows == g.rows
        rest = iter(reference)
        assert all(rows in rest for rows in swept)  # in order
        skipped += len(reference) - len(swept)
    assert skipped > 0


def test_kill_candidates_are_built_on_demand():
    # cable2 x cable3: 405 generators, 22,573 map-space coordinates and
    # 41,209 candidates, which, built as one list, exhaust 1.5 GB; the
    # first pairs come past the 405 singles
    import itertools
    import tracemalloc

    C = tensor(build_cable(2), build_cable(3))
    fspace = MapSpace.build(C, C, "eq", (0, 0), C.ring)
    tracemalloc.start()
    try:
        candidates = localequiv._kill_candidates(C, fspace, ())
        first = list(itertools.islice(candidates, len(C), len(C) + 10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(C), fspace.dim, len(first)) == (405, 22_573, 10)
    assert peak < 32 * 2**20
