"""Complex construction, validation, duals, quotients, isomorphism."""

import random

import pytest

from conftest import random_reduced_complex
from knotfloer.complexes import (Complex, Generator, dualize,
                                 find_isomorphism, quotient)
from knotfloer.errors import StructuralError
from knotfloer.knotlib import build_cable, build_figure_eight, build_unknot
from knotfloer.ring import Ideal, Mono
from oracles import RingElt, d_of, diff_items

U, V = RingElt.mono(1, 0), RingElt.mono(0, 1)


def test_unknot_validates(unknot):
    r = unknot.validate()
    assert r.ok and r.reduced and r.grading_symmetric


def test_fig8_validates(fig8):
    r = fig8.validate()
    assert r.d_squared and r.grading_law and r.reduced and r.grading_symmetric


def test_fig8_alexander_gradings(fig8):
    assert [fig8.generator(n).alexander for n in "abcde"] == [0, 0, 1, -1, 0]


def test_unknown_generator_is_structural_error():
    with pytest.raises(StructuralError):
        Complex([Generator("a", 0, 0)], {"a": {"zz": U}})


def test_truncated_fig8_passes_d_squared_only():
    # dropping the V d arrow keeps d^2 = 0 and the grading law
    gens = build_figure_eight().basis
    C = Complex(gens, {"b": {"c": U}}, Ideal.zero())
    r = C.validate()
    assert r.d_squared and r.grading_law


def test_grading_mutation_fails_grading_check():
    gens = build_figure_eight().basis
    C = Complex(gens, {"c": {"e": U}}, Ideal.zero())
    r = C.validate()
    assert r.d_squared and not r.grading_law


def test_odd_grading_difference_rejected():
    with pytest.raises(StructuralError):
        Generator("x", 0, 1)


def test_dual_of_unknot_is_unknot(unknot):
    D = dualize(unknot)
    assert find_isomorphism(D, unknot) is not None


def test_dual_fig8_isomorphic_to_fig8(fig8):
    D = dualize(fig8)
    iso = find_isomorphism(D, fig8)
    assert iso is not None
    assert iso["a*"] == "a" and iso["b*"] == "e" and iso["e*"] == "b"
    assert iso["c*"] == "d" and iso["d*"] == "c"


@pytest.mark.parametrize("builder", [build_unknot, build_figure_eight,
                                     lambda: build_cable(2),
                                     lambda: build_cable(3)])
def test_double_dual_is_relabeling(builder):
    C = builder()
    DD = dualize(dualize(C))
    renamed = DD.rename({g.name: g.name[:-2] for g in DD.basis})
    assert renamed == C


def test_fig8_mod_v(fig8):
    Q = quotient(fig8, Ideal.principal_v())
    assert d_of(Q, "b") == {"c": U}
    assert d_of(Q, "d") == {"e": U}
    assert d_of(Q, "a") == {} and d_of(Q, "c") == {} and d_of(Q, "e") == {}


def test_fig8_mod_uv_unchanged(fig8):
    Q = quotient(fig8, Ideal.uv())
    for n in fig8.names():
        assert d_of(Q, n) == d_of(fig8, n)


def test_k2_mod_max_kills_differential(k2):
    Q = quotient(k2, Ideal.max_ideal())
    assert all(not d_of(Q, n) for n in k2.names())


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("kind", ["uv", "max", "v", "box"])
def test_quotient_keeps_d_squared(seed, kind):
    rng = random.Random(seed)
    C = random_reduced_complex(rng)
    assert C.validate().ok
    ideal = {"uv": Ideal.uv(), "max": Ideal.max_ideal(),
             "v": Ideal.principal_v(), "box": Ideal.box(2, 2)}[kind]
    assert quotient(C, ideal).validate().d_squared


def test_quotient_containment_guard(k2):
    small = quotient(k2, Ideal.max_ideal())
    with pytest.raises(StructuralError):
        quotient(small, Ideal.uv())


@pytest.mark.parametrize("first,then", [
    (Ideal.principal_v(), Ideal.box(3, 1)),
    (Ideal.max_ideal(), Ideal.box(1, 1)),
], ids=["v-then-box31", "max-then-box11"])
def test_quotient_by_a_larger_ideal(k2, first, then):
    Q = quotient(quotient(k2, first), then)
    assert Q.ring == then and Q.rows == quotient(k2, then).rows


@pytest.mark.parametrize("seed", range(6))
def test_alexander_preserved_termwise(seed):
    rng = random.Random(100 + seed)
    C = random_reduced_complex(rng)
    for src, row in diff_items(C):
        a_src = C.generator(src).alexander
        for tgt, coeff in row.items():
            for m in coeff:
                assert C.generator(tgt).alexander - m.i + m.j == a_src


def test_equality_is_strict_but_reorder_aware(fig8):
    shuffled = Complex(list(fig8.basis)[::-1],
                       {s: dict(r) for s, r in diff_items(fig8)},
                       fig8.ring, fig8.name)
    assert shuffled != fig8
    assert shuffled.equal_up_to_reorder(fig8)


def test_reorder_equality_reads_stray_terms():
    # V b and U c break the grading law; the stray sets tell C and D apart
    basis = [Generator("a", 0, 0), Generator("b", 1, -1),
             Generator("c", 0, -2)]
    diff = {"a": {"b": {Mono(1, 0), Mono(0, 1)}}, "b": {"c": {Mono(0, 1)}}}
    C = Complex(basis, diff)
    shuffled = Complex(basis[::-1], diff)
    assert shuffled != C and shuffled.equal_up_to_reorder(C)
    other = {**diff, "b": {"c": {Mono(1, 0)}}}
    D = Complex(basis, other)
    assert D._rows == C._rows  # only the stray term of d(b) differs
    assert not D.equal_up_to_reorder(C) and not C.equal_up_to_reorder(D)
    assert not Complex(basis[::-1], other).equal_up_to_reorder(C)
