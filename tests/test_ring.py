"""Monomials, ideals, and the reference algebra of F2[U,V] and its
quotients (`tests/oracles.py`)."""

import pytest
from hypothesis import given, strategies as st

from knotfloer.ring import Ideal, Mono, parse_mono
from oracles import RingElt, mul, reduce

U = RingElt.mono(1, 0)
V = RingElt.mono(0, 1)
ONE = RingElt.one()

monos = st.builds(Mono, st.integers(0, 6), st.integers(0, 6))
elts = st.frozensets(monos, max_size=6).map(RingElt)
ideals = st.one_of(
    st.just(Ideal.zero()),
    st.just(Ideal.uv()),
    st.just(Ideal.max_ideal()),
    st.builds(Ideal.box, st.integers(1, 5), st.integers(1, 5)),
)


def test_uv_mod_uv_is_zero():
    assert mul(U, V, Ideal.uv()).is_zero()


def test_box_reduction():
    e = RingElt.mono(3, 0) + V
    assert reduce(e, Ideal.box(3, 3)) == V


def test_max_ideal_keeps_constant_part():
    assert reduce(RingElt.mono(2, 0), Ideal.max_ideal()).is_zero()
    assert reduce(ONE, Ideal.max_ideal()) == ONE


def test_char_two_square():
    e = U + V
    assert mul(e, e, Ideal.zero()) == RingElt.mono(2, 0) + RingElt.mono(0, 2)


def test_power_box_truncates_power():
    n = 4
    assert mul(RingElt.mono(n - 1, 0), U, Ideal.box(n, n)).is_zero()


@given(elts, ideals)
def test_reduce_idempotent(e, ideal):
    once = reduce(e, ideal)
    assert reduce(once, ideal) == once


@given(elts, elts, ideals)
def test_mul_commutative(a, b, ideal):
    assert mul(a, b, ideal) == mul(b, a, ideal)


@given(elts, elts, elts, ideals)
def test_mul_associative(a, b, c, ideal):
    assert mul(mul(a, b, ideal), c, ideal) == mul(a, mul(b, c, ideal), ideal)


@given(elts, elts, elts, ideals)
def test_mul_distributes_over_xor(a, b, c, ideal):
    assert mul(a, b + c, ideal) == mul(a, b, ideal) + mul(a, c, ideal)


@given(elts)
def test_max_ideal_reduction_is_constant_term(e):
    red = reduce(e, Ideal.max_ideal())
    expected = RingElt((m for m in e.terms if m.i == 0 and m.j == 0))
    assert red == expected


@given(elts)
def test_render_parse_round_trip(e):
    # the .cfk parser reads each rendered monomial back with parse_mono
    back = RingElt.zero()
    if not e.is_zero():
        for chunk in e.render().split("+"):
            back += RingElt((parse_mono(chunk.split()),))
    assert back == e


@pytest.mark.parametrize("m,text", [
    (Mono(0, 0), "1"),
    (Mono(1, 0), "U"),
    (Mono(0, 3), "V^3"),
    (Mono(2, 1), "U^2 V"),
])
def test_mono_rendering(m, text):
    assert m.render() == text


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        Mono(-1, 0)


def test_box_needs_positive_exponents():
    with pytest.raises(ValueError):
        Ideal.box(0, 1)
