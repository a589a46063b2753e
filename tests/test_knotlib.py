"""Builder fidelity: the cable tables and the small complexes."""

import pytest

from knotfloer.knotlib import (build_cable, build_figure_eight, build_unknot,
                               forced_iota_constraints)
from oracles import RingElt, d_of

U, V = RingElt.mono(1, 0), RingElt.mono(0, 1)


def mono(i, j):
    return RingElt.mono(i, j)


def test_unknot_shape(unknot):
    assert len(unknot) == 1
    assert unknot.grading("a") == (0, 0)
    assert d_of(unknot, "a") == {}


def test_fig8_table(fig8):
    assert d_of(fig8, "b") == {"c": U, "d": V}
    assert d_of(fig8, "c") == {"e": V}
    assert d_of(fig8, "d") == {"e": U}
    assert d_of(fig8, "a") == {} and d_of(fig8, "e") == {}
    assert [fig8.grading(n) for n in "abcde"] == [
        (0, 0), (0, 0), (1, -1), (-1, 1), (0, 0)]


def test_cable_requires_n_at_least_two():
    with pytest.raises(ValueError, match="cable parameter must be >= 2, got 1"):
        build_cable(1)
    with pytest.raises(ValueError, match="cable parameter must be >= 2, got 1"):
        forced_iota_constraints(1)


@pytest.mark.parametrize("n,count", [(2, 15), (3, 27), (4, 39), (5, 51),
                                     (6, 63)])
def test_cable_generator_count(n, count):
    assert len(build_cable(n)) == count == 15 + 12 * (n - 2)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_cable_validates_reduced_symmetric(n):
    r = build_cable(n).validate()
    assert r.d_squared and r.grading_law and r.reduced and r.grading_symmetric


def test_cable2_key_rows(k2):
    assert d_of(k2, "b") == {"c": mono(2, 0), "d": mono(1, 1), "e": mono(0, 2)}
    assert d_of(k2, "b0_1") == {"c0_1": mono(3, 0), "e0_1": mono(0, 1)}
    assert d_of(k2, "b1_1") == {"c1_1": mono(1, 0), "e1_1": mono(0, 3)}
    assert d_of(k2, "c1_1") == {"g1_1": mono(0, 3)}
    assert d_of(k2, "e0_1") == {"f0_1": mono(3, 0)}


def test_cable4_central_row():
    C = build_cable(4)
    assert d_of(C, "b") == {"c": mono(4, 0), "d": mono(1, 1), "e": mono(0, 4)}
    assert d_of(C, "d") == {"f": mono(3, 0), "g": mono(0, 3)}
    # truncated pieces at i = n-1
    assert d_of(C, "b0_3") == {"c0_3": mono(7, 0), "e0_3": mono(0, 1)}
    assert d_of(C, "e0_3") == {"f0_3": mono(7, 0)}
    assert d_of(C, "b1_3") == {"c1_3": mono(1, 0), "e1_3": mono(0, 7)}
    assert d_of(C, "c1_3") == {"g1_3": mono(0, 7)}


def test_cable3_family_gradings():
    C = build_cable(3)
    assert C.grading("c") == (5, -1) and C.generator("c").alexander == 3
    assert C.grading("f") == (4, 0) and C.grading("g") == (0, 4)
    assert C.grading("c0_1") == (7, -1)
    assert C.grading("e1_1") == (-1, 7)
    assert C.grading("c0_2") == (9, -1)
    assert C.grading("e0_2") == (-1, 1)
    assert C.grading("c1_2") == (1, -1)


def test_forced_constraints_shape():
    for n in (2, 3, 5):
        cons = forced_iota_constraints(n)
        assert cons == [("a", ("a",)), ("b", ("a", "b")),
                        ("f", ("g",)), ("g", ("f",))]
