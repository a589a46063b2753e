"""The differential as bitset rows: agreement with the coefficient-dict
constructions and terms off the grading law."""

import random

import pytest

from conftest import random_reduced_complex
from oracles import (RingElt, apply_d, d_of, dict_dualize, dict_quotient,
                     dict_rename, dict_tensor, diff_items)
from knotfloer.complexes import Complex, Generator, dualize, quotient
from knotfloer.errors import StructuralError
from knotfloer.homology import UHomology, hfk_hat
from knotfloer.knotlib import build_cable, build_figure_eight, build_unknot
from knotfloer.morphism import derivative_maps, differential_map
from knotfloer.ring import Ideal
from knotfloer.tensorsum import tensor

U, V = RingElt.mono(1, 0), RingElt.mono(0, 1)
LIBRARY = {"unknot": build_unknot(), "fig8": build_figure_eight(),
           **{f"cable{n}": build_cable(n) for n in (2, 3, 4)}}
LIBRARY["cable2*"] = dualize(LIBRARY["cable2"])
IDEALS = (Ideal.uv(), Ideal.max_ideal(), Ideal.principal_v(), Ideal.box(2, 2),
          Ideal.box(1, 3))


def assert_same(by_rows: Complex, by_dict: Complex) -> None:
    assert by_rows == by_dict and by_rows.name == by_dict.name
    assert ({g.name: d_of(by_rows, g.name) for g in by_rows.basis}
            == {g.name: d_of(by_dict, g.name) for g in by_dict.basis})


@pytest.mark.parametrize("name", ["unknot", "fig8", "cable2", "cable3",
                                  "cable4"])
def test_library_and_duals_match_dict_versions(name):
    C = LIBRARY[name]
    D = dualize(C)
    assert_same(D, dict_dualize(C))
    for X in (C, D):
        assert_same(dualize(X), dict_dualize(X))
        back = {g.name: g.name.rstrip("*") for g in X.basis}
        assert_same(X.rename(back, "back"), dict_rename(X, back, "back"))
        for ideal in IDEALS:
            assert_same(quotient(X, ideal), dict_quotient(X, ideal))
        fig8 = LIBRARY["fig8"]
        assert_same(tensor(X, fig8), dict_tensor(X, fig8))
        assert_same(tensor(fig8, X), dict_tensor(fig8, X))


@pytest.mark.parametrize("a,b", [("cable2", "cable2"), ("cable3", "cable2"),
                                 ("cable3", "cable3"), ("fig8", "cable3"),
                                 ("cable2", "cable2*")])
def test_tensor_matches_dict_tensor(a, b):
    assert_same(tensor(LIBRARY[a], LIBRARY[b]),
                dict_tensor(LIBRARY[a], LIBRARY[b]))


@pytest.mark.parametrize("seed", range(8))
def test_random_quotients_duals_tensors_match_dict_versions(seed):
    C = random_reduced_complex(random.Random(300 + seed))
    assert_same(dualize(C), dict_dualize(C))
    for ideal in IDEALS:
        Q = quotient(C, ideal)
        assert_same(Q, dict_quotient(C, ideal))
        assert_same(dualize(Q), dict_dualize(Q))
        assert_same(tensor(Q, Q), dict_tensor(Q, Q))


def test_of_rows_equals_dict_constructor():
    fig8 = LIBRARY["fig8"]
    rows = Complex.of_rows(fig8.basis, fig8.rows, fig8.ring, fig8.name)
    assert rows == fig8 and rows.rows == (0, 12, 16, 16, 0) and rows.is_reduced


def test_stray_terms_are_kept_aside_and_computations_raise():
    # U b is the monomial the gradings fix on (a, b); V b breaks the law
    C = Complex([Generator("a", 0, 0), Generator("b", 1, -1)],
                {"a": {"b": U + V}})
    assert d_of(C, "a") == {"b": U + V}
    assert dict(diff_items(C)) == {"a": {"b": U + V}}
    assert apply_d(C, {"a": V}) == {"b": U * V + V * V}
    assert not C.validate().grading_law and C.is_reduced
    assert C != Complex(C.basis, {"a": {"b": U}})
    message = r"^map entry V b on a breaks declared bidegree \(-1, -1\)$"
    for compute in (differential_map, derivative_maps, UHomology, hfk_hat,
                    dualize, lambda C: quotient(C, Ideal.uv()),
                    lambda C: tensor(C, C), lambda C: C.rename({})):
        with pytest.raises(StructuralError, match=message):
            compute(C)


def test_validate_report_is_computed_once():
    C = build_cable(2)
    assert C.validate() is C.validate()
