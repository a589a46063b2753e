"""The indexed passes against the scans they replaced (`tests/oracles.py`):
the column-indexed cancellation, the axis-indexed grading masks and d^2
by rows."""

import random

import pytest

from conftest import random_reduced_complex
from oracles import (RingElt, diff_items, ringelt_validate, scan_cancel,
                     scan_kept_targets)
from test_homology import (LIBRARY, PRODUCT_SUMS, TWISTED, _complex,
                           _random_products)
from knotfloer.complexes import (Complex, Generator, GradingIndex, dualize,
                                 kept_targets, quotient)
from knotfloer.homology import _cancel, _v_reduced_rows
from knotfloer.knotlib import build_cable, build_figure_eight, build_unknot
from knotfloer.ring import Ideal, Mono

CABLES = [build_cable(n) for n in range(2, 13)]
KNOTS = [build_unknot(), build_figure_eight()] + CABLES
# by test id; box(1, 1) equals the maximal ideal, so ids name the factory
IDEALS = ({"zero": Ideal.zero(), "uv": Ideal.uv(), "max": Ideal.max_ideal(),
           "principal_u": Ideal.principal_u(),
           "principal_v": Ideal.principal_v()}
          | {f"box{a}{b}": Ideal.box(a, b) for a in (1, 2, 3)
             for b in (1, 2, 3)})


# -- graded cancellation -----------------------------------------------------

CANCEL_CASES = (KNOTS + [dualize(C) for C in KNOTS]
                + [_complex(f"{a}#{b}") for a, b in PRODUCT_SUMS]
                # the complexes of test_tower_basis_is_cycle_cocycle_pair
                + [_complex(n) for n in LIBRARY]
                + [_complex("cable3#cable2"), _complex("fig8#cable3")]
                + _random_products(6, 4000) + TWISTED)


@pytest.mark.parametrize("C", CANCEL_CASES,
                         ids=lambda C: f"{C.name}-{len(C)}")
def test_cancel_matches_row_scan(C):
    gr = [g.gr_u for g in C.basis]
    assert (_cancel(C.rows_mod(Ideal.principal_v()), gr)
            == scan_cancel(_v_reduced_rows(C), gr))


# -- grading masks -----------------------------------------------------------

def _random_generators(rng: random.Random, count: int) -> list[Generator]:
    """Generators on a few repeated bigradings of both parities."""
    out = []
    for k in range(count):
        u = rng.randint(-6, 6)
        out.append(Generator(f"g{k}", u, u + 2 * rng.randint(-3, 3)))
    return out


MASK_CASES = ([list(C.basis) for C in KNOTS[:6]]
              + [list(dualize(C).basis) for C in KNOTS[:4]]
              + [list(_complex("cable3#cable2").basis)]
              + [_random_generators(random.Random(500 + s), 3 + 4 * s)
                 for s in range(8)])


@pytest.mark.parametrize("ideal", IDEALS.values(), ids=IDEALS.keys())
def test_kept_targets_match_grading_scan(ideal):
    for basis in MASK_CASES:
        kept = kept_targets(GradingIndex(basis), ideal)
        want = scan_kept_targets(basis, ideal)
        us = [g.gr_u for g in basis]
        vs = [g.gr_v for g in basis]
        for eu in range(min(us) - 5, max(us) + 3):
            for ev in range(min(vs) - 5, max(vs) + 3):
                assert kept((eu, ev)) == want((eu, ev)), (eu, ev)


def test_grading_index_is_built_once_per_complex():
    C = build_cable(3)
    assert C.grading_index is C.grading_index
    assert C.grading_index.cells == GradingIndex(C.basis).cells


# -- d^2 by rows ---------------------------------------------------------------

def _random_graded_complex(rng: random.Random, count: int) -> Complex:
    """Random rows obeying the grading law over the full ring; d^2 = 0
    only by chance."""
    basis = _random_generators(rng, count)
    rows = []
    for x in basis:
        row = 0
        for t, y in enumerate(basis):
            du, dv = y.gr_u - x.gr_u + 1, y.gr_v - x.gr_v + 1
            if (du >= 0 and dv >= 0 and not du % 2
                    and rng.random() < 0.3):
                row |= 1 << t
        rows.append(row)
    return Complex.of_rows(basis, rows, name="random")


def _fresh(C: Complex) -> Complex:
    """The same complex without a kept report."""
    return Complex.of_rows(C.basis, C.rows, C.ring, C.name)


U, V = RingElt.mono(1, 0), RingElt.mono(0, 1)
STRAY = Complex([Generator("a", 0, 0), Generator("b", 1, -1),
                 Generator("c", 0, -2)],
                {"a": {"b": U + V}, "b": {"c": V}})

D2_CASES = (KNOTS[:8] + [_complex("cable3#cable2"), _complex("fig8#cable3")]
            + [random_reduced_complex(random.Random(600 + s))
               for s in range(6)]
            + [_random_graded_complex(random.Random(700 + s), 4 + 3 * s)
               for s in range(10)])


@pytest.mark.parametrize("C", D2_CASES, ids=lambda C: f"{C.name}-{len(C)}")
def test_row_d_squared_matches_ringelt_report(C):
    for ideal in (None, Ideal.uv(), Ideal.box(1, 1), Ideal.box(2, 3),
                  Ideal.max_ideal()):
        X = _fresh(C) if ideal is None else quotient(C, ideal)
        assert X.validate() == ringelt_validate(X)


def test_d_squared_failures_are_reported_by_rows():
    failing = [C for C in D2_CASES if not ringelt_validate(C).d_squared]
    assert len(failing) >= 5
    for C in failing:
        assert _fresh(C).validate() == ringelt_validate(C)
    assert not STRAY.validate().grading_law
    assert STRAY.validate() == ringelt_validate(STRAY)


# -- d^2 on monomial sets, with stray terms ----------------------------------

def _random_stray_complex(rng: random.Random, ring: Ideal) -> Complex:
    """Random d as monomial sets of up to three terms per target: the
    grading-fixed monomial, when the pair has one, with probability 1/2,
    and up to two arbitrary monomials, most of them off the rule."""
    basis = _random_generators(rng, rng.randint(2, 7))
    diff = {}
    for x in basis:
        targets = {}
        for y in rng.sample(basis, rng.randint(0, min(3, len(basis)))):
            du, dv = y.gr_u - x.gr_u + 1, y.gr_v - x.gr_v + 1
            monos = {Mono(rng.randint(0, 2), rng.randint(0, 2))
                     for _ in range(rng.randint(0, 2))}
            if du >= 0 and dv >= 0 and not du % 2 and rng.random() < 0.5:
                monos.add(Mono(du // 2, dv // 2))
            if monos:
                targets[y.name] = monos
        if targets:
            diff[x.name] = targets
    return Complex(basis, diff, ring, "stray")


def test_stray_d_squared_matches_ringelt_report():
    """Every flag and every message, in order, on random complexes with
    stray terms, over the full ring and mod UV."""
    seen = {"failing": 0, "passing": 0, "multi": 0}
    for seed in range(400):
        for ring in (Ideal.zero(), Ideal.uv()):
            C = _random_stray_complex(random.Random(900 + seed), ring)
            report = C.validate()
            assert report == ringelt_validate(C)
            if C._stray:
                seen["failing" if not report.d_squared else "passing"] += 1
                seen["multi"] += any(len(c) > 1 for _, row in diff_items(C)
                                     for c in row.values())
    assert min(seen.values()) >= 50, seen


def test_stray_d_squared_cases():
    """d^2 through stray terms: nonzero, cancelling, and zero mod UV."""
    basis = [Generator("a", 0, 0), Generator("b", 1, -1),
             Generator("e", 1, -1), Generator("c", 0, -2)]
    u, v = Mono(1, 0), Mono(0, 1)
    # on (a, b) and (a, e) the rule fixes U; on (b, c) and (e, c) it fixes 1
    cancel = {"a": {"b": {u, v}, "e": {v}}, "b": {"c": {v}},
              "e": {"c": {u, v}}}
    through = {"a": {"b": {v}}, "b": {"c": {u}}}
    mod_uv = {"a": {"b": {u}}, "b": {"c": {v}}}
    informational = ("bigrading multiset is not swap-symmetric "
                     "(informational)",)
    for diff, ring, d_squared in ((cancel, Ideal.zero(), True),
                                  (through, Ideal.zero(), False),
                                  (through, Ideal.uv(), True),
                                  (mod_uv, Ideal.zero(), False),
                                  (mod_uv, Ideal.uv(), True)):
        C = Complex(basis, diff, ring)
        report = C.validate()
        assert report == ringelt_validate(C)
        assert report.d_squared == d_squared and not report.grading_law
        strays = tuple(f"grading law fails on {m.render()} {tgt} in d({src})"
                       for src, tgt, m in C._stray)
        assert report.messages == (
            () if d_squared else ("d^2(a) != 0",)) + strays + informational
