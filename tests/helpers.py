"""Helpers that only the tests use: renaming and comparing complexes up to
the order or names of their bases, the Alexander grading, zero maps, the
involution values forced on the cables, and the constancy of a unit
coefficient over a self-local family."""

from __future__ import annotations

from typing import Mapping

from knotfloer.complexes import Complex, Generator
from knotfloer.errors import ResourceError
from knotfloer.linalg import bits_of
from knotfloer.localequiv import SelfLocalFamily
from knotfloer.morphism import Bidegree, LinMap
from knotfloer.ring import Ideal


def alexander(g: Generator) -> int:
    return (g.gr_u - g.gr_v) // 2


def rename(C: Complex, mapping: Mapping[str, str],
           name: str | None = None) -> Complex:
    basis = [Generator(mapping.get(g.name, g.name), g.gr_u, g.gr_v)
             for g in C.basis]
    return Complex(basis, C.rows, C.ring, name or C.name)


def _named_rows(C: Complex) -> dict[str, frozenset[str]]:
    """The target names of each generator's row, by generator name."""
    return {x.name: frozenset(C.basis[t].name for t in bits_of(row))
            for x, row in zip(C.basis, C._rows)}


def equal_up_to_reorder(C1: Complex, C2: Complex) -> bool:
    """Equality up to the order of the basis: with the gradings equal,
    each generator's target names fix its row."""
    if (C1.ring != C2.ring or set(C1.basis) != set(C2.basis)
            or set(C1._stray) != set(C2._stray)):
        return False
    return _named_rows(C1) == _named_rows(C2)


def zero_map(source: Complex, target: Complex, variance: str = "eq",
             bidegree: Bidegree = (0, 0), ideal: Ideal | None = None) -> LinMap:
    return LinMap(source, target, variance, bidegree, ideal or source.ring,
                  [0] * len(source))


def forced_iota_constraints(n: int) -> list[tuple[str, tuple[str, ...]]]:
    """Values of any involution on build_cable(n), mod (U,V).

    The four constraints are forced by skew-grading together with the
    squared-involution condition; tests cross-check them against the
    exhaustive enumeration.
    """
    if n < 2:
        raise ValueError(f"cable parameter must be >= 2, got {n}")
    return [
        ("a", ("a",)),
        ("b", ("a", "b")),
        ("f", ("g",)),
        ("g", ("f",)),
    ]


def unit_coefficient_constant(fam: SelfLocalFamily, src: str,
                              tgt: str) -> tuple[bool, int]:
    """(whether <f(src), tgt> is constant over the family, its value at
    the particular solution).  The unit-monomial coordinate k is
    `family.equations[k]` in t; `inner` reduces it to a row with no pivot
    bit, so it is constant when that row is its rhs alone, and the rhs is
    its value where the free unknowns of `inner` are 0."""
    if fam.C.grading(src) != fam.C.grading(tgt):
        return True, 0  # no unit-monomial pair
    s = fam.C.index(src)
    eq = fam.inner.reduce(fam.family.equations[
        fam.fspace.starts[s] + fam.fspace.ranks[s][fam.C.index(tgt)]])
    return not eq & ((1 << fam.inner.width) - 1), eq >> fam.inner.width


def find_isomorphism(C1: Complex, C2: Complex,
                     node_budget: int = 1_000_000) -> dict[str, str] | None:
    """Search for a grading-preserving bijection carrying d to d.

    This checks literal equality of complexes up to renaming, nothing
    homotopical.  Returns a name mapping or None.
    """
    if len(C1) != len(C2) or C1.ring != C2.ring:
        return None
    rows1, rows2 = C1.rows, C2.rows
    cells1, cells2 = C1.grading_index.cells, C2.grading_index.cells
    if ({k: v.bit_count() for k, v in cells1.items()}
            != {k: v.bit_count() for k, v in cells2.items()}):
        return None
    order = [s for key in sorted(cells1) for s in bits_of(cells1[key])]
    image: dict[int, int] = {}  # generator of C1 -> generator of C2
    used: set[int] = set()
    nodes = 0

    def compatible() -> bool:
        """Whether every row of C1 whose targets are all mapped goes to the
        row of C2 of its image."""
        for s, t in image.items():
            targets = list(bits_of(rows1[s]))
            if (all(x in image for x in targets)
                    and sum(1 << image[x] for x in targets) != rows2[t]):
                return False
        return True

    def backtrack(k: int):
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise ResourceError("isomorphism search exceeded node budget",
                                nodes)
        if k == len(order):
            return {C1.basis[s].name: C2.basis[t].name
                    for s, t in image.items()}
        g = C1.basis[order[k]]
        for t in bits_of(cells2[(g.gr_u, g.gr_v)]):
            if t in used:
                continue
            image[order[k]] = t
            used.add(t)
            if compatible() and (found := backtrack(k + 1)) is not None:
                return found
            used.discard(t)
            del image[order[k]]
        return None

    return backtrack(0)
