"""Free bigraded chain complexes over F2[U,V] and its quotients.

A complex is an ordered list of named generators with integer bigradings
(gr_U, gr_V) and a differential of bidegree (-1, -1).  The gradings fix
the one monomial d can carry on each (source, target) pair, so d is
stored as bitset rows: bit t of `rows[s]` is set when d(s) has that
monomial on t, as in `LinMap.rows`.  `kept_targets` decides which pairs
carry a monomial outside an ideal, by the complex's bigrading index;
quotients, the V-free and unit parts of d, d^2, map spaces and map
reductions all mask by it.  The rule itself, that a term U^i V^j y of
f(x) has gr(y) - (2i, 2j) = gr_v(x) + b for f of variance v and
bidegree b, is coded here once for complexes and maps alike, from
`_image_grading` to `_mask_rows`.  The constructor takes d as monomial
sets, {source: {target: monomials}}; terms that break the rule are kept
aside for `validate`, and asking such a complex for its rows raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from .errors import ResourceError, StructuralError
from .linalg import bits_of, transpose
from .ring import Ideal, Mono

if TYPE_CHECKING:
    from .homology import UHomology


@dataclass(frozen=True)
class Generator:
    """A named basis element with bigrading (gr_u, gr_v)."""

    name: str
    gr_u: int
    gr_v: int

    def __post_init__(self) -> None:
        if (self.gr_u - self.gr_v) % 2:
            raise StructuralError(
                f"generator {self.name}: gr_U - gr_V must be even, "
                f"got ({self.gr_u}, {self.gr_v})")

    @property
    def alexander(self) -> int:
        return (self.gr_u - self.gr_v) // 2


@dataclass(frozen=True)
class ValidationReport:
    """Pass/fail record for the structural checks on a complex.

    Grading-multiset symmetry is informational: it holds for complexes
    of knots but is not required of abstract complexes, so it never
    makes `ok` false.
    """

    d_squared: bool
    grading_law: bool
    reduced: bool
    grading_symmetric: bool
    messages: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.d_squared and self.grading_law


class Complex:
    """A free bigraded chain complex with an ordered generator basis."""

    __slots__ = ("name", "basis", "ring", "_rows", "_stray", "_index",
                 "_report", "_grading_index", "_u_homology")

    def __init__(self, basis: Iterable[Generator],
                 diff: Mapping[str, Mapping[str, Iterable[Mono]]],
                 ring: Ideal = Ideal.zero(), name: str = "C"):
        basis = tuple(basis)
        index = {g.name: k for k, g in enumerate(basis)}
        if len(index) != len(basis):
            raise StructuralError("duplicate generator names")
        rows = [0] * len(basis)
        stray: list[tuple[int, str, str, Mono]] = []
        for src, targets in diff.items():
            if src not in index:
                raise StructuralError(f"differential source {src!r} unknown")
            if not targets.keys() <= index.keys():
                tgt = next(tgt for tgt in targets if tgt not in index)
                raise StructuralError(f"differential of {src!r} references "
                                      f"unknown generator {tgt!r}")
            s = index[src]
            rows[s], off = _graded_row(
                targets, _image_grading(basis[s], "eq", (-1, -1)), ring,
                basis, index.__getitem__)
            stray += [(s, src, tgt, m) for tgt, m in off]
        stray.sort(key=lambda term: term[0])
        for slot, value in (("name", name), ("basis", basis), ("ring", ring),
                            ("_rows", tuple(rows)), ("_index", index),
                            ("_stray", tuple(term[1:] for term in stray)),
                            ("_report", None), ("_grading_index", None),
                            ("_u_homology", None)):
            object.__setattr__(self, slot, value)

    @classmethod
    def of_rows(cls, basis: Iterable[Generator], rows: Sequence[int],
                ring: Ideal = Ideal.zero(), name: str = "C") -> "Complex":
        """The complex with these rows; every set bit must be a pair whose
        grading-fixed monomial lies outside the ring's ideal."""
        C = cls(basis, {}, ring, name)
        object.__setattr__(C, "_rows", tuple(rows))
        return C

    def __setattr__(self, *args):  # pragma: no cover - immutability guard
        raise AttributeError("Complex is immutable")

    # -- basic access ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.basis)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise StructuralError(f"unknown generator {name!r}") from None

    def generator(self, name: str) -> Generator:
        return self.basis[self.index(name)]

    def names(self) -> tuple[str, ...]:
        return tuple(g.name for g in self.basis)

    def grading(self, name: str) -> tuple[int, int]:
        g = self.generator(name)
        return (g.gr_u, g.gr_v)

    @property
    def rows(self) -> tuple[int, ...]:
        """Bit t of rows[s]: d(s) has the grading-fixed monomial on t."""
        if self._stray:
            raise _bidegree_error(*self._stray[0], (-1, -1))
        return self._rows

    @property
    def grading_index(self) -> "GradingIndex":
        """The basis by bigrading, built on first use and kept."""
        if self._grading_index is None:
            index = GradingIndex(self.basis)
            object.__setattr__(self, "_grading_index", index)
        return self._grading_index

    @property
    def u_homology(self) -> "UHomology":
        """The homology of C/(V), built on first use and kept; a ring it
        does not support raises on every call."""
        if self._u_homology is None:
            from .homology import UHomology
            object.__setattr__(self, "_u_homology", UHomology(self))
        return self._u_homology

    def rows_mod(self, ideal: Ideal) -> list[int]:
        """`rows` without the terms whose monomial lies in `ideal`."""
        return list(_mask_rows(self, self, "eq", (-1, -1), ideal, self.rows))

    @property
    def is_reduced(self) -> bool:
        """Whether no term of d, stray terms included, has monomial 1."""
        unit = self.grading_index.cells.get  # the targets by monomial 1
        return (not any(row & unit(_image_grading(x, "eq", (-1, -1)), 0)
                        for x, row in zip(self.basis, self._rows))
                and all(m.i or m.j for _, _, m in self._stray))

    # -- checks ----------------------------------------------------------

    def validate(self) -> ValidationReport:
        """The structural checks.  They read the coefficients, stray
        terms included, because they check input from outside.  The
        report is computed once and kept.  Without stray terms, d^2(s) is
        the XOR of the rows of d(s)'s targets: the gradings fix the one
        monomial of all paths s -> t -> u, and the ring may drop it.  With
        them, d^2(s) is taken on sets of (target, monomial) terms: a path
        multiplies its monomials, and an F2 sum is a symmetric difference."""
        if self._report is not None:
            return self._report
        if self._stray:
            d = [{(self._index[t], Mono(i, j)) for t, i, j in _row_terms(
                self.basis, row, _image_grading(x, "eq", (-1, -1)))}
                 for x, row in zip(self.basis, self._rows)]
            for src, tgt, m in self._stray:
                d[self._index[src]].add((self._index[tgt], m))
            failed = []
            for x, terms in zip(self.basis, d):
                square: set[tuple[int, Mono]] = set()
                for t, m in terms:
                    square ^= {(u, m * n) for u, n in d[t]}
                if any(not self.ring.contains(p) for _, p in square):
                    failed.append(x)
        else:
            d2 = [reduce(int.__xor__, map(self._rows.__getitem__, bits_of(r)),
                         0) for r in self._rows]
            failed = [x for x, row in zip(self.basis, _mask_rows(
                self, self, "eq", (-2, -2), self.ring, d2)) if row]
        messages = [f"d^2({g.name}) != 0" for g in failed]
        messages += [f"grading law fails on {m.render()} {tgt} in d({src})"
                     for src, tgt, m in self._stray]
        symmetric = (sorted((g.gr_u, g.gr_v) for g in self.basis)
                     == sorted((g.gr_v, g.gr_u) for g in self.basis))
        if not symmetric:
            messages.append("bigrading multiset is not swap-symmetric "
                            "(informational)")
        object.__setattr__(self, "_report", ValidationReport(
            not failed, not self._stray, self.is_reduced, symmetric,
            tuple(messages)))
        return self._report

    # -- comparisons -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Complex):
            return NotImplemented
        return (self.basis == other.basis and self.ring == other.ring
                and self._rows == other._rows
                and set(self._stray) == set(other._stray))

    def __hash__(self) -> int:
        return hash((self.basis, self.ring))

    def equal_up_to_reorder(self, other: "Complex") -> bool:
        """Equality up to the order of the basis: with the gradings equal,
        each generator's target names fix its row."""
        if (self.ring != other.ring or set(self.basis) != set(other.basis)
                or set(self._stray) != set(other._stray)):
            return False
        return _named_rows(self) == _named_rows(other)

    def rename(self, mapping: Mapping[str, str],
               name: str | None = None) -> "Complex":
        basis = [Generator(mapping.get(g.name, g.name), g.gr_u, g.gr_v)
                 for g in self.basis]
        return Complex.of_rows(basis, self.rows, self.ring, name or self.name)


# -- grading-fixed monomials -----------------------------------------------

class GradingIndex:
    """A basis as bitsets by bigrading (`cells`), by line of constant gr_V
    (`u_axis`) or gr_U (`v_axis`), and its `kept_targets` masks (`kept`)."""

    def __init__(self, basis: Iterable[Generator]):
        self.cells: dict[tuple[int, int], int] = {}
        for t, y in enumerate(basis):
            key = (y.gr_u, y.gr_v)
            self.cells[key] = self.cells.get(key, 0) | 1 << t
        self.u_axis, self.v_axis, self.kept = {}, {}, {}
        for key, ys in self.cells.items():
            self.u_axis.setdefault(key[1], {})[key] = ys
            self.v_axis.setdefault(key[0], {})[key] = ys


def kept_targets(targets: GradingIndex,
                 ideal: Ideal) -> Callable[[tuple[int, int]], int]:
    """kept(e): the bitset of the generators y of `targets` that a term of
    grading e can reach, by the monomial U^i V^j with (i, j) = (gr(y) - e)
    / 2, when that monomial exists and lies outside `ideal`.

    Each e is decided once per index.  A nonzero ideal contains UV, so it
    keeps pure powers of U or V only, on the two axes through e.
    """
    every = ideal.kind == "zero"
    kept: dict[tuple[int, int], int] = targets.kept.setdefault(ideal, {})

    def lookup(e: tuple[int, int]) -> int:
        mask = kept.get(e)
        if mask is None:
            (eu, ev), mask = e, 0
            cells = (targets.cells if every else
                     targets.u_axis.get(ev, {}) | targets.v_axis.get(eu, {}))
            for (gu, gv), ys in cells.items():
                du, dv = gu - eu, gv - ev
                if (du >= 0 and dv >= 0 and not du % 2 and not dv % 2
                        and (every or not ideal.contains(
                            Mono(du // 2, dv // 2)))):
                    mask |= ys
            kept[e] = mask
        return mask
    return lookup


def _image_grading(x: Generator, variance: str,
                   bidegree: tuple[int, int]) -> tuple[int, int]:
    """gr_v(x) + b, the grading gr(y) - (2i, 2j) of every term U^i V^j y
    of f(x); gr_eq(x) is gr(x), gr_skew(x) exchanges its two gradings."""
    gu, gv = (x.gr_v, x.gr_u) if variance == "skew" else (x.gr_u, x.gr_v)
    return (gu + bidegree[0], gv + bidegree[1])


def _graded_row(terms: Mapping[str, Iterable[Mono]], e: tuple[int, int],
                ideal: Ideal, basis: Sequence[Generator],
                locate: Callable[[str], int]) -> tuple[int, list]:
    """The row of the terms {target: monomials} of a generator of image
    grading e, and its terms off the rule as (target, monomial), in input
    target order, then monomial order.  Terms in `ideal` are dropped;
    `locate` gives a target's index in `basis`, or raises."""
    eu, ev = e
    row, off = 0, []
    for tgt, monos in terms.items():
        t = locate(tgt)
        du, dv = basis[t].gr_u - eu, basis[t].gr_v - ev
        for m in sorted(monos):
            if not ideal.contains(m):
                if 2 * m.i == du and 2 * m.j == dv:
                    row |= 1 << t
                else:
                    off.append((tgt, m))
    return row, off


def _row_terms(basis: Sequence[Generator], row: int,
               e: tuple[int, int]) -> list[tuple[str, int, int]]:
    """(target, i, j) of each term U^i V^j y of a row of image grading e,
    in basis order."""
    eu, ev = e
    return [(y.name, (y.gr_u - eu) // 2, (y.gr_v - ev) // 2)
            for y in map(basis.__getitem__, bits_of(row))]


def _named_rows(C: Complex) -> dict[str, frozenset[str]]:
    """The target names of each generator's row, by generator name."""
    return {x.name: frozenset(C.basis[t].name for t in bits_of(row))
            for x, row in zip(C.basis, C._rows)}


def _mask_rows(source: Complex, target: Complex, variance: str,
               bidegree: tuple[int, int], ideal: Ideal,
               rows: Sequence[int]) -> Sequence[int]:
    """Rows of a map with the terms in `ideal` removed: the kept targets
    of x depend only on x's bigrading, so each bigrading of a nonzero row
    takes one mask (zero rows, most rows of a sparse map, take none)."""
    if ideal.kind == "zero":
        return rows
    kept = kept_targets(target.grading_index, ideal)
    masks: dict[tuple[int, int], int] = {}
    out = []
    for x, row in zip(source.basis, rows):
        if row:
            gr = (x.gr_u, x.gr_v)
            mask = masks.get(gr)
            if mask is None:
                mask = masks[gr] = kept(_image_grading(x, variance, bidegree))
            row &= mask
        out.append(row)
    return out


def _bidegree_error(src: str, tgt: str, m: Mono,
                    bidegree: tuple[int, int]) -> StructuralError:
    """The error for the term m tgt of f(src) off the grading rule."""
    return StructuralError(f"map entry {m.render()} {tgt} on {src} breaks "
                           f"declared bidegree {bidegree}")


# -- duals and quotients ---------------------------------------------------

def dualize(C: Complex) -> Complex:
    """Dual over the ground ring: negated bigradings, transposed d (the
    negated gradings fix the monomial of (x, y) on (y*, x*))."""
    basis = [Generator(g.name + "*", -g.gr_u, -g.gr_v) for g in C.basis]
    columns = transpose(C.rows)
    return Complex.of_rows(basis, [columns.get(t, 0) for t in range(len(C))],
                           C.ring, C.name + "*")


def quotient(C: Complex, ideal: Ideal) -> Complex:
    """Quotient complex: the terms of d whose monomial lies in the ideal
    are dropped.  The ideal must contain the complex's current ring ideal.
    """
    if not C.ring <= ideal:
        raise StructuralError(
            f"cannot quotient a complex over {C.ring.kind} by {ideal.kind}")
    return Complex.of_rows(C.basis, C.rows_mod(ideal), ideal, C.name)


# -- brute-force isomorphism over graded bijections -----------------------

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
