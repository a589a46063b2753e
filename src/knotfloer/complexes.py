"""Free bigraded chain complexes over F2[U,V] and its quotients.

A complex is an ordered list of named generators with integer bigradings
(gr_U, gr_V) and a differential given generator by generator.  Complexes
are immutable once built and validate structural references eagerly;
the mathematical checks (d^2 = 0, the grading law, reducedness and
grading-multiset symmetry) live in `validate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import ResourceError, StructuralError
from .ring import Ideal, Mono, RingElt

# An element of a complex: generator name -> F2[U,V] coefficient.
Element = dict[str, RingElt]


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

    __slots__ = ("name", "basis", "ring", "_diff", "_index")

    def __init__(self, basis: Iterable[Generator],
                 diff: Mapping[str, Mapping[str, RingElt]],
                 ring: Ideal = Ideal.zero(), name: str = "C"):
        basis = tuple(basis)
        index = {g.name: k for k, g in enumerate(basis)}
        if len(index) != len(basis):
            raise StructuralError("duplicate generator names")
        clean: dict[str, dict[str, RingElt]] = {}
        for src, targets in diff.items():
            if src not in index:
                raise StructuralError(f"differential source {src!r} unknown")
            row: dict[str, RingElt] = {}
            for tgt, coeff in targets.items():
                if tgt not in index:
                    raise StructuralError(
                        f"differential of {src!r} references unknown "
                        f"generator {tgt!r}")
                red = coeff.reduce(ring)
                if not red.is_zero():
                    row[tgt] = red
            if row:
                clean[src] = row
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_diff", MappingProxyType(clean))
        object.__setattr__(self, "_index", MappingProxyType(index))

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

    def d_of(self, name: str) -> dict[str, RingElt]:
        self.index(name)
        return dict(self._diff.get(name, {}))

    def diff_items(self):
        for g in self.basis:
            row = self._diff.get(g.name)
            if row:
                yield g.name, row

    def apply_d(self, elt: Element) -> Element:
        out: Element = {}
        for src, coeff in elt.items():
            for tgt, dc in self._diff.get(src, {}).items():
                add_term(out, tgt, (coeff * dc).reduce(self.ring))
        return out

    def grading(self, name: str) -> tuple[int, int]:
        g = self.generator(name)
        return (g.gr_u, g.gr_v)

    @property
    def is_reduced(self) -> bool:
        unit = Mono(0, 0)
        for _, row in self.diff_items():
            for coeff in row.values():
                if unit in coeff.terms:
                    return False
        return True

    # -- checks ----------------------------------------------------------

    def validate(self) -> ValidationReport:
        messages: list[str] = []
        ok_d2 = True
        for g in self.basis:
            dd = self.apply_d(self.apply_d({g.name: RingElt.one()}))
            dd = {k: v for k, v in dd.items() if not v.is_zero()}
            if dd:
                ok_d2 = False
                messages.append(f"d^2({g.name}) != 0")
        ok_grading = True
        for src, row in self.diff_items():
            gu, gv = self.grading(src)
            for tgt, coeff in row.items():
                tu, tv = self.grading(tgt)
                for m in coeff:
                    if tu - 2 * m.i != gu - 1 or tv - 2 * m.j != gv - 1:
                        ok_grading = False
                        messages.append(
                            f"grading law fails on {m.render()} {tgt} "
                            f"in d({src})")
        reduced = self.is_reduced
        fwd = sorted((g.gr_u, g.gr_v) for g in self.basis)
        bwd = sorted((g.gr_v, g.gr_u) for g in self.basis)
        symmetric = fwd == bwd
        if not symmetric:
            messages.append("bigrading multiset is not swap-symmetric "
                            "(informational)")
        return ValidationReport(ok_d2, ok_grading, reduced, symmetric,
                                tuple(messages))

    # -- comparisons -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Complex):
            return NotImplemented
        return (self.basis == other.basis and self.ring == other.ring
                and dict(self._diff) == dict(other._diff))

    def __hash__(self) -> int:
        return hash((self.basis, self.ring))

    def equal_up_to_reorder(self, other: "Complex") -> bool:
        if self.ring != other.ring or set(self.basis) != set(other.basis):
            return False
        for g in self.basis:
            if self.d_of(g.name) != other.d_of(g.name):
                return False
        return True

    def rename(self, mapping: Mapping[str, str], name: str | None = None) -> "Complex":
        def nm(n: str) -> str:
            return mapping.get(n, n)
        basis = [Generator(nm(g.name), g.gr_u, g.gr_v) for g in self.basis]
        diff = {nm(src): {nm(t): c for t, c in row.items()}
                for src, row in self.diff_items()}
        return Complex(basis, diff, self.ring, name or self.name)


# -- element helpers -----------------------------------------------------

def add_term(elt: Element, name: str, coeff: RingElt) -> None:
    cur = elt.get(name)
    new = coeff if cur is None else cur + coeff
    if new.is_zero():
        elt.pop(name, None)
    else:
        elt[name] = new


# -- duals and quotients ---------------------------------------------------

def dualize(C: Complex) -> Complex:
    """Dual over the ground ring: negated bigradings, transposed d."""
    basis = [Generator(g.name + "*", -g.gr_u, -g.gr_v) for g in C.basis]
    diff: dict[str, dict[str, RingElt]] = {}
    for src, row in C.diff_items():
        for tgt, coeff in row.items():
            diff.setdefault(tgt + "*", {})[src + "*"] = coeff
    return Complex(basis, diff, C.ring, C.name + "*")


def _ideal_leq(small: Ideal, big: Ideal) -> bool:
    """Whether the monomial ideal `small` is contained in `big`."""
    if small.kind == "zero" or small == big or big.kind == "max":
        return True
    if small.kind == "uv":
        return big.kind in ("uv", "box", "principal_u", "principal_v")
    if small.kind == "box" and big.kind == "box":
        return big.a <= small.a and big.b <= small.b
    return False


def quotient(C: Complex, ideal: Ideal) -> Complex:
    """Quotient complex: differential coefficients reduced mod the ideal.

    The ideal must contain the complex's current ring ideal.
    """
    if not _ideal_leq(C.ring, ideal):
        raise StructuralError(
            f"cannot quotient a complex over {C.ring.kind} by {ideal.kind}")
    diff = {src: dict(row) for src, row in C.diff_items()}
    return Complex(C.basis, diff, ideal, C.name)


# -- brute-force isomorphism over graded bijections -----------------------

def find_isomorphism(C1: Complex, C2: Complex,
                     node_budget: int = 1_000_000) -> dict[str, str] | None:
    """Search for a grading-preserving bijection carrying d to d.

    This checks literal equality of complexes up to renaming, nothing
    homotopical.  Returns a name mapping or None.
    """
    if len(C1) != len(C2) or C1.ring != C2.ring:
        return None
    buckets1: dict[tuple[int, int], list[str]] = {}
    buckets2: dict[tuple[int, int], list[str]] = {}
    for g in C1.basis:
        buckets1.setdefault((g.gr_u, g.gr_v), []).append(g.name)
    for g in C2.basis:
        buckets2.setdefault((g.gr_u, g.gr_v), []).append(g.name)
    if {k: len(v) for k, v in buckets1.items()} != \
            {k: len(v) for k, v in buckets2.items()}:
        return None

    order = [n for key in sorted(buckets1) for n in buckets1[key]]
    nodes = 0

    def compatible(partial: dict[str, str]) -> bool:
        for src, tgt in partial.items():
            row1 = C1.d_of(src)
            if not all(t in partial for t in row1):
                continue
            row2 = C2.d_of(tgt)
            if {partial[t]: c for t, c in row1.items()} != row2:
                return False
        return True

    def backtrack(k: int, partial: dict[str, str], used: set[str]):
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise ResourceError("isomorphism search exceeded node budget",
                                nodes)
        if k == len(order):
            return dict(partial)
        src = order[k]
        gu, gv = C1.grading(src)
        for tgt in buckets2[(gu, gv)]:
            if tgt in used:
                continue
            partial[src] = tgt
            used.add(tgt)
            if compatible(partial):
                found = backtrack(k + 1, partial, used)
                if found is not None:
                    return found
            used.discard(tgt)
            del partial[src]
        return None

    return backtrack(0, {}, set())
