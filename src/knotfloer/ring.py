"""Exact arithmetic in F2[U,V] and its quotients.

Elements are finite sets of monomials U^i V^j with coefficient 1 in F2;
addition is symmetric difference.  Quotients are taken by deleting every
monomial that lies in the ideal, which gives the canonical coset
representative because all ideals used here are monomial ideals.

All values are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


@dataclass(frozen=True, order=True)
class Mono:
    """A monomial U^i V^j.  Contributes (-2i, -2j) to the bigrading."""

    i: int
    j: int

    def __post_init__(self) -> None:
        if self.i < 0 or self.j < 0:
            raise ValueError(f"negative exponent in monomial ({self.i}, {self.j})")

    def grading(self) -> tuple[int, int]:
        return (-2 * self.i, -2 * self.j)

    def __mul__(self, other: "Mono") -> "Mono":
        return Mono(self.i + other.i, self.j + other.j)

    def swap(self) -> "Mono":
        """Exchange the roles of U and V (used by skew-equivariant maps)."""
        return Mono(self.j, self.i)

    def render(self) -> str:
        return render_mono(self.i, self.j)


def render_mono(i: int, j: int) -> str:
    """U^i V^j with `^1` omitted and absent factors dropped; 1 for U^0 V^0."""
    if i == 0 and j == 0:
        return "1"
    parts = []
    if i == 1:
        parts.append("U")
    elif i > 1:
        parts.append(f"U^{i}")
    if j == 1:
        parts.append("V")
    elif j > 1:
        parts.append(f"V^{j}")
    return " ".join(parts)


_VALID_KINDS = ("zero", "uv", "box", "max", "principal_u", "principal_v")


@dataclass(frozen=True)
class Ideal:
    """A monomial ideal of F2[U,V] used for quotient arithmetic.

    kind:
      zero        -- the zero ideal (full ring, nothing deleted)
      uv          -- (UV)
      box         -- (U^a, V^b, UV)
      max         -- (U, V)
      principal_u -- (U); quotient-complex use only
      principal_v -- (V); quotient-complex use only
    """

    kind: str
    a: int = 0
    b: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _VALID_KINDS:
            raise ValueError(f"unknown ideal kind {self.kind!r}")
        if self.kind == "box" and (self.a < 1 or self.b < 1):
            raise ValueError("box ideal needs exponents >= 1")

    @staticmethod
    def zero() -> "Ideal":
        return Ideal("zero")

    @staticmethod
    def uv() -> "Ideal":
        return Ideal("uv")

    @staticmethod
    def box(a: int, b: int) -> "Ideal":
        return Ideal("box", a, b)

    @staticmethod
    def max_ideal() -> "Ideal":
        return Ideal("max")

    @staticmethod
    def principal_u() -> "Ideal":
        return Ideal("principal_u")

    @staticmethod
    def principal_v() -> "Ideal":
        return Ideal("principal_v")

    def contains(self, m: Mono) -> bool:
        if self.kind == "zero":
            return False
        if self.kind == "uv":
            return m.i >= 1 and m.j >= 1
        if self.kind == "box":
            return m.i >= self.a or m.j >= self.b or (m.i >= 1 and m.j >= 1)
        if self.kind == "max":
            return m.i + m.j >= 1
        if self.kind == "principal_u":
            return m.i >= 1
        return m.j >= 1


class RingElt:
    """A finite F2-combination of monomials, stored as a frozenset."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[Mono] = ()):
        object.__setattr__(self, "terms", frozenset(terms))

    def __setattr__(self, *args):  # pragma: no cover - immutability guard
        raise AttributeError("RingElt is immutable")

    @staticmethod
    def zero() -> "RingElt":
        return RingElt()

    @staticmethod
    def one() -> "RingElt":
        return RingElt((Mono(0, 0),))

    @staticmethod
    def mono(i: int, j: int) -> "RingElt":
        return RingElt((Mono(i, j),))

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == frozenset((Mono(0, 0),))

    def __iter__(self) -> Iterator[Mono]:
        # canonical lexicographic (i, then j) order for serialization
        return iter(sorted(self.terms))

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RingElt) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def __add__(self, other: "RingElt") -> "RingElt":
        return RingElt(self.terms ^ other.terms)

    def __mul__(self, other: "RingElt") -> "RingElt":
        acc: set[Mono] = set()
        for m1 in self.terms:
            for m2 in other.terms:
                acc ^= {m1 * m2}
        return RingElt(acc)

    def scale(self, m: Mono) -> "RingElt":
        return RingElt(m * t for t in self.terms)

    def swap(self) -> "RingElt":
        return RingElt(t.swap() for t in self.terms)

    def reduce(self, ideal: Ideal) -> "RingElt":
        if ideal.kind == "zero":
            return self
        return RingElt(t for t in self.terms if not ideal.contains(t))

    def render(self) -> str:
        if self.is_zero():
            return "0"
        return " + ".join(m.render() for m in self)

    def __repr__(self) -> str:
        return f"RingElt({self.render()})"


def reduce(e: RingElt, ideal: Ideal) -> RingElt:
    """Delete every monomial of e that lies in the ideal."""
    return e.reduce(ideal)


def mul(e1: RingElt, e2: RingElt, ideal: Ideal) -> RingElt:
    """F2 polynomial product followed by reduction mod the ideal."""
    return (e1 * e2).reduce(ideal)


def parse_mono(tokens: list[str]) -> Mono:
    """Parse monomial tokens such as ["U^2", "V"] into a Mono."""
    i = j = 0
    for tok in tokens:
        if tok == "1":
            continue
        var, _, exp = tok.partition("^")
        try:
            k = int(exp) if exp else 1
        except ValueError as err:
            raise ValueError(f"bad exponent in monomial token {tok!r}") from err
        if var == "U":
            i += k
        elif var == "V":
            j += k
        else:
            raise ValueError(f"bad monomial token {tok!r}")
    return Mono(i, j)
