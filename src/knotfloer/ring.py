"""Monomials of F2[U,V] and the monomial ideals of its quotients.

A monomial U^i V^j lies in a quotient's ideal or outside it; every ideal
used here is a monomial ideal, so deleting the monomials in it gives the
canonical coset representative.  Complexes and maps carry no ring
elements: the gradings fix the one monomial on each pair of generators.

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

    def __mul__(self, other: "Mono") -> "Mono":
        return Mono(self.i + other.i, self.j + other.j)

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
    """A finite set of monomials, the value of the `LinMap.of_gen` and
    `LinMap.action` views; it does no arithmetic."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[Mono] = ()):
        object.__setattr__(self, "terms", frozenset(terms))

    def __setattr__(self, *args):  # pragma: no cover - immutability guard
        raise AttributeError("RingElt is immutable")

    @classmethod
    def mono(cls, i: int, j: int) -> "RingElt":
        return cls((Mono(i, j),))

    def __iter__(self) -> Iterator[Mono]:
        # canonical lexicographic (i, then j) order for serialization
        return iter(sorted(self.terms))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RingElt) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def render(self) -> str:
        return " + ".join(m.render() for m in self) or "0"

    def __repr__(self) -> str:
        return f"RingElt({self.render()})"


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
