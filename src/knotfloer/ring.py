"""Monomials of F2[U,V] and the monomial ideals of its quotients.

A monomial U^i V^j lies in a quotient's ideal or outside it.  Every ideal
used here is zero or (U^a, V^b, UV), given by its two exponent bounds; it
is a monomial ideal, so deleting the monomials in it gives the canonical
coset representative.  Complexes and maps carry no ring elements: the
gradings fix the one monomial on each pair of generators.

All values are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

from functools import lru_cache, total_ordering
from math import inf
from operator import attrgetter
from typing import Iterable, Iterator


class Record:
    """Base of the immutable value records of the package.

    A record's fields are its `__slots__`, base-class slots first; each
    class sets them in its own `__init__` with `object.__setattr__`.
    `==`, hash and repr read the fields in order, and only between
    records of one class.  Slots named with a leading `_` are memos,
    outside all three.  Assignment and deletion raise.  Making a record
    class compiles no code.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        fields = tuple(f for c in reversed(cls.__mro__)
                       for f in c.__dict__.get("__slots__", ())
                       if not f.startswith("_"))
        get = attrgetter(*fields)
        cls._fields = fields
        cls._key = staticmethod(get if len(fields) > 1
                                else lambda rec: (get(rec),))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = map("{}={!r}".format, self._fields, self._key(self))
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):  # copy and pickle through __init__, not setattr
        return type(self), self._key(self)


@total_ordering
class Mono(Record):
    """A monomial U^i V^j.  Contributes (-2i, -2j) to the bigrading.
    Monomials are ordered by (i, j)."""

    __slots__ = ("i", "j")

    def __init__(self, i: int, j: int):
        if i < 0 or j < 0:
            raise ValueError(f"negative exponent in monomial ({i}, {j})")
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)

    def __lt__(self, other: "Mono") -> bool:
        return ((self.i, self.j) < (other.i, other.j)
                if other.__class__ is Mono else NotImplemented)

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


@lru_cache(maxsize=4096)  # bounded: the shifts come from input gradings
def mono_words(du: int, dv: int) -> tuple[str, ...] | None:
    """The tokens of U^(du/2) V^(dv/2) as written before a generator name
    (none for 1), or None when no monomial has the grading shift (du, dv)."""
    if du < 0 or dv < 0 or du % 2 or dv % 2:
        return None
    return tuple(render_mono(du // 2, dv // 2).split()) if du or dv else ()


class Ideal(Record):
    """The zero ideal (bounds None), or the monomial ideal (U^a, V^b, UV)
    of F2[U,V] with bounds 1 <= a, b <= inf.

    (UV) has bounds (inf, inf), (U,V) has (1, 1), (U) has (1, inf) and
    (V) has (inf, 1).  `kind` names an ideal in messages and .cfk tags.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: float | None = None, b: float | None = None):
        if a is not None and min(a, b) < 1:
            raise ValueError("box ideal needs exponents >= 1")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @staticmethod
    def zero() -> "Ideal":
        return Ideal()

    @staticmethod
    def uv() -> "Ideal":
        return Ideal(inf, inf)

    @staticmethod
    def box(a: int, b: int) -> "Ideal":
        return Ideal(a, b)

    @staticmethod
    def max_ideal() -> "Ideal":
        return Ideal(1, 1)

    @staticmethod
    def principal_u() -> "Ideal":
        return Ideal(1, inf)

    @staticmethod
    def principal_v() -> "Ideal":
        return Ideal(inf, 1)

    @property
    def kind(self) -> str:
        return _KINDS.get((self.a, self.b), "box")

    def contains(self, m: Mono) -> bool:
        return self.a is not None and (m.i >= self.a or m.j >= self.b
                                       or (m.i > 0 and m.j > 0))

    def __le__(self, other: "Ideal") -> bool:
        """Containment: the zero ideal lies in every ideal, a nonzero one
        in each nonzero ideal whose bounds are no larger than its own."""
        return self.a is None or (other.a is not None and other.a <= self.a
                                  and other.b <= self.b)


_KINDS = {(None, None): "zero", (inf, inf): "uv", (1, 1): "max",
          (1, inf): "principal_u", (inf, 1): "principal_v"}


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
