"""F2 linear algebra on int bitsets.

Vectors and equations are Python ints, bit k standing for coordinate or
unknown k, so every row operation is one XOR.  `Echelon` is the one
echelon kernel: a semi-echelon basis keyed by pivot, so inserting a row
clears nothing and reducing a vector costs one XOR per pivot it meets,
not a pass over every row.  GF2System extends it to affine systems
A x = b over F2, fed equation rows one at a time or all at once;
`rref_basis` and `complement_basis` reduce spans, and AffineSpace reads
the solution set off a solved system: its parameters t are the unknowns
themselves, read at the free ones, and each unknown is its fully
reduced row in them.  Graded modules over F2[U] reduce to this too:
homogeneity fixes every monomial, so `homology` eliminates over the
same bitsets.
"""

from __future__ import annotations

from collections.abc import Mapping


def bits_of(x: int):
    """Iterate over set bit positions of x, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


class Echelon:
    """A semi-echelon basis of a span: rows keyed by their leading bit,
    the pivot, with `mask` holding the pivots.  A vector is reduced by
    the row of its highest pivot bit until none is left, which gives the
    one vector of its coset with no pivot bit.  `rows` is the fully
    reduced basis by pivot, back-substituted when read after an insert;
    its length, the rank, is read without it."""

    def __init__(self, vectors=()):
        self._semi: dict[int, int] = {}
        self._reduced: dict[int, int] | None = {}
        self.mask = 0
        for v in vectors:
            self.add(v)

    @property
    def rank(self) -> int:
        return len(self._semi)

    @property
    def rows(self) -> Mapping[int, int]:
        return _ReducedRows(self)

    def copy(self):
        other = object.__new__(type(self))
        other.__dict__.update(self.__dict__, _semi=dict(self._semi))
        return other

    def reduce(self, v: int) -> int:
        """v minus its part in the span: no pivot bit left."""
        rows, mask = self._semi, self.mask
        hit = v & mask
        while hit:
            v ^= rows[hit.bit_length() - 1]
            hit = v & mask
        return v

    def insert(self, v: int, piv: int) -> None:
        """Add v, already reduced, with pivot bit piv, its leading bit."""
        self._semi[piv] = v
        self.mask |= 1 << piv
        self._reduced = None

    def add(self, v: int) -> int:
        """Reduce v and insert the rest; returns it (0 if v was in the span)."""
        v = self.reduce(v)
        if v:
            self.insert(v, v.bit_length() - 1)
        return v

    def _back_substituted(self) -> dict[int, int]:
        if self._reduced is None:
            self._reduced = red = {}
            for piv, row in sorted(self._semi.items()):  # lower rows first
                for q in bits_of(row & self.mask ^ 1 << piv):
                    row ^= red[q]
                red[piv] = row
        return self._reduced


class _ReducedRows(Mapping):
    """`Echelon.rows`: the fully reduced basis, built on first read."""

    def __init__(self, echelon: Echelon):
        self._echelon = echelon

    def __len__(self) -> int:
        return self._echelon.rank

    def __getitem__(self, piv: int) -> int:
        return self._echelon._back_substituted()[piv]

    def __iter__(self):
        return iter(self._echelon._back_substituted())


class GF2System(Echelon):
    """An echelon of augmented equations over F2, built one at a time.

    Equations are rows over `width` unknowns with a 0/1 right-hand side,
    encoded as ints with the rhs in bit position `width`; the pivot of a
    row is its leading unknown, never the rhs bit.
    """

    def __init__(self, width: int):
        super().__init__()
        self.width = width
        self.feasible = True

    def add_equation(self, row: int, rhs: int) -> bool:
        """Add `row . x = rhs`; returns current feasibility."""
        aug = self.reduce(row | (rhs << self.width))
        if aug == 1 << self.width:
            self.feasible = False
            return False
        if aug:
            self.insert(aug, (aug & ((1 << self.width) - 1)).bit_length() - 1)
        return self.feasible

    def add_equations(self, equations: list[int]) -> bool:
        """Add every equation, each a row with its rhs at bit `width`, or,
        if they are inconsistent with a feasible system, none of them and
        leave it feasible; returns whether they were added."""
        added, mask = [], self.mask
        for aug in equations:
            aug = self.reduce(aug)
            if aug == 1 << self.width:
                for piv in added:
                    del self._semi[piv]
                self.mask = mask
                return False
            if aug:
                added.append((aug & ((1 << self.width) - 1)).bit_length() - 1)
                self.insert(aug, added[-1])
        return True

    def add_rows(self, rows: Mapping[int, int], rhs: int = 0) -> bool:
        """Add `row . x = bit t of rhs` for each row t of `rows`, and
        `0 = 1` for each other bit t of rhs, as `add_equations` does;
        `transpose` gives the rows of a matrix held by columns."""
        rhs_bit = 1 << self.width
        return self.add_equations([rows.get(t, 0) | rhs_bit * (rhs >> t & 1)
                                   for t in rows.keys() | set(bits_of(rhs))])

    def particular_solution(self) -> int:
        """One solution with all free unknowns set to zero."""
        if not self.feasible:
            raise ValueError("inconsistent system has no solution")
        x = 0
        for piv, row in sorted(self._semi.items()):  # lower pivots first
            if (row >> self.width ^ (row & x).bit_count()) & 1:
                x |= 1 << piv
        return x

    def nullspace_basis(self) -> list[int]:
        """Basis of homogeneous solutions, one per free unknown, ascending."""
        free = ((1 << self.width) - 1) & ~self.mask
        vecs = {k: 1 << k for k in bits_of(free)}
        for piv, row in self._back_substituted().items():
            for k in bits_of(row & free):
                vecs[k] |= 1 << piv
        return list(vecs.values())

    def solution_space(self) -> tuple[int, list[int]]:
        return self.particular_solution(), self.nullspace_basis()


def transpose(columns: list[int]) -> dict[int, int]:
    """Nonzero rows of the matrix whose k-th column is columns[k],
    keyed by row index (bit k of a row = entry in column k)."""
    rows: dict[int, int] = {}
    for k, col in enumerate(columns):
        bit = 1 << k
        for t in bits_of(col):
            rows[t] = rows.get(t, 0) | bit
    return rows


def rref_basis(vectors: list[int]) -> Echelon:
    """The reduced basis of the span of `vectors`."""
    return Echelon(vectors)


def complement_basis(sub: Echelon, space: list[int]) -> list[int]:
    """Vectors of `space` extending span(sub) to span(space), reduced."""
    span = sub.copy()
    return [red for red in map(span.add, space) if red]


class AffineSpace:
    """The solutions of a feasible GF2System in parameters t: the unknowns
    themselves, read only at the free ones.  Unknown k in t is
    `equations[k]`, a t-row with its constant at bit `width`: 1 << k for
    a free unknown, the fully reduced row of a pivot masked to the free
    bits and the rhs bit.  So row . x = 0 is the XOR of the equations[k]
    over the k in row, a row over the same `width`."""

    def __init__(self, system: GF2System):
        self.width = width = system.width
        keep = ((1 << width) - 1) & ~system.mask | 1 << width
        rows = system._back_substituted()
        self.equations = [rows[k] & keep if k in rows else 1 << k
                          for k in range(width)]

    def point(self, t: int) -> int:
        """The solution at t, whose bits at pivot unknowns are ignored."""
        x, width = 0, self.width
        for k, eq in enumerate(self.equations):
            x |= (((eq & t).bit_count() ^ eq >> width) & 1) << k
        return x
