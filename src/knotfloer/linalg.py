"""F2 linear algebra on int bitsets.

Vectors and equations are Python ints, bit k standing for coordinate or
unknown k, so every row operation is one XOR.  `Echelon` is the one
echelon kernel: a semi-echelon basis keyed by pivot, so inserting a row
clears nothing and reducing a vector costs one XOR per pivot it meets,
not a pass over every row.  GF2System extends it to affine systems
A x = b over F2, solved one equation at a time; `rref_basis` and
`complement_basis` reduce spans, and AffineSpace parameterizes a
solution set and rewrites further constraints in its parameters.
Graded modules over F2[U] reduce to this too: homogeneity fixes every
monomial, so `homology` eliminates over the same bitsets.
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

    def copy(self) -> "GF2System":
        """Echelon.copy, here so that the benchmark tracer times it."""
        return super().copy()

    def add_equation(self, row: int, rhs: int) -> bool:
        """Add `row . x = rhs`; returns current feasibility."""
        aug = self.reduce(row | (rhs << self.width))
        if aug == 1 << self.width:
            self.feasible = False
            return False
        if aug:
            self.insert(aug, (aug & ((1 << self.width) - 1)).bit_length() - 1)
        return self.feasible

    def add_columns(self, columns: list[int], rhs: int = 0) -> bool:
        """Add `M x = rhs` for the matrix M whose k-th column is columns[k].

        Stops at the first inconsistent equation; returns feasibility.
        """
        rows = transpose(columns)
        for t in bits_of(rhs):
            rows.setdefault(t, 0)
        for t, row in rows.items():
            if not self.add_equation(row, (rhs >> t) & 1):
                return False
        return self.feasible

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
    """The points x = particular + sum of t_i null[i] over F2.

    Translates a constraint on x into one on the parameters t through one
    transposed table of the null basis, and maps parameters back to x.
    """

    def __init__(self, particular: int, null: list[int]):
        self.particular = particular
        self.null = null
        self._by_unknown = transpose(null)  # unknown k -> the i with bit k

    def point(self, t: int) -> int:
        x = self.particular
        for i in bits_of(t):
            x ^= self.null[i]
        return x

    def constraint(self, row: int) -> tuple[int, int]:
        """(t-row, rhs) with t-row . t = rhs equivalent to row . x = 0."""
        trow = 0
        for k in bits_of(row):
            trow ^= self._by_unknown.get(k, 0)
        return trow, (row & self.particular).bit_count() & 1
