"""F2 linear algebra on int bitsets.

Vectors and equations are Python ints, bit k standing for coordinate or
unknown k, so every row operation is one XOR.  `Echelon` is the one
echelon kernel: a fully reduced basis keyed by pivot, so reducing a
vector costs one XOR per pivot it hits, not a pass over every row.
GF2System extends it to affine systems A x = b over F2, solved one
equation at a time; `rref_basis` and `complement_basis` reduce spans,
and AffineSpace parameterizes a solution set and rewrites further
constraints in its parameters.  Graded modules over F2[U] reduce to this
too: homogeneity fixes every monomial, so `homology` eliminates over the
same bitsets.
"""

from __future__ import annotations


def bits_of(x: int):
    """Iterate over set bit positions of x, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


class Echelon:
    """A fully reduced basis of a span, indexed by pivot.

    `rows` maps each pivot (a row's leading bit) to its row and `mask`
    holds the pivot bits.  No row holds another row's pivot bit, so a
    vector is reduced by the rows of the pivots it hits, once each.
    """

    def __init__(self, reduced=()):
        """The echelon of rows that already form a fully reduced basis."""
        self.rows: dict[int, int] = {r.bit_length() - 1: r for r in reduced}
        self.mask = sum(1 << piv for piv in self.rows)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, v: int) -> int:
        """v minus its part in the span: no pivot bit left."""
        rows = self.rows
        hit = v & self.mask
        while hit:
            low = hit & -hit
            v ^= rows[low.bit_length() - 1]
            hit ^= low
        return v

    def insert(self, v: int, piv: int) -> None:
        """Add v, already reduced, with pivot bit piv, clearing that bit
        from the rows that hold it."""
        rows = self.rows
        for p in [p for p, r in rows.items() if (r >> piv) & 1]:
            rows[p] ^= v
        rows[piv] = v
        self.mask |= 1 << piv

    def add(self, v: int) -> int:
        """Reduce v and insert the rest; returns it (0 if v was in the span)."""
        v = self.reduce(v)
        if v:
            self.insert(v, v.bit_length() - 1)
        return v


class GF2System(Echelon):
    """Reduced row echelon form over F2, built one equation at a time.

    Equations are rows over `width` unknowns with a 0/1 right-hand side,
    encoded as ints with the rhs in bit position `width`; the pivot of a
    row is its leading unknown, never the rhs bit.
    """

    def __init__(self, width: int):
        super().__init__()
        self.width = width
        self.feasible = True

    def copy(self) -> "GF2System":
        other = GF2System(self.width)
        other.__dict__.update(self.__dict__, rows=dict(self.rows))
        return other

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
        for piv, row in self.rows.items():
            if (row >> self.width) & 1:
                x |= 1 << piv
        return x

    def nullspace_basis(self) -> list[int]:
        """Basis of homogeneous solutions, one per free unknown, ascending."""
        free = ((1 << self.width) - 1) & ~self.mask
        vecs = {k: 1 << k for k in bits_of(free)}
        for piv, row in self.rows.items():
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
    span = Echelon()
    for v in vectors:
        span.add(v)
    return span


def complement_basis(sub: Echelon, space: list[int]) -> list[int]:
    """Vectors of `space` extending span(sub) to span(space), reduced."""
    span = Echelon(sub.rows.values())
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
