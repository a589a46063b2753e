"""F2 linear algebra on int bitsets.

Vectors and equations are Python ints, bit k standing for coordinate or
unknown k, so every row operation is one XOR.  `_echelon_insert` is the
one echelon kernel: GF2System solves affine systems A x = b over F2 one
equation at a time, `rref_basis` and `complement_basis` reduce spans,
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


class GF2System:
    """Reduced row echelon form over F2, built one equation at a time.

    Equations are rows over `width` unknowns with a 0/1 right-hand side,
    encoded as ints with the rhs in bit position `width`.
    """

    def __init__(self, width: int):
        self.width = width
        self.rows: list[int] = []       # augmented, in echelon order
        self.pivots: list[int] = []     # pivot column of each row
        self.feasible = True

    def copy(self) -> "GF2System":
        other = GF2System(self.width)
        other.rows = list(self.rows)
        other.pivots = list(self.pivots)
        other.feasible = self.feasible
        return other

    def add_equation(self, row: int, rhs: int) -> bool:
        """Add `row . x = rhs`; returns current feasibility."""
        aug = reduce_mod_span(row | (rhs << self.width), self.rows, self.pivots)
        if aug == 1 << self.width:
            self.feasible = False
            return False
        if aug:
            # the pivot is the leading unknown, never the rhs bit
            piv = (aug & ((1 << self.width) - 1)).bit_length() - 1
            _echelon_insert(self.rows, self.pivots, aug, piv)
        return self.feasible

    def add_equations(self, eqs) -> bool:
        for row, rhs in eqs:
            self.add_equation(row, rhs)
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

    @property
    def rank(self) -> int:
        return len(self.rows)

    def particular_solution(self) -> int:
        """One solution with all free unknowns set to zero."""
        if not self.feasible:
            raise ValueError("inconsistent system has no solution")
        x = 0
        for piv, row in zip(self.pivots, self.rows):
            if (row >> self.width) & 1:
                x |= 1 << piv
        return x

    def nullspace_basis(self) -> list[int]:
        """Basis of homogeneous solutions, one vector per free unknown."""
        pivot_set = set(self.pivots)
        basis = []
        for free in range(self.width):
            if free in pivot_set:
                continue
            vec = 1 << free
            for piv, row in zip(self.pivots, self.rows):
                if (row >> free) & 1:
                    vec |= 1 << piv
            basis.append(vec)
        return basis

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


def _echelon_insert(rows: list[int], pivots: list[int], v: int,
                    piv: int) -> None:
    """Insert v, already reduced by rows, with pivot bit piv; keeps the
    basis fully reduced and sorted by descending pivot."""
    for k, r in enumerate(rows):
        if (r >> piv) & 1:
            rows[k] = r ^ v
    idx = 0
    while idx < len(pivots) and pivots[idx] > piv:
        idx += 1
    rows.insert(idx, v)
    pivots.insert(idx, piv)


def rref_basis(vectors: list[int]) -> tuple[list[int], list[int]]:
    """Reduced basis of the span of `vectors`; returns (rows, pivots)."""
    rows: list[int] = []
    pivots: list[int] = []
    for v in vectors:
        v = reduce_mod_span(v, rows, pivots)
        if v:
            _echelon_insert(rows, pivots, v, v.bit_length() - 1)
    return rows, pivots


def reduce_mod_span(v: int, rows: list[int], pivots: list[int]) -> int:
    for piv, row in zip(pivots, rows):
        if (v >> piv) & 1:
            v ^= row
    return v


def complement_basis(sub_rows: list[int], sub_pivots: list[int],
                     space: list[int]) -> list[int]:
    """Vectors of `space` extending the subspace to span(space), reduced."""
    rows = list(sub_rows)
    pivots = list(sub_pivots)
    comp = []
    for v in space:
        red = reduce_mod_span(v, rows, pivots)
        if red:
            comp.append(red)
            _echelon_insert(rows, pivots, red, red.bit_length() - 1)
    return comp


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
