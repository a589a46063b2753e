"""F2 linear algebra on int bitsets, and graded matrices over F2[U].

Two workhorses live here:

* GF2System -- incremental reduced-row-echelon solver for affine systems
  A x = b over F2, with rows stored as Python ints (bit k = unknown k);
  AffineSpace parameterizes its solution set and rewrites further
  constraints in the parameters.

* UMat -- a matrix over F2[U] that is homogeneous for given row/column
  gradings.  Homogeneity forces every entry to be a single monomial
  lambda * U^((row_gr - col_gr)/2) with lambda in F2, so the matrix is
  stored as bitmask rows plus two grading lists, and row/column
  operations are plain XORs.  Smith normal form with min-degree pivoting
  is exact and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass


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


class UMat:
    """Homogeneous matrix over F2[U] with per-row and per-column gradings.

    Entry (r, c), when set, is the monomial U^((row_gr[r]-col_gr[c])/2);
    the grading difference must be even and non-negative for a set bit.
    """

    __slots__ = ("row_gr", "col_gr", "rows")

    def __init__(self, row_gr: list[int], col_gr: list[int],
                 rows: list[int] | None = None):
        self.row_gr = list(row_gr)
        self.col_gr = list(col_gr)
        self.rows = list(rows) if rows is not None else [0] * len(row_gr)

    @property
    def nrows(self) -> int:
        return len(self.row_gr)

    @property
    def ncols(self) -> int:
        return len(self.col_gr)

    @staticmethod
    def identity(gradings: list[int]) -> "UMat":
        n = len(gradings)
        return UMat(gradings, gradings, [1 << k for k in range(n)])

    def copy(self) -> "UMat":
        return UMat(self.row_gr, self.col_gr, self.rows)

    def entry_degree(self, r: int, c: int) -> int | None:
        d = self.row_gr[r] - self.col_gr[c]
        if d < 0 or d % 2:
            return None
        return d // 2

    def set_entry(self, r: int, c: int) -> None:
        if self.entry_degree(r, c) is None:
            raise ValueError(
                f"entry ({r},{c}) incompatible with gradings "
                f"{self.row_gr[r]} vs {self.col_gr[c]}")
        self.rows[r] |= 1 << c

    def get(self, r: int, c: int) -> bool:
        return bool((self.rows[r] >> c) & 1)

    def mul(self, other: "UMat") -> "UMat":
        if self.col_gr != other.row_gr:
            raise ValueError("grading mismatch in matrix product")
        out = UMat(self.row_gr, other.col_gr)
        for r, row in enumerate(self.rows):
            acc = 0
            for c in bits_of(row):
                acc ^= other.rows[c]
            out.rows[r] = acc
        return out

    def column(self, c: int) -> int:
        bits = 0
        mask = 1 << c
        for r, row in enumerate(self.rows):
            if row & mask:
                bits |= 1 << r
        return bits

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, UMat) and self.row_gr == other.row_gr
                and self.col_gr == other.col_gr and self.rows == other.rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        lines = []
        for r, row in enumerate(self.rows):
            ents = []
            for c in bits_of(row):
                ents.append(f"[{c}]U^{self.entry_degree(r, c)}")
            lines.append(f"r{r}(gr {self.row_gr[r]}): " + " ".join(ents))
        return "\n".join(lines)


@dataclass
class SmithForm:
    """P * A * Q = D with P, Q invertible over F2[U] and D diagonal."""

    P: UMat
    Pinv: UMat
    Q: UMat
    Qinv: UMat
    D: UMat
    rank: int
    diag_degrees: list[int]


def smith_form(A: UMat) -> SmithForm:
    """Graded Smith normal form, pivot = minimal-degree entry.

    Ties are broken by column then row index, so the output is
    deterministic.  Invariant-factor degrees are non-decreasing.
    """
    M = A.copy()
    m, n = M.nrows, M.ncols
    P = UMat.identity(M.row_gr)
    Pinv = UMat.identity(M.row_gr)
    Q = UMat.identity(M.col_gr)
    Qinv = UMat.identity(M.col_gr)

    def swap_rows(X: UMat, a: int, b: int, swap_gr: bool) -> None:
        X.rows[a], X.rows[b] = X.rows[b], X.rows[a]
        if swap_gr:
            X.row_gr[a], X.row_gr[b] = X.row_gr[b], X.row_gr[a]

    def swap_cols(X: UMat, a: int, b: int, swap_gr: bool) -> None:
        ma, mb = 1 << a, 1 << b
        for r, row in enumerate(X.rows):
            ba, bb = bool(row & ma), bool(row & mb)
            if ba != bb:
                X.rows[r] = row ^ ma ^ mb
        if swap_gr:
            X.col_gr[a], X.col_gr[b] = X.col_gr[b], X.col_gr[a]

    def add_col(X: UMat, src: int, dst: int) -> None:
        msrc, mdst = 1 << src, 1 << dst
        for r, row in enumerate(X.rows):
            if row & msrc:
                X.rows[r] = row ^ mdst

    rank = 0
    degrees: list[int] = []
    for k in range(min(m, n)):
        best = None
        for r in range(k, m):
            row = M.rows[r] >> k
            if row == 0:
                continue
            gr_r = M.row_gr[r]
            for c_off in bits_of(row):
                c = k + c_off
                deg = (gr_r - M.col_gr[c]) // 2
                key = (deg, c, r)
                if best is None or key < best:
                    best = key
        if best is None:
            break
        deg, c, r = best
        if r != k:
            swap_rows(M, k, r, True)
            swap_rows(P, k, r, True)
            # right-multiplying Pinv by the transposition swaps its columns
            swap_cols(Pinv, k, r, True)
        if c != k:
            swap_cols(M, k, c, True)
            swap_cols(Q, k, c, True)
            swap_rows(Qinv, k, c, True)
        # clear column k: row ops are plain XORs thanks to homogeneity
        mask = 1 << k
        for r2 in range(m):
            if r2 != k and (M.rows[r2] & mask):
                M.rows[r2] ^= M.rows[k]
                P.rows[r2] ^= P.rows[k]
                add_col(Pinv, r2, k)
        # clear row k
        row_k = M.rows[k]
        for c2 in bits_of(row_k):
            if c2 == k:
                continue
            add_col(M, k, c2)
            add_col(Q, k, c2)
            Qinv.rows[k] ^= Qinv.rows[c2]
        rank += 1
        degrees.append(deg)

    return SmithForm(P, Pinv, Q, Qinv, M, rank, degrees)


def kernel_basis(A: UMat) -> UMat:
    """Columns form a free basis of ker A (a direct summand of the source)."""
    snf = smith_form(A)
    n = A.ncols
    sel = list(range(snf.rank, n))
    out = UMat(A.col_gr, [snf.Q.col_gr[c] for c in sel])
    for r in range(n):
        bits = 0
        for idx, c in enumerate(sel):
            if snf.Q.get(r, c):
                bits |= 1 << idx
        out.rows[r] = bits
    return out
