"""Independent brute-force oracles used to pin expected test values.

The brute-force U-module homology oracle works one Maslov grading at a
time with plain F2 Gaussian elimination and recovers the summand
multiset from ranks of powers of U acting on homology; the Smith-form
oracle computes the same module, with tower coordinates, by three
graded Smith normal forms instead of one cancellation pass.  The
localization-rank oracle row-reduces over the fraction field F2(U) with fraction-free
cross-multiplication, representing F2[U] polynomials as int bitmasks.
The almost-involution oracle walks every homotopy class of the squared
condition instead of solving it over a vertex cover.  The map-space
operator oracles build each column as a LinMap and compose it with
dictionaries of monomials instead of index arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from knotfloer.complexes import Complex
from knotfloer.morphism import IotaData, LinMap, MapSpace, chain_defect
from knotfloer.ring import Ideal


# -- F2 span helpers (rows are int bitmasks) ------------------------------

def _span_rank(vectors):
    rows = {}  # lowest set bit -> row
    for v in vectors:
        while v:
            low = v & -v
            if low not in rows:
                rows[low] = v
                break
            v ^= rows[low]
    return len(rows), list(rows.values())


def _nullspace(columns, ncols):
    """Nullspace of the matrix whose k-th column is columns[k]."""
    rows = {}
    for k, col in enumerate(columns):
        c = col
        while c:
            low = c & -c
            t = low.bit_length() - 1
            rows[t] = rows.get(t, 0) | (1 << k)
            c ^= low
    row_list = list(rows.values())
    # plain rref over the unknown bits
    pivots = []
    reduced = []
    for row in row_list:
        for piv, rr in zip(pivots, reduced):
            if (row >> piv) & 1:
                row ^= rr
        if row == 0:
            continue
        piv = row.bit_length() - 1
        for idx, rr in enumerate(reduced):
            if (rr >> piv) & 1:
                reduced[idx] = rr ^ row
        pivots.append(piv)
        reduced.append(row)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = 1 << free
        for piv, rr in zip(pivots, reduced):
            if (rr >> free) & 1:
                vec |= 1 << piv
        basis.append(vec)
    return basis


# -- graded pieces of C/(V) ------------------------------------------------

def _v_quotient_data(C: Complex):
    """Generators with Maslov gradings and the U-power differential."""
    gens = [(g.name, g.gr_u) for g in C.basis]
    index = {name: k for k, (name, _) in enumerate(gens)}
    arrows = []  # (src_idx, tgt_idx, upower)
    for src, row in C.diff_items():
        for tgt, coeff in row.items():
            for m in coeff:
                if m.j == 0:
                    arrows.append((index[src], index[tgt], m.i))
    return gens, arrows


def _piece(gens, g):
    """Basis of the grading-g part of C/(V): (gen index, U power)."""
    out = []
    for k, (_, gu) in enumerate(gens):
        d = gu - g
        if d >= 0 and d % 2 == 0:
            out.append((k, d // 2))
    return out


def hfk_minus_oracle(C: Complex):
    """(sorted tower gradings, sorted (order, grading) torsion multiset)."""
    gens, arrows = _v_quotient_data(C)
    if not gens:
        return [], []
    grades = [gu for _, gu in gens]
    g_hi, g_lo = max(grades), min(grades)
    span = g_hi - g_lo
    S = span // 2 + 2  # orders above this are free towers

    piece_cache: dict[int, list] = {}
    pos_cache: dict[int, dict] = {}

    def piece(g):
        if g not in piece_cache:
            members = _piece(gens, g)
            piece_cache[g] = members
            pos_cache[g] = {m: k for k, m in enumerate(members)}
        return piece_cache[g]

    by_src = {}
    for s, t, p in arrows:
        by_src.setdefault(s, []).append((t, p))

    def d_columns(g):
        """Differential restricted to grading g, as column bitmasks."""
        cols = []
        piece(g - 1)
        for (gi, k) in piece(g):
            col = 0
            for (t, p) in by_src.get(gi, []):
                col ^= 1 << pos_cache[g - 1][(t, k + p)]
            cols.append(col)
        return cols

    def cycles(g):
        return _nullspace(d_columns(g), len(piece(g)))

    def boundaries(g):
        piece(g)
        return [c for c in d_columns(g + 1) if c]

    def upow_map(v, g, s):
        """Send a grading-g vector to grading g-2s by multiplying by U^s."""
        piece(g - 2 * s)
        out = 0
        for k, (gi, p) in enumerate(piece(g)):
            if (v >> k) & 1:
                out |= 1 << pos_cache[g - 2 * s][(gi, p + s)]
        return out

    def rk(s, g):
        """Rank of U^s acting from homology at grading g into grading g-2s."""
        if g > g_hi or g < g_lo:
            return 0
        z = cycles(g)
        b = boundaries(g - 2 * s)
        rank_b, _ = _span_rank(list(b))
        moved = [upow_map(v, g, s) for v in z]
        rank_all, _ = _span_rank(list(b) + moved)
        return rank_all - rank_b

    # N(g, q) = number of summands generated in grading g with order > q;
    # a graded diagonalization bounds finite orders by span/2 + 1 < S,
    # so summands counted by N(g, S) are free towers.
    def N(g, q):
        return rk(q, g) - rk(q + 1, g + 2)

    tower = []
    torsion = []
    for g in range(g_lo, g_hi + 1):
        n_tower = N(g, S)
        tower.extend([g] * n_tower)
        for k in range(1, S + 1):
            cnt = N(g, k - 1) - N(g, k)
            assert cnt >= 0
            torsion.extend([(k, g)] * cnt)
    return sorted(tower), sorted(torsion)


# -- rank over the fraction field F2(U) ------------------------------------

def _pmul(a: int, b: int) -> int:
    """Carry-less product of F2[U] polynomials stored as bitmasks."""
    out = 0
    while b:
        low = b & -b
        out ^= a << (low.bit_length() - 1)
        b ^= low
    return out


def fraction_field_rank(C: Complex) -> int:
    """Rank over F2(U) of the differential on C/(V), fraction-free."""
    gens, arrows = _v_quotient_data(C)
    n = len(gens)
    M = [[0] * n for _ in range(n)]
    for s, t, p in arrows:
        M[t][s] ^= 1 << p
    rank = 0
    for col in range(n):
        piv = None
        for r_ in range(rank, n):
            if M[r_][col]:
                piv = r_
                break
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        pv = M[rank][col]
        for r_ in range(n):
            if r_ != rank and M[r_][col]:
                f = M[r_][col]
                M[r_] = [_pmul(pv, M[r_][c]) ^ _pmul(f, M[rank][c])
                         for c in range(n)]
        rank += 1
    return rank


def locality_rank_oracle(C: Complex) -> int:
    """Tower count via rank over the fraction field: n - 2 rank."""
    return len(C.basis) - 2 * fraction_field_rank(C)


# -- almost involutions by a Gray-code walk over every class ---------------

def gray_walk_solutions(z0, lin, cross):
    """Every class t in F2^q with z(t) = 0, walking all 2^q classes.

    z(t) = z0 + sum t_k lin[k] + sum_{k<l} t_k t_l cross[k, l]; a Gray
    code flips one t_j per step, and W[j] keeps the cross terms that the
    next flip of t_j adds, so each step costs one vector XOR per
    neighbour of j.  The exhaustive search of Bouillaguet et al., "Fast
    exhaustive search for polynomial systems in F2".
    """
    q = len(lin)
    neighbours = [[] for _ in range(q)]
    for (k, l), v in cross.items():
        neighbours[k].append((l, v))
        neighbours[l].append((k, v))
    found = []
    z = z0
    W = [0] * q
    t = 0
    if z == 0:
        found.append(0)
    for step in range(1, 1 << q):
        j = (step & -step).bit_length() - 1
        z ^= lin[j] ^ W[j]
        t ^= 1 << j
        for k, v in neighbours[j]:
            W[k] ^= v
        if z == 0:
            found.append(t)
    return found


def gray_walk_almost_iotas(system, solutions):
    """The sorted almost involutions of the given solution classes."""
    seen = {}
    for t in solutions:
        bits = system.base_bits
        for k, d in enumerate(system.class_dirs):
            if (t >> k) & 1:
                bits ^= d
        full = system.iota_space.map_from_bits(bits)
        data = IotaData(full.reduce_to(Ideal.max_ideal()), "almost")
        seen.setdefault(data.render(), data)
    return [seen[k] for k in sorted(seen)]


# -- map-space operators through composed LinMaps ---------------------------

def linmap_d_commutator_columns(space: MapSpace, slot: MapSpace) -> list[int]:
    """d f + f d for each basis map f of space, in slot coordinates."""
    return [slot.bits_from_map(chain_defect(space.map_from_bits(1 << k)))
            for k in range(space.dim)]


def linmap_intertwining_columns(fspace: MapSpace, slot: MapSpace,
                                i1: IotaData, i2: IotaData) -> list[int]:
    """u i1 + i2 u for each basis map of fspace reduced mod (U,V)."""
    cols = []
    for k in range(fspace.dim):
        u = fspace.map_from_bits(1 << k).reduce_to(Ideal.max_ideal())
        cols.append(slot.bits_from_map(u.compose(i1.map) + i2.map.compose(u)))
    return cols


def linmap_composition_columns(space: MapSpace, g: LinMap, slot: MapSpace,
                               side: str) -> list[int]:
    """u g (side "pre") or g u (side "post") for each basis map u."""
    cols = []
    for k in range(space.dim):
        u = space.map_from_bits(1 << k)
        cols.append(slot.bits_from_map(u.compose(g) if side == "pre"
                                       else g.compose(u)))
    return cols


# -- U-module homology by three graded Smith forms --------------------------

def _bits(x: int):
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


class UMat:
    """Homogeneous matrix over F2[U] with per-row and per-column gradings.

    Entry (r, c), when set, is the monomial U^((row_gr[r]-col_gr[c])/2);
    homogeneity makes every row and column operation a plain XOR.
    """

    def __init__(self, row_gr, col_gr, rows=None):
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
    def identity(gradings) -> "UMat":
        return UMat(gradings, gradings, [1 << k for k in range(len(gradings))])

    def copy(self) -> "UMat":
        return UMat(self.row_gr, self.col_gr, self.rows)

    def get(self, r: int, c: int) -> bool:
        return bool((self.rows[r] >> c) & 1)

    def mul(self, other: "UMat") -> "UMat":
        if self.col_gr != other.row_gr:
            raise ValueError("grading mismatch in matrix product")
        out = UMat(self.row_gr, other.col_gr)
        for r, row in enumerate(self.rows):
            acc = 0
            for c in _bits(row):
                acc ^= other.rows[c]
            out.rows[r] = acc
        return out


@dataclass
class SmithForm:
    """P * A * Q = D with P, Q invertible over F2[U] and D diagonal."""

    P: UMat
    Pinv: UMat
    Q: UMat
    Qinv: UMat
    D: UMat
    rank: int
    diag_degrees: list


def smith_form(A: UMat) -> SmithForm:
    """Graded Smith normal form, pivot = minimal-degree entry, ties
    broken by column then row index."""
    M = A.copy()
    m, n = M.nrows, M.ncols
    P = UMat.identity(M.row_gr)
    Pinv = UMat.identity(M.row_gr)
    Q = UMat.identity(M.col_gr)
    Qinv = UMat.identity(M.col_gr)

    def swap_rows(X, a, b):
        X.rows[a], X.rows[b] = X.rows[b], X.rows[a]
        X.row_gr[a], X.row_gr[b] = X.row_gr[b], X.row_gr[a]

    def swap_cols(X, a, b):
        ma, mb = 1 << a, 1 << b
        for r, row in enumerate(X.rows):
            if bool(row & ma) != bool(row & mb):
                X.rows[r] = row ^ ma ^ mb
        X.col_gr[a], X.col_gr[b] = X.col_gr[b], X.col_gr[a]

    def add_col(X, src, dst):
        msrc, mdst = 1 << src, 1 << dst
        for r, row in enumerate(X.rows):
            if row & msrc:
                X.rows[r] = row ^ mdst

    rank = 0
    degrees = []
    for k in range(min(m, n)):
        best = None
        for r in range(k, m):
            row = M.rows[r] >> k
            for c_off in _bits(row):
                c = k + c_off
                key = ((M.row_gr[r] - M.col_gr[c]) // 2, c, r)
                if best is None or key < best:
                    best = key
        if best is None:
            break
        deg, c, r = best
        if r != k:
            swap_rows(M, k, r)
            swap_rows(P, k, r)
            swap_cols(Pinv, k, r)
        if c != k:
            swap_cols(M, k, c)
            swap_cols(Q, k, c)
            swap_rows(Qinv, k, c)
        mask = 1 << k
        for r2 in range(m):
            if r2 != k and (M.rows[r2] & mask):
                M.rows[r2] ^= M.rows[k]
                P.rows[r2] ^= P.rows[k]
                add_col(Pinv, r2, k)
        for c2 in _bits(M.rows[k]):
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
    sel = list(range(snf.rank, A.ncols))
    out = UMat(A.col_gr, [snf.Q.col_gr[c] for c in sel])
    for r in range(A.ncols):
        out.rows[r] = sum(1 << idx for idx, c in enumerate(sel)
                          if snf.Q.get(r, c))
    return out


def solve_with(snf: SmithForm, K: UMat, G: UMat) -> UMat:
    """Solve K X = G given a Smith form of K with unit diagonal."""
    if snf.rank != K.ncols or any(d != 0 for d in snf.diag_degrees):
        raise ValueError("kernel basis does not span a direct summand")
    PG = snf.P.mul(G)
    X = snf.Q.mul(UMat(snf.D.row_gr[: K.ncols], G.col_gr, PG.rows[: K.ncols]))
    if K.mul(X).rows != G.rows:
        raise ValueError("vector is not in the kernel summand")
    return X


class SmithUHomology:
    """Homology of C/(V) as the cokernel of the image in kernel
    coordinates: Smith form of d (its kernel), of the kernel basis (to
    solve in it), and of the solved image.  Cycles are (bits, grading)
    as in `UHomology`."""

    def __init__(self, C: Complex):
        gr = [g.gr_u for g in C.basis]
        self.D = UMat(gr, [g - 1 for g in gr])
        for src, row in C.diff_items():
            for tgt, coeff in row.items():
                for m in coeff:
                    if m.j == 0:
                        self.D.rows[C.index(tgt)] ^= 1 << C.index(src)
        ker = kernel_basis(self.D)
        self.K = UMat(gr, [g + 1 for g in ker.col_gr], ker.rows)
        self._ksnf = smith_form(self.K)
        self._xsnf = smith_form(solve_with(self._ksnf, self.K, self.D))
        rank, degs = self._xsnf.rank, self._xsnf.diag_degrees
        row_gr = self._xsnf.D.row_gr
        self.towers = list(range(rank, self.K.ncols))
        self.tower_gradings = sorted(row_gr[l] for l in self.towers)
        self.torsion = sorted((degs[l], row_gr[l]) for l in range(rank)
                              if degs[l] > 0)

    def tower_unit_coefficient(self, v) -> bool:
        bits, g = v
        col = UMat(self.D.row_gr, [g],
                   [(bits >> r) & 1 for r in range(self.D.nrows)])
        w = self._xsnf.P.mul(solve_with(self._ksnf, self.K, col))
        return any(w.rows[l] & 1 and w.row_gr[l] == g for l in self.towers)
