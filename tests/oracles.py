"""Independent brute-force oracles used to pin expected test values.

These deliberately avoid the package's graded Smith-form machinery.
The U-module homology oracle works one Maslov grading at a time with
plain F2 Gaussian elimination and recovers the summand multiset from
ranks of powers of U acting on homology.  The localization-rank oracle
row-reduces over the fraction field F2(U) with fraction-free
cross-multiplication, representing F2[U] polynomials as int bitmasks.
The almost-involution oracle walks every homotopy class of the squared
condition instead of solving it over a vertex cover.
"""

from __future__ import annotations

from knotfloer.complexes import Complex
from knotfloer.morphism import IotaData
from knotfloer.ring import Ideal


# -- F2 span helpers (rows are int bitmasks) ------------------------------

def _span_rank(vectors):
    rows = []
    for v in vectors:
        for r in rows:
            low = r & -r
            if v & low:
                v ^= r
        if v:
            rows.append(v)
            rows.sort(key=lambda r: r & -r)
    return len(rows), rows


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
