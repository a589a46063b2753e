"""Independent brute-force oracles used to pin expected test values.

The brute-force U-module homology oracle works one Maslov grading at a
time with plain F2 Gaussian elimination and recovers the summand
multiset from ranks of powers of U acting on homology.  The
localization-rank oracle row-reduces over the fraction field F2(U) with fraction-free
cross-multiplication, representing F2[U] polynomials as int bitmasks,
and the tower-coefficient oracle asks whether a cycle survives
inverting U.
`grading_fitting_pairs` lists a map space by trying every exponent pair
in a box around each pair of generators instead of solving the grading
equations.  `solve_homotopy` finds a homotopy between two maps over the
whole map space of its shape, so a None is a proof that none exists.
The map-space
operator oracles build each column as a LinMap and compose maps instead
of using index arithmetic.  The dict map algebra computes sums,
composites, reductions, images and tensors of maps coefficient by
coefficient in F2[U,V] from the `action` view, the way LinMap did before
it stored bitset rows, and rebuilds each result through the validating
constructor; `element_image_complex` builds the image of a chain map
from such elements instead of bitsets over generators.
`exhaustive_square_solutions` solves the squared condition of the
involution enumeration once for every assignment of the vertex cover
instead of walking the assignments with a pruning relaxation.
`NullBasisAffineSpace` parameterizes a solution set by a null basis,
one vector per free unknown, instead of by the free unknowns of the
solved system.  `JointSelfLocalFamily` solves the chain-map and
intertwining equations of the self-local maps together, leaving only
locality for the parameters, and `fixpoint_maximal_self_local` repeats
the kill-candidate sweep until nothing more is accepted, instead of
sweeping once.
`ListGF2System`, `list_rref_basis` and `list_complement_basis` keep an
echelon basis in parallel row and pivot lists and reduce a vector by
visiting every row, instead of only the rows of the pivots it hits.
`dict_tensor`, `dict_dualize`, `dict_quotient` and `dict_rename` build
complexes from coefficient dicts through the validating constructor,
the way `Complex` did before it stored its differential as bitset rows.
`kernel_space_oracle` is the kernel of a map on the exponent-truncated
module, the tests' evidence that a self-local map is maximal; the
package computes no kernel, and the oracle solves one matrix over the
whole truncated module.
`scan_cancel` finds the rows to clear at each pivot of the cancellation
pass by visiting every live row instead of reading a column index, on
the transposed V-free rows of d (`v_reduced_rows`);
`scan_kept_targets` decides each expected grading by a scan of every
target bigrading instead of the two axes through it; `ringelt_validate`
checks d^2 through the element views instead of XORing rows, or
instead of the monomial sets of a complex with stray terms.
`parse_cfk_oracle` and `parse_map_file_oracle` read every term of a
.cfk or map line through `parse_mono` into per-target monomial sets
(`parse_sum`) and grade the sets with `graded_row`, or build the
complex from them through the validating constructor, instead of
matching canonical spellings straight into bitset rows.  `graded_row`,
which `map_of_action` uses too, grades a generator's monomial sets into
a row and the terms off the rule, as the package's parsers did.

The reference algebra comes first: `RingElt` with its arithmetic, `mul`
and `reduce` on F2[U,V] and its quotients, the element views of a
complex (`d_of`, `diff_items`, `apply_d`) and of a map (`action`,
`linmap_apply`), `map_of_action`, which builds a map from an action dict
and raises on a term off the bidegree, and `vector_from_element`.  The
package keeps none of them; the oracles below and the tests compute
with them.
"""

from __future__ import annotations

from itertools import product

from knotfloer import ring
from knotfloer.cfk import _TAG_RINGS, CfkFile
from knotfloer.complexes import (Complex, Generator, ValidationReport,
                                 _bidegree_error, _image_grading, _row_terms)
from knotfloer.errors import CfkParseError, ResourceError, StructuralError
from knotfloer.homology import UHomology
from knotfloer.linalg import GF2System, bits_of, rref_basis, transpose
from knotfloer.localequiv import _locality_bit
from knotfloer.morphism import (IotaData, LinMap, MapSpace, _spread,
                                _vertex_cover, chain_defect,
                                derivative_maps, differential_map,
                                identity_map)
from knotfloer.ring import Ideal, Mono, parse_mono
from knotfloer.tensorsum import pair_name


# -- the reference algebra ----------------------------------------------------

class RingElt(ring.RingElt):
    """An element of F2[U,V] with its arithmetic: `+` is the symmetric
    difference of the monomial sets, `*` multiplies them out over F2, and
    `reduce` deletes the monomials in an ideal.  It equals the package's
    `RingElt` value (of `LinMap.of_gen` and `LinMap.action`) with the same
    monomials."""

    __slots__ = ()

    @classmethod
    def zero(cls) -> "RingElt":
        return cls()

    @classmethod
    def one(cls) -> "RingElt":
        return cls((Mono(0, 0),))

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == frozenset((Mono(0, 0),))

    def __len__(self) -> int:
        return len(self.terms)

    def __add__(self, other: ring.RingElt) -> "RingElt":
        return RingElt(self.terms ^ other.terms)

    def __mul__(self, other: ring.RingElt) -> "RingElt":
        acc: set[Mono] = set()
        for m1 in self.terms:
            for m2 in other.terms:
                acc ^= {m1 * m2}
        return RingElt(acc)

    def scale(self, m: Mono) -> "RingElt":
        return RingElt(m * t for t in self.terms)

    def swap(self) -> "RingElt":
        return RingElt(Mono(t.j, t.i) for t in self.terms)

    def reduce(self, ideal: Ideal) -> "RingElt":
        if ideal.kind == "zero":
            return self
        return RingElt(t for t in self.terms if not ideal.contains(t))


def reduce(e: RingElt, ideal: Ideal) -> RingElt:
    """Delete every monomial of e that lies in the ideal."""
    return e.reduce(ideal)


def mul(e1: RingElt, e2: RingElt, ideal: Ideal) -> RingElt:
    """F2 polynomial product followed by reduction mod the ideal."""
    return (e1 * e2).reduce(ideal)


# An element of a complex: generator name -> F2[U,V] coefficient.
Element = dict[str, RingElt]


def add_term(elt: Element, name: str, coeff: RingElt) -> None:
    new = elt.get(name, RingElt.zero()) + coeff
    if new.is_zero():
        elt.pop(name, None)
    else:
        elt[name] = new


def d_of(C: Complex, name: str) -> Element:
    """d(name) with its stray terms, target -> coefficient."""
    s = C.index(name)
    monos = {tgt: {Mono(i, j)} for tgt, i, j in _row_terms(
        C.basis, C._rows[s], _image_grading(C.basis[s], "eq", (-1, -1)))}
    for src, tgt, m in C._stray:
        if src == name:
            monos.setdefault(tgt, set()).add(m)
    return {tgt: RingElt(ms) for tgt, ms in monos.items()}


def diff_items(C: Complex):
    """(generator, d(generator)) for every generator with d nonzero."""
    for g in C.basis:
        row = d_of(C, g.name)
        if row:
            yield g.name, row


def apply_d(C: Complex, elt: Element) -> Element:
    out: Element = {}
    for src, coeff in elt.items():
        for tgt, dc in d_of(C, src).items():
            add_term(out, tgt, (coeff * dc).reduce(C.ring))
    return out


def action(f: LinMap) -> dict[str, Element]:
    """`LinMap.action` with coefficients of the reference algebra."""
    return {x.name: {tgt: RingElt.mono(i, j) for tgt, i, j in f.row_terms(s)}
            for s, x in enumerate(f.source.basis) if f.rows[s]}


def linmap_apply(f: LinMap, elt: Element) -> Element:
    """f(elt) from the rows of f: each coefficient is transported (U and V
    exchanged for a skew map) and scaled by each term's monomial."""
    out: Element = {}
    for src, coeff in elt.items():
        s = f.source._index.get(src)
        if s is None:
            continue
        transported = coeff.swap() if f.variance == "skew" else coeff
        for tgt, i, j in f.row_terms(s):
            add_term(out, tgt, transported.scale(Mono(i, j)).reduce(f.ideal))
    return out


def graded_row(terms, e: tuple[int, int], ideal: Ideal, basis,
               locate) -> tuple[int, list]:
    """The row of the terms {target: monomials} of a generator of image
    grading e, and its terms off the rule as (target, monomial), in input
    target order, then monomial order.  Terms in `ideal` are dropped;
    `locate` gives a target's index in `basis`, or raises."""
    eu, ev = e
    row, off = 0, []
    for tgt, monos in terms.items():
        t = locate(tgt)
        du, dv = basis[t].gr_u - eu, basis[t].gr_v - ev
        for m in sorted(monos):
            if not ideal.contains(m):
                if 2 * m.i == du and 2 * m.j == dv:
                    row |= 1 << t
                else:
                    off.append((tgt, m))
    return row, off


def map_of_action(source: Complex, target: Complex, variance: str,
                  bidegree: tuple[int, int], terms_of,
                  ideal: Ideal | None = None) -> LinMap:
    """The map given as source -> target -> coefficient (a RingElt or a
    set of monomials), reduced modulo the ideal (the source's ring by
    default); raises on the first term off the bidegree."""
    ideal = source.ring if ideal is None else ideal
    rows = [0] * len(source)
    for src, terms in terms_of.items():
        s = source.index(src)
        rows[s], off = graded_row(
            terms, _image_grading(source.basis[s], variance, bidegree),
            ideal, target.basis, target.index)
        if off:
            raise _bidegree_error(src, *off[0], bidegree)
    return LinMap(source, target, variance, bidegree, ideal, rows)


def vector_from_element(hom: UHomology, elt: Element, grading: int):
    """An element of C/(V), given as gen -> U-power set, in `grading`, as
    a vector of `hom`."""
    bits = 0
    for name, coeff in elt.items():
        for m in coeff:
            if m.j == 0:
                bits ^= 1 << hom.C.index(name)
    return bits, grading


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
    for src, row in diff_items(C):
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


def tower_unit_coefficient_oracle(C: Complex, v) -> bool:
    """`UHomology.tower_unit_coefficient` of a one-tower C, by inverting U.

    Over F2[U, U^-1] every arrow of C/(V) is a unit, torsion and
    boundaries die and the tower does not, so a cycle v = (bits, g) has
    unit tower coefficient iff it is not in the span of the columns of
    d there and g is the tower's grading.
    """
    bits, g = v
    (tower_grading,), _ = hfk_minus_oracle(C)
    gens, arrows = _v_quotient_data(C)
    cols = [0] * len(gens)
    for s, t, _ in arrows:
        cols[s] ^= 1 << t
    survives = _span_rank(cols + [bits])[0] > _span_rank(cols)[0]
    return survives and g == tower_grading


# -- map spaces by exhaustive exponent search ---------------------------------

def grading_fitting_pairs(A: Complex, B: Complex, variance: str,
                          bidegree: tuple[int, int],
                          ideal: Ideal) -> tuple[tuple[str, str, Mono], ...]:
    """Every (x, y, U^i V^j) outside the ideal with gr(U^i V^j y) equal to
    the bidegree-shifted grading of x (U and V swapped when skew), found
    by trying every exponent up to a bound above each pair's grading gap."""
    out = []
    for x in A.basis:
        gu, gv = (x.gr_v, x.gr_u) if variance == "skew" else (x.gr_u, x.gr_v)
        want = (gu + bidegree[0], gv + bidegree[1])
        for y in B.basis:
            top = max(abs(y.gr_u - want[0]), abs(y.gr_v - want[1])) // 2 + 1
            for i, j in product(range(top + 1), repeat=2):
                if ((y.gr_u - 2 * i, y.gr_v - 2 * j) == want
                        and not ideal.contains(Mono(i, j))):
                    out.append((x.name, y.name, Mono(i, j)))
    return tuple(out)


# -- homotopies -------------------------------------------------------------

def solve_homotopy(f: LinMap, g: LinMap) -> LinMap | None:
    """Find H with f + g = dH + Hd, or None (a certificate, not a timeout).

    H has the variance of f and g and bidegree shifted by (+1,+1); its
    map space holds every map of that shape, so inconsistency of the F2
    system settles nonexistence.
    """
    if (f.variance != g.variance or f.bidegree != g.bidegree
            or f.ideal != g.ideal or f.source is not g.source
            or f.target is not g.target):
        raise StructuralError("homotopy needs maps of identical shape")
    diff = f + g
    slot = MapSpace.build(f.source, f.target, f.variance, f.bidegree,
                          f.ideal)
    hspace = MapSpace.build(f.source, f.target, f.variance,
                            (f.bidegree[0] + 1, f.bidegree[1] + 1), f.ideal)
    rows = hspace.operator_rows(slot, differential_map(f.target),
                                differential_map(f.source))
    system = GF2System(hspace.dim)
    if not system.add_rows(dict(enumerate(rows)), slot.bits_from_map(diff)):
        return None
    return hspace.map_from_bits(system.particular_solution())


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


# -- map algebra on dictionaries of RingElt coefficients ----------------------

def dict_apply(f: LinMap, elt: Element, terms_of=None) -> Element:
    """f(elt); pass action(f) to reuse it across calls."""
    terms_of = action(f) if terms_of is None else terms_of
    out: Element = {}
    for src, coeff in elt.items():
        transported = coeff.swap() if f.variance == "skew" else coeff
        for tgt, val in terms_of.get(src, {}).items():
            add_term(out, tgt, (transported * val).reduce(f.ideal))
    return out


def dict_add(f: LinMap, g: LinMap) -> LinMap:
    assert (f.source is g.source and f.target is g.target
            and (f.variance, f.bidegree, f.ideal)
            == (g.variance, g.bidegree, g.ideal))
    fa, ga = action(f), action(g)
    terms_of = {}
    for src in set(fa) | set(ga):
        row = {}
        for tgt in set(fa.get(src, {})) | set(ga.get(src, {})):
            coeff = (fa.get(src, {}).get(tgt, RingElt.zero())
                     + ga.get(src, {}).get(tgt, RingElt.zero()))
            if not coeff.is_zero():
                row[tgt] = coeff
        if row:
            terms_of[src] = row
    return map_of_action(f.source, f.target, f.variance, f.bidegree, terms_of,
                         f.ideal)


def dict_compose(outer: LinMap, inner: LinMap) -> LinMap:
    """outer after inner."""
    assert inner.target is outer.source
    variance = "eq" if outer.variance == inner.variance else "skew"
    bi = inner.bidegree
    if outer.variance == "skew":
        bi = (bi[1], bi[0])
    bidegree = (bi[0] + outer.bidegree[0], bi[1] + outer.bidegree[1])
    ideal = outer.ideal if inner.ideal <= outer.ideal else inner.ideal
    terms_of = {}
    outer_action = action(outer)
    for src, row in action(inner).items():
        out = {k: v.reduce(ideal)
               for k, v in dict_apply(outer, row, outer_action).items()}
        out = {k: v for k, v in out.items() if not v.is_zero()}
        if out:
            terms_of[src] = out
    return map_of_action(inner.source, outer.target, variance, bidegree,
                         terms_of, ideal)


def dict_reduce_to(f: LinMap, ideal: Ideal) -> LinMap:
    terms_of = {src: {t: c.reduce(ideal) for t, c in row.items()}
                for src, row in action(f).items()}
    return map_of_action(f.source, f.target, f.variance, f.bidegree, terms_of,
                         ideal)


def dict_map_tensor(f: LinMap, g: LinMap, T: Complex) -> LinMap:
    """f tensor g on T = tensor(f.source, g.source), both endomorphisms."""
    terms_of = {}
    ga = action(g)
    for x, frow in action(f).items():
        for y, grow in ga.items():
            out = {}
            for xt, cf in frow.items():
                for yt, cg in grow.items():
                    coeff = (cf * cg).reduce(f.ideal)
                    if not coeff.is_zero():
                        add_term(out, pair_name(xt, yt), coeff)
            if out:
                terms_of[pair_name(x, y)] = out
    bidegree = (f.bidegree[0] + g.bidegree[0], f.bidegree[1] + g.bidegree[1])
    return map_of_action(T, T, f.variance, bidegree, terms_of, f.ideal)


def dict_lift(i: IotaData) -> LinMap:
    """An almost involution's unit terms as a skew map over the full ring."""
    return map_of_action(i.map.source, i.map.target, "skew", (0, 0),
                         i.map.action, Ideal.zero())


def dict_product_iota(C1: Complex, i1: IotaData, C2: Complex, i2: IotaData,
                      variant: int, T: Complex) -> LinMap:
    """Variant 1 or 2 of the product of two almost involutions."""
    phi1, psi1 = derivative_maps(C1)
    phi2, psi2 = derivative_maps(C2)
    raw = dict_map_tensor(dict_lift(i1), dict_lift(i2), T)
    corr = dict_map_tensor(*((phi1, psi2) if variant == 1 else (psi1, phi2)),
                           T)
    return dict_reduce_to(dict_add(raw, dict_compose(corr, raw)),
                          Ideal.max_ideal())


def dict_almost_iota_checks(C: Complex, iota: IotaData) -> tuple[bool, bool]:
    """(chain map, iota^2 = 1 + Psi Phi) mod (U,V)."""
    dmap = dict_reduce_to(differential_map(C), Ideal.max_ideal())
    defect = dict_add(dict_compose(dmap, iota.map),
                      dict_compose(iota.map, dmap))
    phi, psi = derivative_maps(C)
    target = dict_reduce_to(dict_add(identity_map(C), dict_compose(psi, phi)),
                            Ideal.max_ideal())
    square = dict_add(dict_compose(iota.map, iota.map), target)
    return defect.is_zero(), square.is_zero()


# -- the image complex on F2[U,V] elements ---------------------------------

def element_image_complex(C: Complex, f: LinMap,
                          name: str = "conn") -> Complex:
    """`image_complex` on elements, generator -> F2[U,V] coefficient,
    in coordinates (generator, a, b) truncated at an exponent bound."""
    # 1 + half the largest grading span of C, then room for f's exponents
    span = max(max(g.gr_u for g in C.basis) - min(g.gr_u for g in C.basis),
               max(g.gr_v for g in C.basis) - min(g.gr_v for g in C.basis))
    max_exp = 0
    f_action = action(f)
    for row in f_action.values():
        for coeff in row.values():
            for m in coeff:
                max_exp = max(max_exp, m.i, m.j)
    bound = 2 * (1 + span // 2) + max_exp + 2

    gradings = sorted({(g.gr_u, g.gr_v) for g in C.basis}, reverse=True)

    def piece_terms(p, q):
        out = []
        for g in C.basis:
            du, dv = g.gr_u - p, g.gr_v - q
            if du >= 0 and dv >= 0 and du % 2 == 0 and dv % 2 == 0 \
                    and du // 2 <= bound and dv // 2 <= bound:
                out.append((g.name, du // 2, dv // 2))
        return out

    def vec_of_element(elt: Element, terms, index):
        v = 0
        for gname, coeff in elt.items():
            for m in coeff:
                key = (gname, m.i, m.j)
                if key not in index:
                    raise ResourceError("exponent bound exceeded in image "
                                        "construction", m.i + m.j)
                v ^= 1 << index[key]
        return v

    def image_span(p, q):
        """Spanning vectors of f(C_(p,q)) in the (p,q) coordinate space."""
        terms = piece_terms(p, q)
        index = {t: k for k, t in enumerate(terms)}
        vecs = []
        elts = []
        for (gname, a, b) in terms:
            img = f_action.get(gname, {})
            if not img:
                continue
            elt: Element = {}
            for tgt, coeff in img.items():
                add_term(elt, tgt, coeff.scale(Mono(a, b)))
            if elt:
                vecs.append(vec_of_element(elt, terms, index))
                elts.append(elt)
        return terms, index, vecs, elts

    generators: list[tuple[str, int, int, Element]] = []
    used_names: set[str] = set()
    for (p, q) in gradings:
        terms, index, vecs, elts = image_span(p, q)
        shifted = []
        for sp, sq, mono in ((p + 2, q, Mono(1, 0)), (p, q + 2, Mono(0, 1))):
            _, _, _, selts = image_span(sp, sq)
            for elt in selts:
                moved: Element = {}
                for gname, coeff in elt.items():
                    add_term(moved, gname, coeff.scale(mono))
                shifted.append(vec_of_element(moved, terms, index))
        # pick image elements completing (U,V) * im inside this piece
        span = GF2System(len(terms))
        for v in shifted:
            span.add_equation(v, 0)
        for vec, elt in zip(vecs, elts):
            rank = span.rank
            span.add_equation(vec, 0)
            if span.rank == rank:
                continue
            label = None
            if len(elt) == 1:
                (only_name, coeff), = elt.items()
                if coeff.is_one() and only_name not in used_names:
                    label = only_name
            if label is None:
                label = f"x{len(generators)}"
            used_names.add(label)
            generators.append((label, p, q, elt))

    basis = [Generator(lbl, p, q) for (lbl, p, q, _) in generators]
    gen_elements = {lbl: elt for (lbl, p, q, elt) in generators}

    diff: dict[str, dict[str, RingElt]] = {}
    for (lbl, p, q, elt) in generators:
        boundary = apply_d(C, elt)
        if not boundary:
            continue
        tp, tq = p - 1, q - 1
        terms = piece_terms(tp, tq)
        index = {t: k for k, t in enumerate(terms)}
        target_vec = vec_of_element(boundary, terms, index)
        unknown_cols = []
        unknown_meta = []
        for (lbl2, p2, q2, elt2) in generators:
            du, dv = p2 - tp, q2 - tq
            if du < 0 or dv < 0 or du % 2 or dv % 2:
                continue
            m = Mono(du // 2, dv // 2)
            moved: Element = {}
            for gname, coeff in elt2.items():
                add_term(moved, gname, coeff.scale(m))
            unknown_cols.append(vec_of_element(moved, terms, index))
            unknown_meta.append((lbl2, m))
        sysq = GF2System(len(unknown_cols))
        if not sysq.add_rows(transpose(unknown_cols), target_vec):
            raise StructuralError("image is not closed under d in the "
                                  "computed generating set")
        sol = sysq.particular_solution()
        row_out: dict[str, RingElt] = {}
        for k in bits_of(sol):
            lbl2, m = unknown_meta[k]
            add_term(row_out, lbl2, RingElt((m,)))
        if row_out:
            diff[lbl] = row_out
    return Complex(basis, diff, C.ring, name)


# -- the squared condition, one solve per cover assignment --------------------

def exhaustive_square_solutions(system):
    """The affine solution spaces (t0, null basis) of a
    `morphism._SquareSystem`: fixing t on the vertex cover leaves z linear
    in the other variables, and each of the 2^|cover| assignments is one
    GF2System solve."""
    q = len(system.lin)
    cover = _vertex_cover(q, system.cross)
    in_cover = set(cover)
    free = [k for k in range(q) if k not in in_cover]
    touching: dict[int, list[tuple[int, int]]] = {k: [] for k in free}
    inner: list[tuple[int, int, int]] = []
    for (k, l), v in system.cross.items():
        if k in in_cover and l in in_cover:
            inner.append((k, l, v))
        elif k in in_cover:
            touching[l].append((k, v))
        else:
            touching[k].append((l, v))
    out = []
    for assignment in range(1 << len(cover)):
        fixed = _spread(assignment, cover)
        const = system.z0
        for k in bits_of(fixed):
            const ^= system.lin[k]
        for k, l, v in inner:
            if (fixed >> k) & (fixed >> l) & 1:
                const ^= v
        cols = []
        for k in free:
            col = system.lin[k]
            for l, v in touching[k]:
                if (fixed >> l) & 1:
                    col ^= v
            cols.append(col)
        solver = GF2System(len(free))
        if solver.add_rows(transpose(cols), const):
            x0, null = solver.solution_space()
            out.append((fixed | _spread(x0, free),
                        [_spread(v, free) for v in null]))
    return out


# -- affine solution sets by their null basis --------------------------------

class NullBasisAffineSpace:
    """The points x = particular + sum of t_i null[i] over F2, i running
    over the free unknowns in ascending order, as `AffineSpace` held them
    before it read the parameters off the solved system.  Unknown k of x
    (of `width` unknowns) in the t_i is `equations[k]`, its t-row with
    bit k of particular as rhs at bit `len(null)`, which is this space's
    `width`, the parameter count."""

    def __init__(self, particular: int, null: list[int], width: int):
        self.particular = particular
        self.null = null
        by_unknown = transpose(null)  # unknown k -> the i with bit k
        self.equations = [by_unknown.get(k, 0)
                          | (particular >> k & 1) << len(null)
                          for k in range(width)]
        self.width = len(null)

    @classmethod
    def of_system(cls, system: GF2System) -> "NullBasisAffineSpace":
        return cls(*system.solution_space(), system.width)

    def point(self, t: int) -> int:
        x = self.particular
        for i in bits_of(t):
            x ^= self.null[i]
        return x


# -- self-local maps from one joint chain-and-intertwining system -----------

class JointSelfLocalFamily:
    """Almost self-local maps of (C, iota) as one affine family of
    intertwining chain maps: the chain-map and intertwining columns are
    solved together, and only locality is left for the parameters t,
    each row bit taken from `_locality_bit` of a basis map."""

    def __init__(self, C: Complex, iota: IotaData):
        self.fspace = MapSpace.build(C, C, "eq", (0, 0), C.ring)
        chain_slot = MapSpace.build(C, C, "eq", (-1, -1), C.ring)
        int_slot = MapSpace.build(C, C, "skew", (0, 0), Ideal.max_ideal())
        base = GF2System(self.fspace.dim)
        d = differential_map(C)
        base.add_equations(self.fspace.operator_rows(chain_slot, d, d))
        base.add_equations(self.fspace.operator_rows(int_slot, iota.map,
                                                     iota.map))
        self.particular, self.null = base.solution_space()
        hom = UHomology(C)
        tower, grading = hom.tower_generator()

        def local(bits):
            f = self.fspace.map_from_bits(bits)
            return int(_locality_bit(f, tower, grading, hom))

        row = sum(local(v) << k for k, v in enumerate(self.null))
        self.inner = GF2System(len(self.null))
        if not self.inner.add_equation(row, 1 ^ local(self.particular)):
            raise StructuralError("no self-local equivalence exists at all")

    def point(self, t: int) -> int:
        x = self.particular
        for k in bits_of(t):
            x ^= self.null[k]
        return x

    def unit_coefficient_constant(self, src: str, tgt: str):
        units = [k for k, (x, y, m) in enumerate(self.fspace.pairs)
                 if (x, y, m.i, m.j) == (src, tgt, 0, 0)]
        if not units:
            return True, 0
        bit = 1 << units[0]
        value = int(bool(self.point(self.inner.particular_solution()) & bit))
        for w in self.inner.nullspace_basis():
            if (self.point(w) ^ self.particular) & bit:
                return False, value
        return True, value


def fixpoint_maximal_self_local(C: Complex, iota: IotaData, order: str):
    """The map of the kill-candidate greedy over `JointSelfLocalFamily`,
    sweeping `kill_candidates_list` in `order` again until a sweep
    accepts none."""
    fam = JointSelfLocalFamily(C, iota)
    candidates = [[sum(1 << k for k in row) for row in rows]
                  for rows in kill_candidates_list(C, fam.fspace, order)]
    by_unknown = {}
    for k, v in enumerate(fam.null):
        for b in bits_of(v):
            by_unknown[b] = by_unknown.get(b, 0) | (1 << k)
    inner = fam.inner.copy()
    accepted = set()
    changed = True
    while changed:
        changed = False
        for label, rows in enumerate(candidates):
            if label in accepted:
                continue
            trial = inner.copy()
            ok = True
            for raw in rows:
                trow = 0
                for b in bits_of(raw):
                    trow ^= by_unknown.get(b, 0)
                rhs = (raw & fam.particular).bit_count() & 1
                if not trial.add_equation(trow, rhs):
                    ok = False
                    break
            if ok and trial.feasible:
                inner = trial
                accepted.add(label)
                changed = True
    return fam.fspace.map_from_bits(fam.point(inner.particular_solution()))


def homogeneous_pair_exponents(x: Generator, y: Generator):
    """((a, b), (a', b')), the least exponents with U^a V^b x and
    U^a' V^b' y in one bigrading, for gradings differing by even amounts."""
    du, dv = x.gr_u - y.gr_u, x.gr_v - y.gr_v
    a, b = max(0, du // 2), max(0, dv // 2)
    return (a, b), (a - du // 2, b - dv // 2)


def kill_candidates_list(C: Complex, fspace: MapSpace, order: str):
    """Every kill candidate of `localequiv._kill_candidates`, built into
    one list up front: singles, then same-parity pairs x < y, each row
    keyed by the target and the exponents of its terms and listed as its
    map-space coordinates; "reverse" is the same list backwards."""
    by_source: dict[str, list[int]] = {}
    for k, (srcn, _, _) in enumerate(fspace.pairs):
        by_source.setdefault(srcn, []).append(k)
    singles = [[(k,) for k in by_source.get(g.name, [])] for g in C.basis]
    pairs = []
    for xi in range(len(C)):
        for yi in range(xi + 1, len(C)):
            x, y = C.basis[xi], C.basis[yi]
            du, dv = x.gr_u - y.gr_u, x.gr_v - y.gr_v
            if du % 2 or dv % 2:
                continue
            (a, b), (a2, b2) = homogeneous_pair_exponents(x, y)
            slots: dict[tuple[str, int, int], int] = {}
            for g, ea, eb in ((x, a, b), (y, a2, b2)):
                for k in by_source.get(g.name, []):
                    _, tgt, m = fspace.pairs[k]
                    key = (tgt, ea + m.i, eb + m.j)
                    slots[key] = slots.get(key, 0) | (1 << k)
            pairs.append([tuple(bits_of(v)) for v in slots.values()])
    cands = singles + pairs
    return cands[::-1] if order == "reverse" else cands


# -- the list-based echelon kernel ------------------------------------------

def list_reduce_mod_span(v: int, rows: list[int], pivots: list[int]) -> int:
    """Reduce v by every row in turn whose pivot bit v holds."""
    for piv, row in zip(pivots, rows):
        if (v >> piv) & 1:
            v ^= row
    return v


def list_echelon_insert(rows: list[int], pivots: list[int], v: int,
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


class ListGF2System:
    """`GF2System` on parallel row and pivot lists, each reduction
    visiting every row."""

    def __init__(self, width: int):
        self.width = width
        self.rows: list[int] = []       # augmented, in echelon order
        self.pivots: list[int] = []     # pivot column of each row
        self.feasible = True

    def copy(self) -> "ListGF2System":
        other = ListGF2System(self.width)
        other.rows = list(self.rows)
        other.pivots = list(self.pivots)
        other.feasible = self.feasible
        return other

    def add_equation(self, row: int, rhs: int) -> bool:
        aug = list_reduce_mod_span(row | (rhs << self.width), self.rows,
                                   self.pivots)
        if aug == 1 << self.width:
            self.feasible = False
            return False
        if aug:
            piv = (aug & ((1 << self.width) - 1)).bit_length() - 1
            list_echelon_insert(self.rows, self.pivots, aug, piv)
        return self.feasible

    @property
    def rank(self) -> int:
        return len(self.rows)

    def particular_solution(self) -> int:
        if not self.feasible:
            raise ValueError("inconsistent system has no solution")
        x = 0
        for piv, row in zip(self.pivots, self.rows):
            if (row >> self.width) & 1:
                x |= 1 << piv
        return x

    def nullspace_basis(self) -> list[int]:
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


def list_rref_basis(vectors: list[int]) -> tuple[list[int], list[int]]:
    """Reduced basis of the span of `vectors`; returns (rows, pivots)."""
    rows: list[int] = []
    pivots: list[int] = []
    for v in vectors:
        v = list_reduce_mod_span(v, rows, pivots)
        if v:
            list_echelon_insert(rows, pivots, v, v.bit_length() - 1)
    return rows, pivots


def list_complement_basis(sub_rows: list[int], sub_pivots: list[int],
                          space: list[int]) -> list[int]:
    """Vectors of `space` extending the subspace to span(space), reduced."""
    rows = list(sub_rows)
    pivots = list(sub_pivots)
    comp = []
    for v in space:
        red = list_reduce_mod_span(v, rows, pivots)
        if red:
            comp.append(red)
            list_echelon_insert(rows, pivots, red, red.bit_length() - 1)
    return comp


# -- complexes from coefficient dicts ----------------------------------------

def dict_tensor(C1: Complex, C2: Complex) -> Complex:
    """Tensor product with Leibniz differential, summed coefficient by
    coefficient and rebuilt through the dict constructor."""
    if C1.ring != C2.ring:
        raise StructuralError("tensor factors live over different rings")
    basis = [Generator(pair_name(x.name, y.name), x.gr_u + y.gr_u,
                       x.gr_v + y.gr_v)
             for x in C1.basis for y in C2.basis]
    diff: dict[str, dict[str, RingElt]] = {}
    d2 = [d_of(C2, y.name) for y in C2.basis]
    for x in C1.basis:
        dx = d_of(C1, x.name)
        for y, dy in zip(C2.basis, d2):
            row: Element = {}
            for tgt, coeff in dx.items():
                add_term(row, pair_name(tgt, y.name), coeff)
            for tgt, coeff in dy.items():
                add_term(row, pair_name(x.name, tgt), coeff)
            if row:
                diff[pair_name(x.name, y.name)] = row
    return Complex(basis, diff, C1.ring, f"{C1.name}|{C2.name}")


def dict_dualize(C: Complex) -> Complex:
    """Negated bigradings and the transposed coefficient dict."""
    basis = [Generator(g.name + "*", -g.gr_u, -g.gr_v) for g in C.basis]
    diff: dict[str, dict[str, RingElt]] = {}
    for src, row in diff_items(C):
        for tgt, coeff in row.items():
            diff.setdefault(tgt + "*", {})[src + "*"] = coeff
    return Complex(basis, diff, C.ring, C.name + "*")


def dict_quotient(C: Complex, ideal: Ideal) -> Complex:
    """The coefficient dict reduced modulo the ideal by the constructor."""
    if not C.ring <= ideal:
        raise StructuralError(
            f"cannot quotient a complex over {C.ring.kind} by {ideal.kind}")
    return Complex(C.basis, dict(diff_items(C)), ideal, C.name)


def dict_rename(C: Complex, mapping, name=None) -> Complex:
    """The coefficient dict with every generator name mapped."""
    def nm(n):
        return mapping.get(n, n)
    basis = [Generator(nm(g.name), g.gr_u, g.gr_v) for g in C.basis]
    diff = {nm(src): {nm(t): c for t, c in row.items()}
            for src, row in diff_items(C)}
    return Complex(basis, diff, C.ring, name or C.name)


# -- the kernel of a map by one truncated matrix -----------------------------

def _exponent_bound(C: Complex) -> int:
    """1 + half the largest U or V grading span of C's generators."""
    span = 0
    if len(C):
        us = [g.gr_u for g in C.basis]
        vs = [g.gr_v for g in C.basis]
        span = max(max(us) - min(us), max(vs) - min(vs))
    return 1 + span // 2


def kernel_space_oracle(C: Complex, f: LinMap) -> tuple[tuple, tuple]:
    """(terms, rows): the kernel of an eq map f of bidegree (0,0) on the
    module truncated at U and V exponents up to `_exponent_bound(C)`, as
    the terms U^a V^b x and a reduced basis over their index space, from
    one matrix over every term of the truncated module at once."""
    bound = _exponent_bound(C)
    terms = [(g.name, a, b) for g in C.basis
             for a in range(bound + 1) for b in range(bound + 1)]
    images = {g.name: f.row_terms(s) for s, g in enumerate(C.basis)}
    max_exp = max((max(i, j) for row in images.values() for _, i, j in row),
                  default=0)
    out_terms = [(g.name, a, b) for g in C.basis
                 for a in range(bound + max_exp + 1)
                 for b in range(bound + max_exp + 1)]
    out_index = {t: k for k, t in enumerate(out_terms)}
    columns = []
    for (name, a, b) in terms:
        col = 0
        for tgt, i, j in images[name]:
            col ^= 1 << out_index[(tgt, a + i, b + j)]
        columns.append(col)
    system = GF2System(len(terms))
    system.add_rows(transpose(columns))
    reduced = rref_basis(system.nullspace_basis()).rows.values()
    return tuple(terms), tuple(sorted(reduced))


# -- the scans the indexes replaced ------------------------------------------

def v_reduced_rows(C: Complex) -> list[int]:
    """Differential of C/(V) over F2[U]: bit s of row t is set when d(s)
    has a term U^k t.  The degree k = (gr(t) + 1 - gr(s)) / 2 is fixed
    by the grading law, so the bit is the whole entry: these are the
    V-free rows of d, transposed, the rows `scan_cancel` eliminates."""
    columns = transpose(C.rows_mod(Ideal.principal_v()))
    return [columns.get(t, 0) for t in range(len(C))]


def scan_cancel(rows: list[int], gr: list[int]):
    """`homology._cancel` from the rows of the differential of C/(V)
    (`v_reduced_rows`), finding the rows that hit each pivot column by
    visiting every live row, and keeping the live generators in a list."""
    n = len(gr)
    rows = list(rows)
    of_grading: dict[int, int] = {}
    for s, g in enumerate(gr):
        of_grading[g] = of_grading.get(g, 0) | 1 << s
    alive = (1 << n) - 1
    live = list(range(n))
    cov = [1 << t for t in range(n)]
    vec = list(cov)
    pairs = []
    degrees = {(a + 1 - b) // 2 for a in of_grading for b in of_grading
               if a + 1 - b >= 0 and (a + 1 - b) % 2 == 0}
    for k in sorted(degrees):
        for y in range(n):
            if not alive >> y & 1:
                continue
            hits = rows[y] & alive & of_grading.get(gr[y] + 1 - 2 * k, 0)
            if not hits:
                continue
            x = (hits & -hits).bit_length() - 1
            row_y, cov_y, col_x = rows[y], cov[y], 1 << x
            for t in live:
                if rows[t] & col_x and t != y:
                    rows[t] ^= row_y
                    cov[t] ^= cov_y
            vec_x = vec[x]
            for c in bits_of(row_y & alive ^ col_x):
                vec[c] ^= vec_x
            alive ^= col_x | 1 << y
            live.remove(x)
            live.remove(y)
            pairs.append((k, y))
    return pairs, live, vec, cov


def scan_kept_targets(targets, ideal: Ideal):
    """`complexes.kept_targets` over a list of generators, deciding each
    expected grading by a scan of every target bigrading."""
    by_grading: dict[tuple[int, int], int] = {}
    for t, y in enumerate(targets):
        key = (y.gr_u, y.gr_v)
        by_grading[key] = by_grading.get(key, 0) | 1 << t
    kept: dict[tuple[int, int], int] = {}

    def lookup(e):
        if e not in kept:
            mask = 0
            for (gu, gv), ys in by_grading.items():
                du, dv = gu - e[0], gv - e[1]
                if (du >= 0 and dv >= 0 and not du % 2 and not dv % 2
                        and not ideal.contains(Mono(du // 2, dv // 2))):
                    mask |= ys
            kept[e] = mask
        return kept[e]
    return lookup


def ringelt_validate(C: Complex) -> ValidationReport:
    """`Complex.validate` with d^2 taken through `apply_d` and the
    reference algebra on every complex, computed afresh."""
    messages = [f"d^2({g.name}) != 0" for g in C.basis
                if apply_d(C, apply_d(C, {g.name: RingElt.one()}))]
    ok_d2 = not messages
    stray = C._stray
    messages += [f"grading law fails on {m.render()} {tgt} in d({src})"
                 for src, tgt, m in stray]
    symmetric = (sorted((g.gr_u, g.gr_v) for g in C.basis)
                 == sorted((g.gr_v, g.gr_u) for g in C.basis))
    if not symmetric:
        messages.append("bigrading multiset is not swap-symmetric "
                        "(informational)")
    reduced = all(m.i or m.j for _, row in diff_items(C)
                  for coeff in row.values() for m in coeff)
    return ValidationReport(ok_d2, not stray, reduced, symmetric,
                            tuple(messages))


def parse_sum(tokens: list[str], lineno: int,
              index) -> dict[str, set[Mono]]:
    """Parse `[mono] name + [mono] name + ...`, over the generators in
    `index`, into each target's monomials; repeated terms cancel."""
    if tokens == ["0"]:
        return {}
    monos: dict[str, set[Mono]] = {}
    term: list[str] = []

    def flush():
        if not term:
            raise CfkParseError("empty term in sum", lineno)
        name = term[-1]
        try:
            mono = parse_mono(term[:-1])
        except ValueError as err:
            raise CfkParseError(str(err), lineno) from None
        monos.setdefault(name, set()).symmetric_difference_update((mono,))
        term.clear()

    for tok in tokens:
        if tok == "+":
            flush()
        else:
            term.append(tok)
    flush()
    row = {k: v for k, v in monos.items() if v}
    for name in row:
        if name not in index:
            raise CfkParseError(f"unknown generator {name!r}", lineno)
    return row


def parse_cfk_oracle(text: str) -> CfkFile:
    """`cfk.parse_cfk` through monomial sets: d goes to the validating
    constructor, each iota line to `graded_row` mod (U,V)."""
    max_ideal = Ideal.max_ideal()
    name = ring_ = None
    gens: list[Generator] = []
    index: dict[str, int] = {}
    actions: dict = {"d": {}, "iota": {}}
    iota_rows: dict[int, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind == "complex":
            if name is not None:
                raise CfkParseError("repeated complex header", lineno)
            if len(tokens) != 4 or tokens[2] != "ring":
                raise CfkParseError("malformed complex header", lineno)
            if tokens[3] not in _TAG_RINGS:
                raise CfkParseError(f"unknown ring tag {tokens[3]!r}", lineno)
            name, ring_ = tokens[1], _TAG_RINGS[tokens[3]]
        elif kind == "gen":
            if len(tokens) != 5 or tokens[2] != "gr":
                raise CfkParseError("malformed gen line", lineno)
            try:
                g = Generator(tokens[1], int(tokens[3]), int(tokens[4]))
            except (ValueError, StructuralError) as err:
                raise CfkParseError(str(err), lineno) from None
            if g.name in index:
                raise CfkParseError("duplicate generator names", lineno)
            index[g.name] = len(gens)
            gens.append(g)
        elif kind in actions:
            if len(tokens) < 4 or tokens[2] != "=":
                raise CfkParseError(f"malformed {kind} line", lineno)
            src = tokens[1]
            if src not in index:
                raise CfkParseError(f"unknown generator {src!r}", lineno)
            if src in actions[kind]:
                raise CfkParseError(f"repeated {kind} line for {src!r}", lineno)
            terms = actions[kind][src] = parse_sum(tokens[3:], lineno, index)
            if kind == "iota":
                s = index[src]
                iota_rows[s], off = graded_row(
                    terms, _image_grading(gens[s], "skew", (0, 0)),
                    max_ideal, gens, index.__getitem__)
                if off:
                    err = _bidegree_error(src, *off[0], (0, 0))
                    raise CfkParseError(f"bad iota data: {err}", lineno)
        else:
            raise CfkParseError(f"unknown directive {kind!r}", lineno)
    if name is None or ring_ is None:
        raise CfkParseError("missing complex header", 1)
    C = Complex(gens, actions["d"], ring_, name)
    iota = None
    if actions["iota"]:
        rows = [iota_rows.get(s, 0) for s in range(len(gens))]
        iota = IotaData(LinMap(C, C, "skew", (0, 0), max_ideal, rows))
    return CfkFile(C, iota)


def parse_map_file_oracle(text: str, source: Complex,
                          target: Complex) -> LinMap:
    """`cfk.parse_map_file` through monomial sets and `graded_row`."""
    rows = [0] * len(source)
    seen: set[str] = set()
    variance = bidegree = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if (len(tokens) < 7 or tokens[0] != "map" or tokens[2] != "variance"
                or tokens[4] != ":" or tokens[6] != "->"):
            raise CfkParseError("malformed map line", lineno)
        tag, src = tokens[3], tokens[5]
        if tag not in ("eq", "skew"):
            raise CfkParseError(f"unknown variance {tag!r}", lineno)
        if variance is None:
            variance = tag
        elif variance != tag:
            raise CfkParseError("mixed variances in one map file", lineno)
        s = source._index.get(src)
        if s is None:
            raise CfkParseError(f"unknown generator {src!r}", lineno)
        if src in seen:
            raise CfkParseError(f"repeated map line for {src!r}", lineno)
        seen.add(src)
        terms = parse_sum(tokens[7:], lineno, target._index)
        if not terms:
            continue
        if bidegree is None:
            tgt, monos = next(iter(terms.items()))
            y, m = target.generator(tgt), min(monos)
            eu, ev = _image_grading(source.basis[s], variance, (0, 0))
            bidegree = (y.gr_u - 2 * m.i - eu, y.gr_v - 2 * m.j - ev)
        rows[s], off = graded_row(
            terms, _image_grading(source.basis[s], variance, bidegree),
            source.ring, target.basis, target.index)
        if off:
            raise CfkParseError(
                str(_bidegree_error(src, *off[0], bidegree)), lineno)
    return LinMap(source, target, variance or "eq", bidegree or (0, 0),
                  source.ring, rows)
