"""Module maps between complexes: chain maps, homotopies, involutions.

A LinMap stores its action on basis generators and extends equivariantly
(f(U^i V^j x) = U^i V^j f(x)) or skew-equivariantly (U and V exchanged).
Because the complexes are bigraded and maps have a fixed bidegree, the
monomial that can appear on a given (source, target) generator pair is
determined by the gradings; every solver below exploits this to make
map spaces finite-dimensional over F2, with no truncation artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping

from .complexes import Complex, Element, _ideal_leq, add_term
from .errors import ResourceError, StructuralError
from .linalg import GF2System, bits_of, complement_basis, reduce_mod_span, rref_basis
from .ring import Ideal, Mono, RingElt

Bidegree = tuple[int, int]

_VARIANCES = ("eq", "skew", "linear")


class LinMap:
    """A module map given generator by generator.

    variance "eq" extends F2[U,V]-linearly, "skew" exchanges U and V,
    and "linear" is a plain F2-linear map on basis classes, only
    meaningful over the maximal ideal (used for 1 + iota style sums).
    """

    __slots__ = ("source", "target", "variance", "bidegree", "ideal", "action")

    def __init__(self, source: Complex, target: Complex, variance: str,
                 bidegree: Bidegree,
                 action: Mapping[str, Mapping[str, RingElt]],
                 ideal: Ideal | None = None):
        if variance not in _VARIANCES:
            raise StructuralError(f"unknown variance {variance!r}")
        if ideal is None:
            ideal = source.ring
        if variance == "linear" and ideal.kind != "max":
            raise StructuralError("linear variance is only defined mod (U,V)")
        clean: dict[str, dict[str, RingElt]] = {}
        for src, row in action.items():
            source.index(src)
            out: dict[str, RingElt] = {}
            for tgt, coeff in row.items():
                target.index(tgt)
                red = coeff.reduce(ideal)
                if red.is_zero():
                    continue
                if variance != "linear":
                    exp_u, exp_v = _expected_grading(
                        source.grading(src), variance, bidegree)
                    tu, tv = target.grading(tgt)
                    for m in red:
                        if tu - 2 * m.i != exp_u or tv - 2 * m.j != exp_v:
                            raise StructuralError(
                                f"map entry {m.render()} {tgt} on {src} breaks "
                                f"declared bidegree {bidegree}")
                out[tgt] = red
            if out:
                clean[src] = out
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "variance", variance)
        object.__setattr__(self, "bidegree", tuple(bidegree))
        object.__setattr__(self, "ideal", ideal)
        object.__setattr__(self, "action", {k: dict(v) for k, v in clean.items()})

    def __setattr__(self, *args):  # pragma: no cover - immutability guard
        raise AttributeError("LinMap is immutable")

    # -- evaluation -------------------------------------------------------

    def of_gen(self, name: str) -> Element:
        return dict(self.action.get(name, {}))

    def apply(self, elt: Element) -> Element:
        out: Element = {}
        for src, coeff in elt.items():
            transported = coeff.swap() if self.variance == "skew" else coeff
            for tgt, val in self.action.get(src, {}).items():
                add_term(out, tgt, (transported * val).reduce(self.ideal))
        return out

    def is_zero(self) -> bool:
        return not self.action

    # -- algebra ----------------------------------------------------------

    def __add__(self, other: "LinMap") -> "LinMap":
        if (self.source is not other.source or self.target is not other.target
                or self.variance != other.variance
                or self.bidegree != other.bidegree or self.ideal != other.ideal):
            raise StructuralError("can only add maps of matching shape")
        action: dict[str, dict[str, RingElt]] = {}
        for src in set(self.action) | set(other.action):
            row: dict[str, RingElt] = {}
            for tgt in set(self.action.get(src, {})) | set(other.action.get(src, {})):
                coeff = (self.action.get(src, {}).get(tgt, RingElt.zero())
                         + other.action.get(src, {}).get(tgt, RingElt.zero()))
                if not coeff.is_zero():
                    row[tgt] = coeff
            if row:
                action[src] = row
        return LinMap(self.source, self.target, self.variance, self.bidegree,
                      action, self.ideal)

    def compose(self, inner: "LinMap") -> "LinMap":
        """self after inner."""
        if inner.target is not self.source:
            raise StructuralError("composition target/source mismatch")
        if "linear" in (self.variance, inner.variance):
            variance = "linear"
        elif self.variance == inner.variance:
            variance = "eq"
        else:
            variance = "skew"
        bi = inner.bidegree
        if self.variance == "skew":
            bi = (bi[1], bi[0])
        bidegree = (bi[0] + self.bidegree[0], bi[1] + self.bidegree[1])
        if _ideal_leq(inner.ideal, self.ideal):
            ideal = self.ideal
        elif _ideal_leq(self.ideal, inner.ideal):
            ideal = inner.ideal
        else:
            raise StructuralError("cannot compose maps over incomparable ideals")
        action: dict[str, dict[str, RingElt]] = {}
        for src in inner.action:
            out = self.apply(inner.of_gen(src))
            out = {k: v.reduce(ideal) for k, v in out.items()}
            out = {k: v for k, v in out.items() if not v.is_zero()}
            if out:
                action[src] = out
        return LinMap(inner.source, self.target, variance, bidegree, action,
                      ideal)

    def reduce_to(self, ideal: Ideal) -> "LinMap":
        action = {src: {t: c.reduce(ideal) for t, c in row.items()}
                  for src, row in self.action.items()}
        return LinMap(self.source, self.target, self.variance, self.bidegree,
                      action, ideal)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinMap):
            return NotImplemented
        return (self.variance == other.variance
                and self.bidegree == other.bidegree
                and self.ideal == other.ideal
                and self.action == other.action)

    def __hash__(self) -> int:
        return hash(self.render())

    # -- serialization ------------------------------------------------------

    def render(self, name: str = "f") -> str:
        tag = {"eq": "eq", "skew": "skew", "linear": "lin"}[self.variance]
        lines = []
        for g in self.source.basis:
            row = self.action.get(g.name)
            if not row:
                continue
            terms = []
            for tgt in self.target.names():
                coeff = row.get(tgt)
                if coeff is None:
                    continue
                for m in coeff:
                    mono = m.render()
                    terms.append(f"{mono} {tgt}" if mono != "1" else tgt)
            lines.append(f"map {name} variance {tag} : {g.name} -> "
                         + " + ".join(terms))
        return "\n".join(lines)


def _expected_grading(src_gr: tuple[int, int], variance: str,
                      bidegree: Bidegree) -> tuple[int, int]:
    gu, gv = src_gr
    if variance == "skew":
        gu, gv = gv, gu
    return (gu + bidegree[0], gv + bidegree[1])


def identity_map(C: Complex, ideal: Ideal | None = None) -> LinMap:
    action = {g.name: {g.name: RingElt.one()} for g in C.basis}
    return LinMap(C, C, "eq", (0, 0), action, ideal or C.ring)


def zero_map(source: Complex, target: Complex, variance: str = "eq",
             bidegree: Bidegree = (0, 0), ideal: Ideal | None = None) -> LinMap:
    return LinMap(source, target, variance, bidegree, {}, ideal or source.ring)


def differential_map(C: Complex) -> LinMap:
    return LinMap(C, C, "eq", (-1, -1),
                  {src: dict(row) for src, row in C.diff_items()}, C.ring)


# -- derivative maps -------------------------------------------------------

def derivative_maps(C: Complex) -> tuple[LinMap, LinMap]:
    """The commutators of d with the formal U- and V-derivatives.

    Both are equivariant chain maps; the first has bidegree (+1,-1),
    the second (-1,+1).  On a basis element they are computed by
    differentiating the coefficients of its differential (over F2 the
    derivative of U^i is U^(i-1) when i is odd, zero otherwise).
    """
    if C.ring.kind != "zero":
        raise StructuralError("derivative maps need the full coefficient ring")
    phi_action: dict[str, dict[str, RingElt]] = {}
    psi_action: dict[str, dict[str, RingElt]] = {}
    for src, row in C.diff_items():
        prow: dict[str, RingElt] = {}
        qrow: dict[str, RingElt] = {}
        for tgt, coeff in row.items():
            du = RingElt(Mono(m.i - 1, m.j) for m in coeff if m.i % 2)
            dv = RingElt(Mono(m.i, m.j - 1) for m in coeff if m.j % 2)
            if not du.is_zero():
                prow[tgt] = du
            if not dv.is_zero():
                qrow[tgt] = dv
        if prow:
            phi_action[src] = prow
        if qrow:
            psi_action[src] = qrow
    phi = LinMap(C, C, "eq", (1, -1), phi_action, C.ring)
    psi = LinMap(C, C, "eq", (-1, 1), psi_action, C.ring)
    return phi, psi


def chain_defect(f: LinMap) -> LinMap:
    """d o f + f o d, over f's ideal."""
    d_src = differential_map(f.source).reduce_to(f.ideal)
    d_tgt = differential_map(f.target).reduce_to(f.ideal)
    return d_tgt.compose(f) + f.compose(d_src)


def is_chain_map(f: LinMap) -> bool:
    """Whether d f = f d over the map's ideal."""
    if f.source.ring != f.target.ring:
        raise StructuralError("source and target live over different rings")
    return chain_defect(f).is_zero()


# -- finite map spaces ------------------------------------------------------

def auto_cap(*complexes: Complex) -> int:
    """Exponent bound guaranteed to contain all grading-compatible monomials.

    1 + half the largest grading span over the generators involved; any
    graded map of small bidegree between these complexes has exponents
    below this, so searches over the capped space are exhaustive.
    """
    span = 0
    for C in complexes:
        if not len(C):
            continue
        us = [g.gr_u for g in C.basis]
        vs = [g.gr_v for g in C.basis]
        span = max(span, max(us) - min(us), max(vs) - min(vs))
    return 1 + span // 2


@dataclass(frozen=True)
class MapSpace:
    """Basis of all maps of one shape: (source gen, target gen, monomial)."""

    source: Complex
    target: Complex
    variance: str
    bidegree: Bidegree
    ideal: Ideal
    cap: int
    pairs: tuple[tuple[str, str, Mono], ...]

    @staticmethod
    def build(source: Complex, target: Complex, variance: str,
              bidegree: Bidegree, ideal: Ideal, cap: int | None = None) -> "MapSpace":
        if cap is None:
            cap = auto_cap(source, target)
        pairs = []
        for x in source.basis:
            exp_u, exp_v = _expected_grading((x.gr_u, x.gr_v), variance, bidegree)
            for y in target.basis:
                du, dv = y.gr_u - exp_u, y.gr_v - exp_v
                if du < 0 or dv < 0 or du % 2 or dv % 2:
                    continue
                m = Mono(du // 2, dv // 2)
                if m.i > cap or m.j > cap or ideal.contains(m):
                    continue
                pairs.append((x.name, y.name, m))
        return MapSpace(source, target, variance, bidegree, ideal, cap,
                        tuple(pairs))

    @property
    def dim(self) -> int:
        return len(self.pairs)

    @cached_property
    def pair_index(self) -> dict[tuple[str, str, Mono], int]:
        return {p: k for k, p in enumerate(self.pairs)}

    def map_from_bits(self, bits: int) -> LinMap:
        action: dict[str, dict[str, RingElt]] = {}
        for k in bits_of(bits):
            src, tgt, m = self.pairs[k]
            row = action.setdefault(src, {})
            row[tgt] = row.get(tgt, RingElt.zero()) + RingElt((m,))
        return LinMap(self.source, self.target, self.variance, self.bidegree,
                      action, self.ideal)

    def bits_from_action(self, action: Mapping[str, Mapping[str, RingElt]]) -> int:
        index = self.pair_index
        bits = 0
        for src, row in action.items():
            for tgt, coeff in row.items():
                for m in coeff.reduce(self.ideal):
                    key = (src, tgt, m)
                    if key not in index:
                        raise StructuralError(
                            f"term {m.render()} {tgt} on {src} falls outside "
                            f"the map space (cap {self.cap})")
                    bits ^= 1 << index[key]
        return bits

    def bits_from_map(self, f: LinMap) -> int:
        return self.bits_from_action(f.action)


def solve_homotopy(f: LinMap, g: LinMap,
                   cap: int | None = None) -> LinMap | None:
    """Find H with f + g = dH + Hd, or None (a certificate, not a timeout).

    H has the variance of f and g and bidegree shifted by (+1,+1); the
    capped space provably contains every grading-compatible monomial,
    so inconsistency of the F2 system settles nonexistence.
    """
    if (f.variance != g.variance or f.bidegree != g.bidegree
            or f.ideal != g.ideal or f.source is not g.source
            or f.target is not g.target):
        raise StructuralError("homotopy needs maps of identical shape")
    diff = f + g
    slot = MapSpace.build(f.source, f.target, f.variance, f.bidegree,
                          f.ideal, cap)
    hspace = MapSpace.build(f.source, f.target, f.variance,
                            (f.bidegree[0] + 1, f.bidegree[1] + 1),
                            f.ideal, cap)
    target_vec = slot.bits_from_map(diff)
    columns = []
    for k in range(hspace.dim):
        H = hspace.map_from_bits(1 << k)
        columns.append(slot.bits_from_map(chain_defect(H)))
    system = GF2System(hspace.dim)
    rows: dict[int, int] = {}
    for k, col in enumerate(columns):
        for t in bits_of(col):
            rows[t] = rows.get(t, 0) | (1 << k)
    for t in range(slot.dim):
        system.add_equation(rows.get(t, 0), (target_vec >> t) & 1)
        if not system.feasible:
            return None
    if not system.feasible:
        return None
    return hspace.map_from_bits(system.particular_solution())


# -- involutions ------------------------------------------------------------

@dataclass(frozen=True)
class IotaData:
    """A candidate involution: full over F2[U,V], or almost (mod (U,V))."""

    map: LinMap
    mode: str  # "full" | "almost"

    def __post_init__(self) -> None:
        if self.mode not in ("full", "almost"):
            raise StructuralError(f"unknown iota mode {self.mode!r}")
        if self.map.variance != "skew" or self.map.bidegree != (0, 0):
            raise StructuralError("iota must be skew of bidegree (0,0)")
        if self.mode == "almost" and self.map.ideal.kind != "max":
            raise StructuralError("almost iota must be reduced mod (U,V)")

    def render(self) -> str:
        lines = []
        for g in self.map.source.basis:
            row = self.map.action.get(g.name)
            if not row:
                continue
            targets = [t for t in self.map.target.names() if t in row]
            terms = []
            for t in targets:
                for m in row[t]:
                    mono = m.render()
                    terms.append(f"{mono} {t}" if mono != "1" else t)
            lines.append(f"iota {g.name} = " + " + ".join(terms))
        return "\n".join(lines)


@dataclass(frozen=True)
class IotaReport:
    """Outcome of the involution axioms, with a witness when one exists."""

    skew_graded: bool
    chain_map: bool
    squares: bool
    messages: tuple[str, ...] = ()
    witness: LinMap | None = None

    @property
    def ok(self) -> bool:
        return self.skew_graded and self.chain_map and self.squares


def one_plus_psi_phi(C: Complex, ideal: Ideal | None = None) -> LinMap:
    phi, psi = derivative_maps(C)
    out = identity_map(C) + psi.compose(phi)
    return out.reduce_to(ideal) if ideal is not None else out


def validate_iota(C: Complex, iota: IotaData) -> IotaReport:
    """Check skew-grading, the chain-map law, and the squared condition.

    In almost mode the squared condition is equality mod (U,V): on
    reduced complexes, homotopic maps agree there, so no homotopy has
    to be searched.  In full mode an equivariant homotopy from iota^2
    to 1 + Psi Phi is solved for and returned as a witness.
    """
    if iota.map.source is not C and iota.map.source.names() != C.names():
        raise StructuralError("iota is defined on a different basis")
    messages: list[str] = []
    skew = iota.map.variance == "skew" and iota.map.bidegree == (0, 0)
    if iota.mode == "almost":
        if not C.is_reduced:
            raise StructuralError("almost iota validation needs a reduced complex")
        ideal = Ideal.max_ideal()
        dmap = differential_map(C).reduce_to(ideal)
        defect = dmap.compose(iota.map) + iota.map.compose(dmap)
        chain = defect.is_zero()
        square = iota.map.compose(iota.map) + one_plus_psi_phi(C, ideal)
        squares = square.is_zero()
        if not squares:
            messages.append("iota^2 != 1 + Psi Phi mod (U,V)")
        return IotaReport(skew, chain, squares, tuple(messages))
    chain = is_chain_map(iota.map)
    if not chain:
        messages.append("iota is not a chain map")
    witness = solve_homotopy(iota.map.compose(iota.map), one_plus_psi_phi(C))
    if witness is None:
        messages.append("no equivariant homotopy from iota^2 to 1 + Psi Phi")
    return IotaReport(skew, chain, witness is not None, tuple(messages),
                      witness)


# -- exhaustive enumeration of almost involutions ---------------------------

MAX_ENUM_GENERATORS = 64
# Bound on the vertex cover of the cross-term graph: enumeration runs one
# linear solve for each of the 2^|cover| assignments of the cover.
MAX_ENUM_CLASSES_LOG2 = 26


@dataclass(frozen=True)
class _SquareSystem:
    """The squared condition over homotopy classes of skew chain maps.

    Class t in F2^q is the map with bits base_bits + sum of class_dirs[k]
    over the k set in t.  Its square is homotopic to 1 + Psi Phi exactly
    when z(t) = z0 + sum t_k lin[k] + sum_{k<l} t_k t_l cross[k, l] is zero,
    a vector in the equivariant (0,0) slot reduced modulo boundaries.
    """

    iota_space: MapSpace
    base_bits: int
    class_dirs: tuple[int, ...]
    z0: int
    lin: tuple[int, ...]
    cross: Mapping[tuple[int, int], int]  # keys k < l, nonzero terms only


def _square_system(C: Complex) -> _SquareSystem | None:
    """The quadratic system of C, or None when no skew chain map meets
    the forced unit coordinates."""
    cap = auto_cap(C)
    iota_space = MapSpace.build(C, C, "skew", (0, 0), C.ring, cap)
    u = iota_space.dim

    # chain-map condition: linear system over the iota coordinates
    defect_slot = MapSpace.build(C, C, "skew", (-1, -1), C.ring, cap)
    system = GF2System(u)
    rows: dict[int, int] = {}
    for k in range(u):
        unit = iota_space.map_from_bits(1 << k)
        col = defect_slot.bits_from_map(chain_defect(unit))
        for t in bits_of(col):
            rows[t] = rows.get(t, 0) | (1 << k)
    for row in rows.values():
        system.add_equation(row, 0)

    # forced unit coordinates: if x and y are each other's only mod-(U,V)
    # option and Psi Phi vanishes on both mod (U,V), any valid square
    # forces both coefficients to 1
    phi, psi = derivative_maps(C)
    psiphi = psi.compose(phi).reduce_to(Ideal.max_ideal())
    unit_slots: dict[str, list[int]] = {}
    for k, (src, tgt, m) in enumerate(iota_space.pairs):
        if m.i == 0 and m.j == 0:
            unit_slots.setdefault(src, []).append(k)
    for src, ks in unit_slots.items():
        if len(ks) != 1:
            continue
        tgt = iota_space.pairs[ks[0]][1]
        back = unit_slots.get(tgt, [])
        if len(back) != 1 or iota_space.pairs[back[0]][1] != src:
            continue
        if psiphi.of_gen(src) or psiphi.of_gen(tgt):
            continue
        system.add_equation(1 << ks[0], 1)
        system.add_equation(1 << back[0], 1)
    if not system.feasible:
        return None
    base_bits = system.particular_solution()
    null_basis = system.nullspace_basis()

    # null-homotopic skew maps: the subgroup to quotient out
    hskew = MapSpace.build(C, C, "skew", (1, 1), C.ring, cap)
    boundary_vecs = []
    for k in range(hskew.dim):
        H = hskew.map_from_bits(1 << k)
        boundary_vecs.append(iota_space.bits_from_map(chain_defect(H)))
    b_rows, b_pivots = rref_basis(boundary_vecs)
    class_dirs = complement_basis(b_rows, b_pivots, null_basis)
    q = len(class_dirs)

    # equivariant homotopy images, for the squared-condition membership test
    eq_slot = MapSpace.build(C, C, "eq", (0, 0), C.ring, cap)
    heq = MapSpace.build(C, C, "eq", (1, 1), C.ring, cap)
    eqb_vecs = []
    for k in range(heq.dim):
        H = heq.map_from_bits(1 << k)
        eqb_vecs.append(eq_slot.bits_from_map(chain_defect(H)))
    eqb_rows, eqb_pivots = rref_basis(eqb_vecs)

    def reduced_square_vec(f: LinMap, g: LinMap) -> int:
        vec = eq_slot.bits_from_map(f.compose(g) + g.compose(f)) \
            if f is not g else eq_slot.bits_from_map(f.compose(f))
        return reduce_mod_span(vec, eqb_rows, eqb_pivots)

    base_map = iota_space.map_from_bits(base_bits)
    dirs = [iota_space.map_from_bits(v) for v in class_dirs]
    target = reduce_mod_span(
        eq_slot.bits_from_map(one_plus_psi_phi(C)), eqb_rows, eqb_pivots)

    z0 = reduced_square_vec(base_map, base_map) ^ target
    lin = tuple(reduced_square_vec(base_map, dirs[k])
                ^ reduced_square_vec(dirs[k], dirs[k]) for k in range(q))
    cross: dict[tuple[int, int], int] = {}
    for k in range(q):
        for l in range(k + 1, q):
            v = reduced_square_vec(dirs[k], dirs[l])
            if v:
                cross[(k, l)] = v
    return _SquareSystem(iota_space, base_bits, tuple(class_dirs), z0, lin,
                         cross)


def _vertex_cover(q: int, edges) -> list[int]:
    """Greedy vertex cover of a graph on 0..q-1, in ascending order.

    Repeatedly takes a vertex of highest remaining degree, the lowest
    index on ties, so the cover does not depend on iteration order.
    """
    left = set(edges)
    cover = []
    while left:
        degree = [0] * q
        for k, l in left:
            degree[k] += 1
            degree[l] += 1
        v = max(range(q), key=lambda k: (degree[k], -k))
        cover.append(v)
        left = {e for e in left if v not in e}
    return sorted(cover)


def _spread(x: int, positions: list[int]) -> int:
    """Move bit i of x to bit positions[i]."""
    out = 0
    for i in bits_of(x):
        out |= 1 << positions[i]
    return out


def _square_solutions(
        system: _SquareSystem) -> Iterator[tuple[int, list[int]]]:
    """Every class t with z(t) = 0, as affine spaces (t0, null basis).

    No cross term joins two variables outside a vertex cover S, so fixing
    t on S leaves z linear in the rest: each of the 2^|S| assignments is
    one GF2System solve.
    """
    q = len(system.lin)
    cover = _vertex_cover(q, system.cross)
    if len(cover) > MAX_ENUM_CLASSES_LOG2:
        raise ResourceError(
            f"cross terms need a vertex cover of {len(cover)} of the {q} "
            f"class variables; 2^{len(cover)} linear solves exceed the "
            f"enumeration budget", len(cover))
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

    for assignment in range(1 << len(cover)):
        fixed = _spread(assignment, cover)
        const = system.z0
        for k in bits_of(fixed):
            const ^= system.lin[k]
        for k, l, v in inner:
            if (fixed >> k) & (fixed >> l) & 1:
                const ^= v
        rows: dict[int, int] = dict.fromkeys(bits_of(const), 0)
        for i, k in enumerate(free):
            col = system.lin[k]
            for l, v in touching[k]:
                if (fixed >> l) & 1:
                    col ^= v
            for t in bits_of(col):
                rows[t] = rows.get(t, 0) | (1 << i)
        solver = GF2System(len(free))
        for t, row in rows.items():
            if not solver.add_equation(row, (const >> t) & 1):
                break
        else:
            x0, null = solver.solution_space()
            yield fixed | _spread(x0, free), [_spread(v, free) for v in null]


def enumerate_almost_iotas(C: Complex) -> list[IotaData]:
    """All almost involutions of C, i.e. every mod-(U,V) action realized
    by a skew-equivariant skew-graded chain map whose square is
    equivariantly homotopic to 1 + Psi Phi.

    Homotopy classes of skew chain maps form a finite F2 space (monomials
    are grading-determined), and the squared condition is a quadratic
    system over it.  Its cross terms all touch a small greedy vertex
    cover; for each assignment of the cover the system is linear in the
    other class variables and is solved exactly, giving an affine space
    of solutions or none.  Each space is mapped to iota coordinates and
    projected onto the unit monomials, which is the reduction mod (U,V);
    every point of the projected span is collected.  The reduction is a
    homotopy invariant on reduced complexes, so the returned list, sorted
    by rendering, is exactly the set of almost-involution actions that
    lift; forced values like the ones on cable complexes emerge from the
    enumeration rather than being assumed.
    """
    if len(C.basis) > MAX_ENUM_GENERATORS:
        raise ResourceError(
            f"basis of size {len(C.basis)} exceeds the enumeration limit "
            f"{MAX_ENUM_GENERATORS}", len(C.basis))
    if C.ring.kind != "zero":
        raise StructuralError("enumeration needs the full coefficient ring")
    if not C.is_reduced:
        raise StructuralError("enumeration is defined for reduced complexes")

    system = _square_system(C)
    if system is None:
        return []
    space = system.iota_space
    mask = 0
    for k, (_, _, m) in enumerate(space.pairs):
        if m.i == 0 and m.j == 0:
            mask |= 1 << k
    unit_dirs = [d & mask for d in system.class_dirs]

    def project(t: int) -> int:
        bits = 0
        for k in bits_of(t):
            bits ^= unit_dirs[k]
        return bits

    found: set[int] = set()
    for t0, null in _square_solutions(system):
        points = {(system.base_bits & mask) ^ project(t0)}
        for v in null:
            step = project(v)
            points |= {p ^ step for p in points}
        found |= points
    max_ideal = Ideal.max_ideal()
    out = [IotaData(space.map_from_bits(bits).reduce_to(max_ideal), "almost")
           for bits in found]
    out.sort(key=IotaData.render)
    return out
