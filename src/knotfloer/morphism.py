"""Module maps between complexes: chain maps, map spaces, involutions.

A LinMap stores one int bitset row per source generator: bit t of row s
says that generator s maps to target generator t times the one monomial
that the gradings allow on that pair.  The map extends equivariantly
(f(U^i V^j x) = U^i V^j f(x)) or skew-equivariantly (U and V exchanged),
and because it has a fixed bidegree, products of monomials land on the
monomial the gradings fix for the composite.  So map algebra is bit
algebra: `+` is XOR, `compose` XORs the outer rows over the set bits of
each inner row, and reduction modulo a monomial ideal is an AND with a
mask of the targets whose fixed monomial lies outside the ideal.
Map spaces are finite-dimensional over F2 for the same reason, with no
truncation artifacts.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property
from itertools import accumulate
from typing import Iterator, Mapping, Sequence

from .complexes import (Complex, _image_grading, _mask_rows,
                        _row_terms, kept_targets)
from .errors import ResourceError, StructuralError
from .linalg import (Echelon, GF2System, bits_of, complement_basis, rref_basis,
                     transpose)
from .ring import Ideal, Mono, Record, RingElt, mono_words

Bidegree = tuple[int, int]

_VARIANCES = ("eq", "skew")
_MAX = Ideal.max_ideal()


class LinMap(Record):
    """A module map, one bitset row per source generator.

    variance "eq" extends F2[U,V]-linearly and "skew" exchanges U and
    V; either way the gradings fix the monomial of every term.  Every set
    bit of `rows` must be a pair whose fixed monomial lies outside the
    ideal.  `of_gen` and `action` read the rows back as monomial sets.
    `==` and hash are its own: they compare terms by generator name.
    """

    __slots__ = ("source", "target", "variance", "bidegree", "ideal", "rows")

    def __init__(self, source: Complex, target: Complex, variance: str,
                 bidegree: Bidegree, ideal: Ideal, rows: Sequence[int]):
        if variance not in _VARIANCES:
            raise StructuralError(f"unknown variance {variance!r}")
        for slot, value in (("source", source), ("target", target),
                            ("variance", variance),
                            ("bidegree", tuple(bidegree)), ("ideal", ideal),
                            ("rows", tuple(rows))):
            object.__setattr__(self, slot, value)

    # -- views ----------------------------------------------------------------

    def row_terms(self, s: int) -> list[tuple[str, int, int]]:
        """(target, U exponent, V exponent) of each term of f(source
        generator s), in target basis order."""
        return _row_terms(self.target.basis, self.rows[s], _image_grading(
            self.source.basis[s], self.variance, self.bidegree))

    def of_gen(self, name: str) -> dict[str, RingElt]:
        s = self.source._index.get(name)
        if s is None:
            return {}
        return {tgt: RingElt.mono(i, j) for tgt, i, j in self.row_terms(s)}

    @property
    def action(self) -> dict[str, dict[str, RingElt]]:
        return {x.name: self.of_gen(x.name)
                for x, row in zip(self.source.basis, self.rows) if row}

    def is_zero(self) -> bool:
        return not any(self.rows)

    # -- algebra ----------------------------------------------------------

    def __add__(self, other: "LinMap") -> "LinMap":
        if (self.source is not other.source or self.target is not other.target
                or self.variance != other.variance
                or self.bidegree != other.bidegree or self.ideal != other.ideal):
            raise StructuralError("can only add maps of matching shape")
        return LinMap(self.source, self.target, self.variance,
                      self.bidegree, self.ideal,
                      [a ^ b for a, b in zip(self.rows, other.rows)])

    def compose(self, inner: "LinMap") -> "LinMap":
        """self after inner."""
        variance, bidegree, ideal = _composite_shape(self, inner)
        outer = self.rows
        rows = []
        for r in inner.rows:
            acc = 0
            while r:
                low = r & -r
                acc ^= outer[low.bit_length() - 1]
                r ^= low
            rows.append(acc)
        if not self.ideal == inner.ideal == _MAX:  # else 1 * 1 = 1 is kept
            rows = _mask_rows(inner.source, self.target, variance, bidegree,
                              ideal, rows)
        return LinMap(inner.source, self.target, variance, bidegree,
                      ideal, rows)

    def reduce_to(self, ideal: Ideal) -> "LinMap":
        rows = _mask_rows(self.source, self.target, self.variance,
                          self.bidegree, ideal, self.rows)
        return LinMap(self.source, self.target, self.variance,
                      self.bidegree, ideal, rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinMap):
            return NotImplemented
        if (self.variance != other.variance or self.bidegree != other.bidegree
                or self.ideal != other.ideal):
            return False
        if self.source is other.source and self.target is other.target:
            return self.rows == other.rows
        return _named_terms(self) == _named_terms(other)

    def __hash__(self) -> int:  # equal on reordered bases, as `==` is
        return hash((self.variance, self.bidegree, self.ideal,
                     sum(row.bit_count() for row in self.rows)))

    # -- serialization ------------------------------------------------------

    def render(self, name: str = "f") -> str:
        return self.render_rows(f"map {name} variance {self.variance} : ",
                                "->")

    def render_rows(self, head: str, arrow: str) -> str:
        """One line `<head><x> <arrow> <terms>` per nonzero row x, terms
        `U^i V^j y` in target order: map files, iota lines and .cfk
        differentials all render through here.  Each term's monomial is
        the `mono_words` of its grading shift gr(y) - gr_v(x) - b."""
        lines, basis = [], self.target.basis
        for x, row in zip(self.source.basis, self.rows):
            if row:
                eu, ev = _image_grading(x, self.variance, self.bidegree)
                terms = []
                for y in map(basis.__getitem__, bits_of(row)):
                    words = mono_words(y.gr_u - eu, y.gr_v - ev)
                    terms.append(" ".join(words) + " " + y.name if words
                                 else y.name)
                lines.append(f"{head}{x.name} {arrow} " + " + ".join(terms))
        return "\n".join(lines)


def _named_terms(f: LinMap) -> dict[str, set[tuple[str, int, int]]]:
    """The terms of each nonzero row of f, by source generator name."""
    return {x.name: set(f.row_terms(s))
            for s, x in enumerate(f.source.basis) if f.rows[s]}


def _composite_shape(outer, inner) -> tuple[str, Bidegree, Ideal]:
    """Variance, bidegree and ideal of `outer` after `inner`, two maps or
    map spaces.  A skew outer map exchanges U and V, so it swaps the
    inner bidegree; the composite lives over the larger ideal."""
    if inner.target is not outer.source:
        raise StructuralError("composition target/source mismatch")
    if inner.ideal <= outer.ideal:
        ideal = outer.ideal
    elif outer.ideal <= inner.ideal:
        ideal = inner.ideal
    else:
        raise StructuralError("cannot compose maps over incomparable ideals")
    variance = "eq" if outer.variance == inner.variance else "skew"
    bi = inner.bidegree
    if outer.variance == "skew":
        bi = (bi[1], bi[0])
    return (variance, (bi[0] + outer.bidegree[0], bi[1] + outer.bidegree[1]),
            ideal)


def identity_map(C: Complex, ideal: Ideal | None = None) -> LinMap:
    return LinMap(C, C, "eq", (0, 0), ideal or C.ring,
                  [1 << k for k in range(len(C))])


def differential_map(C: Complex) -> LinMap:
    return LinMap(C, C, "eq", (-1, -1), C.ring, C.rows)


# -- derivative maps -------------------------------------------------------

def derivative_maps(C: Complex) -> tuple[LinMap, LinMap]:
    """The commutators of d with the formal U- and V-derivatives.

    Both are equivariant chain maps; the first has bidegree (+1,-1),
    the second (-1,+1).  Over F2 the derivative of U^i is U^(i-1) when
    i is odd and zero otherwise, so each keeps the terms of d whose
    exponent is odd: a parity mask over the rows.
    """
    if C.ring.kind != "zero":
        raise StructuralError("derivative maps need the full coefficient ring")
    gr = [(g.gr_u, g.gr_v) for g in C.basis]
    # exponent of U, V (a = 0, 1) on (s, t): (gr[t][a] - gr[s][a] + 1) / 2
    return tuple(LinMap(C, C, "eq", (1 - 2 * a, 2 * a - 1), C.ring, [
        sum(1 << t for t in bits_of(row) if (gr[t][a] - gr[s][a] + 1) & 2)
        for s, row in enumerate(C.rows)]) for a in (0, 1))


def unit_derivative_maps(C: Complex) -> tuple[LinMap, LinMap]:
    """`derivative_maps(C)` mod (U,V), from the unit parts of d: Phi's unit
    terms are the terms of d with monomial U, Psi's those with monomial V,
    so row s keeps the targets of grading gr(s) + (1,-1), resp. (-1,+1)."""
    if C.ring.kind != "zero":
        raise StructuralError("derivative maps need the full coefficient ring")
    cells = C.grading_index.cells
    return tuple(LinMap(C, C, "eq", (du, -du), _MAX, [
        row & cells.get((x.gr_u + du, x.gr_v - du), 0)
        for x, row in zip(C.basis, C.rows)]) for du in (1, -1))


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

class MapSpace(Record):
    """Basis of all maps of one shape: (source gen, target gen, monomial).

    The gradings fix the monomial on each (source, target) pair, so the
    space is finite and holds every map of its shape.  Source s keeps the
    targets in `masks[s]`, one `kept_targets` lookup per bigrading, and
    its coordinate of target t is `starts[s] + ranks[s][t]`: coordinates
    run source by source, targets ascending, as `pairs` lists them (built
    only when read).  `operator_rows` assembles the solvers' operators
    (f -> d f + f d, u -> u g and u -> g u) as equation rows, one per
    coordinate of a slot space of the composite's shape, each a bitset
    over this space, by index arithmetic on the masks and the rows of
    the maps involved.
    """

    # starts has one more entry than masks: the last is dim; __dict__
    # holds the cached views
    __slots__ = ("source", "target", "variance", "bidegree", "ideal", "masks",
                 "starts", "__dict__")

    def __init__(self, source: Complex, target: Complex, variance: str,
                 bidegree: Bidegree, ideal: Ideal, masks: tuple[int, ...],
                 starts: tuple[int, ...]):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "variance", variance)
        object.__setattr__(self, "bidegree", bidegree)
        object.__setattr__(self, "ideal", ideal)
        object.__setattr__(self, "masks", masks)
        object.__setattr__(self, "starts", starts)

    @staticmethod
    def build(source: Complex, target: Complex, variance: str,
              bidegree: Bidegree, ideal: Ideal) -> "MapSpace":
        kept = kept_targets(target.grading_index, ideal)
        masks = tuple(kept(_image_grading(x, variance, bidegree))
                      for x in source.basis)
        starts = (0, *accumulate(m.bit_count() for m in masks))
        return MapSpace(source, target, variance, bidegree, ideal, masks,
                        starts)

    @property
    def dim(self) -> int:
        return self.starts[-1]

    @cached_property
    def ranks(self) -> tuple[dict[int, int], ...]:
        """ranks[s][t]: the place of t among the kept targets of s, one
        table per mask, kept on the target's grading index."""
        made = self.target.grading_index.ranks
        return tuple(made[m] if m in made else made.setdefault(
            m, {t: r for r, t in enumerate(bits_of(m))}) for m in self.masks)

    @cached_property
    def pairs(self) -> tuple[tuple[str, str, Mono], ...]:
        """(source, target, monomial) of each coordinate, in order."""
        return tuple((x.name, tgt, Mono(i, j)) for x, m in zip(
            self.source.basis, self.masks) for tgt, i, j in _row_terms(
            self.target.basis, m, _image_grading(x, self.variance,
                                                 self.bidegree)))

    def row_bits(self, s: int, row: int) -> int:
        """The targets of `row` that source s keeps, as bits over the space."""
        rank = self.ranks[s]
        return sum(1 << rank[t] for t in bits_of(row & self.masks[s])
                   ) << self.starts[s]

    def map_from_bits(self, bits: int) -> LinMap:
        rows, starts, s = [0] * len(self.masks), self.starts, -1
        for k in bits_of(bits):
            if s < 0 or k >= starts[s + 1]:
                s = bisect_right(starts, k) - 1
                targets = list(self.ranks[s])
            rows[s] |= 1 << targets[k - starts[s]]
        return LinMap(self.source, self.target, self.variance,
                      self.bidegree, self.ideal, rows)

    def bits_from_map(self, f: LinMap) -> int:
        """f, a map of this space's shape, reduced modulo the space's
        ideal, as bits over the coordinates."""
        if (f.source is not self.source or f.target is not self.target
                or (f.variance, f.bidegree) != (self.variance, self.bidegree)):
            raise StructuralError("map falls outside the map space")
        return sum(map(self.row_bits, range(len(f.rows)), f.rows))

    # -- operators, one equation row per slot coordinate -------------------

    def operator_rows(self, slot: "MapSpace", post: LinMap | None = None,
                      pre: LinMap | None = None) -> list[int]:
        """The rows of u -> post u + u pre, reduced modulo the slot's
        ideal: row e holds the basis maps u whose image has slot
        coordinate e, as bits over this space; post = pre = d gives
        f -> d f + f d.

        The basis map (s, t) sends s to t times its monomial: post u sends
        s to post(t), and u pre sends each w with s in pre(w) to t, each
        kept where the slot's mask of its source allows; the gradings fix
        every monomial, so the rest lies in the slot's ideal.  Both masks
        of s depend only on s's bigrading: the rows of post u over the
        targets of s are packed once per bigrading.
        """
        for outer, inner in ((post, self), (self, pre)):
            if outer is not None and inner is not None:
                _check_slot(slot, outer, inner)
        rows, starts, ranks = [0] * slot.dim, self.starts, self.ranks
        if post is not None:
            for members in self.source.grading_index.cells.values():
                s = members.bit_length() - 1
                mask, rank = slot.masks[s], slot.ranks[s]
                packed = [0] * mask.bit_count()
                for r, t in enumerate(ranks[s]):
                    for z in bits_of(post.rows[t] & mask):
                        packed[rank[z]] |= 1 << r
                if not any(packed):
                    continue
                for s in bits_of(members):
                    start = starts[s]
                    rows[slot.starts[s]:slot.starts[s + 1]] = [
                        v << start for v in packed]
        for w, row in enumerate(pre.rows if pre is not None else ()):
            mask, rank, start = slot.masks[w], slot.ranks[w], slot.starts[w]
            for s in bits_of(row):
                base, srank = starts[s], ranks[s]
                for t in bits_of(self.masks[s] & mask):
                    rows[start + rank[t]] ^= 1 << base + srank[t]
        return rows


def _check_slot(slot: MapSpace, outer, inner) -> None:
    """Raise unless `slot` holds maps of the shape of `outer` after `inner`,
    over an ideal containing the composite's."""
    variance, bidegree, ideal = _composite_shape(outer, inner)
    if not (slot.source is inner.source and slot.target is outer.target
            and slot.variance == variance and slot.bidegree == bidegree
            and ideal <= slot.ideal):
        raise StructuralError(
            f"slot {slot.source.name} -> {slot.target.name} ({slot.variance}, "
            f"bidegree {slot.bidegree}, ideal {slot.ideal.kind}) cannot hold "
            f"the composite {inner.source.name} -> {outer.target.name} "
            f"({variance}, bidegree {bidegree}, ideal {ideal.kind})")


# -- involutions ------------------------------------------------------------

class IotaData(Record):
    """A candidate almost involution: a skew map mod (U,V).

    It keeps what depends on it alone, in its memo slots: its
    `validate_iota` report, and the maximal self-local map of
    `localequiv` with its map-space size.
    """

    __slots__ = ("map", "_report", "_self_local")
    mode = "almost"  # a constant; perfbench's tracer reads it

    def __init__(self, map: LinMap):
        if map.variance != "skew" or map.bidegree != (0, 0):
            raise StructuralError("iota must be skew of bidegree (0,0)")
        if map.ideal != _MAX:
            raise StructuralError("almost iota must be reduced mod (U,V)")
        object.__setattr__(self, "map", map)
        object.__setattr__(self, "_report", None)
        object.__setattr__(self, "_self_local", None)

    def render(self) -> str:
        return self.map.render_rows("iota ", "=")


class IotaReport(Record):
    """Outcome of the involution axioms mod (U,V): whether iota^2 = 1 +
    Psi Phi.  iota is a chain map mod (U,V) by construction: d mod (U,V)
    is zero on the reduced complexes that reports are made for."""

    __slots__ = ("squares", "messages")

    def __init__(self, squares: bool, messages: tuple[str, ...] = ()):
        object.__setattr__(self, "squares", squares)
        object.__setattr__(self, "messages", messages)

    @property
    def ok(self) -> bool:
        return self.squares


def validate_iota(C: Complex, iota: IotaData) -> IotaReport:
    """Check the squared condition mod (U,V), on a reduced complex;
    `IotaData` is skew of bidegree (0,0) by construction.  On reduced
    complexes homotopic maps agree mod (U,V), so iota^2 is compared with
    1 + Psi Phi mod (U,V) directly, with no homotopy to search for, and
    that is read from the U- and V-terms of d (`unit_derivative_maps`)."""
    return next(_almost_reports(C, [iota]))


def _iota_shape(C: Complex, iota: IotaData) -> None:
    """Raise unless iota is a map of C itself, not of a copy with the same
    names, or composites with C's maps fail; `IotaData` already holds it
    skew of bidegree (0,0)."""
    if iota.map.source is not C or iota.map.target is not C:
        raise StructuralError("iota is defined on a different basis")


def _almost_reports(C: Complex,
                    iotas: Sequence[IotaData]) -> Iterator[IotaReport]:
    """The `validate_iota` report of each iota, in order.

    Each iota is checked to be a map of C itself on every call; its report
    is computed once and kept on it.  1 + Psi Phi mod (U,V) depends only
    on C, so it is built once, when the first report is computed.
    """
    square_target = None
    for iota in iotas:
        _iota_shape(C, iota)
        if iota._report is None:
            if square_target is None:
                if not C.is_reduced:
                    raise StructuralError(
                        "almost iota validation needs a reduced complex")
                phi, psi = unit_derivative_maps(C)
                square_target = identity_map(C, _MAX) + psi.compose(phi)
            squares = (iota.map.compose(iota.map) + square_target).is_zero()
            messages = () if squares else ("iota^2 != 1 + Psi Phi mod (U,V)",)
            object.__setattr__(iota, "_report",
                               IotaReport(squares, messages))
        yield iota._report


# -- exhaustive enumeration of almost involutions ---------------------------

MAX_ENUM_GENERATORS = 64
# Bound on the vertex cover of the cross-term graph: the walk over the
# cover's assignments runs at most 2^(|cover| + 1) - 1 linear solves.
MAX_ENUM_CLASSES_LOG2 = 26


class _SquareSystem(Record):
    """The squared condition over homotopy classes of skew chain maps.

    Class t in F2^q is the map with bits base_bits + sum of class_dirs[k]
    over the k set in t.  Its square is homotopic to 1 + Psi Phi exactly
    when z(t) = z0 + sum t_k lin[k] + sum_{k<l} t_k t_l cross[k, l] is zero,
    a vector in the equivariant (0,0) slot reduced modulo boundaries.
    `unit_mask` holds the coordinates of monomial 1: the enumeration
    projects each class onto them, which is its reduction mod (U,V).
    """

    # cross: keys k < l, nonzero terms only
    __slots__ = ("iota_space", "unit_mask", "base_bits", "class_dirs", "z0",
                 "lin", "cross")

    def __init__(self, iota_space: MapSpace, unit_mask: int, base_bits: int,
                 class_dirs: tuple[int, ...], z0: int, lin: tuple[int, ...],
                 cross: Mapping[tuple[int, int], int]):
        object.__setattr__(self, "iota_space", iota_space)
        object.__setattr__(self, "unit_mask", unit_mask)
        object.__setattr__(self, "base_bits", base_bits)
        object.__setattr__(self, "class_dirs", class_dirs)
        object.__setattr__(self, "z0", z0)
        object.__setattr__(self, "lin", lin)
        object.__setattr__(self, "cross", cross)


def _square_system(C: Complex) -> _SquareSystem | None:
    """The quadratic system of C, or None when no skew chain map meets
    the forced unit coordinates."""
    iota_space = MapSpace.build(C, C, "skew", (0, 0), C.ring)
    u = iota_space.dim

    # chain-map condition: linear system over the iota coordinates
    defect_slot = MapSpace.build(C, C, "skew", (-1, -1), C.ring)
    d = differential_map(C)
    system = GF2System(u)
    system.add_equations(iota_space.operator_rows(defect_slot, d, d))

    # unit coordinates: the targets of monomial 1, which the reduction mod
    # (U,V) keeps; if s and t are each other's only unit target and Psi Phi
    # vanishes on both mod (U,V), any valid square forces both to 1
    units = MapSpace.build(C, C, "skew", (0, 0), _MAX).masks
    unit_mask = sum(map(iota_space.row_bits, range(len(C)), units))
    phi, psi = derivative_maps(C)
    square = identity_map(C) + psi.compose(phi)  # what iota^2 is homotopic to
    unit_square = square.reduce_to(_MAX).rows
    for s, ts in enumerate(units):
        t = ts.bit_length() - 1
        if (ts.bit_count() == 1 and units[t] == 1 << s
                and unit_square[s] == 1 << s and unit_square[t] == 1 << t):
            system.add_equation(iota_space.row_bits(s, ts), 1)
    if not system.feasible:
        return None
    base_bits = system.particular_solution()
    null_basis = system.nullspace_basis()

    # null-homotopic skew maps: the subgroup to quotient out
    hskew = MapSpace.build(C, C, "skew", (1, 1), C.ring)
    class_dirs = complement_basis(rref_basis(
        transpose(hskew.operator_rows(iota_space, d, d)).values()), null_basis)
    q = len(class_dirs)

    # equivariant homotopy images, for the squared-condition membership test
    eq_slot = MapSpace.build(C, C, "eq", (0, 0), C.ring)
    heq = MapSpace.build(C, C, "eq", (1, 1), C.ring)
    eq_boundaries = rref_basis(
        transpose(heq.operator_rows(eq_slot, d, d)).values())

    # maps[0] is the base map, maps[k + 1] class direction k, as rows, and
    # the preimages of each: s -> the w with s in maps(w)
    rows = [iota_space.map_from_bits(v).rows for v in (base_bits, *class_dirs)]
    preimages = [transpose(m) for m in rows]
    starts, ranks = eq_slot.starts, eq_slot.ranks

    def composite(f: int, g: int) -> int:
        """maps[f] o maps[g] in eq_slot coordinates."""
        out = 0
        for s, ws in preimages[g].items():
            for t in bits_of(rows[f][s]):
                for w in bits_of(ws):
                    out ^= 1 << starts[w] + ranks[w][t]
        return out

    def reduced_square_vec(f: int, g: int) -> int:
        vec = composite(f, f) if f == g else composite(f, g) ^ composite(g, f)
        return eq_boundaries.reduce(vec)

    target = eq_boundaries.reduce(eq_slot.bits_from_map(square))

    z0 = reduced_square_vec(0, 0) ^ target
    lin = tuple(reduced_square_vec(0, k + 1) ^ reduced_square_vec(k + 1, k + 1)
                for k in range(q))
    cross: dict[tuple[int, int], int] = {}
    for k in range(q):
        for l in range(k + 1, q):
            v = reduced_square_vec(k + 1, l + 1)
            if v:
                cross[(k, l)] = v
    return _SquareSystem(iota_space, unit_mask, base_bits, tuple(class_dirs),
                         z0, lin, cross)


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
    t on S leaves z linear in the rest.  S is fixed one variable at a
    time, depth first, and each node solves its relaxation: z with every
    product t_k t_l of two unset variables taken as an unknown of its
    own.  An infeasible relaxation has no solution below it, so its
    branch is dropped; at a leaf the relaxation is the exact system.
    """
    q = len(system.lin)
    cover = _vertex_cover(q, system.cross)
    if len(cover) > MAX_ENUM_CLASSES_LOG2:
        raise ResourceError(
            f"cross terms need a vertex cover of {len(cover)} of the {q} "
            f"class variables; 2^{len(cover)} linear solves exceed the "
            f"enumeration budget", len(cover))
    free = [k for k in range(q) if k not in cover]

    def walk(depth: int, fixed: int, const: int, cols: dict[int, int],
             cross: dict[tuple[int, int], int]):
        # cols: each unset variable's column given `fixed`; cross: the
        # cross terms joining two unset variables
        columns = [cols[k] for k in cover[depth:] + free]
        if depth == len(cover):  # no cross terms left: the exact system
            solver = GF2System(len(free))
            if solver.add_rows(transpose(columns), const):
                x0, null = solver.solution_space()
                yield (fixed | _spread(x0, free),
                       [_spread(v, free) for v in null])
            return
        if Echelon(columns + list(cross.values())).reduce(const):
            return  # const lies outside the relaxation's column span
        k = cover[depth]
        for value in (0, 1):
            sub_cols, sub_cross = dict(cols), {}
            for (a, b), v in cross.items():
                if k not in (a, b):
                    sub_cross[a, b] = v
                elif value:
                    sub_cols[a + b - k] ^= v
            yield from walk(depth + 1, fixed | value << k,
                            const ^ cols[k] if value else const,
                            sub_cols, sub_cross)

    yield from walk(0, 0, system.z0, dict(enumerate(system.lin)),
                    dict(system.cross))


def enumerate_almost_iotas(C: Complex) -> list[IotaData]:
    """All almost involutions of C, i.e. every mod-(U,V) action realized
    by a skew-equivariant skew-graded chain map whose square is
    equivariantly homotopic to 1 + Psi Phi.

    Homotopy classes of skew chain maps form a finite F2 space, and the
    squared condition is a quadratic system over it.  Its cross terms all
    touch a small greedy vertex cover; on each assignment of the cover
    the system is linear in the other class variables and solved exactly
    (a walk pruned by a linear relaxation skips most assignments without
    solutions).  Each affine space of solutions is projected onto the
    unit coordinates, its reduction mod (U,V), a homotopy invariant on
    reduced complexes: the returned list, sorted by rendering, is exactly
    the set of almost-involution actions that lift.
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
    space, mask = system.iota_space, system.unit_mask
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
    out = [IotaData(space.map_from_bits(bits).reduce_to(_MAX))
           for bits in found]
    out.sort(key=IotaData.render)
    return out
