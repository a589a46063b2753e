"""Local-map search, maximal self-local maps, and the connected complex.

Local maps are grading-preserving chain maps that intertwine the
involutions up to skew homotopy and carry the free tower of the source
to a generator of the target tower.  On reduced complexes the almost
version turns the homotopy into an equality mod (U,V), so the search is
affine-linear over F2: `_chain_maps` gives the chain maps as an affine
family in parameters t, the free unknowns of the solved chain system,
with the locality row over t, and `_local_system`
adds it to the intertwining rows of one involution pair, rewritten in t;
the search runs it on every pair, `SelfLocalFamily` on (iota, iota).
A map space holds every map of its shape, so an inconsistent system
rules out every candidate over all enumerated involution completions.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain
from typing import Container, Iterator

from .complexes import Complex, Generator, GradingIndex, kept_targets
from .errors import ResourceError, StructuralError
from .homology import UHomology, hfk_minus, torsion_order
from .linalg import AffineSpace, Echelon, GF2System, bits_of, transpose
from .morphism import (IotaData, LinMap, MapSpace, _almost_reports,
                       _iota_shape, chain_defect, differential_map,
                       enumerate_almost_iotas)
from .ring import Ideal

DEFAULT_BUDGET = 2_000_000

IotaInput = IotaData | list[IotaData] | None


@dataclass(frozen=True)
class LocalSearchSpec:
    """One local-map existence question: each side is a complex with its
    involutions (one, a list, or None to enumerate them all); budget
    bounds the number of unknowns."""

    source: tuple[Complex, IotaInput]
    target: tuple[Complex, IotaInput]
    budget: int = DEFAULT_BUDGET


@dataclass(frozen=True)
class NonexistenceToken:
    """Dimensions of the exhausted F2 search space."""

    unknowns: int
    equations: int
    iota_pairs: int

    def render(self) -> str:
        return (f"nonexistence mode=almost unknowns={self.unknowns} "
                f"equations={self.equations} iota_pairs={self.iota_pairs}")


@dataclass(frozen=True)
class LocalCertificate:
    """Either a re-verified map or a nonexistence token covering the
    whole map space."""

    found: LinMap | None = None
    iota_pair: tuple[IotaData, IotaData] | None = None
    token: NonexistenceToken | None = None

    @property
    def exists(self) -> bool:
        return self.found is not None


# -- the affine search core -------------------------------------------------

def _locality_bit(f: LinMap, tower: int, grading: int,
                  tgt_hom: UHomology) -> bool:
    """Tower coefficient of the class of f(tower generator) mod V.

    `tower` and `grading` are `UHomology.tower_generator()` of f's
    source: generator x with coefficient a power of U.  An equivariant f
    sends it to the targets of x whose monomial has no V.  Only valid
    when f is a chain map (so the image is a cycle mod V).
    """
    v_free = f.reduce_to(Ideal.principal_v()).rows
    vec = 0
    for s in bits_of(tower):
        vec ^= v_free[s]
    return tgt_hom.tower_unit_coefficient((vec, grading))


def _locality_equation(fspace: MapSpace, family: AffineSpace,
                       src_hom: UHomology, tgt_hom: UHomology) -> int:
    """The augmented t-row of "`_locality_bit` is 1" over a family of
    chain maps in fspace.

    With one target tower the bit is linear in the map: each basis map
    (x, y) with x in the tower generator and gr_V(y) = gr_V(x) (no V in
    its monomial) adds y to the image mod V, which counts when y has odd
    tower coefficient.  The row XORs those maps' `equations` and asks
    for 1; it is 0 = 1 when the tower lies in another grading.
    """
    tower, grading = src_hom.tower_generator()
    targets = fspace.target.basis
    odd = sum(1 << y for y in range(len(targets))
              if tgt_hom.tower_unit_coefficient((1 << y, grading)))
    row = 1 << family.width
    for x in bits_of(tower):
        gr_v, rank = fspace.source.basis[x].gr_v, fspace.ranks[x]
        for y in bits_of(fspace.masks[x] & odd):
            if targets[y].gr_v == gr_v:
                row ^= family.equations[fspace.starts[x] + rank[y]]
    return row


def _chain_maps(src_hom: UHomology, tgt_hom: UHomology, budget: int
                ) -> tuple[MapSpace, AffineSpace, int, int]:
    """(fspace, family, locality, chain equation count): the space of
    every equivariant map of bidegree (0,0) between the complexes of two
    one-tower homologies, its chain maps as an affine family in
    parameters t, and the `_locality_equation` over t: one more row of
    the route that rewrites the intertwining rows in t."""
    src, tgt = src_hom.C, tgt_hom.C
    fspace = MapSpace.build(src, tgt, "eq", (0, 0), src.ring)
    if fspace.dim > budget:
        raise ResourceError(
            f"{fspace.dim} unknowns exceed the budget {budget}", fspace.dim)
    chain_slot = MapSpace.build(src, tgt, "eq", (-1, -1), src.ring)
    base = GF2System(fspace.dim)
    base.add_equations(fspace.operator_rows(
        chain_slot, differential_map(tgt), differential_map(src)))
    family = AffineSpace(base)
    locality = _locality_equation(fspace, family, src_hom, tgt_hom)
    return fspace, family, locality, chain_slot.dim


def _slot_rows(family: AffineSpace,
               rows: list[int]) -> tuple[list[int], list[int]]:
    """An operator's equation rows over the map space, one per slot
    coordinate (`MapSpace.operator_rows`), and the same rows rewritten in
    the parameters t of the family: the XOR of `equations[k]` over the
    bits k of each."""
    equations, eqs = family.equations, []
    for row in rows:
        eq = 0
        for k in bits_of(row):
            eq ^= equations[k]
        eqs.append(eq)
    return rows, eqs


def _local_system(family: AffineSpace, locality: int, pre: tuple,
                  post: tuple) -> tuple[GF2System | None, int]:
    """(system over t, intertwining row count) for one involution pair
    from the `_slot_rows` of u -> u i1 and u -> i2 u: their sum's nonzero
    rows and the locality row, added in one call; the system is None if
    no local map exists."""
    (raw1, eqs1), (raw2, eqs2) = pre, post
    rows = [eqs1[e] ^ eqs2[e] for e in range(len(raw1)) if raw1[e] != raw2[e]]
    system = GF2System(family.width)
    feasible = system.add_equations(rows + [locality])
    return (system if feasible else None), len(rows)


def _iota_candidates(C: Complex, data: IotaInput) -> list[IotaData]:
    if data is None:
        return enumerate_almost_iotas(C)
    if isinstance(data, IotaData):
        data = [data]
    for rep in _almost_reports(C, data):
        if not rep.ok:
            raise StructuralError(
                f"involution fails validation: {'; '.join(rep.messages)}")
    return data


def search_local_map(spec: LocalSearchSpec) -> LocalCertificate:
    """Decide existence of an almost local map, or produce a certificate.

    u i1 + i2 u mod (U,V) splits as A(i1) + B(i2), A the precomposition
    and B the postcomposition operator, so the rows of A in t are built
    once per source completion and those of B once per target completion.
    Any found map is re-verified by `verify_almost_local`.
    """
    src, src_iota_in = spec.source
    tgt, tgt_iota_in = spec.target
    for C in (src, tgt):
        if not C.validate().ok:
            raise StructuralError(f"complex {C.name} fails validation")
    src_hom, tgt_hom = src.u_homology, tgt.u_homology
    if src_hom.decomp.tower_count != 1 or tgt_hom.decomp.tower_count != 1:
        raise StructuralError("local maps need exactly one tower on each side")
    fspace, family, locality, n_equations = _chain_maps(src_hom, tgt_hom,
                                                        spec.budget)

    src_iotas = _iota_candidates(src, src_iota_in)
    tgt_iotas = _iota_candidates(tgt, tgt_iota_in)

    int_slot = MapSpace.build(src, tgt, "skew", (0, 0), Ideal.max_ideal())
    post_rows: dict[int, tuple] = {}
    for i1 in src_iotas:
        pre = _slot_rows(family, fspace.operator_rows(int_slot, pre=i1.map))
        for n2, i2 in enumerate(tgt_iotas):
            if n2 not in post_rows:
                post_rows[n2] = _slot_rows(
                    family, fspace.operator_rows(int_slot, post=i2.map))
            system, n_rows = _local_system(family, locality, pre,
                                           post_rows[n2])
            n_equations += n_rows
            if system is None:
                continue
            f = fspace.map_from_bits(
                family.point(system.particular_solution()))
            if not verify_almost_local(f, i1, i2):
                raise StructuralError("solver produced a map that fails "
                                      "re-verification")
            return LocalCertificate(found=f, iota_pair=(i1, i2))
    return LocalCertificate(token=NonexistenceToken(
        fspace.dim, n_equations, len(src_iotas) * len(tgt_iotas)))


def verify_almost_local(f: LinMap, i1: IotaData, i2: IotaData) -> bool:
    """Re-check the three almost-local conditions for a candidate map:
    f is a chain map, f i1 = i2 f mod (U,V), and f sends the tower class
    to a tower generator."""
    u = f.reduce_to(Ideal.max_ideal())
    return (chain_defect(f).is_zero()
            and (u.compose(i1.map) + i2.map.compose(u)).is_zero()
            and _locality_bit(f, *f.source.u_homology.tower_generator(),
                              f.target.u_homology))


# -- self-local equivalences and the connected complex ----------------------

class SelfLocalFamily:
    """Affine set of almost self-local maps of (C, iota): `family` holds
    the chain maps of C in parameters t, and the system `inner` over t the
    rows that make them intertwine iota and be local.  Exact certificates
    over the whole set need no list of its members."""

    def __init__(self, C: Complex, iota: IotaData, budget: int):
        _iota_candidates(C, iota)  # raises unless iota validates
        self.C = C
        self.iota = iota
        hom = C.u_homology
        if hom.decomp.tower_count != 1:
            raise StructuralError("self-local maps need exactly one tower")
        self.fspace, self.family, locality, _ = _chain_maps(hom, hom, budget)
        slot = MapSpace.build(C, C, "skew", (0, 0), Ideal.max_ideal())
        self.inner, _ = _local_system(self.family, locality, *(
            _slot_rows(self.family, self.fspace.operator_rows(slot, **side))
            for side in ({"pre": iota.map}, {"post": iota.map})))
        if self.inner is None:
            raise StructuralError("no self-local equivalence exists at all")

    def unit_coefficient_constant(self, src: str, tgt: str) -> tuple[bool, int]:
        """(whether <f(src), tgt> is constant over the family, its value
        at the particular solution).  The unit-monomial coordinate k is
        `family.equations[k]` in t; `inner` reduces it to a row with no
        pivot bit, so it is constant when that row is its rhs alone, and
        the rhs is its value where the free unknowns of `inner` are 0."""
        if self.C.grading(src) != self.C.grading(tgt):
            return True, 0  # no unit-monomial pair
        s = self.C.index(src)
        eq = self.inner.reduce(self.family.equations[
            self.fspace.starts[s] + self.fspace.ranks[s][self.C.index(tgt)]])
        return not eq & ((1 << self.inner.width) - 1), eq >> self.inner.width


def _kill_candidates(C: Complex, fspace: MapSpace,
                     killed: Container[int]) -> Iterator[list[tuple]]:
    """Per candidate, the rows r with r . f = 0 that kill it, each the
    tuple of its one or two map-space coordinates, ascending.  Singles
    first (killing any monomial multiple of a generator forces f(x) = 0
    on the whole generator), then minimal two-term homogeneous
    combinations of each pair x < y whose gradings differ by even
    amounts.  The about n^2 / 4 candidates are built when the sweep asks;
    a pair of two `killed` generators is skipped."""
    by_source = [{t: start + r for t, r in rank.items()}  # target: k
                 for start, rank in zip(fspace.starts, fspace.ranks)]
    n = len(C)

    def pairs() -> Iterator[list[int]]:
        # gr_U - gr_V is even on every generator, so gr_U's parity decides
        for xi in range(n):
            for yi in range(xi + 1, n):
                du = C.basis[xi].gr_u - C.basis[yi].gr_u
                if du % 2 or xi in killed and yi in killed:
                    continue
                # f(U^a V^b x + U^(a - du/2) V^(b - dv/2) y) = 0, (du, dv) =
                # gr(x) - gr(y), a = max(0, du/2), b = max(0, dv/2): the terms
                # share a grading, which fixes each target's monomial
                sx, sy = by_source[xi], by_source[yi]
                yield ([(k, sy[tgt]) if tgt in sy else (k,)
                        for tgt, k in sx.items()]
                       + [(k,) for tgt, k in sy.items() if tgt not in sx])

    return chain(([(k,) for k in targets.values()] for targets in by_source),
                 pairs())


def _maximal_self_local(C: Complex, iota: IotaData, budget: int) -> LinMap:
    """The map of `connected_complex`, kept on iota with the dimension of
    its map space: a budget below it goes on to raise in `_chain_maps`.
    iota must be a map of C itself.  One sweep suffices: a rejected
    candidate stays rejected.  A candidate's rows, each the XOR of its
    unknowns' `equations` kept reduced by the accepted span, are added
    all together or not at all; one accepted with one unknown per row
    kills each generator it touches."""
    _iota_shape(C, iota)
    if iota._self_local is not None and iota._self_local[0] <= budget:
        return iota._self_local[1]
    sls = SelfLocalFamily(C, iota, budget)
    inner, table = sls.inner, list(sls.family.equations)
    killed: set[int] = set()
    for rows in _kill_candidates(C, sls.fspace, killed):
        mask, eqs = inner.mask, []
        for row in rows:
            eq = 0
            for k in row:
                if table[k] & mask:
                    table[k] = inner.reduce(table[k])
                eq ^= table[k]
            if eq:
                eqs.append(eq)
        if inner.add_equations(eqs) and all(len(row) == 1 for row in rows):
            killed.update(bisect_right(sls.fspace.starts, k) - 1
                          for k, in rows)
    f = sls.fspace.map_from_bits(
        sls.family.point(inner.particular_solution()))
    if not verify_almost_local(f, iota, iota):
        raise StructuralError("maximal candidate fails re-verification")
    object.__setattr__(iota, "_self_local", (sls.fspace.dim, f))
    return f


def image_complex(C: Complex, f: LinMap, name: str = "conn") -> Complex:
    """The image of an equivariant grading-preserving chain map, as a
    free complex on a minimal generating set.

    Valid when ker f and im f intersect trivially (true for
    kernel-maximal self-local maps); the result is then a free direct
    summand subcomplex.  Works one bigrading (p, q) at a time: there an
    element is a sum of U^a V^b x with (a, b) fixed by x's grading, so
    it is a bitset over C's generators, f(U^a V^b x) is row x of f, and
    multiplying by U or V keeps the bits.
    """
    gr = [(g.gr_u, g.gr_v) for g in C.basis]
    zero = Ideal.zero()
    reach = kept_targets(C.grading_index, zero)  # multiples in (p, q)

    def images(p, q):
        """f of the generators' multiples in bigrading (p, q)."""
        return [f.rows[t] for t in bits_of(reach((p, q))) if f.rows[t]]

    # pick image elements completing (U,V) * im in each bigrading
    generators: list[tuple[str, int, int, int]] = []
    used_names: set[str] = set()
    for (p, q) in sorted(set(gr), reverse=True):
        span = Echelon(images(p + 2, q) + images(p, q + 2))
        for vec in images(p, q):
            if not span.add(vec):
                continue
            t = vec.bit_length() - 1
            label = C.basis[t].name
            if vec != 1 << t or gr[t] != (p, q) or label in used_names:
                k = len(generators)
                while f"x{k}" in used_names:
                    k += 1
                label = f"x{k}"
            used_names.add(label)
            generators.append((label, p, q, vec))

    # d of a generator, written in the generators one bigrading lower
    basis = [Generator(lbl, p, q) for (lbl, p, q, _) in generators]
    index = GradingIndex(basis)
    kept, new_reach, new_kept = (kept_targets(C.grading_index, C.ring),
                                 kept_targets(index, zero),
                                 kept_targets(index, C.ring))
    rows = []
    for (_, p, q, vec) in generators:
        boundary = 0
        for t in bits_of(vec):
            boundary ^= C.rows[t]
        e = (p - 1, q - 1)
        row, boundary = 0, boundary & kept(e)
        if boundary:
            meta = list(bits_of(new_reach(e)))
            sysq = GF2System(len(meta))
            if not sysq.add_rows(transpose([generators[k][3] for k in meta]),
                                 boundary):
                raise StructuralError("image is not closed under d in the "
                                      "computed generating set")
            row = sum(1 << meta[k]
                      for k in bits_of(sysq.particular_solution()))
        rows.append(row & new_kept(e))
    return Complex.of_rows(basis, rows, C.ring, name)


def connected_complex(C: Complex, iota: IotaData,
                      budget: int = DEFAULT_BUDGET) -> Complex:
    """Image of a kernel-maximal self-local equivalence: the greedy sweep
    of `_maximal_self_local`, whose map is maximal among the
    `_kill_candidates`, not over every vector of the module."""
    return image_complex(C, _maximal_self_local(C, iota, budget),
                         name=f"{C.name}_conn")


def concordance_unknotting_bound(C: Complex, iota: IotaData,
                                 budget: int = DEFAULT_BUDGET) -> int:
    """Torsion order of the homology of the connected complex mod V."""
    conn = connected_complex(C, iota, budget)
    return torsion_order(hfk_minus(conn))
