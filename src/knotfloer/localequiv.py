"""Local-map search, maximal self-local maps, and the connected complex.

Local maps are grading-preserving chain maps that intertwine the
involutions up to skew homotopy and carry the free tower of the source
to a generator of the target tower.  On reduced complexes the almost
version turns the homotopy into an equality mod (U,V), so the whole
search is affine-linear over F2: `_chain_maps` gives the chain maps as
an affine family in parameters t with the locality equation over t, and
`_local_system` adds the intertwining rows of one involution pair; the
search runs it on every pair, `SelfLocalFamily` on (iota, iota).

Nonexistence answers are certificates: a map space holds every map of
its shape, because the gradings fix the monomial on each pair of
generators, so an inconsistent system rules out every candidate,
quantified over all enumerated involution completions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterator

from .complexes import Complex, Generator, GradingIndex, kept_targets
from .errors import ResourceError, StructuralError
from .homology import UHomology, hfk_minus, torsion_order
from .linalg import (AffineSpace, Echelon, GF2System, bits_of, rref_basis,
                     transpose)
from .morphism import (IotaData, LinMap, MapSpace, _almost_reports,
                       _iota_shape, chain_defect, enumerate_almost_iotas)
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
                       src_hom: UHomology,
                       tgt_hom: UHomology) -> tuple[int, int]:
    """(t-row, rhs): the members of a family of chain maps in fspace
    whose `_locality_bit` is 1.

    The image of the tower generator mod V is linear in the map: each
    basis map (x, y, m) adds y when x is in the generator and m has no V.
    """
    tower, grading = src_hom.tower_generator()
    images = []
    for x, y, m in fspace.pairs:
        hit = tower >> fspace.source.index(x) & 1 and m.j == 0
        images.append(1 << fspace.target.index(y) if hit else 0)

    def locality(bits: int) -> int:
        vec = 0
        for k in bits_of(bits & ((1 << fspace.dim) - 1)):
            vec ^= images[k]
        return int(tgt_hom.tower_unit_coefficient((vec, grading)))

    row = 0
    for idx, v in enumerate(family.null):
        row |= locality(v) << idx
    return row, 1 ^ locality(family.particular)


def _chain_maps(src_hom: UHomology, tgt_hom: UHomology, budget: int
                ) -> tuple[MapSpace, AffineSpace, tuple[int, int], int]:
    """(fspace, family, locality, chain equation count): the space of
    every equivariant map of bidegree (0,0) between the complexes of two
    one-tower homologies, its chain maps as an affine family in
    parameters t, and the locality equation over t."""
    src, tgt = src_hom.C, tgt_hom.C
    fspace = MapSpace.build(src, tgt, "eq", (0, 0), src.ring)
    if fspace.dim > budget:
        raise ResourceError(
            f"{fspace.dim} unknowns exceed the budget {budget}", fspace.dim)
    chain_slot = MapSpace.build(src, tgt, "eq", (-1, -1), src.ring)
    base = GF2System(fspace.dim)
    base.add_columns(fspace.d_commutator_columns(chain_slot))
    family = AffineSpace(*base.solution_space())
    locality = _locality_equation(fspace, family, src_hom, tgt_hom)
    return fspace, family, locality, chain_slot.dim


def _local_system(family: AffineSpace, locality: tuple[int, int],
                  pre: list[int], post: list[int]) -> tuple[GF2System, int]:
    """(system over t, intertwining row count) for one involution pair:
    the rows of the columns `pre` + `post` of u -> u i1 + i2 u, then
    locality; the system's `feasible` says whether a local map exists."""
    raw_rows = transpose([a ^ b for a, b in zip(pre, post)])
    system = GF2System(len(family.null))
    if all(system.add_equation(*family.constraint(raw))
           for raw in raw_rows.values()):
        system.add_equation(*locality)
    return system, len(raw_rows)


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

    The chain maps form an affine family, in parameters t, solved from
    the map space's d-commutator equations.  The intertwining condition
    u i1 + i2 u mod (U,V) splits as A(i1) + B(i2) with A the
    precomposition and B the postcomposition operator, so A is assembled
    once per source completion and B once per target completion; each
    involution pair gives a system over t of the rows of A + B and the
    locality equation (the tower class goes to a tower generator).  Any
    found map is re-verified by `verify_almost_local`.
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
    post_cols: dict[int, list[int]] = {}
    for i1 in src_iotas:
        pre = fspace.precompose_columns(i1.map, int_slot)
        for n2, i2 in enumerate(tgt_iotas):
            if n2 not in post_cols:
                post_cols[n2] = fspace.postcompose_columns(i2.map, int_slot)
            system, n_rows = _local_system(family, locality, pre,
                                           post_cols[n2])
            n_equations += n_rows
            if not system.feasible:
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

@dataclass(frozen=True)
class KernelSpace:
    """Kernel of an equivariant map on the exponent-truncated module."""

    terms: tuple[tuple[str, int, int], ...]
    rows: tuple[int, ...]  # reduced basis over the term index space

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, other: "KernelSpace") -> bool:
        if self.terms != other.terms:
            raise StructuralError("kernel spaces over different truncations")
        span = Echelon(self.rows)
        return not any(span.reduce(v) for v in other.rows)


def _exponent_bound(C: Complex) -> int:
    """1 + half the largest U or V grading span of C's generators."""
    span = 0
    if len(C):
        us = [g.gr_u for g in C.basis]
        vs = [g.gr_v for g in C.basis]
        span = max(max(us) - min(us), max(vs) - min(vs))
    return 1 + span // 2


def kernel_space(C: Complex, f: LinMap) -> KernelSpace:
    """Kernel of f on the module truncated at U and V exponents up to
    `_exponent_bound(C)`; F2[U,V]-modules are infinite, so this is the
    one place a truncation is needed.

    f has bidegree (0,0), so its matrix is block-diagonal by the
    bigrading of each term U^a V^b x.  In one bigrading a term is fixed
    by its generator x, and f sends it to the terms of the generators in
    row x of f; each block is solved on its own, and the union of the
    blocks' reduced kernel bases is the reduced basis of the kernel.
    """
    if f.variance != "eq" or f.bidegree != (0, 0):
        raise StructuralError("kernel spaces need an eq map of bidegree (0,0)")
    span = range(_exponent_bound(C) + 1)
    terms = [(g.name, a, b) for g in C.basis for a in span for b in span]
    per_gen = len(span) ** 2  # term k is a multiple of generator k // per_gen
    blocks: dict[tuple[int, int], list[int]] = {}
    for k, (_, a, b) in enumerate(terms):
        g = C.basis[k // per_gen]
        blocks.setdefault((g.gr_u - 2 * a, g.gr_v - 2 * b), []).append(k)
    rows = []
    for members in blocks.values():
        block = GF2System(len(members))
        block.add_columns([f.rows[k // per_gen] for k in members])
        for v in rref_basis(block.nullspace_basis()).rows.values():
            rows.append(sum(1 << members[i] for i in bits_of(v)))
    return KernelSpace(tuple(terms), tuple(sorted(rows)))


class SelfLocalFamily:
    """Affine set of almost self-local maps of (C, iota).

    `family` holds the chain maps of C in parameters t, and the system
    `inner` over t holds the rows that make them intertwine iota and be
    local.  Exposes exact certificates over the whole set, for example
    that a diagonal coefficient is constantly 1, without listing its
    members.
    """

    def __init__(self, C: Complex, iota: IotaData, budget: int):
        _iota_candidates(C, iota)  # raises unless iota validates
        self.C = C
        self.iota = iota
        hom = C.u_homology
        if hom.decomp.tower_count != 1:
            raise StructuralError("self-local maps need exactly one tower")
        self.fspace, self.family, locality, _ = _chain_maps(hom, hom, budget)
        slot = MapSpace.build(C, C, "skew", (0, 0), Ideal.max_ideal())
        self.inner, _ = _local_system(
            self.family, locality,
            self.fspace.precompose_columns(iota.map, slot),
            self.fspace.postcompose_columns(iota.map, slot))
        if not self.inner.feasible:
            raise StructuralError("no self-local equivalence exists at all")

    def unit_coefficient_constant(self, src: str, tgt: str) -> tuple[bool, int]:
        """Whether <f(src), tgt> takes one value over the whole family.

        Returns (constant?, value at the particular solution).  The
        coefficient is the unit-monomial coordinate, an affine functional
        of the solution parameters, so constancy is decided exactly.
        """
        if self.C.grading(src) != self.C.grading(tgt):
            return True, 0  # no unit-monomial pair
        bit = self.fspace.pair_bits[(self.C.index(src), self.C.index(tgt))]
        t_part = self.inner.particular_solution()
        value = int(bool(self.family.point(t_part) & bit))
        for w in self.inner.nullspace_basis():
            if (self.family.point(w) ^ self.family.particular) & bit:
                return False, value
        return True, value


def _kill_candidates(C: Complex, fspace: MapSpace,
                     order: str) -> tuple[int, Iterator[list[int]]]:
    """The number of candidates, and the candidates in `order`: per
    candidate, the rows r with r . f = 0 that kill it.  Singles first
    (killing any monomial multiple of a generator forces f(x) = 0 on the
    whole generator), then minimal two-term homogeneous combinations of
    each pair x < y whose gradings differ by even amounts; "reverse" is
    the same sequence backwards.  A candidate is as wide as the map space
    and there are about n^2 / 4, so each is built when the sweep asks."""
    by_source: list[list[int]] = [[] for _ in C.basis]
    for k, (srcn, _, _) in enumerate(fspace.pairs):
        by_source[C.index(srcn)].append(k)
    n = len(C)
    ordered = reversed if order == "reverse" else iter

    def pairs() -> Iterator[list[int]]:
        # gr_U - gr_V is even on every generator, so gr_U's parity decides
        for xi in ordered(range(n)):
            for yi in ordered(range(xi + 1, n)):
                du = C.basis[xi].gr_u - C.basis[yi].gr_u
                dv = C.basis[xi].gr_v - C.basis[yi].gr_v
                if du % 2:
                    continue
                a, b = max(0, -du // 2), max(0, -dv // 2)
                # f(U^a V^b x + U^(a + du/2) V^(b + dv/2) y) = 0, by slot
                slots: dict[tuple[str, int, int], int] = {}
                for g, ea, eb in ((xi, a, b), (yi, a + du // 2, b + dv // 2)):
                    for k in by_source[g]:
                        _, tgt, m = fspace.pairs[k]
                        key = (tgt, ea + m.i, eb + m.j)
                        slots[key] = slots.get(key, 0) | (1 << k)
                yield list(slots.values())

    singles = ([1 << k for k in by_source[x]] for x in ordered(range(n)))
    odd = sum(g.gr_u % 2 for g in C.basis)
    count = n + (odd * (odd - 1) + (n - odd) * (n - odd - 1)) // 2
    return count, (chain(pairs(), singles) if order == "reverse"
                   else chain(singles, pairs()))


def _maximal_self_local(C: Complex, iota: IotaData, budget: int,
                        order: str) -> tuple[LinMap, str]:
    """The map and certificate note of `maximal_self_local_map`, kept on
    iota by (budget, order); iota must be a map of C itself.  One sweep
    suffices: equations only shrink the solution set, so a rejected
    candidate stays rejected."""
    _iota_shape(C, iota)
    kept = iota._self_local.get((budget, order))
    if kept is not None:
        return kept
    sls = SelfLocalFamily(C, iota, budget)
    inner = sls.inner
    count, candidates = _kill_candidates(C, sls.fspace, order)
    for rows in candidates:
        trial = inner.copy()
        if all(trial.add_equation(*sls.family.constraint(raw))
               for raw in rows):
            inner = trial
    f = sls.fspace.map_from_bits(
        sls.family.point(inner.particular_solution()))
    if not verify_almost_local(f, iota, iota):
        raise StructuralError("maximal candidate fails re-verification")
    note = f"maximal over {count} candidate vectors ({order} order)"
    iota._self_local[budget, order] = f, note
    return f, note


def maximal_self_local_map(C: Complex, iota: IotaData,
                           budget: int = DEFAULT_BUDGET,
                           order: str = "forward") -> tuple[LinMap, KernelSpace, str]:
    """Greedy kernel-maximal self-local equivalence, with its kernel.

    Grows the kernel over a deterministic family of candidate vectors
    until no candidate can be added; the certificate string records that
    maximality is relative to the candidate family.
    """
    f, note = _maximal_self_local(C, iota, budget, order)
    return f, kernel_space(C, f), note


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
        span = GF2System(len(C))
        for v in images(p + 2, q) + images(p, q + 2):
            span.add_equation(v, 0)
        for vec in images(p, q):
            rank = span.rank
            span.add_equation(vec, 0)
            if span.rank == rank:
                continue
            t = vec.bit_length() - 1
            label = C.basis[t].name
            if vec != 1 << t or gr[t] != (p, q) or label in used_names:
                label = f"x{len(generators)}"
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
            if not sysq.add_columns([generators[k][3] for k in meta],
                                    boundary):
                raise StructuralError("image is not closed under d in the "
                                      "computed generating set")
            row = sum(1 << meta[k]
                      for k in bits_of(sysq.particular_solution()))
        rows.append(row & new_kept(e))
    return Complex.of_rows(basis, rows, C.ring, name)


def connected_complex(C: Complex, iota: IotaData,
                      budget: int = DEFAULT_BUDGET,
                      order: str = "forward") -> Complex:
    """Image of a kernel-maximal self-local equivalence.

    Takes the map from the same greedy search as `maximal_self_local_map`
    but never computes its kernel: the image is built from the map alone.
    """
    f, _ = _maximal_self_local(C, iota, budget, order)
    return image_complex(C, f, name=f"{C.name}_conn")


def concordance_unknotting_bound(C: Complex, iota: IotaData,
                                 budget: int = DEFAULT_BUDGET) -> int:
    """Torsion order of the homology of the connected complex mod V."""
    conn = connected_complex(C, iota, budget)
    return torsion_order(hfk_minus(conn))
