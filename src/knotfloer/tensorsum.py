"""Connected-sum products: tensor complexes and product involutions.

Generators of a tensor product are ordered pairs serialized as `x|y`, in
the order x-major, so pair (x, y) has index x * len(C2) + y, and gradings
add.  The differential d tensor 1 + 1 tensor d and every tensor of maps
are outer products of bitset rows on that index.  The product involutions
(Zemke's connected-sum formula) live mod (U,V), where a product of
monomials is 1 only when each factor is, so they are read from the
factors' involutions and the U- and V-terms of d (`unit_derivative_maps`)
with no full-ring map and no mask.  The two variants differ by a
correction term; on reduced complexes they are exchanged by the unit
1 + (derivative tensor), which `product_equivalence` builds and checks.
"""

from __future__ import annotations

from typing import Sequence

from .complexes import Complex, Generator
from .errors import StructuralError
from .linalg import bits_of
from .morphism import (IotaData, LinMap, derivative_maps, identity_map,
                       unit_derivative_maps)
from .ring import Ideal

PAIR_SEP = "|"


def pair_name(x: str, y: str) -> str:
    return f"{x}{PAIR_SEP}{y}"


def tensor(C1: Complex, C2: Complex) -> Complex:
    """Tensor product over the coefficient ring, with Leibniz differential
    d tensor 1 + 1 tensor d."""
    if C1.ring != C2.ring:
        raise StructuralError("tensor factors live over different rings")
    basis = [Generator(pair_name(x.name, y.name), x.gr_u + y.gr_u,
                       x.gr_v + y.gr_v)
             for x in C1.basis for y in C2.basis]
    n1, n2 = len(C1), len(C2)
    ones1, ones2 = [1 << k for k in range(n1)], [1 << k for k in range(n2)]
    rows = [a ^ b for a, b in zip(_outer(C1.rows, ones2, n2),
                                  _outer(ones1, C2.rows, n2))]
    return Complex(basis, rows, C1.ring, f"{C1.name}{PAIR_SEP}{C2.name}")


def _outer(frows: Sequence[int], grows: Sequence[int], n2: int) -> list[int]:
    """Rows of f tensor g on the index x * n2 + y.

    Row (x, y) has bit x' * n2 + y' for x' in row x of f and y' in row y
    of g: row x of f spread to bits x' * n2, times row y of g, which is
    below 2^n2, so the product has no carries.
    """
    out = []
    for frow in frows:
        spread = sum(1 << t * n2 for t in bits_of(frow))
        out += [spread * grow for grow in grows]
    return out


def map_tensor(f: LinMap, g: LinMap, T: Complex | None = None) -> LinMap:
    """f tensor g as a map on the tensor complex.

    Variances must agree (equivariant with equivariant, skew with skew);
    bidegrees add.  Pass T to reuse tensor(f.source, g.source).  The
    rows are the outer product of the factors' rows; the monomial of
    each term is the product of the factors' monomials, so only the
    ideal mask remains, and none over (U,V), where 1 * 1 = 1.
    """
    if f.variance != g.variance:
        raise StructuralError("tensor of maps needs matching eq/skew variance")
    if f.ideal != g.ideal:
        raise StructuralError("tensor of maps needs a common ideal")
    if f.source is not f.target or g.source is not g.target:
        raise StructuralError("map_tensor currently supports endomorphisms")
    if T is None:
        T = tensor(f.source, g.source)
    bidegree = (f.bidegree[0] + g.bidegree[0], f.bidegree[1] + g.bidegree[1])
    out = LinMap(T, T, f.variance, bidegree, f.ideal,
                 _outer(f.rows, g.rows, len(g.source)))
    return out if f.ideal == Ideal.max_ideal() else out.reduce_to(f.ideal)


def product_iota(C1: Complex, i1: IotaData, C2: Complex, i2: IotaData,
                 variant: int, T: Complex | None = None) -> IotaData:
    """Involution of the tensor product, variant 1 or 2.

    Variant 1 adds the correction (Phi_1 tensor Psi_2) after the raw
    tensor involution, variant 2 uses (Psi_1 tensor Phi_2).  All of it is
    mod (U,V), from the involutions' rows and the U- and V-terms of d, and
    a composite of tensors is the tensor of the composites of the factors.
    """
    if variant not in (1, 2):
        raise StructuralError(f"unknown product variant {variant}")
    if T is None:
        T = tensor(C1, C2)
    return _product_iota(i1, i2, *map(unit_derivative_maps, (C1, C2)),
                         variant, T)


def _product_iota(i1: IotaData, i2: IotaData, units1: tuple[LinMap, LinMap],
                  units2: tuple[LinMap, LinMap], variant: int,
                  T: Complex) -> IotaData:
    """`product_iota` from the factors' `unit_derivative_maps`."""
    (phi1, psi1), (phi2, psi2) = units1, units2
    a, b = (phi1, psi2) if variant == 1 else (psi1, phi2)
    return IotaData(map_tensor(i1.map, i2.map, T) + map_tensor(
        a.compose(i1.map), b.compose(i2.map), T))


def product_equivalence(C1: Complex, i1: IotaData, C2: Complex, i2: IotaData,
                        T: Complex | None = None) -> tuple[LinMap, LinMap]:
    """Chain maps exchanging the two product involutions mod (U,V).

    Returns (f, g) with f intertwining variant 1 into variant 2 and g
    the other way; both are the identity plus a derivative-map tensor,
    hence chain maps fixing the tower.  Raises if the intertwining, checked
    with the tensors of the factors' U- and V-terms of d, fails: only for
    involutions violating the exchange relations iota Phi = Psi iota.
    """
    if T is None:
        T = tensor(C1, C2)
    (phi1, psi1), (phi2, psi2) = map(derivative_maps, (C1, C2))
    one = identity_map(T)
    f = one + map_tensor(psi1, phi2, T)
    g = one + map_tensor(phi1, psi2, T)
    units = [unit_derivative_maps(C) for C in (C1, C2)]
    (phi1, psi1), (phi2, psi2) = units
    c1, c2 = map_tensor(phi1, psi2, T), map_tensor(psi1, phi2, T)
    ia, ib = (_product_iota(i1, i2, *units, v, T).map for v in (1, 2))
    # (1 + c) x = y (1 + c): f (c = c2) takes ia to ib, g (c = c1) ib to ia
    for c, x, y in ((c2, ia, ib), (c1, ib, ia)):
        if not (x + y + c.compose(x) + y.compose(c)).is_zero():
            raise StructuralError("variant exchange map fails to intertwine")
    return f, g


def tensor_many(factors: list[Complex]) -> Complex:
    """Iterated binary tensor, associating to the left."""
    if not factors:
        raise StructuralError("need at least one factor")
    out = factors[0]
    for C in factors[1:]:
        out = tensor(out, C)
    return out
