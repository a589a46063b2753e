"""Connected-sum products: tensor complexes and product involutions.

Generators of a tensor product are ordered pairs serialized as `x|y`, in
the order x-major, so pair (x, y) has index x * len(C2) + y, and gradings
add.  The differential d tensor 1 + 1 tensor d and every tensor of maps
are outer products of bitset rows on that index.  The product involutions
and their exchange maps are row sums and compositions of such tensors,
reduced mod (U,V) by a grading mask.  The two involution products differ
by a correction term built from the derivative maps of the factors; on
reduced complexes they are exchanged by the explicit unit
1 + (derivative tensor), which `product_equivalence` constructs and
verifies.
"""

from __future__ import annotations

from typing import Sequence

from .complexes import Complex, Generator
from .errors import StructuralError
from .linalg import bits_of
from .morphism import IotaData, LinMap, derivative_maps, identity_map
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
    return Complex.of_rows(basis, rows, C1.ring,
                           f"{C1.name}{PAIR_SEP}{C2.name}")


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
    ideal mask remains.
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
    return LinMap(T, T, f.variance, bidegree, Ideal.zero(),
                  _outer(f.rows, g.rows, len(g.source))
                  ).reduce_to(f.ideal)


def _lift_mod_uv(i: IotaData) -> LinMap:
    """View an almost involution's basis-level action over the full ring."""
    return LinMap(i.map.source, i.map.target, "skew", (0, 0),
                  Ideal.zero(), i.map.rows)


def product_iota(C1: Complex, i1: IotaData, C2: Complex, i2: IotaData,
                 variant: int, T: Complex | None = None) -> IotaData:
    """Involution of the tensor product, variant 1 or 2.

    Variant 1 adds the correction (Phi_1 tensor Psi_2) after the raw
    tensor involution, variant 2 uses (Psi_1 tensor Phi_2).  The formula
    is evaluated literally with the basis-level lift of the factors and
    then reduced mod (U,V).
    """
    if variant not in (1, 2):
        raise StructuralError(f"unknown product variant {variant}")
    if T is None:
        T = tensor(C1, C2)
    phi1, psi1 = derivative_maps(C1)
    phi2, psi2 = derivative_maps(C2)
    raw = map_tensor(_lift_mod_uv(i1), _lift_mod_uv(i2), T)
    corr = map_tensor(phi1, psi2, T) if variant == 1 else map_tensor(psi1, phi2, T)
    return IotaData((raw + corr.compose(raw)).reduce_to(Ideal.max_ideal()))


def product_equivalence(C1: Complex, i1: IotaData, C2: Complex, i2: IotaData,
                        T: Complex | None = None) -> tuple[LinMap, LinMap]:
    """Chain maps exchanging the two product involutions mod (U,V).

    Returns (f, g) with f intertwining variant 1 into variant 2 and g
    the other way; both are the identity plus a derivative-map tensor,
    hence chain maps fixing the tower.  Raises if the intertwining
    fails, which only happens for involutions violating the exchange
    relations iota Phi = Psi iota mod (U,V).
    """
    if T is None:
        T = tensor(C1, C2)
    phi1, psi1 = derivative_maps(C1)
    phi2, psi2 = derivative_maps(C2)
    one = identity_map(T)
    f = one + map_tensor(psi1, phi2, T)
    g = one + map_tensor(phi1, psi2, T)
    ia = product_iota(C1, i1, C2, i2, 1, T)
    ib = product_iota(C1, i1, C2, i2, 2, T)
    max_ideal = Ideal.max_ideal()
    for u, before, after in ((f, ia, ib), (g, ib, ia)):
        u = u.reduce_to(max_ideal)
        if not (u.compose(before.map) + after.map.compose(u)).is_zero():
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
