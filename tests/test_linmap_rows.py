"""LinMap's bitset-row algebra against the RingElt-dict oracle.

Sums, composites, reductions, images and tensors of maps computed on
rows must equal the same operations computed coefficient by coefficient
in F2[U,V] (`tests/oracles.py`), on the library complexes, on the
connected sums of the homology-products benchmark with both product
involutions, and on random graded maps.
"""

import functools
import itertools
import random

import pytest

from conftest import random_reduced_complex
from knotfloer.complexes import dualize
from knotfloer.knotlib import build_cable, build_figure_eight, build_unknot
from knotfloer.errors import StructuralError
from knotfloer.morphism import (IotaData, MapSpace, chain_defect,
                                derivative_maps, differential_map,
                                enumerate_almost_iotas, identity_map,
                                unit_derivative_maps, validate_iota)
from knotfloer.ring import Ideal
from knotfloer.tensorsum import (map_tensor, product_equivalence, product_iota,
                                 tensor)
from oracles import (RingElt, dict_add, dict_almost_iota_checks, dict_apply,
                     dict_compose, dict_lift, dict_map_tensor,
                     dict_product_iota, dict_reduce_to, diff_items,
                     linmap_apply)

MAX = Ideal.max_ideal()
REDUCTIONS = (Ideal.zero(), Ideal.uv(), Ideal.box(1, 2), Ideal.box(2, 1), MAX)

LIBRARY = {"unknot": build_unknot, "fig8": build_figure_eight,
           **{f"cable{n}": functools.partial(build_cable, n)
              for n in (2, 3, 4)}}
LIBRARY.update({f"{name}*": (lambda b=b: dualize(b()))
                for name, b in list(LIBRARY.items()) if name != "unknot"})


@functools.cache
def _complex(name):
    if "#" in name:
        a, b = name.split("#")
        return tensor(_complex(a), _complex(b))
    return LIBRARY[name]()


@functools.cache
def _iotas(name):
    """The first and the last completion."""
    iotas = enumerate_almost_iotas(_complex(name))
    return iotas[:1] + iotas[1:][-1:]


def _random_element(rng, C):
    elt = {}
    for g in rng.sample(C.names(), min(3, len(C))):
        coeff = RingElt.zero()
        for _ in range(rng.randint(1, 3)):
            coeff += RingElt.mono(rng.randint(0, 2), rng.randint(0, 2))
        if not coeff.is_zero():
            elt[g] = coeff
    return elt


def _check_reductions(f):
    for ideal in REDUCTIONS:
        assert f.reduce_to(ideal) == dict_reduce_to(f, ideal)


@pytest.mark.parametrize("name", sorted(LIBRARY))
def test_library_maps_match_dict_oracle(name):
    C = _complex(name)
    rng = random.Random(name)
    d = differential_map(C)
    assert d.action == {src: dict(row) for src, row in diff_items(C)}
    phi, psi = derivative_maps(C)
    maps = [d, phi, psi, identity_map(C)]
    for f in maps:
        _check_reductions(f)
        elt = _random_element(rng, C)
        assert linmap_apply(f, elt) == dict_apply(f, elt)
    for outer, inner in itertools.product(maps, repeat=2):
        assert outer.compose(inner) == dict_compose(outer, inner)
    for f in (phi, psi):
        assert chain_defect(f) == dict_add(dict_compose(d, f),
                                           dict_compose(f, d))
    for iota in _iotas(name):
        i = iota.map
        dmax = d.reduce_to(MAX)
        for outer, inner in ((i, i), (dmax, i), (i, dmax), (phi, i), (i, psi)):
            assert outer.compose(inner) == dict_compose(outer, inner)
        elt = _random_element(rng, C)
        assert linmap_apply(i, elt) == dict_apply(i, elt)
        lift = dict_lift(iota)
        assert linmap_apply(lift, elt) == dict_apply(lift, elt)
        rep = validate_iota(C, iota)
        assert rep.squares == dict_almost_iota_checks(C, iota)
    if len(C) <= 7:
        T = tensor(C, C)
        for f, g in ((phi, psi), (d, identity_map(C)), (psi, phi)):
            assert map_tensor(f, g, T) == dict_map_tensor(f, g, T)
        for iota in _iotas(name):
            lift = dict_lift(iota)
            assert map_tensor(lift, lift, T) == dict_map_tensor(lift, lift, T)
            assert (map_tensor(iota.map, iota.map, T)
                    == dict_map_tensor(iota.map, iota.map, T))


# every library complex (duals included) and every product of two of them
UNIT_PART_NAMES = sorted(LIBRARY) + [
    f"{a}#{b}" for a, b in itertools.combinations_with_replacement(
        sorted(LIBRARY), 2)]


@pytest.mark.parametrize("name", UNIT_PART_NAMES)
def test_unit_derivative_maps_are_derivative_maps_mod_uv(name):
    """Phi and Psi mod (U,V) read from the U- and V-terms of d equal the
    full-ring derivative maps reduced mod (U,V), and all composites and
    tensors of them agree with the reduced full-ring ones."""
    C = _complex(name)
    units = unit_derivative_maps(C)
    full = derivative_maps(C)
    assert units == tuple(f.reduce_to(MAX) for f in full)
    assert units == tuple(dict_reduce_to(f, MAX) for f in full)
    (phi, psi), (uphi, upsi) = full, units
    assert upsi.compose(uphi) == psi.compose(phi).reduce_to(MAX)
    assert uphi.compose(upsi) == phi.compose(psi).reduce_to(MAX)
    if "#" not in name and len(C) <= 7:
        T = tensor(C, C)
        assert map_tensor(uphi, upsi, T) == map_tensor(phi, psi, T).reduce_to(
            MAX)


# the connected sums of the homology-products benchmark workload
PRODUCT_SUMS = (("cable2", "cable2"), ("cable3", "cable2"),
                ("cable3", "cable3"), ("fig8", "cable3"),
                ("cable2", "cable2*"))


@pytest.mark.parametrize("a,b", PRODUCT_SUMS,
                         ids=[f"{a}#{b}" for a, b in PRODUCT_SUMS])
def test_product_involutions_match_dict_oracle(a, b):
    C1, C2 = _complex(a), _complex(b)
    T = _complex(f"{a}#{b}")
    phi1, psi1 = derivative_maps(C1)
    phi2, psi2 = derivative_maps(C2)
    one = identity_map(T)
    i1, i2 = _iotas(a)[0], _iotas(b)[-1]
    products = {}
    for variant in (1, 2):
        iota = product_iota(C1, i1, C2, i2, variant, T)
        assert iota.map == dict_product_iota(C1, i1, C2, i2, variant, T)
        rep = validate_iota(T, iota)
        assert rep.ok
        assert rep.squares == dict_almost_iota_checks(T, iota)
        products[variant] = iota
    f, g = product_equivalence(C1, i1, C2, i2, T)
    assert f == dict_add(one, dict_map_tensor(psi1, phi2, T))
    assert g == dict_add(one, dict_map_tensor(phi1, psi2, T))
    for u, before, after in ((f, 1, 2), (g, 2, 1)):
        u = dict_reduce_to(u, MAX)
        assert dict_add(dict_compose(u, products[before].map),
                        dict_compose(products[after].map, u)).is_zero()


# -- random graded maps --------------------------------------------------------

POOL = ("unknot", "fig8", "cable2", "fig8*", "cable2*", "cable3")
BIDEGREES = ((0, 0), (1, 1), (-1, -1), (1, -1), (0, 2))


def _random_map(rng, A, B, variance, bidegree, ideal):
    space = MapSpace.build(A, B, variance, bidegree, ideal)
    return space.map_from_bits(rng.getrandbits(space.dim) if space.dim else 0)


@pytest.mark.parametrize("seed", range(40))
def test_random_maps_match_dict_oracle(seed):
    """Random maps per seed: f, g of one shape A -> B, h: B -> C, and two
    endomorphisms for the tensor."""
    rng = random.Random(7000 + seed)
    pool = [_complex(n) for n in POOL] + [random_reduced_complex(rng)]
    A, B, C = (rng.choice(pool) for _ in range(3))
    var_f, var_h = rng.choice(("eq", "skew")), rng.choice(("eq", "skew"))
    ideal_f, ideal_h = rng.choice((Ideal.zero(), MAX)), rng.choice(
        (Ideal.zero(), MAX))
    bi_f, bi_h = rng.choice(BIDEGREES), rng.choice(BIDEGREES)
    f = _random_map(rng, A, B, var_f, bi_f, ideal_f)
    g = _random_map(rng, A, B, var_f, bi_f, ideal_f)
    h = _random_map(rng, B, C, var_h, bi_h, ideal_h)

    assert f + g == dict_add(f, g)
    for m in (f, h):
        _check_reductions(m)
        elt = _random_element(rng, m.source)
        assert linmap_apply(m, elt) == dict_apply(m, elt)
    assert h.compose(f) == dict_compose(h, f)

    small = [D for D in pool if len(D) <= 7]
    D, E = rng.choice(small), rng.choice(small)
    var = rng.choice(("eq", "skew"))
    ideal = rng.choice((Ideal.zero(), MAX))
    e1 = _random_map(rng, D, D, var, rng.choice(BIDEGREES), ideal)
    e2 = _random_map(rng, E, E, var, rng.choice(BIDEGREES), ideal)
    T = tensor(D, E)
    assert map_tensor(e1, e2, T) == dict_map_tensor(e1, e2, T)


def test_exchange_check_matches_dict_oracle_on_random_maps():
    """`product_equivalence` raises exactly when its full-ring exchange
    maps, reduced mod (U,V), fail to intertwine the oracle's product
    involutions, on fig8 tensor cable2: with every completion of fig8,
    and with random skew unit maps of fig8, among them maps that break
    the check of f alone and maps that break the check of g alone."""
    C1, C2, T = _complex("fig8"), _complex("cable2"), _complex("fig8#cable2")
    space = MapSpace.build(C1, C1, "skew", (0, 0), MAX)
    (phi1, psi1), (phi2, psi2) = derivative_maps(C1), derivative_maps(C2)
    one = identity_map(T)
    units = [dict_reduce_to(dict_add(one, dict_map_tensor(a, b, T)), MAX)
             for a, b in ((psi1, phi2), (phi1, psi2))]
    rng = random.Random(3)
    i2 = _iotas("cable2")[0]
    seen = set()
    for i1 in enumerate_almost_iotas(C1) + [
            IotaData(space.map_from_bits(rng.getrandbits(space.dim)))
            for _ in range(50)]:
        ia, ib = (dict_product_iota(C1, i1, C2, i2, v, T) for v in (1, 2))
        checks = tuple(dict_add(dict_compose(u, x), dict_compose(y, u)
                                ).is_zero()
                       for u, x, y in ((units[0], ia, ib), (units[1], ib, ia)))
        seen.add(checks)
        try:
            product_equivalence(C1, i1, C2, i2, T)
            assert all(checks)
        except StructuralError as err:
            assert str(err) == "variant exchange map fails to intertwine"
            assert not all(checks)
    assert seen == {(True, True), (True, False), (False, True), (False, False)}
