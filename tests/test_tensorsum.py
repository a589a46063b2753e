"""Tensor products and product involutions."""

import pytest

from knotfloer.complexes import find_isomorphism
from knotfloer.errors import StructuralError
from knotfloer.homology import hfk_minus
from knotfloer.morphism import (derivative_maps, is_chain_map, validate_iota)
from knotfloer.ring import Ideal
from knotfloer.tensorsum import (map_tensor, pair_name, product_equivalence,
                                 product_iota, tensor, tensor_many)
from oracles import RingElt, d_of, map_of_action

U, V, ONE = RingElt.mono(1, 0), RingElt.mono(0, 1), RingElt.one()


def test_unknot_is_two_sided_identity(unknot, fig8, k2):
    for C in (fig8, k2):
        left = tensor(unknot, C)
        right = tensor(C, unknot)
        assert find_isomorphism(left, C) is not None
        assert find_isomorphism(right, C) is not None
        # the canonical relabeling works directly
        renamed = left.rename({pair_name("a", x): x for x in C.names()})
        assert renamed.equal_up_to_reorder(C)


def test_fig8_square_differential(fig8):
    T = tensor(fig8, fig8)
    assert len(T) == 25
    assert T.validate().ok
    assert d_of(T, pair_name("b", "b")) == {
        pair_name("c", "b"): U, pair_name("d", "b"): V,
        pair_name("b", "c"): U, pair_name("b", "d"): V,
    }


def test_k2_square_validates(k2):
    T = tensor(k2, k2)
    assert len(T) == 225
    r = T.validate()
    assert r.ok and r.reduced


def test_gradings_additive(fig8, k2):
    T = tensor(fig8, k2)
    for x in fig8.basis:
        for y in k2.basis:
            g = T.generator(pair_name(x.name, y.name))
            assert (g.gr_u, g.gr_v) == (x.gr_u + y.gr_u, x.gr_v + y.gr_v)
            assert g.alexander == x.alexander + y.alexander


def test_ring_mismatch_rejected(fig8, k2):
    from knotfloer.complexes import quotient
    with pytest.raises(StructuralError):
        tensor(fig8, quotient(k2, Ideal.uv()))


def test_leibniz_for_derivative_maps(fig8, k2):
    for C in (fig8, k2):
        T = tensor(C, C)
        phi_t, psi_t = derivative_maps(T)
        phi, psi = derivative_maps(C)
        one = {g.name: {g.name: ONE} for g in C.basis}
        ident = map_of_action(C, C, "eq", (0, 0), one)
        left = map_tensor(phi, ident, T) + map_tensor(ident, phi, T)
        right = map_tensor(psi, ident, T) + map_tensor(ident, psi, T)
        assert phi_t == left
        assert psi_t == right


def test_product_iota_unknot_square(unknot):
    from knotfloer.morphism import enumerate_almost_iotas
    iu = enumerate_almost_iotas(unknot)[0]
    T = tensor(unknot, unknot)
    data = product_iota(unknot, iu, unknot, iu, 1, T)
    key = pair_name("a", "a")
    assert data.map.action == {key: {key: ONE}}
    assert validate_iota(T, data).ok


def test_fig8_times_unknot_keeps_iota(fig8, fig8_iotas, unknot):
    from knotfloer.morphism import enumerate_almost_iotas
    iu = enumerate_almost_iotas(unknot)[0]
    T = tensor(fig8, unknot)
    data = product_iota(fig8, fig8_iotas[0], unknot, iu, 1, T)
    # correction term vanishes: Psi of the unknot is zero
    for x in fig8.names():
        row = data.map.of_gen(pair_name(x, "a"))
        expected = {pair_name(t, "a"): c
                    for t, c in fig8_iotas[0].map.of_gen(x).items()}
        assert row == expected
    assert validate_iota(T, data).ok


@pytest.mark.parametrize("variant", [1, 2])
def test_k2_square_products_validate(k2, k2_iotas, variant):
    T = tensor(k2, k2)
    for io in k2_iotas:
        data = product_iota(k2, io, k2, io, variant, T)
        assert validate_iota(T, data).ok


def test_product_variants_equivalent(k2, k2_iotas):
    from knotfloer.localequiv import verify_almost_local
    T = tensor(k2, k2)
    for io in k2_iotas:
        ia = product_iota(k2, io, k2, io, 1, T)
        ib = product_iota(k2, io, k2, io, 2, T)
        f, g = product_equivalence(k2, io, k2, io, T)
        assert is_chain_map(f) and is_chain_map(g)
        assert verify_almost_local(f, ia, ib)
        assert verify_almost_local(g, ib, ia)


def test_tensor_many_left_associates(unknot, fig8):
    T = tensor_many([fig8, unknot, unknot])
    assert len(T) == 5
    assert find_isomorphism(T, fig8) is not None
