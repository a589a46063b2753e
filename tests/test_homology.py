"""U-module homology against frozen values and the brute-force and
localization oracles."""

import functools
import os
import random
import subprocess
import sys

import pytest

from conftest import (_apply_transvection, random_graded_transvection,
                      random_reduced_complex)
from knotfloer.complexes import Complex, Generator, dualize
from knotfloer.homology import (UHomology, hfk_hat, hfk_minus,
                                locality_rank, torsion_order)
from knotfloer.knotlib import build_cable, build_figure_eight, build_unknot
from knotfloer.linalg import GF2System, bits_of
from knotfloer.localequiv import _locality_bit
from knotfloer.morphism import MapSpace
from knotfloer.tensorsum import tensor
from oracles import (RingElt, hfk_minus_oracle, linmap_apply,
                     locality_rank_oracle, tower_unit_coefficient_oracle,
                     v_reduced_rows, vector_from_element)

# expected values computed with the brute-force oracle and frozen
FROZEN = {
    "unknot": ((0,), ()),
    "fig8": ((0,), ((1, 0), (1, 1))),
    "cable2": ((0,), ((1, 0), (1, 0), (1, 1), (1, 2), (2, 3), (3, 4), (3, 5))),
    "cable3": ((0,), ((1, 0), (1, 0), (1, 0), (1, 0), (1, 1), (1, 2), (2, 3),
                      (2, 4), (3, 5), (3, 6), (4, 7), (5, 8), (5, 9))),
}


def test_unknot_decomposition(unknot):
    d = hfk_minus(unknot)
    assert d.tower_count == 1 and d.tower_gradings == (0,)
    assert d.torsion == ()
    assert torsion_order(d) == 0


def test_fig8_decomposition(fig8):
    d = hfk_minus(fig8)
    assert (d.tower_gradings, d.torsion) == FROZEN["fig8"]
    assert torsion_order(d) == 1


def test_k2_decomposition_matches_frozen(k2):
    d = hfk_minus(k2)
    assert (d.tower_gradings, d.torsion) == FROZEN["cable2"]


def test_k3_decomposition_matches_frozen(k3):
    d = hfk_minus(k3)
    assert (d.tower_gradings, d.torsion) == FROZEN["cable3"]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_oracle_cross_check(n):
    C = build_cable(n)
    d = hfk_minus(C)
    tower, torsion = hfk_minus_oracle(C)
    assert list(d.tower_gradings) == tower
    assert sorted(d.torsion) == torsion


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_torsion_order_family_law(n):
    assert torsion_order(hfk_minus(build_cable(n))) == 2 * n - 1


def test_hat_ranks(unknot, fig8, k2):
    assert hfk_hat(unknot).ranks == ((0, 0, 1),)
    assert hfk_hat(fig8).total == 5
    assert hfk_hat(k2).total == 15


@pytest.mark.parametrize("n", [2, 3, 4])
def test_hat_rank_counts_generators_of_reduced(n):
    C = build_cable(n)
    assert hfk_hat(C).total == len(C) == 15 + 12 * (n - 2)
    assert hfk_hat(C).total % 2 == 1


def test_locality_rank(unknot, k2, k3):
    assert locality_rank(unknot) == 1
    assert locality_rank(k2) == 1
    assert locality_rank(k3) == 1
    assert locality_rank(build_cable(4)) == 1


def test_two_towers():
    C = Complex([Generator("a", 0, 0), Generator("b", 0, 0)], {})
    assert locality_rank(C) == 2


@pytest.mark.parametrize("builder", ["unknot", "fig8", "k2", "k3"])
def test_locality_rank_matches_fraction_field(builder, request):
    C = request.getfixturevalue(builder)
    assert locality_rank(C) == locality_rank_oracle(C)


@pytest.mark.parametrize("seed", range(10))
def test_random_complexes_against_oracle(seed):
    rng = random.Random(2000 + seed)
    C = random_reduced_complex(rng)
    d = hfk_minus(C)
    tower, torsion = hfk_minus_oracle(C)
    assert list(d.tower_gradings) == tower
    assert sorted(d.torsion) == torsion
    assert d.tower_count == locality_rank_oracle(C)


def test_tensor_with_unknot_keeps_homology(unknot, fig8, k2):
    for C in (fig8, k2):
        T = tensor(unknot, C)
        assert hfk_minus(T) == hfk_minus(C)


def test_dual_negates_tower_grading_and_reflects_torsion(k2, k3):
    for C in (k2, k3):
        d = hfk_minus(C)
        dd = hfk_minus(dualize(C))
        assert dd.tower_gradings == tuple(sorted(-g for g in d.tower_gradings))
        # a torsion pair x -> U^k y dualizes to y* -> U^k x*, moving the
        # summand generator from grading g to 2k - 1 - g
        assert sorted(dd.torsion) == sorted((k, 2 * k - 1 - g)
                                            for k, g in d.torsion)


def test_tower_generator_class(k2):
    H = UHomology(k2)
    t = H.tower_generator()
    assert H.tower_unit_coefficient(t)


def test_far_apart_gradings():
    C = Complex([Generator("a", 0, 0), Generator("b", 10**9, 10**9)], {})
    assert hfk_minus(C).tower_gradings == (0, 10**9)


# -- the cancellation pass against the brute-force and localization oracles --

LIBRARY = {"unknot": build_unknot, "fig8": build_figure_eight,
           "cable2": lambda: build_cable(2), "cable3": lambda: build_cable(3),
           "cable2*": lambda: dualize(build_cable(2))}
# the connected sums of the homology benchmark
PRODUCT_SUMS = (("cable2", "cable2"), ("cable3", "cable2"), ("cable3", "cable3"),
                ("fig8", "cable3"), ("cable2", "cable2*"))


@functools.cache
def _complex(name: str) -> Complex:
    if "#" in name:
        a, b = name.split("#")
        return tensor(_complex(a), _complex(b))
    return LIBRARY[name]()


def _random_products(count: int, seed: int) -> list[Complex]:
    rng = random.Random(seed)
    return [tensor(random_reduced_complex(rng), random_reduced_complex(rng))
            for _ in range(count)]


def _assert_matches_oracles(C: Complex) -> None:
    d = hfk_minus(C)
    assert (list(d.tower_gradings), list(d.torsion)) == hfk_minus_oracle(C)


@pytest.mark.parametrize("pair", PRODUCT_SUMS, ids="#".join)
def test_product_matches_oracles(pair):
    _assert_matches_oracles(_complex("#".join(pair)))


@pytest.mark.parametrize("seed", range(10))
def test_random_products_match_oracles(seed):
    for C in _random_products(2, 3000 + seed):
        _assert_matches_oracles(C)


def _twisted(name: str, seed: int, count: int = 20) -> Complex:
    """A library complex after random graded changes of basis, so that
    tower generators and their functionals mix several generators."""
    rng = random.Random(seed)
    C = _complex(name)
    for _ in range(count):
        C = _apply_transvection(C, *random_graded_transvection(rng, C))
    return C


TWISTED = [_twisted(name, seed) for name in ("cable2", "cable3", "fig8#cable2")
           for seed in range(3)]


def _columns(C: Complex) -> list[int]:
    """Column s of the differential of C/(V) as bits over the targets."""
    return [sum(1 << t for t, row in enumerate(v_reduced_rows(C))
                if row >> s & 1) for s in range(len(C))]


@pytest.mark.parametrize("C", [_complex(n) for n in LIBRARY]
                         + [_complex("cable3#cable2"), _complex("fig8#cable3")]
                         + _random_products(6, 4000) + TWISTED,
                         ids=lambda C: f"{C.name}-{len(C)}")
def test_tower_basis_is_cycle_cocycle_pair(C):
    H = UHomology(C)
    cols = _columns(C)
    assert len(H._towers) == H.decomp.tower_count
    for t in H._towers:
        vec, cov = H._vec[t], H._cov[t]
        boundary = 0
        for s in bits_of(vec):
            boundary ^= cols[s]
        assert boundary == 0
        assert all((col & cov).bit_count() % 2 == 0 for col in cols)
        assert (vec & cov).bit_count() % 2 == 1
        assert H.tower_unit_coefficient((vec, H._gr[t]))


def _random_chain_maps(A: Complex, B: Complex, count: int, rng):
    """Random grading-preserving chain maps A -> B over the full ring."""
    space = MapSpace.build(A, B, "eq", (0, 0), A.ring)
    slot = MapSpace.build(A, B, "eq", (-1, -1), A.ring)
    system = GF2System(space.dim)
    assert system.add_columns(space.d_commutator_columns(slot))
    null = system.nullspace_basis()
    for _ in range(count):
        bits = 0
        for v in null:
            if rng.random() < 0.5:
                bits ^= v
        yield space.map_from_bits(bits)


CHAIN_MAP_PAIRS = (("unknot", "cable2"), ("cable2", "cable2"),
                   ("cable2", "cable3"), ("cable3", "cable2"),
                   ("fig8", "fig8"), ("cable2", "fig8#cable2"),
                   ("fig8#cable2", "cable2"))


def test_tower_unit_coefficient_matches_localization_oracle():
    rng = random.Random(5000)
    seen = set()
    pairs = [(_complex(a), _complex(b)) for a, b in CHAIN_MAP_PAIRS]
    pairs += [(TWISTED[k], TWISTED[k + 1]) for k in (0, 3, 6)]
    pairs += [(TWISTED[k + 1], _complex(b)) for k, b in
              ((0, "cable2"), (3, "cable2"), (6, "fig8#cable2"))]
    for A, B in pairs:
        src, tgt = UHomology(A), UHomology(B)
        assert tower_unit_coefficient_oracle(A, src.tower_generator())
        tower, grading = src.tower_generator()
        elt = {A.basis[r].name: RingElt.mono((A.basis[r].gr_u - grading) // 2, 0)
               for r in bits_of(tower)}
        for f in _random_chain_maps(A, B, 8, rng):
            unit = _locality_bit(f, tower, grading, tgt)
            v = vector_from_element(tgt, linmap_apply(f, elt), grading)
            assert unit == tgt.tower_unit_coefficient(v)
            assert unit == tower_unit_coefficient_oracle(B, v)
            seen.add(unit)
    assert seen == {False, True}


def test_decomposition_independent_of_hash_seed():
    script = (
        "from knotfloer import UHomology, build_cable, build_figure_eight\n"
        "from knotfloer import tensor\n"
        "lib = [build_cable(n) for n in (2, 3, 4)] + [build_figure_eight()]\n"
        "lib += [tensor(lib[0], lib[0]), tensor(lib[1], lib[3])]\n"
        "for C in lib:\n"
        "    H = UHomology(C)\n"
        "    print(H.decomp, H.tower_generator())\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        outs.append(subprocess.run([sys.executable, "-c", script], env=env,
                                   capture_output=True, text=True,
                                   check=True, timeout=120).stdout)
    assert outs[0] == outs[1] and outs[0].count("FUDecomp") == 6
