"""Shared fixtures and random-complex generators for the suite."""

from __future__ import annotations

import random

import pytest

from knotfloer.complexes import Complex, Generator
from knotfloer.knotlib import build_cable, build_figure_eight, build_unknot
from knotfloer.morphism import LinMap, enumerate_almost_iotas
from knotfloer.ring import Ideal, Mono
from oracles import RingElt, apply_d, map_of_action, terms_complex


@pytest.fixture(scope="session")
def unknot():
    return build_unknot()


@pytest.fixture(scope="session")
def fig8():
    return build_figure_eight()


@pytest.fixture(scope="session")
def k2():
    return build_cable(2)


@pytest.fixture(scope="session")
def k3():
    return build_cable(3)


@pytest.fixture(scope="session")
def k2_iotas(k2):
    return enumerate_almost_iotas(k2)


@pytest.fixture(scope="session")
def k3_iotas(k3):
    return enumerate_almost_iotas(k3)


@pytest.fixture(scope="session")
def fig8_iotas(fig8):
    return enumerate_almost_iotas(fig8)


def random_reduced_complex(rng: random.Random, max_pieces: int = 4,
                           transvections: int = 3) -> Complex:
    """Random valid reduced complex: direct sum of elementary pieces
    (dots, U/V segments, boxes) twisted by random basis transvections.

    Transvections x -> x + U^i V^j y with i+j >= 1 preserve d^2 = 0,
    the grading law, and reducedness.
    """
    gens: list[Generator] = []
    diff: dict[str, dict[str, RingElt]] = {}
    counter = 0

    def fresh(p, q):
        nonlocal counter
        g = Generator(f"g{counter}", p, q)
        counter += 1
        gens.append(g)
        return g.name

    for _ in range(rng.randint(1, max_pieces)):
        kind = rng.choice(["dot", "useg", "vseg", "box"])
        p = 2 * rng.randint(-2, 2)
        q = p - 2 * rng.randint(-2, 2)
        if kind == "dot":
            fresh(p, q)
        elif kind == "useg":
            k = rng.randint(1, 3)
            x = fresh(p, q)
            y = fresh(p + 2 * k - 1, q - 1)
            diff[x] = {y: RingElt.mono(k, 0)}
        elif kind == "vseg":
            l = rng.randint(1, 3)
            x = fresh(p, q)
            y = fresh(p - 1, q + 2 * l - 1)
            diff[x] = {y: RingElt.mono(0, l)}
        else:
            k = rng.randint(1, 3)
            l = rng.randint(1, 3)
            b = fresh(p, q)
            c = fresh(p + 2 * k - 1, q - 1)
            d = fresh(p - 1, q + 2 * l - 1)
            e = fresh(p + 2 * k - 2, q + 2 * l - 2)
            diff[b] = {c: RingElt.mono(k, 0), d: RingElt.mono(0, l)}
            diff[c] = {e: RingElt.mono(0, l)}
            diff[d] = {e: RingElt.mono(k, 0)}

    C = terms_complex(gens, diff, Ideal.zero(), "random")
    for _ in range(transvections):
        C = _random_transvection(rng, C) or C
    return C


def _random_transvection(rng: random.Random, C: Complex) -> Complex | None:
    names = list(C.names())
    rng.shuffle(names)
    for x in names:
        gx = C.generator(x)
        for y in names:
            if y == x:
                continue
            gy = C.generator(y)
            du, dv = gy.gr_u - gx.gr_u, gy.gr_v - gx.gr_v
            if du < 0 or dv < 0 or du % 2 or dv % 2 or du + dv == 0:
                continue
            m = Mono(du // 2, dv // 2)
            return _apply_transvection(C, x, y, m)
    return None


def _apply_transvection(C: Complex, x: str, y: str, m: Mono) -> Complex:
    """Change of basis x -> x + U^i V^j y, conjugating the differential."""
    coeff = RingElt((m,))

    def t(elt):
        out = dict(elt)
        if x in out:
            cur = out.get(y, RingElt.zero()) + out[x] * coeff
            if cur.is_zero():
                out.pop(y, None)
            else:
                out[y] = cur
        return out

    diff = {}
    for g in C.basis:
        start = {g.name: RingElt.one()}
        if g.name == x:
            start[y] = coeff
        de = apply_d(C, start)
        de = t(de)
        de = {k: v for k, v in de.items() if not v.is_zero()}
        if de:
            diff[g.name] = de
    return terms_complex(C.basis, diff, C.ring, C.name)


def random_graded_transvection(rng: random.Random, C: Complex,
                               require_positive: bool = False):
    """A grading-legal basis change (x, y, m), or None."""
    options = []
    for x in C.names():
        gx = C.generator(x)
        for y in C.names():
            if y == x:
                continue
            gy = C.generator(y)
            du, dv = gy.gr_u - gx.gr_u, gy.gr_v - gx.gr_v
            if du < 0 or dv < 0 or du % 2 or dv % 2:
                continue
            if require_positive and du + dv == 0:
                continue
            options.append((x, y, Mono(du // 2, dv // 2)))
    if not options:
        return None
    return rng.choice(options)


def transvection_maps(C_old: Complex, C_new: Complex, x: str, y: str,
                      m: Mono) -> tuple[LinMap, LinMap]:
    """The basis-change map and its inverse, as maps C_old -> C_new."""
    coeff = RingElt((m,))
    action = {g.name: {g.name: RingElt.one()} for g in C_old.basis}
    action[x] = {x: RingElt.one(), y: coeff}
    fwd = map_of_action(C_old, C_new, "eq", (0, 0), action, C_old.ring)
    bwd = map_of_action(C_new, C_old, "eq", (0, 0), action, C_old.ring)
    return fwd, bwd
