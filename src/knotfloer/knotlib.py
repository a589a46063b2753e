"""Ground-truth builders for the complexes the test suite revolves around.

`build_cable(n)` encodes the bigraded complex of the (2n-1,-1)-cable of
the figure-eight knot literally, generator by generator; `validate`
independently corroborates d^2 = 0 and the grading law.  Other diagonal
arrows are excluded only up to a possible change of basis, so the stated
basis is fixed here once and for all.
"""

from __future__ import annotations

from .complexes import Complex, Generator
from .ring import Ideal, Mono


def build_unknot() -> Complex:
    """One generator in bigrading (0,0) with zero differential."""
    return Complex([Generator("a", 0, 0)], {}, Ideal.zero(), "unknot")


def build_figure_eight() -> Complex:
    """The five-generator figure-eight complex.

    d(b) = U c + V d, d(c) = V e, d(d) = U e; a and e are cycles.
    """
    U, V = {Mono(1, 0)}, {Mono(0, 1)}
    basis = [
        Generator("a", 0, 0),
        Generator("b", 0, 0),
        Generator("c", 1, -1),
        Generator("d", -1, 1),
        Generator("e", 0, 0),
    ]
    diff = {
        "b": {"c": U, "d": V},
        "c": {"e": V},
        "d": {"e": U},
    }
    return Complex(basis, diff, Ideal.zero(), "fig8")


def build_cable(n: int) -> Complex:
    """Complex of the (2n-1,-1)-cable of the figure-eight knot.

    15 + 12(n-2) generators: a lone cycle a, a central 6-generator piece
    b..g, full 6-generator pieces indexed (0,i) and (1,i) for
    1 <= i <= n-2, and truncated 4-generator pieces at i = n-1.
    """
    if n < 2:
        raise ValueError(f"cable parameter must be >= 2, got {n}")

    def mono(i: int, j: int) -> set[Mono]:
        return {Mono(i, j)}

    basis: list[Generator] = [Generator("a", 0, 0)]
    diff: dict[str, dict[str, set[Mono]]] = {}

    def add_full_piece(b, c, d, e, f, g, uc: int, ve: int,
                       cu: int, cv: int, eu: int, ev: int,
                       fu: int, gv: int) -> None:
        # b -> U^uc c + UV d + V^ve e; c -> V f; d -> U^(uc-1) f + V^(ve-1) g;
        # e -> U g; f, g cycles.  Gradings passed explicitly.
        basis.extend([
            Generator(b, 0, 0),
            Generator(c, cu, cv),
            Generator(d, 1, 1),
            Generator(e, eu, ev),
            Generator(f, fu, 0),
            Generator(g, 0, gv),
        ])
        diff[b] = {c: mono(uc, 0), d: mono(1, 1), e: mono(0, ve)}
        diff[c] = {f: mono(0, 1)}
        diff[d] = {f: mono(uc - 1, 0), g: mono(0, ve - 1)}
        diff[e] = {g: mono(1, 0)}

    add_full_piece("b", "c", "d", "e", "f", "g",
                   uc=n, ve=n,
                   cu=2 * n - 1, cv=-1, eu=-1, ev=2 * n - 1,
                   fu=2 * n - 2, gv=2 * n - 2)
    for i in range(1, n - 1):
        add_full_piece(f"b0_{i}", f"c0_{i}", f"d0_{i}", f"e0_{i}",
                       f"f0_{i}", f"g0_{i}",
                       uc=n + i, ve=n - i,
                       cu=2 * n + 2 * i - 1, cv=-1,
                       eu=-1, ev=2 * n - 2 * i - 1,
                       fu=2 * n + 2 * i - 2, gv=2 * n - 2 * i - 2)
    for i in range(1, n - 1):
        add_full_piece(f"b1_{i}", f"c1_{i}", f"d1_{i}", f"e1_{i}",
                       f"f1_{i}", f"g1_{i}",
                       uc=n - i, ve=n + i,
                       cu=2 * n - 2 * i - 1, cv=-1,
                       eu=-1, ev=2 * n + 2 * i - 1,
                       fu=2 * n - 2 * i - 2, gv=2 * n + 2 * i - 2)

    k = n - 1
    b0, c0, e0, f0 = f"b0_{k}", f"c0_{k}", f"e0_{k}", f"f0_{k}"
    basis.extend([
        Generator(b0, 0, 0),
        Generator(c0, 4 * n - 3, -1),
        Generator(e0, -1, 1),
        Generator(f0, 4 * n - 4, 0),
    ])
    diff[b0] = {c0: mono(2 * n - 1, 0), e0: mono(0, 1)}
    diff[c0] = {f0: mono(0, 1)}
    diff[e0] = {f0: mono(2 * n - 1, 0)}

    b1, c1, e1, g1 = f"b1_{k}", f"c1_{k}", f"e1_{k}", f"g1_{k}"
    basis.extend([
        Generator(b1, 0, 0),
        Generator(c1, 1, -1),
        Generator(e1, -1, 4 * n - 3),
        Generator(g1, 0, 4 * n - 4),
    ])
    diff[b1] = {c1: mono(1, 0), e1: mono(0, 2 * n - 1)}
    diff[c1] = {g1: mono(0, 2 * n - 1)}
    diff[e1] = {g1: mono(1, 0)}

    return Complex(basis, diff, Ideal.zero(), f"cable{n}")
