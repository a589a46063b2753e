"""Ground-truth builders for the complexes the test suite revolves around.

Each library complex is written as its canonical .cfk text and read by
the .cfk scanner: `build_cable(n)` spells the complex of the
(2n-1,-1)-cable of the figure-eight knot literally, generator by
generator, each term with its monomial, so `validate` independently
corroborates d^2 = 0 and the grading law, and `render_cfk` gives the
text back.  Other diagonal arrows are excluded only up to a possible
change of basis, so the stated basis is fixed here once and for all.
"""

from __future__ import annotations

from .cfk import parse_cfk
from .complexes import Complex
from .ring import render_mono

_UNKNOT = """\
complex unknot ring full
gen a gr 0 0
"""

_FIG8 = """\
complex fig8 ring full
gen a gr 0 0
gen b gr 0 0
gen c gr 1 -1
gen d gr -1 1
gen e gr 0 0
d b = U c + V d
d c = V e
d d = U e
"""


def build_unknot() -> Complex:
    """One generator in bigrading (0,0) with zero differential."""
    return parse_cfk(_UNKNOT).complex


def build_figure_eight() -> Complex:
    """The five-generator figure-eight complex.

    d(b) = U c + V d, d(c) = V e, d(d) = U e; a and e are cycles.
    """
    return parse_cfk(_FIG8).complex


def _cable_text(n: int) -> str:
    """The canonical .cfk text of `build_cable(n)`."""
    if n < 2:
        raise ValueError(f"cable parameter must be >= 2, got {n}")
    gens, diff = ["a gr 0 0"], []

    def piece(s: str, uc: int, ve: int) -> None:
        # b -> U^uc c + UV d + V^ve e; c -> V f; d -> U^(uc-1) f +
        # V^(ve-1) g; e -> U g; f, g cycles.  The ends of the family
        # (uc = 1 or ve = 1) lose d and one of f, g: c -> V^ve g when f
        # is gone, e -> U^uc f when g is.
        b, c, d, e, f, g = (x + s for x in "bcdefg")
        table = [(b, 0, 0, [(uc, 0, c), (1, 1, d), (0, ve, e)]),
                 (c, 2 * uc - 1, -1, [(0, 1, f) if uc > 1 else (0, ve, g)]),
                 (d, 1, 1, [(uc - 1, 0, f), (0, ve - 1, g)]),
                 (e, -1, 2 * ve - 1, [(1, 0, g) if ve > 1 else (uc, 0, f)]),
                 (f, 2 * uc - 2, 0, []), (g, 0, 2 * ve - 2, [])]
        gone = set() if min(uc, ve) > 1 else {d, f if uc == 1 else g}
        for x, gu, gv, terms in table:
            if x not in gone:
                gens.append(f"{x} gr {gu} {gv}")
                if terms := [f"{render_mono(i, j)} {y}" for i, j, y in terms
                             if y not in gone]:
                    diff.append(f"{x} = " + " + ".join(terms))

    piece("", n, n)
    for ks in range(1, n - 1), (n - 1,):  # the full pieces, then the ends
        for side, sign in ("0", 1), ("1", -1):
            for k in ks:
                piece(f"{side}_{k}", n + sign * k, n - sign * k)
    return "".join([f"complex cable{n} ring full\n"]
                   + [f"gen {line}\n" for line in gens]
                   + [f"d {line}\n" for line in diff])


def build_cable(n: int) -> Complex:
    """Complex of the (2n-1,-1)-cable of the figure-eight knot.

    15 + 12(n-2) generators: a lone cycle a, a central 6-generator piece
    b..g, full 6-generator pieces indexed (0,i) and (1,i) for
    1 <= i <= n-2, and truncated 4-generator pieces at i = n-1.
    """
    return parse_cfk(_cable_text(n)).complex
