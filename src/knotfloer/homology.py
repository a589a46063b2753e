"""F2[U]-module homology of C/(V), torsion orders, and hat homology.

C/(V) is a complex over F2[U] whose differential is homogeneous, so each
entry is a single monomial fixed by the gradings: the differential of
C/(V) is the V-free part of the complex's bitset rows, transposed.  The
U-module structure comes from one graded cancellation pass over those
rows (`_cancel`), indexed by column: a minimal-degree entry d x = U^k y
splits off F2[U]/(U^k) generated by y in y's Maslov grading (nothing
when k = 0), and the generators left over span the free towers.  The
pass also tracks the tower basis vectors and their coordinate
functionals, for tower generators and the locality test.  Hat homology
ranks the unit-monomial rows of d one bigrading at a time.
"""

from __future__ import annotations

from .complexes import Complex
from .errors import StructuralError
from .linalg import bits_of, rref_basis, transpose
from .ring import Ideal, Record


class FUDecomp(Record):
    """An F2[U]-module: free towers plus U-power torsion summands.

    torsion entries are (order k, Maslov grading of the generator),
    meaning a summand F2[U]/(U^k) generated in that grading.
    """

    __slots__ = ("tower_count", "tower_gradings", "torsion")

    def __init__(self, tower_count: int, tower_gradings: tuple[int, ...],
                 torsion: tuple[tuple[int, int], ...]):
        object.__setattr__(self, "tower_count", tower_count)
        object.__setattr__(self, "tower_gradings", tower_gradings)
        object.__setattr__(self, "torsion", torsion)

    def render(self) -> str:
        parts = [f"tower gr={g}" for g in self.tower_gradings]
        parts += [f"torsion U^{k} gr={g}" for k, g in self.torsion]
        return "; ".join(parts) if parts else "0"


class HatRanks(Record):
    """F2 ranks of the fully reduced homology by (Maslov, Alexander)."""

    __slots__ = ("ranks",)

    def __init__(self, ranks: tuple[tuple[int, int, int], ...]):
        object.__setattr__(self, "ranks", ranks)

    @property
    def total(self) -> int:
        return sum(r for _, _, r in self.ranks)


# A homogeneous element of C/(V) as (bits, grading): bit k stands for
# U^((gr_u of generator k - grading) / 2) times generator k.
VVector = tuple[int, int]


def _cancel(cols: list[int], gr: list[int]):
    """Graded cancellation of the differential with columns `cols`.

    Works degree by degree, k = 0, 1, 2, ...: a live degree-k entry
    (y, x) of minimal degree is a pivot.  Adding U^(...) times row y to
    every other row hitting column x and U^(...) times column x to every
    other column hit by row y splits off the summand d x = U^k y; the
    column operations only touch row y and column x, so only the row
    operations are done, and x and y are retired.  The added rows create
    entries of degree >= k only, and a row without a live degree-k entry
    never gains one, so one scan of the rows per degree finds every pivot.
    The columns (the V-free rows of d) index the rows that hit them, so
    adding row y flips one bitset per column of row y.

    Returns (pairs, towers, vec, cov): the (k, y) of every pivot, the
    generators still live at the end, and for each live generator t the
    current basis vector vec[t] and coordinate functional cov[t], as bits
    over the original basis (a change of basis e_c += e_x updates vec[c],
    a row operation updates cov[t]).
    """
    n = len(gr)
    by_row = transpose(cols)
    rows = [by_row.get(t, 0) for t in range(n)]
    cols = list(cols)
    of_grading: dict[int, int] = {}
    for s, g in enumerate(gr):
        of_grading[g] = of_grading.get(g, 0) | 1 << s
    alive = (1 << n) - 1
    cov = [1 << t for t in range(n)]
    vec = list(cov)
    pairs = []
    # an entry's degree is fixed by the gradings of its row and column
    degrees = {(a + 1 - b) // 2 for a in of_grading for b in of_grading
               if a + 1 - b >= 0 and (a + 1 - b) % 2 == 0}
    for k in sorted(degrees):
        for y in range(n):
            if not alive >> y & 1:
                continue
            hits = rows[y] & alive & of_grading.get(gr[y] + 1 - 2 * k, 0)
            if not hits:
                continue
            x = (hits & -hits).bit_length() - 1
            row_y, cov_y, col_x = rows[y], cov[y], 1 << x
            hitters = cols[x] & alive ^ 1 << y
            for t in bits_of(hitters):
                rows[t] ^= row_y
                cov[t] ^= cov_y
            vec_x = vec[x]
            for c in bits_of(row_y & alive ^ col_x):
                vec[c] ^= vec_x
                cols[c] ^= hitters
            alive ^= col_x | 1 << y
            pairs.append((k, y))
    return pairs, list(bits_of(alive)), vec, cov


class UHomology:
    """Homology of C/(V) with an explicit tower basis and its coordinates.

    `Complex.u_homology` builds it once per complex and keeps it."""

    def __init__(self, C: Complex):
        if not C.ring <= Ideal.uv():
            raise StructuralError(
                "U-module homology needs a complex over the full ring or mod UV")
        self.C = C
        self._gr = [g.gr_u for g in C.basis]
        pairs, self._towers, self._vec, self._cov = _cancel(
            C.rows_mod(Ideal.principal_v()), self._gr)
        self.decomp = FUDecomp(
            tower_count=len(self._towers),
            tower_gradings=tuple(sorted(self._gr[t] for t in self._towers)),
            torsion=tuple(sorted((k, self._gr[y]) for k, y in pairs if k)),
        )

    def tower_generator(self) -> VVector:
        """A cycle generating the free tower; requires exactly one tower."""
        if self.decomp.tower_count != 1:
            raise StructuralError(
                f"expected one tower, found {self.decomp.tower_count}")
        t = self._towers[0]
        return self._vec[t], self._gr[t]

    def tower_unit_coefficient(self, v: VVector) -> bool:
        """Whether the class of cycle v generates homology mod torsion.

        The coefficient of v on a tower summand t is U^((gr(t) - g)/2)
        times the parity of cov[t] on v, so the class generates iff
        some tower in v's grading g has odd parity.  With a single tower
        this is the locality test.
        """
        bits, g = v
        return any(self._gr[t] == g and (self._cov[t] & bits).bit_count() & 1
                   for t in self._towers)


def hfk_minus(C: Complex) -> FUDecomp:
    """U-module decomposition of the homology of C/(V)."""
    return C.u_homology.decomp


def torsion_order(d: FUDecomp) -> int:
    """Largest k with a summand F2[U]/(U^k); 0 if torsion-free."""
    return max((k for k, _ in d.torsion), default=0)


def locality_rank(C: Complex) -> int:
    """Number of free towers of the homology of C/(V).

    Equals 1 exactly when inverting U and V leaves homology F2[U,V],
    which is the localization condition used everywhere downstream.
    """
    return hfk_minus(C).tower_count


def hfk_hat(C: Complex) -> HatRanks:
    """F2 homology of the fully reduced differential, by (Maslov, Alexander).

    The unit rows of d out of bigrading (p, q) all land in (p - 1, q - 1),
    so the rank of each bucket's rows is the rank of d there.
    """
    rows, cells = C.rows_mod(Ideal.max_ideal()), C.grading_index.cells
    rank = {key: rref_basis([rows[s] for s in bits_of(ys)]).rank
            for key, ys in cells.items()}
    out = []
    for (p, q), ys in sorted(cells.items()):
        h = ys.bit_count() - rank[(p, q)] - rank.get((p + 1, q + 1), 0)
        if h:
            out.append((p, (p - q) // 2, h))
    return HatRanks(tuple(out))
