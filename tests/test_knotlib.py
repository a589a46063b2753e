"""Builder fidelity: the cable tables and the small complexes."""

import hashlib

import pytest

from helpers import alexander, forced_iota_constraints
from knotfloer.cfk import parse_cfk, render_cfk
from knotfloer.knotlib import (_FIG8, _UNKNOT, _cable_text, build_cable,
                               build_figure_eight, build_unknot)
from oracles import RingElt, d_of

U, V = RingElt.mono(1, 0), RingElt.mono(0, 1)


def mono(i, j):
    return RingElt.mono(i, j)


def test_unknot_shape(unknot):
    assert len(unknot) == 1
    assert unknot.grading("a") == (0, 0)
    assert d_of(unknot, "a") == {}


def test_fig8_table(fig8):
    assert d_of(fig8, "b") == {"c": U, "d": V}
    assert d_of(fig8, "c") == {"e": V}
    assert d_of(fig8, "d") == {"e": U}
    assert d_of(fig8, "a") == {} and d_of(fig8, "e") == {}
    assert [fig8.grading(n) for n in "abcde"] == [
        (0, 0), (0, 0), (1, -1), (-1, 1), (0, 0)]


def test_cable_requires_n_at_least_two():
    with pytest.raises(ValueError, match="cable parameter must be >= 2, got 1"):
        build_cable(1)
    with pytest.raises(ValueError, match="cable parameter must be >= 2, got 1"):
        forced_iota_constraints(1)


@pytest.mark.parametrize("n,count", [(2, 15), (3, 27), (4, 39), (5, 51),
                                     (6, 63)])
def test_cable_generator_count(n, count):
    assert len(build_cable(n)) == count == 15 + 12 * (n - 2)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_cable_validates_reduced_symmetric(n):
    r = build_cable(n).validate()
    assert r.d_squared and r.grading_law and r.reduced and r.grading_symmetric


def test_cable2_key_rows(k2):
    assert d_of(k2, "b") == {"c": mono(2, 0), "d": mono(1, 1), "e": mono(0, 2)}
    assert d_of(k2, "b0_1") == {"c0_1": mono(3, 0), "e0_1": mono(0, 1)}
    assert d_of(k2, "b1_1") == {"c1_1": mono(1, 0), "e1_1": mono(0, 3)}
    assert d_of(k2, "c1_1") == {"g1_1": mono(0, 3)}
    assert d_of(k2, "e0_1") == {"f0_1": mono(3, 0)}


def test_cable4_central_row():
    C = build_cable(4)
    assert d_of(C, "b") == {"c": mono(4, 0), "d": mono(1, 1), "e": mono(0, 4)}
    assert d_of(C, "d") == {"f": mono(3, 0), "g": mono(0, 3)}
    # truncated pieces at i = n-1
    assert d_of(C, "b0_3") == {"c0_3": mono(7, 0), "e0_3": mono(0, 1)}
    assert d_of(C, "e0_3") == {"f0_3": mono(7, 0)}
    assert d_of(C, "b1_3") == {"c1_3": mono(1, 0), "e1_3": mono(0, 7)}
    assert d_of(C, "c1_3") == {"g1_3": mono(0, 7)}


def test_cable3_family_gradings():
    C = build_cable(3)
    assert C.grading("c") == (5, -1) and alexander(C.generator("c")) == 3
    assert C.grading("f") == (4, 0) and C.grading("g") == (0, 4)
    assert C.grading("c0_1") == (7, -1)
    assert C.grading("e1_1") == (-1, 7)
    assert C.grading("c0_2") == (9, -1)
    assert C.grading("e0_2") == (-1, 1)
    assert C.grading("c1_2") == (1, -1)


def test_forced_constraints_shape():
    for n in (2, 3, 5):
        cons = forced_iota_constraints(n)
        assert cons == [("a", ("a",)), ("b", ("a", "b")),
                        ("f", ("g",)), ("g", ("f",))]


# sha256 of `render_cfk` of each library complex, taken when the
# builders still spelled d as monomial sets
LIBRARY_DIGESTS = {
    "unknot": "5106364b514e0dce11ec6d80cbb6a3b2f2d52dfa8ed52e5780fb5f0a08f2b2c6",
    "fig8": "887ee2d67bcbb383680944041c28076d3e184281fd592e4449d57c2ad89b4bae",
    "cable2": "718a30ebcae4adece8698dbd1c42b551efb2ba15fcb19cf1cf54a2305800d17d",
    "cable3": "e70d11bae7b1db814abcf941767b2d1acad87c236c584e8b3ba742fd3781ddd6",
    "cable4": "eb00d6d9809f9147a5c62799564e6d334dfd1dc555b85183da0cafdeb7ec12b3",
    "cable5": "76ccf6c6fc383212d38a2a28374b3c736b25323cb1b231e90ffa7f7a28650fd2",
    "cable6": "57d4223e5ea2b6884cfb61169831569028af0c831fdef042da9367a6c0562126",
    "cable7": "6078bd7c54fb23a17641a840a50246066878cf2fcd5d8d8f66785062c618c093",
    "cable8": "2dba2b8aef55577c79288de04c19a7cf2affe073a7586f5eb2012e0c8954a886",
    "cable9": "b8fdf177b779b584717caf778ca946c8d9b5a173032640cb6817270d4914180d",
    "cable10": "b66a0eecee6ef43e2deb61d526642ea6b296bb08c03467b202e337fa96c5f3c4",
    "cable11": "6b17397cec9deb9f5134b03f83f175712628ff73fe86ba4062a8a85f7fa8d2cb",
    "cable12": "54becccf3dc2498e568d3a2b2ace4549cc33ac79f8fbb3838fbe4e1e02d088f5",
}


def test_library_texts_are_pinned():
    built = {C.name: C for C in (build_unknot(), build_figure_eight(),
                                 *map(build_cable, range(2, 13)))}
    assert list(built) == list(LIBRARY_DIGESTS)
    for name, C in built.items():
        text = render_cfk(C)
        assert hashlib.sha256(text.encode()).hexdigest() == \
            LIBRARY_DIGESTS[name], name
        report = C.validate()
        assert report.ok and report.reduced, name


def test_library_texts_are_canonical():
    # every term takes the scanner's token-match path, so `knotfloer
    # build` prints the library's own text
    for text in (_UNKNOT, _FIG8, *map(_cable_text, range(2, 13))):
        assert render_cfk(parse_cfk(text).complex) == text
