"""Serialization round trips and parse errors for the .cfk format."""

import pytest

from knotfloer.cfk import (parse_cfk, parse_map_file, render_cfk,
                           render_map_file)
from knotfloer.errors import CfkParseError
from knotfloer.knotlib import build_cable, build_figure_eight, build_unknot
from knotfloer.morphism import (derivative_maps, enumerate_almost_iotas,
                                identity_map)


@pytest.mark.parametrize("builder", [build_unknot, build_figure_eight]
                         + [lambda n=n: build_cable(n) for n in (2, 3, 4)])
def test_round_trip_byte_equality(builder):
    C = builder()
    text = render_cfk(C)
    parsed = parse_cfk(text)
    assert parsed.complex == C
    assert render_cfk(parsed.complex) == text
    assert text.endswith("\n") and "\r" not in text


def test_round_trip_with_iota(k2, k2_iotas):
    text = render_cfk(k2, k2_iotas[0])
    parsed = parse_cfk(text)
    assert parsed.complex == k2
    assert parsed.iota is not None
    assert parsed.iota.map.action == k2_iotas[0].map.action
    assert render_cfk(parsed.complex, parsed.iota) == text


def test_fig8_text_form(fig8):
    text = render_cfk(fig8)
    assert "complex fig8 ring full" in text
    assert "d b = U c + V d" in text
    assert "gen c gr 1 -1" in text


def test_comments_and_blank_lines_ignored(fig8):
    text = render_cfk(fig8)
    noisy = "# heading\n\n" + text.replace("d b =", "d b =") + "# tail\n"
    assert parse_cfk(noisy).complex == fig8


def test_parse_error_reports_line_number():
    bad = "complex x ring full\ngen a gr 0 0\nd a = ??\n"
    with pytest.raises(CfkParseError) as err:
        parse_cfk(bad)
    assert err.value.line == 3


def test_unknown_generator_in_d_is_error():
    bad = "complex x ring full\ngen a gr 0 0\nd a = U b\n"
    with pytest.raises(CfkParseError):
        parse_cfk(bad)


def test_missing_header_is_error():
    with pytest.raises(CfkParseError):
        parse_cfk("gen a gr 0 0\n")


def test_bad_ring_tag_is_error():
    with pytest.raises(CfkParseError) as err:
        parse_cfk("complex x ring weird\n")
    assert err.value.line == 1


def test_map_file_round_trip(k2):
    phi, psi = derivative_maps(k2)
    text = render_map_file(phi, "Phi")
    back = parse_map_file(text, k2, k2)
    assert back.action == phi.action
    assert back.bidegree == phi.bidegree
    assert back.variance == "eq"


def test_map_file_repeated_line_is_error(k2):
    # a second line for a would silently replace the first
    text = render_map_file(identity_map(k2)) + "map f variance eq : a -> 0\n"
    with pytest.raises(CfkParseError) as err:
        parse_map_file(text, k2, k2)
    assert str(err.value) == f"line {len(text.splitlines())}: repeated map line for 'a'"


@pytest.mark.parametrize("line", ["map f variance eq : zz -> a",
                                  "map f variance eq : a -> a + zz"])
def test_map_file_unknown_generator_is_error(k2, line):
    text = "# map f\n" + line + "\n"
    with pytest.raises(CfkParseError) as err:
        parse_map_file(text, k2, k2)
    assert str(err.value) == "line 2: unknown generator 'zz'"


def test_map_file_off_bidegree_term_names_its_line(k2):
    # the first term fixes the bidegree (0, 0); U c on b breaks it
    text = "map f variance eq : a -> a\nmap f variance eq : b -> U c\n"
    with pytest.raises(CfkParseError) as err:
        parse_map_file(text, k2, k2)
    assert str(err.value) == ("line 2: map entry U c on b breaks declared "
                              "bidegree (0, 0)")
