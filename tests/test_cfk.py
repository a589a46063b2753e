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


def test_repeated_gen_line_names_its_line():
    text = "complex x ring full\ngen a gr 0 0\ngen b gr 1 -1\ngen a gr 0 0\n"
    with pytest.raises(CfkParseError) as err:
        parse_cfk(text)
    assert str(err.value) == "line 4: duplicate generator names"


def test_off_rule_iota_term_names_its_line():
    # iota b = a: a skew (0, 0) map sends b at gr (2, 0) to gr (0, 2)
    text = ("complex x ring full\ngen a gr 0 0\ngen b gr 2 0\ngen c gr 0 2\n"
            "iota a = a\niota b = a\n")
    with pytest.raises(CfkParseError) as err:
        parse_cfk(text)
    assert str(err.value) == ("line 6: bad iota data: map entry 1 a on b "
                              "breaks declared bidegree (0, 0)")


# Each .cfk text below exercises one path of the grading rule: U b and
# V c are the terms d(a) may carry, and d(b) may carry none.
GRADING_RULE_TEXTS = [
    # several monomials per target, off-rule terms on two sources
    "complex x ring full\ngen a gr 0 0\ngen b gr 1 -1\ngen c gr -1 1\n"
    "d b = V c + U^3 c + 1 c\n"
    "d a = V^2 b + U b + V b + U^2 b + V c + c + U c\n",
    # repeated terms cancel, off-rule ones included
    "complex x ring full\ngen a gr 0 0\ngen b gr 1 -1\ngen c gr -1 1\n"
    "d a = U b + V c + U b + V b + V b + U c\n",
    # mod UV: the terms in the ideal go, on the rule or off it
    "complex x ring modUV\ngen a gr 0 0\ngen b gr 1 -1\ngen c gr -1 1\n"
    "d a = U b + U V b + U^2 V c + V c + V^2 c\n",
    # iota: unit terms on the rule stay, non-unit terms go mod (U, V)
    "complex x ring full\ngen a gr 0 0\ngen b gr 1 -1\ngen c gr -1 1\n"
    "iota b = c + U b + U V c\niota c = b + b + b\n",
    # first error wins: the off-rule iota term on line 5, not line 6
    "complex x ring full\ngen a gr 0 0\ngen b gr 2 0\ngen c gr 0 2\n"
    "iota b = a + c\nd a = ??\n",
    # a repeated gen line
    "complex x ring full\ngen b gr 1 -1\ngen a gr 0 0\ngen b gr 1 -1\n",
]


def test_grading_rule_outputs_independent_of_hash_seed():
    import os
    import subprocess
    import sys

    script = ("from knotfloer.cfk import parse_cfk, parse_map_file\n"
              "from knotfloer.errors import CfkParseError\n"
              "from knotfloer.knotlib import build_cable\n"
              "from test_cfk import GRADING_RULE_TEXTS\n"
              "for text in GRADING_RULE_TEXTS:\n"
              "    try:\n"
              "        f = parse_cfk(text)\n"
              "    except CfkParseError as err:\n"
              "        print('error', err)\n"
              "        continue\n"
              "    C = f.complex\n"
              "    print(C._rows, C._stray, C.validate().messages)\n"
              "    print(f.iota and f.iota.map.rows)\n"
              "k2 = build_cable(2)\n"
              "head = 'map f variance eq : '\n"
              "good = (head + 'b -> U^2 c + U V d + U^2 c + V^2 e\\n'\n"
              "        + head + 'a -> 0\\n' + head + 'c -> V f\\n')\n"
              "f = parse_map_file(good, k2, k2)\n"
              "print(f.rows, f.bidegree, f.render())\n"
              "for bad in (good.replace('V^2 e', 'V^2 e + 1 a'),\n"
              "            good + head + 'd -> U f + U g + V^2 g\\n'):\n"
              "    try:\n"
              "        parse_map_file(bad, k2, k2)\n"
              "    except CfkParseError as err:\n"
              "        print('error', err)\n")
    here = os.path.dirname(__file__)
    path = os.pathsep.join([os.path.join(here, os.pardir, "src"), here])
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        outs.append(subprocess.run([sys.executable, "-c", script], env=env,
                                   capture_output=True, text=True,
                                   check=True, timeout=120).stdout)
    assert outs[0] == outs[1]
    lines = outs[0].splitlines()
    # strays in source order, then input target order, then monomial order
    assert lines[0].startswith(
        "(6, 0, 0) (('a', 'b', Mono(i=0, j=1)), ('a', 'b', Mono(i=0, j=2)), "
        "('a', 'b', Mono(i=2, j=0)), ('a', 'c', Mono(i=0, j=0)), ")
    assert [line for line in lines if line.startswith("error")] == [
        "error line 5: bad iota data: map entry 1 a on b breaks declared "
        "bidegree (0, 0)",
        "error line 4: duplicate generator names",
        "error line 1: map entry 1 a on b breaks declared bidegree (-1, -1)",
        "error line 4: map entry V^2 g on d breaks declared bidegree (-1, -1)"]
