"""Serialization round trips and parse errors for the .cfk format."""

import collections
import random

import pytest

from knotfloer.cfk import (parse_cfk, parse_map_file, render_cfk,
                           render_map_file)
from knotfloer.complexes import quotient
from knotfloer.errors import CfkParseError
from knotfloer.knotlib import build_cable, build_figure_eight, build_unknot
from knotfloer.morphism import (derivative_maps, enumerate_almost_iotas,
                                identity_map)
from knotfloer.ring import Ideal, render_mono
from oracles import parse_cfk_oracle, parse_map_file_oracle


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


# -- the row scanner against the monomial-set oracle -------------------------

NAMES = ["a", "b", "c", "x1", "y", "U", "e*"]


def _spell(rng, i, j, name):
    """Tokens of the term U^i V^j name: mostly as rendering spells it,
    else with a `1`, repeated `U` factors, `^1` or `U^0`, or V first."""
    canonical = render_mono(i, j).split() if i or j else []
    r = rng.random()
    if r < 0.7:
        words = canonical
    elif r < 0.8:
        words = ["1"] + canonical
    elif r < 0.9:
        words = ["U"] * i + ([f"V^{j}"] if j else [])
    else:
        words = ([f"V^{j}"] if j else []) + ([f"U^{i}"] if i else ["U^0"])
    return words + [name]


def random_cfk_text(rng):
    """A .cfk text of 1-5 generators with d and iota lines whose terms
    are on the grading rule, off it, on the unknown name zz, bad tokens or
    empty, each term sometimes repeated; the ring is full or modUV, and
    the header comes first, later or not at all."""
    n = rng.randint(1, 5)
    names = rng.sample(NAMES, n)
    grades = []
    for _ in range(n):
        u = rng.randint(-2, 2)
        grades.append((u, u + 2 * rng.randint(-1, 1)))
    lines = [f"gen {x} gr {u} {v}" for x, (u, v) in zip(names, grades)]
    if rng.random() < 0.03:
        lines.append(rng.choice(lines))
    body = []
    for kind in ("d", "iota"):
        if kind == "iota" and rng.random() < 0.5:
            continue
        for s in rng.sample(range(n), rng.randint(0, n)):
            eu, ev = ((grades[s][0] - 1, grades[s][1] - 1) if kind == "d"
                      else (grades[s][1], grades[s][0]))
            terms = []
            for _ in range(rng.randint(0, 5)):
                t = rng.randrange(n)
                du, dv = grades[t][0] - eu, grades[t][1] - ev
                r = rng.random()
                if r < 0.6 and min(du, dv) >= 0 and not du % 2 | dv % 2:
                    terms.append(_spell(rng, du // 2, dv // 2, names[t]))
                elif r < 0.85:
                    terms.append(_spell(rng, rng.randint(0, 2),
                                        rng.randint(0, 2), names[t]))
                elif r < 0.92:
                    terms.append(_spell(rng, rng.randint(0, 1), 0, "zz"))
                elif r < 0.96:
                    terms.append([rng.choice(["W", "U^x", "??", "V^-1"]),
                                  names[t]])
                else:
                    terms.append([])
                if terms and rng.random() < 0.25:
                    terms.append(rng.choice(terms))
            rng.shuffle(terms)
            rhs = " + ".join(" ".join(words) for words in terms) or "0"
            body.append(f"{kind} {names[s]} = {rhs}")
            if rng.random() < 0.03:
                body.append(body[-1])
    rng.shuffle(body)
    lines += body
    header = f"complex k ring {rng.choice(['full', 'full', 'modUV'])}"
    r = rng.random()
    if r < 0.85:
        lines.insert(0, header)
    elif r < 0.97:
        lines.insert(rng.randint(0, len(lines)), header)
    return "\n".join(lines) + "\n"


def _parse_outcome(parse, text):
    try:
        f = parse(text)
    except CfkParseError as err:
        return "error", str(err), err.line
    C = f.complex
    return (C.name, C.ring, C.basis, C._rows, C._stray, C.validate().messages,
            C.is_reduced, f.iota and f.iota.map.rows)


def test_scanner_matches_the_oracle_on_random_texts():
    rng, seen = random.Random(22), collections.Counter()
    for _ in range(4000):
        text = random_cfk_text(rng)
        got = _parse_outcome(parse_cfk, text)
        assert got == _parse_outcome(parse_cfk_oracle, text), text
        if got[0] == "error":
            seen[" ".join(got[1].split()[2:4])] += 1  # after "line <n>:"
        else:
            seen["parsed"] += 1
            seen["modUV"] += got[1] == Ideal.uv()
            seen["stray"] += bool(got[4])
            seen["iota"] += got[7] is not None
            seen["late header"] += not text.startswith("complex")
    # every path of the scanner and every error it raises was taken
    assert min(seen[key] for key in (
        "parsed", "modUV", "stray", "iota", "late header", "empty term",
        "unknown generator", "bad monomial", "bad exponent",
        "negative exponent", "bad iota", "duplicate generator", "repeated d",
        "repeated iota", "missing complex")) >= 5, seen


_HEAD = "map f variance eq : "
_GOOD = (_HEAD + "b -> U^2 c + U V d + U^2 c + V^2 e\n" + _HEAD + "a -> 0\n"
         + _HEAD + "c -> V f\n")
MAP_TEXTS = [
    _GOOD,
    _GOOD.replace("V^2 e", "V^2 e + 1 a"),
    _GOOD + _HEAD + "d -> U f + U g + V^2 g\n",
    _GOOD.replace("U^2 c +", "V U c + U^1 V^0 c + U U c +"),
    render_map_file(identity_map(build_cable(2))) + _HEAD + "a -> 0\n",
    "# map f\n" + _HEAD + "zz -> a\n",
    "# map f\n" + _HEAD + "a -> a + zz\n",
    _HEAD + "a -> a + zz + zz\n" + _HEAD + "b -> + b\n",
    _HEAD + "a -> a\n" + _HEAD + "b -> U c\n",
    _HEAD + "a -> a\nmap f variance skew : b -> b\n",
    _HEAD + "a ->\n",
    "map f variance skew : b -> c + U b + U V c\n",
]


def test_map_file_matches_the_oracle():
    for k2 in (build_cable(2), quotient(build_cable(2), Ideal.uv())):
        phi = derivative_maps(build_cable(2))[0].reduce_to(k2.ring)
        for text in MAP_TEXTS + [render_map_file(phi, "Phi"),
                                 _HEAD + "b -> U V d + U^2 c\n"]:
            outcomes = []
            for parse in (parse_map_file, parse_map_file_oracle):
                try:
                    f = parse(text, k2, k2)
                except CfkParseError as err:
                    outcomes.append((str(err), err.line))
                else:
                    outcomes.append((f.rows, f.variance, f.bidegree, f.ideal))
            assert outcomes[0] == outcomes[1], (k2.ring, text)
