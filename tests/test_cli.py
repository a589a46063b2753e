"""CLI pipelines and the exit-code contract."""

import hashlib
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import rename
from knotfloer.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_and_validate(tmp_path, capsys):
    out = tmp_path / "k2.cfk"
    code, _, _ = run(capsys, "build", "--knot", "cable:2", "-o", str(out))
    assert code == 0
    code, stdout, _ = run(capsys, "validate", str(out))
    assert code == 0
    assert "d_squared: pass" in stdout


def test_torsion_order_prints_three(tmp_path, capsys):
    out = tmp_path / "k2.cfk"
    run(capsys, "build", "--knot", "cable:2", "-o", str(out))
    code, stdout, _ = run(capsys, "torsion-order", str(out))
    assert code == 0 and stdout.strip() == "3"


def test_homology_output(tmp_path, capsys):
    out = tmp_path / "u.cfk"
    run(capsys, "build", "--knot", "unknot", "-o", str(out))
    code, stdout, _ = run(capsys, "homology", str(out))
    assert code == 0 and stdout.strip() == "tower gr=0"


def test_search_local_nonexistence_exit_3(tmp_path, capsys):
    k2 = tmp_path / "k2.cfk"
    u = tmp_path / "u.cfk"
    run(capsys, "build", "--knot", "cable:2", "-o", str(k2))
    run(capsys, "build", "--knot", "unknot", "-o", str(u))
    code, stdout, _ = run(capsys, "search-local", str(k2), str(u))
    assert code == 3
    assert "nonexistence" in stdout


def test_search_local_existence_writes_map(tmp_path, capsys):
    k2 = tmp_path / "k2.cfk"
    u = tmp_path / "u.cfk"
    mp = tmp_path / "map.cfk"
    run(capsys, "build", "--knot", "cable:2", "-o", str(k2))
    run(capsys, "build", "--knot", "unknot", "-o", str(u))
    code, _, _ = run(capsys, "search-local", str(u), str(k2), "-o", str(mp))
    assert code == 0
    assert "map local variance eq : a -> a" in mp.read_text()


def test_search_local_resource_exit_4(tmp_path, capsys):
    k2 = tmp_path / "k2.cfk"
    k3 = tmp_path / "k3.cfk"
    run(capsys, "build", "--knot", "cable:2", "-o", str(k2))
    run(capsys, "build", "--knot", "cable:3", "-o", str(k3))
    code, _, err = run(capsys, "search-local", str(k3), str(k2),
                       "--budget", "5")
    assert code == 4
    assert "resource" in err


def test_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfk"
    bad.write_text("complex x ring full\ngen a gr 0 0\nd a = ?\n")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "line 3" in err


def test_invalid_complex_exit_5(tmp_path, capsys):
    bad = tmp_path / "bad.cfk"
    bad.write_text("complex x ring full\n"
                   "gen a gr 0 0\ngen b gr 0 0\n"
                   "d a = V b\nd b = U a\n")
    code, _, _ = run(capsys, "validate", str(bad))
    assert code == 5
    code, _, _ = run(capsys, "homology", str(bad))
    assert code == 5


def test_usage_error_exit_2(capsys):
    assert main(["no-such-command"]) == 2


def test_records_format(tmp_path, capsys):
    out = tmp_path / "k2.cfk"
    run(capsys, "build", "--knot", "cable:2", "-o", str(out))
    code, stdout, _ = run(capsys, "homology", str(out), "--format", "records")
    assert code == 0
    lines = stdout.splitlines()
    assert "tower.count=1" in lines
    assert "torsion_order=3" in lines
    assert all("=" in ln for ln in lines)


def test_dual_and_tensor_round(tmp_path, capsys):
    f8 = tmp_path / "f8.cfk"
    du = tmp_path / "dual.cfk"
    tn = tmp_path / "t.cfk"
    run(capsys, "build", "--knot", "fig8", "-o", str(f8))
    assert run(capsys, "dual", str(f8), "-o", str(du))[0] == 0
    assert run(capsys, "validate", str(du))[0] == 0
    assert run(capsys, "tensor", str(f8), str(f8), "-o", str(tn))[0] == 0
    code, stdout, _ = run(capsys, "validate", str(tn))
    assert code == 0


def test_iota_enum_and_bound(tmp_path, capsys):
    k2 = tmp_path / "k2.cfk"
    withio = tmp_path / "k2i.cfk"
    run(capsys, "build", "--knot", "cable:2", "-o", str(k2))
    code, stdout, _ = run(capsys, "iota-enum", str(k2))
    assert code == 0
    assert "iota b = a + b" in stdout
    code, _, _ = run(capsys, "iota-enum", str(k2), "--index", "0",
                     "-o", str(withio))
    assert code == 0
    assert "iota" in withio.read_text()
    code, stdout, _ = run(capsys, "bound", str(withio))
    assert code == 0 and stdout.strip() == "2"


def test_connected_pipeline(tmp_path, capsys):
    k2 = tmp_path / "k2.cfk"
    conn = tmp_path / "conn.cfk"
    run(capsys, "build", "--knot", "cable:2", "-o", str(k2))
    code, _, _ = run(capsys, "connected", str(k2), "-o", str(conn))
    assert code == 0
    code, stdout, _ = run(capsys, "torsion-order", str(conn))
    assert code == 0 and stdout.strip() == "2"


def test_tensor_with_involutions(tmp_path, capsys):
    from knotfloer.cfk import parse_cfk
    from knotfloer.morphism import validate_iota
    k2 = tmp_path / "k2.cfk"
    k2i = tmp_path / "k2i.cfk"
    prod = tmp_path / "prod.cfk"
    run(capsys, "build", "--knot", "cable:2", "-o", str(k2))
    run(capsys, "iota-enum", str(k2), "--index", "0", "-o", str(k2i))
    code, _, _ = run(capsys, "tensor", str(k2i), str(k2i), "--variant", "2",
                     "-o", str(prod))
    assert code == 0
    parsed = parse_cfk(prod.read_text())
    assert parsed.iota is not None
    assert validate_iota(parsed.complex, parsed.iota).ok


def test_output_byte_identical_across_runs(tmp_path, capsys):
    a = tmp_path / "a.cfk"
    b = tmp_path / "b.cfk"
    run(capsys, "build", "--knot", "cable:3", "-o", str(a))
    run(capsys, "build", "--knot", "cable:3", "-o", str(b))
    assert a.read_bytes() == b.read_bytes()
    _, out1, _ = run(capsys, "homology", str(a))
    _, out2, _ = run(capsys, "homology", str(b))
    assert out1 == out2


@pytest.mark.parametrize("knot", ["cable:x", "cable:1"])
def test_bad_cable_parameter_exit_2(tmp_path, capsys, knot):
    out = tmp_path / "k.cfk"
    code, _, err = run(capsys, "build", "--knot", knot, "-o", str(out))
    assert code == 2
    assert err.count("\n") == 1 and "n >= 2" in err
    assert not out.exists()


def test_iota_index_out_of_range_exit_2(tmp_path, capsys):
    k2 = tmp_path / "k2.cfk"
    out = tmp_path / "k2i.cfk"
    run(capsys, "build", "--knot", "cable:2", "-o", str(k2))
    code, _, err = run(capsys, "iota-enum", str(k2), "--index", "7",
                       "-o", str(out))
    assert code == 2
    assert err == ("involution index 7 out of range: this complex has "
                   "2 completions\n")
    assert not out.exists()
    code, _, err = run(capsys, "connected", str(k2), "--iota-index", "7")
    assert code == 2 and "out of range" in err


def test_iota_enum_output_enumerates_once(tmp_path, capsys, monkeypatch):
    import knotfloer.cli as cli
    calls = []
    real = cli.enumerate_almost_iotas

    def counting(C):
        calls.append(C)
        return real(C)

    monkeypatch.setattr(cli, "enumerate_almost_iotas", counting)
    k2 = tmp_path / "k2.cfk"
    out = tmp_path / "k2i.cfk"
    run(capsys, "build", "--knot", "cable:2", "-o", str(k2))
    code, _, _ = run(capsys, "iota-enum", str(k2), "--index", "1",
                     "-o", str(out))
    assert code == 0 and len(calls) == 1
    assert "iota" in out.read_text()


# -- byte pins: stdout, stderr and exit code, fixed before the operators ----

CABLE3_CONNECTED = """\
complex cable3_conn ring full
gen c gr 5 -1
gen f gr 4 0
gen d gr 1 1
gen g gr 0 4
gen a gr 0 0
gen b gr 0 0
gen e gr -1 5
d c = V f
d d = U^2 f + V^2 g
d b = U^3 c + U V d + V^3 e
d e = U g
"""


@pytest.fixture
def cables(tmp_path, capsys):
    paths = {}
    for n in (2, 3):
        paths[n] = tmp_path / f"k{n}.cfk"
        run(capsys, "build", "--knot", f"cable:{n}", "-o", str(paths[n]))
    paths["2*"] = tmp_path / "k2dual.cfk"
    run(capsys, "dual", str(paths[2]), "-o", str(paths["2*"]))
    return paths


def test_search_local_mirror_exists_pinned(cables, tmp_path, capsys):
    # the map space needs U^5 on (c0_1*, f0_1), more than a bound taken
    # from either complex's own grading span (4) allows
    out = tmp_path / "map.cfk"
    assert run(capsys, "search-local", str(cables["2*"]), str(cables[2]),
               "-o", str(out)) == (0, "", "")
    assert out.read_text() == ("# map local: cable2* -> cable2 (eq, bidegree "
                               "0 0)\nmap local variance eq : a* -> a\n")
    from knotfloer.cfk import parse_cfk, parse_map_file
    from knotfloer.localequiv import verify_almost_local
    from knotfloer.morphism import enumerate_almost_iotas
    src, tgt = (parse_cfk(cables[k].read_text()).complex for k in ("2*", 2))
    f = parse_map_file(out.read_text(), src, tgt)
    assert any(verify_almost_local(f, i1, i2)
               for i1 in enumerate_almost_iotas(src)
               for i2 in enumerate_almost_iotas(tgt))


def test_search_local_k3_k2_records_pinned(cables, capsys):
    assert run(capsys, "search-local", str(cables[3]), str(cables[2]),
               "--format", "records") == (
        3, "exists=false\ntoken.unknowns=71\ntoken.equations=382\n"
           "token.iota_pairs=8\n", "")


def test_connected_cable3_pinned(cables, capsys):
    assert run(capsys, "connected", str(cables[3])) == (0, CABLE3_CONNECTED, "")


def test_bound_cable3_pinned(cables, capsys):
    assert run(capsys, "bound", str(cables[3])) == (0, "3\n", "")


PINNED = Path(__file__).parent / "pinned"


@pytest.fixture
def k2i(cables, tmp_path, capsys):
    path = tmp_path / "k2i.cfk"
    run(capsys, "iota-enum", str(cables[2]), "--index", "0", "-o", str(path))
    return path


def test_phi_psi_cable3_pinned(cables, capsys):
    assert run(capsys, "phi-psi", str(cables[3])) == (
        0, (PINNED / "phi_psi_cable3.txt").read_text(), "")


@pytest.mark.parametrize("variant", ["1", "2"])
def test_tensor_with_iota_pinned(k2i, capsys, variant):
    assert run(capsys, "tensor", str(k2i), str(k2i), "--variant",
               variant) == (
        0, (PINNED / f"tensor_k2i_k2i_v{variant}.cfk").read_text(), "")


def _pinned_digests(name):
    return dict(line.split()[::-1]
                for line in (PINNED / name).read_text().splitlines())


@pytest.mark.parametrize("pair", ["k2i_k3i", "k3i_k3i"])
def test_product_involutions_match_pinned_digests(cables, tmp_path, capsys,
                                                  pair):
    """`tensor` of cable 2 and 3 with their first completions, both
    variants, has the pinned sha256 digests (the CI step checks the same
    files built from the shell)."""
    for n in (2, 3):
        run(capsys, "iota-enum", str(cables[n]), "--index", "0", "-o",
            str(tmp_path / f"k{n}i.cfk"))
    a, b = pair.split("_")
    pinned = _pinned_digests("tensor_products.sha256")
    for variant in ("1", "2"):
        code, out, _ = run(capsys, "tensor", str(tmp_path / f"{a}.cfk"),
                           str(tmp_path / f"{b}.cfk"), "--variant", variant)
        assert code == 0
        assert (hashlib.sha256(out.encode()).hexdigest()
                == pinned[f"tensor_{pair}_v{variant}.cfk"])


@pytest.mark.parametrize("fmt,pin", [("text", "iota_enum_cable3.txt"),
                                     ("records",
                                      "iota_enum_cable3_records.txt")])
def test_iota_enum_cable3_pinned(cables, capsys, fmt, pin):
    assert run(capsys, "iota-enum", str(cables[3]), "--format", fmt) == (
        0, (PINNED / pin).read_text(), "")


@pytest.mark.parametrize("src,tgt,text", [
    ("u", 2, "# map local: unknot -> cable2 (eq, bidegree 0 0)\n"
             "map local variance eq : a -> a\n"),
    (2, 2, "# map local: cable2 -> cable2 (eq, bidegree 0 0)\n"
           + "".join(f"map local variance eq : {g} -> {g}\n"
                     for g in "abcdefg")
           + "map local variance eq : b1_1 -> a\n"),
], ids=["unknot-cable2", "cable2-cable2"])
def test_search_local_map_file_pinned(cables, tmp_path, capsys, src, tgt,
                                      text):
    if src == "u":
        cables[src] = tmp_path / "u.cfk"
        run(capsys, "build", "--knot", "unknot", "-o", str(cables[src]))
    out = tmp_path / "map.cfk"
    assert run(capsys, "search-local", str(cables[src]), str(cables[tgt]),
               "-o", str(out)) == (0, "", "")
    assert out.read_text() == text


@pytest.mark.parametrize("n,dual", [(4, False), (2, True), (3, True),
                                    (4, True)])
def test_connected_and_bound_every_completion_pinned(tmp_path, capsys, n,
                                                     dual):
    # the duals' images use synthesized x<k> labels, which depend on the
    # exact self-local map chosen
    path = tmp_path / "k.cfk"
    run(capsys, "build", "--knot", f"cable:{n}", "-o", str(path))
    label = f"cable{n}"
    if dual:
        run(capsys, "dual", str(path), "-o", str(tmp_path / "kd.cfk"))
        path, label = tmp_path / "kd.cfk", label + "_dual"
    text = ""
    for k in range(2 ** (n - 1)):
        code, out, err = run(capsys, "connected", str(path),
                             "--iota-index", str(k))
        assert (code, err) == (0, "")
        text += f"# connected --iota-index {k}\n" + out
        code, out, err = run(capsys, "bound", str(path), "--format",
                             "records", "--iota-index", str(k))
        assert (code, err) == (0, "")
        text += f"# bound --format records --iota-index {k}\n" + out
    assert text == (PINNED / f"connected_bound_{label}.txt").read_text()


def test_connected_label_skips_used_x_names(tmp_path, capsys):
    # completion 1 of the dual of cable 2 synthesizes a label for its
    # second generator; with e* renamed x1, x1 is taken and x2 is used
    from knotfloer.cfk import render_cfk
    from knotfloer.complexes import dualize
    from knotfloer.knotlib import build_cable

    path = tmp_path / "kd.cfk"
    path.write_text(render_cfk(rename(dualize(build_cable(2)), {"e*": "x1"})))
    code, out, err = run(capsys, "connected", str(path), "--iota-index", "1")
    names = [line.split()[1] for line in out.splitlines()
             if line.startswith("gen ")]
    assert (code, err, len(names), len(set(names))) == (0, "", 7, 7)
    assert run(capsys, "bound", str(path), "--iota-index", "1") == (0, "2\n",
                                                                     "")


def test_self_local_two_towers_exit_2(tmp_path, capsys):
    path = tmp_path / "two.cfk"
    path.write_text("complex two ring full\ngen a gr 0 0\ngen b gr 0 0\n")
    for argv in (("connected",), ("bound", "--format", "records")):
        assert run(capsys, *argv, str(path)) == (
            2, "", "error: self-local maps need exactly one tower\n")


def test_connected_budget_exit_4(cables, capsys):
    assert run(capsys, "connected", str(cables[2]), "--budget", "1") == (
        4, "", "resource error: 53 unknowns exceed the budget 1\n")


@pytest.mark.parametrize("argv", [("search-local", 3, 2), ("connected", 3),
                                  ("bound", 3)], ids=lambda a: a[0])
def test_negative_budget_exit_2(argv, cables, capsys):
    # a bad argument, not a resource overflow (exit 4)
    cmd, *files = argv
    assert run(capsys, cmd, *(str(cables[n]) for n in files),
               "--budget", "-5") == (
        2, "", f"knotfloer {cmd}: error: argument --budget: must not be "
               "negative, got -5\n")


def test_search_local_mode_flag_removed_exit_2(cables, capsys):
    # only almost-local maps are searched; .cfk files carry no full iota
    assert run(capsys, "search-local", str(cables[2]), str(cables[2]),
               "--mode", "local") == (
        2, "", "knotfloer: error: unrecognized arguments: --mode local\n")


def test_non_utf8_input_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfk"
    bad.write_bytes(b"complex x ring full\ngen a gr 0 0\n\xff\xfe\n")
    code, out, err = run(capsys, "validate", str(bad))
    assert (code, out) == (2, "")
    assert err == f"parse error: line 0: cannot read {bad}: not UTF-8 text\n"


def test_search_local_bad_cap_exit_2(cables, capsys):
    # map spaces are complete, so there is no exponent cap to set
    for value in ("abc", "40"):
        assert run(capsys, "search-local", str(cables[3]), str(cables[2]),
                   "--cap", value) == (
            2, "", f"knotfloer: error: unrecognized arguments: --cap {value}\n")


def test_bad_exponent_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfk"
    bad.write_text("complex x ring full\ngen a gr 0 0\ngen b gr -1 -1\n"
                   "d a = U^x b\n")
    assert run(capsys, "homology", str(bad)) == (
        2, "", "parse error: line 4: bad exponent in monomial token 'U^x'\n")


ILL_GRADED = json.loads((PINNED / "validate_ill_graded.json").read_text())


@pytest.mark.parametrize("case", sorted(ILL_GRADED["inputs"]))
def test_validate_ill_graded_pinned(tmp_path, capsys, case):
    # terms off the grading law: stray terms, two monomials on one pair, a
    # stray unit term, d^2 failing and passing, sources and targets listed
    # out of basis order, a term killed by the mod-UV ring
    path = tmp_path / f"{case}.cfk"
    path.write_text(ILL_GRADED["inputs"][case])
    for command, expected in ILL_GRADED["expected"][case].items():
        cmd, *flags = command.split()
        assert list(run(capsys, cmd, str(path), *flags)) == expected, command


@pytest.mark.parametrize("text,line", [
    ("complex x ring full\ngen a gr 0 0\ngen b gr -1 -1\nd a = b\n"
     "d a = 0\n", 5),
    ("complex x ring full\ngen a gr 0 0\niota a = a\niota a = 0\n", 4),
    ("complex x ring full\ngen a gr 0 0\ncomplex y ring full\n", 3),
], ids=["d", "iota", "complex"])
def test_repeated_line_exit_2(tmp_path, capsys, text, line):
    # a second d or iota line for a generator, or a second header, would
    # silently replace the first
    path = tmp_path / "twice.cfk"
    path.write_text(text)
    code, out, err = run(capsys, "homology", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"parse error: line {line}: ")


# -- mutated input through the front door ------------------------------------

def _fuzz_seeds():
    from knotfloer.cfk import render_cfk
    from knotfloer.knotlib import build_cable, build_figure_eight, build_unknot
    from knotfloer.morphism import enumerate_almost_iotas

    fig8, k2 = build_figure_eight(), build_cable(2)
    return (render_cfk(build_unknot()),
            render_cfk(fig8, enumerate_almost_iotas(fig8)[0]),
            render_cfk(k2, enumerate_almost_iotas(k2)[-1]))


FUZZ_SEEDS = _fuzz_seeds()
FUZZ_TOKENS = ("U", "V", "U^2", "V^3", "U^x", "U^-1", "U^", "^", "1", "0",
               "+", "=", "->", "#", ":", "complex", "gen", "d", "iota", "map",
               "gr", "ring", "full", "modUV", "box", "a", "b", "c", "zz",
               "-1", "7", "99999", "1e3", "é", "")
FUZZ_ARGS = {
    "build": (("--knot", "unknot"), ("--knot", "fig8"), ("--knot", "cable:2"),
              ("--knot", "cable:0"), ("--knot", "cable:-3"),
              ("--knot", "cable:"), ("--knot", "trefoil")),
    "validate": (), "homology": (), "torsion-order": (), "phi-psi": (),
    "dual": (), "tensor": (("--variant", "2"), ("--variant", "3")),
    "iota-enum": (("--index", "1"), ("--index", "-1"), ("--index", "x")),
    "search-local": (("--mode", "local"), ("--cap", "0"), ("--cap", "-2"),
                     ("--cap", "auto"), ("--budget", "0"),
                     ("--budget", "-1")),
    "connected": (("--iota-index", "1"), ("--iota-index", "-9"),
                  ("--budget", "3")),
    "bound": (("--iota-index", "0"), ("--iota-index", "5"),
              ("--budget", "0")),
}
TWO_FILES = ("tensor", "search-local")
FORMATTED = ("validate", "homology", "torsion-order", "iota-enum",
             "search-local", "bound")


@st.composite
def mutated_cfk(draw) -> bytes:
    """A library .cfk text after a few line and token edits."""
    base = draw(st.sampled_from(FUZZ_SEEDS))
    lines = [line.split(" ") for line in base.splitlines()]
    tokens = st.sampled_from(FUZZ_TOKENS) | st.sampled_from(base.split())
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(("drop", "dup", "swap", "insert",
                                     "delete", "replace")))
        if edit == "drop" and len(lines) > 1:
            del lines[k]
        elif edit == "dup":
            lines.insert(k, list(lines[k]))
        elif edit == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[k], lines[j] = lines[j], lines[k]
        else:
            line = lines[k]
            pos = draw(st.integers(0, max(len(line) - 1, 0)))
            token = draw(tokens)
            if edit == "insert":
                line.insert(pos, token)
            elif line and edit == "delete":
                del line[pos]
            elif line:
                line[pos] = token
    data = ("\n".join(" ".join(line) for line in lines) + "\n").encode()
    if draw(st.sampled_from((False,) * 7 + (True,))):
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + b"\xff" + data[cut:]
    return data


@st.composite
def fuzz_argv(draw):
    """(subcommand, input file contents, option pairs, whether to ask for
    records, extra arguments)."""
    cmd = draw(st.sampled_from(sorted(FUZZ_ARGS)))
    nfiles = 0 if cmd == "build" else 2 if cmd in TWO_FILES else 1
    files = [draw(mutated_cfk()) for _ in range(nfiles)]
    opts = draw(st.lists(st.sampled_from(FUZZ_ARGS[cmd]), max_size=2)
                if FUZZ_ARGS[cmd] else st.just([]))
    fmt = cmd in FORMATTED and draw(st.booleans())
    extra = draw(st.sampled_from(((),) * 6 + (("--bogus",), ("-o",))))
    return cmd, files, opts, fmt, extra


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=fuzz_argv())
def test_mutated_input_never_tracebacks(case, capsys):
    cmd, files, opts, fmt, extra = case
    with tempfile.TemporaryDirectory() as tmp:
        argv = [cmd]
        for k, data in enumerate(files):
            path = os.path.join(tmp, f"in{k}.cfk")
            with open(path, "wb") as fh:
                fh.write(data)
            argv.append(path)
        for opt in opts:
            argv += opt
        if fmt:
            argv += ["--format", "records"]
        argv += list(extra)
        if cmd in ("build", "phi-psi", "dual", "tensor", "connected"):
            argv += ["-o", os.path.join(tmp, "out.cfk")]
        assert main(argv) in (0, 2, 3, 4, 5)
    capsys.readouterr()
