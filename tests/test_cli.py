"""CLI pipelines and the exit-code contract."""

import pytest

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
    code, stdout, _ = run(capsys, "search-local", str(k2), str(u),
                          "--mode", "almost")
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
