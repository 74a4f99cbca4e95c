"""CLI behavior: outputs, determinism, exit codes, error format."""

import re

import numpy as np
import pytest

from combcluster.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lattice_command_summary(capsys, tmp_path):
    code, out, err = run_cli(capsys, "lattice", "--M", "6",
                             "--output-dir", str(tmp_path))
    assert code == 0
    assert err == ""
    assert out.splitlines()[0] == "orthogonal=true bicolorable=true degree=4"
    report = (tmp_path / "lattice_M6.report").read_text()
    assert "physical_edges=1152" in report
    triplets = (tmp_path / "lattice_M6.triplets").read_text()
    assert triplets.splitlines()[0] == "n=144 denom=4"


def test_ring_command(capsys):
    code, out, _ = run_cli(capsys, "ring", "--n-macro", "4")
    assert code == 0
    assert "orthogonal=true" in out


def test_pump_command_writes_fifteen_lines(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "pump", "--M", "6",
                           "--output-dir", str(tmp_path))
    assert code == 0
    assert "pump_lines=15" in out
    pump = (tmp_path / "pump_M6.txt").read_text().splitlines()
    assert len(pump) == 1 + 15
    assert all(re.fullmatch(r"d=\d+ amp=1 pol=[+-]45 yphase=(0|180)", ln)
               for ln in pump[1:])


def test_pump_m4_cites_negative_run_length(capsys):
    code, out, err = run_cli(capsys, "pump", "--M", "4")
    assert code == 2
    assert err.count("\n") == 1           # single machine-parsable line
    assert re.match(r'^error: code=2 cause=\w+ detail=".*"$', err.strip())
    assert "-3" in err and "M^2-4M-3" in err


def test_odd_m_is_config_error(capsys):
    code, _, err = run_cli(capsys, "lattice", "--M", "5")
    assert code == 2
    assert err.startswith("error: code=2")


def test_scaling_command(capsys):
    code, out, _ = run_cli(capsys, "scaling", "--M", "6,8,10")
    assert code == 0
    lines = out.splitlines()
    header = lines[0].split()
    rows = [dict(zip(header, ln.split())) for ln in lines[1:4]]
    assert [r["pump_lines"] for r in rows] == ["15", "15", "15"]
    assert [r["physical_edges"] for r in rows] == ["1152", "2048", "3200"]


def test_simulate_command(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "simulate", "--M", "6", "--r", "1",
                           "--output-dir", str(tmp_path))
    assert code == 0
    assert "max_variance=0.0183156" in out
    kv = (tmp_path / "nullifiers_M6_r1.kv").read_text()
    assert kv.splitlines()[0].startswith("node=0 variance=")


@pytest.mark.parametrize("r", ["inf", "1e308", "355.3", "200", "177.62"])
def test_simulate_rejects_overflowing_r(capsys, r):
    # the covariance holds cosh(4r)/2, which leaves float64 range just
    # above r = 177.6190
    code, out, err = run_cli(capsys, "simulate", "--M", "4", "--r", r)
    assert code == 2
    assert out == ""
    assert err.startswith("error: code=2 cause=GaussianError ")
    assert "overflows cosh(4r)" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("r", ["177.6", "10"])
def test_simulate_refuses_impossible_variances(capsys, r):
    # below the overflow bound the factor's e^{+-2r} rows cancel in
    # L_p - T L_q, and the rounding bound of that product refuses the answer
    code, out, err = run_cli(capsys, "simulate", "--M", "4", "--r", r)
    assert code == 4
    assert out == ""
    assert err.startswith("error: code=4 cause=PrecisionLossError ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("r", ["3", "4", "4.5", "5", "6", "7", "8", "10",
                               "50", "177.6"])
def test_simulate_is_right_or_refused(capsys, tmp_path, r):
    # every variance within 1e-6 relative of exp(-4r), or exit 4 and one line
    code, out, err = run_cli(capsys, "simulate", "--M", "4", "--r", r,
                             "--output-dir", str(tmp_path))
    if code == 4:
        assert out == ""
        assert err.startswith("error: code=4 cause=PrecisionLossError ")
        assert err.count("\n") == 1
        return
    assert code == 0
    assert err == ""
    (table,) = tmp_path.glob("nullifiers_M4_r*.txt")
    variances = np.array([float(line.split()[1])
                          for line in table.read_text().splitlines()[:-1]])
    assert variances.size == 64
    assert np.abs(variances / np.exp(-4 * float(r)) - 1).max() <= 1e-6


def test_reduce_command(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "reduce", "--M", "6", "--r", "1,2",
                           "--output-dir", str(tmp_path))
    assert code == 0
    assert "ideal nodes=25 connected=true max_degree=4" in out
    res = [float(m.group(1)) for m in
           re.finditer(r"max_residual=([0-9.e-]+)", out)]
    assert res[1] < res[0]


def test_verify_all_exit_reflects_failures(capsys):
    code, out, _ = run_cli(capsys, "verify-all")
    assert code == 3          # two documented criterion failures
    assert out.count("CRITERION") == 9
    assert "CRITERION 1 exact-orthogonality: PASS" in out
    assert "CRITERION 2 pinned-pump-layout: FAIL" in out
    assert "CRITERION 5 nullifier-decay: FAIL" in out
    assert "CRITERION 9 deterministic-reports: PASS" in out


def test_verify_all_byte_deterministic(capsys, tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    run_cli(capsys, "verify-all", "--output-dir", str(d1))
    run_cli(capsys, "verify-all", "--output-dir", str(d2))
    r1 = (d1 / "verify_report.txt").read_bytes()
    r2 = (d2 / "verify_report.txt").read_bytes()
    assert r1 == r2


def test_outputs_byte_deterministic(capsys, tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        run_cli(capsys, "pump", "--M", "6", "--output-dir", str(d))
        run_cli(capsys, "simulate", "--M", "6", "--r", "1",
                "--output-dir", str(d))
    for name in ("pump_M6.txt", "shorthand_M6.txt", "nullifiers_M6_r1.txt"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_verify_all_odd_m_config_error(capsys):
    code, _, err = run_cli(capsys, "verify-all", "--M", "5")
    assert code == 2
    assert err.startswith("error: code=2")


def test_verify_all_underscore_alias(capsys):
    code, _, err = run_cli(capsys, "verify_all", "--M", "5")
    assert code == 2
    assert err.startswith("error: code=2")


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_effective_graph_dump_precision(capsys, tmp_path):
    run_cli(capsys, "reduce", "--M", "6", "--r", "1",
            "--output-dir", str(tmp_path))
    dump = (tmp_path / "effective_graph_M6_r1.txt").read_text().splitlines()
    assert dump[0] == "V n=25"
    assert "U n=25" in dump
    first_row = dump[1].split()
    assert len(first_row) == 25
    float(first_row[0])           # parses as a number


def test_module_entry_point():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import combcluster
    # the child imports the same package as this test, installed or not
    src = str(Path(combcluster.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "combcluster", "scaling", "--M", "6"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "15" in proc.stdout
