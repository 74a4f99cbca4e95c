"""CLI behavior: outputs, determinism, exit codes, error format."""

import re
import sys

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


@pytest.mark.parametrize("r", ["0.5", "1", "2", "2.5", "3", "4", "4.5"])
def test_reduce_is_right_or_refused(capsys, r):
    # the kept layer's effective graph is tanh(4r) T, so the printed error
    # is 1/4 (1 - tanh(4r)) within 1e-6 relative, or exit 4 and one line
    code, out, err = run_cli(capsys, "reduce", "--M", "4", "--r", r)
    if code == 4:
        assert "effective_graph_error" not in out
        assert err.startswith("error: code=4 cause=PrecisionLossError ")
        assert err.count("\n") == 1
        return
    assert (code, err) == (0, "")
    printed = float(re.search(r"effective_graph_error=(\S+)", out)[1])
    exact = 0.5 / (np.exp(8 * float(r)) + 1)
    assert abs(printed / exact - 1) <= 1e-6


@pytest.mark.parametrize("argv, digits", [
    (("--M", "4", "--r", "0.5,1,2"), None),
    (("--M", "6", "--r", "1,2"), {"1": 10, "2": 7}),
    (("--M", "10", "--r", "0.7,1.3", "--keep-layer", "2",
      "--meridians", "3,1"), {"1.3": 9}),
])
def test_reduce_prints_only_resolved_digits(capsys, tmp_path, argv, digits):
    # every printed digit of the error is a digit of (1 - tanh(4r))/4, on
    # stdout and in the reduction file alike
    code, out, _ = run_cli(capsys, "reduce", *argv, "--output-dir", str(tmp_path))
    assert code == 0
    printed = dict(re.findall(r"^r=(\S+) .*effective_graph_error=(\S+)$", out, re.M))
    assert len(printed) == len(argv[3].split(","))
    for r, text in printed.items():
        shown = len(text.split("e")[0].replace(".", "").lstrip("0"))
        exact = 0.5 / (np.exp(8 * float(r)) + 1)
        assert 6 <= shown <= 12
        assert text == f"{exact:.{shown}g}"
        if digits and r in digits:
            assert shown == digits[r]
        name = f"reduction_M{argv[1]}_r{r}.txt"
        assert (tmp_path / name).read_text().endswith(
            f"effective_graph_error={text}\n")


@pytest.mark.parametrize("r", ["4", "4.5"])
def test_reduce_refuses_unresolved_effective_graph_error(capsys, r):
    code, _, err = run_cli(capsys, "reduce", "--M", "4", "--r", r)
    assert code == 4
    assert "cause=PrecisionLossError" in err


@pytest.mark.parametrize("argv", [("reduce", "--M", "4", "--r", "1,4"),
                                  ("simulate", "--M", "4", "--r", "1,6")])
def test_refusal_in_r_list_leaves_no_partial_output(argv, capsys, tmp_path):
    # r=1 succeeds, the later r is refused: nothing of r=1 is printed or written
    outdir = tmp_path / "out"
    code, out, err = run_cli(capsys, *argv, "--output-dir", str(outdir))
    assert code == 4
    assert out == ""
    assert err.startswith("error: code=4 cause=PrecisionLossError ")
    assert err.count("\n") == 1
    assert not outdir.exists()


def test_gaussian_path_never_enters_scipy_linalg(capsys, tmp_path):
    # scipy.linalg links a second BLAS whose idle threads compete with
    # numpy's on small hosts; the simulate and reduce paths stay on numpy
    entered = set()

    def profile(frame, event, arg):
        path = frame.f_code.co_filename.replace("\\", "/")
        if event == "call" and "scipy/linalg/" in path:
            entered.add(f"{path}:{frame.f_code.co_name}")

    sys.setprofile(profile)
    try:
        codes = [main(["simulate", "--M", "6", "--output-dir", str(tmp_path)]),
                 main(["reduce", "--M", "6", "--r", "1,2",
                       "--output-dir", str(tmp_path)])]
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [0, 0]
    assert not entered


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


@pytest.mark.parametrize("command", ["simulate", "reduce"])
def test_sizes_that_cannot_fit_are_refused(command, child_env):
    # a child with a 2 GiB address-space cap: a missed refusal fails with
    # MemoryError instead of exhausting the machine
    import resource
    import subprocess
    import sys
    import time

    import combcluster.gaussian as gaussian
    # simulate's estimate is linear in the mode count, reduce's quadratic
    M, engine = {"simulate": (4096, "sparse"), "reduce": (64, "dense")}[command]
    n = 4 * M * M
    need = {"sparse": gaussian._SPARSE_PEAK_PER_MODE * n,
            "dense": gaussian._DENSE_PEAK_FACTORS * (2 * n) ** 2 * 8}[engine]
    if gaussian._memory_limit() >= need:
        pytest.skip(f"this machine has room for {command} at M={M}")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "combcluster", command, "--M", str(M)],
        capture_output=True, text=True, env=child_env, preexec_fn=cap,
        timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert re.fullmatch(rf'error: code=2 cause=GaussianError detail="{n} modes '
                        rf'need ~\S+ GiB in the {engine} Gaussian engine, more '
                        r'than the \S+ GiB of memory here"\n', proc.stderr)
    assert time.perf_counter() - start < 10


def test_simulate_refuses_when_memory_is_small(capsys, monkeypatch):
    # refused one byte below simulate's estimate for 144 modes, run at it
    import combcluster.gaussian as gaussian
    need = gaussian._SPARSE_PEAK_PER_MODE * 144
    monkeypatch.setattr(gaussian, "_memory_limit", lambda: need - 1)
    code, out, err = run_cli(capsys, "simulate", "--M", "6")
    assert code == 2
    assert out == ""
    assert err.startswith("error: code=2 cause=GaussianError detail=\"144 modes")
    assert err.count("\n") == 1
    monkeypatch.setattr(gaussian, "_memory_limit", lambda: need)
    assert run_cli(capsys, "simulate", "--M", "6")[0] == 0
