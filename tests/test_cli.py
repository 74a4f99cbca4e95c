"""CLI behavior: outputs, determinism, exit codes, error format."""

import json
import re
import subprocess
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


@pytest.mark.parametrize("argv, exports", [
    (("lattice", "--M", "6"),
     ["export_triplets", "export_super_triplets", "export_dot"]),
    (("lattice", "--M", "6", "--formats", "triplet,report"),
     ["export_triplets", "export_super_triplets"]),
    (("ring", "--n-macro", "4"), ["export_triplets", "export_super_triplets"]),
    (("simulate", "--M", "4", "--r", "1,2"),
     ["nullifier_table", "nullifier_records"] * 2),
    (("reduce", "--M", "4", "--r", "1,2"), ["effective_graph_dump"] * 2)])
def test_text_exports_render_only_for_an_output_dir(argv, exports, monkeypatch,
                                                     capsys, tmp_path):
    # each writer runs only with --output-dir, once per file, and returns
    # nothing: its text goes straight to the open file
    from combcluster import gaussian, lattice
    calls = []
    for module, names in (
            (lattice, ("export_triplets", "export_super_triplets",
                       "export_dot")),
            (gaussian, ("nullifier_table", "nullifier_records",
                        "effective_graph_dump"))):
        for name in names:
            def counting(*args, _fn=getattr(module, name), _name=name):
                calls.append(_name)
                assert _fn(*args) is None
            monkeypatch.setattr(module, name, counting)
    bare = run_cli(capsys, *argv)
    assert calls == []
    written = run_cli(capsys, *argv, "--output-dir", str(tmp_path))
    assert sorted(calls) == sorted(exports)
    assert all(f.stat().st_size for f in tmp_path.iterdir())
    assert bare[0] == written[0] == 0
    assert written[1].startswith(bare[1])


@pytest.mark.parametrize("child, cause", [
    ("", "FileExistsError"), ("sub", "NotADirectoryError")])
def test_unusable_output_dir_is_one_line(capsys, tmp_path, child, cause):
    # a file where the output directory or its parent should be
    taken = tmp_path / "taken"
    taken.write_text("")
    code, out, err = run_cli(capsys, "lattice", "--M", "4",
                             "--output-dir", str(taken / child))
    assert (code, out) == (2, "")
    assert re.fullmatch(rf'error: code=2 cause={cause} detail="[^"\n]*"\n',
                        err)
    assert taken.read_text() == ""


def test_pump_command_writes_fifteen_lines(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "pump", "--M", "6",
                           "--output-dir", str(tmp_path))
    assert code == 0
    assert "pump_lines=15" in out
    pump = (tmp_path / "pump_M6.txt").read_text().splitlines()
    assert len(pump) == 1 + 15
    assert all(re.fullmatch(r"d=\d+ amp=1 pol=[+-]45 yphase=(0|180)", ln)
               for ln in pump[1:])


def test_pump_m4_is_the_skeleton(capsys, tmp_path):
    # the renumbered M = 4 lattice is the (s, t) = (3, 5) skeleton
    code, out, err = run_cli(capsys, "pump", "--M", "4",
                             "--output-dir", str(tmp_path))
    assert (code, err) == (0, "")
    assert out.startswith("pump_lines=15 n_qumodes=64 bandwidth_span=58\n")
    pump = (tmp_path / "pump_M4.txt").read_text().splitlines()
    assert [int(ln.split()[0][2:]) for ln in pump[1:]] == [
        3, 9, 13, 15, 19, 25, 29, 31, 35, 41, 45, 47, 51, 57, 61]
    code, out, _ = run_cli(capsys, "scaling", "--M", "4")
    assert (code, out.splitlines()[1]) == (0, "4 16 64 32 512 15 58")


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


@pytest.mark.parametrize("M, r", [
    pytest.param(M, r, id=r if M == "4" else f"M{M}-{r}")
    for M in ("4", "24", "32")
    for r in ("0.5", "1", "2", "2.5", "3", "4", "4.5")])
def test_reduce_is_right_or_refused(capsys, M, r):
    # the kept layer's effective graph is tanh(4r) T, so the printed error
    # is 1/4 (1 - tanh(4r)) within 1e-6 relative, or exit 4 and one line
    code, out, err = run_cli(capsys, "reduce", "--M", M, "--r", r)
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


@pytest.mark.parametrize("argv", [
    ("simulate", "--M", "6", "--r", ""), ("simulate", "--M", "6", "--r", ","),
    ("simulate", "--M", "6", "--r", "1,,2"), ("reduce", "--M", "6", "--r", ""),
    ("reduce", "--M", "6", "--meridians", "1,"), ("scaling", "--M", ""),
    ("scaling", "--M", "6,,8")])
def test_empty_list_or_entry_is_refused(argv, capsys, tmp_path):
    outdir = tmp_path / "out"
    code, out, err = run_cli(capsys, *argv, "--output-dir", str(outdir))
    assert code == 2
    assert out == ""
    assert err.startswith("error: code=2 cause=LatticeError ")
    assert "no empty entry" in err and err.count("\n") == 1
    assert not outdir.exists()


@pytest.mark.parametrize("formats, unknown", [
    ("bogus", ["'bogus'"]), ("triplet,dots,xml,report", ["'dots'", "'xml'"]),
    ("", ["''"])])
def test_lattice_refuses_unknown_formats(formats, unknown, capsys, tmp_path):
    outdir = tmp_path / "out"
    code, out, err = run_cli(capsys, "lattice", "--M", "6", "--formats",
                             formats, "--output-dir", str(outdir))
    assert code == 2
    assert out == ""
    assert err.startswith("error: code=2 cause=LatticeError ")
    assert f"unknown formats {', '.join(unknown)}:" in err
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


FRESH_CHILD = """
import json, sys
from combcluster.cli import main
commands = [["simulate", "--M", "4"], ["reduce", "--M", "4", "--r", "1"],
            ["lattice", "--M", "4"], ["ring", "--n-macro", "4"],
            ["pump", "--M", "6"], ["scaling", "--M", "6,8"],
            ["verify-all", "--M", "6"]]
codes = [main(argv + ["--output-dir", sys.argv[1]]) for argv in commands]
heavy = ("scipy.linalg", "scipy.sparse.linalg", "scipy.sparse.csgraph")
print(json.dumps({"codes": codes,
                  "loaded": [m for m in heavy if m in sys.modules]}))
"""


def test_commands_run_without_scipy_linalg_or_csgraph(child_env, tmp_path):
    # every command, verify-all included, runs on numpy and scipy.sparse
    # alone: scipy.linalg and its second BLAS are never loaded
    proc = subprocess.run([sys.executable, "-c", FRESH_CHILD, str(tmp_path)],
                          capture_output=True, text=True, env=child_env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [0] * 6 + [3], "loaded": []}


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

    import combcluster.cli as cli
    # both estimates are linear in the mode count without --output-dir
    M = 4096
    n = 4 * M * M
    need = cli._PEAK_PER_MODE[command] * n
    if cli._memory_limit() >= need:
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
    assert re.fullmatch(rf'error: code=2 cause=LatticeError detail="{n} modes '
                        r'need ~\S+ GiB, more than the '
                        r'\S+ GiB of memory here"\n', proc.stderr)
    assert time.perf_counter() - start < 10


def test_simulate_refuses_when_memory_is_small(capsys, monkeypatch):
    # refused one byte below simulate's estimate for 144 modes, run at it
    import combcluster.cli as cli
    need = cli._PEAK_PER_MODE["simulate"] * 144
    monkeypatch.setattr(cli, "_memory_limit", lambda: need - 1)
    code, out, err = run_cli(capsys, "simulate", "--M", "6")
    assert code == 2
    assert out == ""
    assert err.startswith("error: code=2 cause=LatticeError detail=\"144 modes")
    assert err.count("\n") == 1
    monkeypatch.setattr(cli, "_memory_limit", lambda: need)
    assert run_cli(capsys, "simulate", "--M", "6")[0] == 0


@pytest.mark.parametrize("argv", [
    ("lattice", "--M", "1000000"),
    ("ring", "--n-macro", "10000000000000000000"),
    ("pump", "--M", "1000000"),
    ("scaling", "--M", "6,100000000"),
    ("verify-all", "--M", "100000000"),
])
def test_lattice_commands_refuse_sizes_that_cannot_fit(capsys, argv):
    # refused by the estimate alone, before anything is built: each of
    # these used to end in a numpy traceback
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert re.fullmatch(r'error: code=2 cause=LatticeError detail="\d+ modes '
                        r'need ~\S+ GiB, more than the \S+ GiB of memory '
                        r'here"\n', err)


@pytest.mark.parametrize("argv,n", [
    (("lattice", "--M", "6"), 144),
    (("lattice", "--M", "6", "--formats", "report"), 144),
    (("ring", "--n-macro", "4"), 8),
    (("pump", "--M", "6"), 144),
    (("scaling", "--M", "8,6"), 256),
    (("reduce", "--M", "6"), 144),
    (("verify-all", "--M", "6"), 144),
])
def test_lattice_commands_refuse_one_byte_below_their_estimate(
        capsys, monkeypatch, argv, n):
    import combcluster.cli as cli
    need = n * cli._PEAK_PER_MODE[argv[0]]
    monkeypatch.setattr(cli, "_memory_limit", lambda: need - 1)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f'error: code=2 cause=LatticeError detail="{n} modes')
    monkeypatch.setattr(cli, "_memory_limit", lambda: need)
    assert run_cli(capsys, *argv)[0] in (0, 3)       # verify-all exits 3


def test_every_command_reads_its_own_memory_estimate(capsys, monkeypatch,
                                                     tmp_path):
    # with no memory at all each subcommand must be refused by its estimate,
    # with the same line whether or not --output-dir is given; every table
    # key must be read by some command
    import combcluster.cli as cli

    class Recording(dict):
        def __getitem__(self, key):
            read.add(key)
            return super().__getitem__(key)

    monkeypatch.setattr(cli, "_PEAK_PER_MODE", Recording(cli._PEAK_PER_MODE))
    monkeypatch.setattr(cli, "_memory_limit", lambda: 0)
    parser = cli.build_parser()
    commands = next(a for a in parser._actions
                    if a.dest == "command").choices
    every_read = set()
    for name, sub in commands.items():
        if name == "verify_all":            # alias of verify-all
            continue
        argv = [name]
        for action in sub._actions:
            if action.required:
                argv += [action.option_strings[0], "6"]
        read = set()
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), name
        assert re.fullmatch(r'error: code=2 cause=LatticeError detail="\d+ '
                            r'modes need ~\S+ GiB, more than the \S+ GiB of '
                            r'memory here"\n', err), name
        assert name in read, f"{name} has no per-mode memory estimate"
        assert run_cli(capsys, *argv, "--output-dir", str(tmp_path)) == (
            code, out, err), name
        assert not any(tmp_path.iterdir()), name
        every_read |= read
    assert every_read == set(cli._PEAK_PER_MODE)
