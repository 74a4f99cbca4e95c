"""Memory ceilings of the exact lattice path and of the sparse factor.

Each command runs in a fresh interpreter that reports its own peak RSS.
At M=40 one dense (4M**2)**2 int64 adjacency is 327 MB and at M=200 it
would be 205 GB, so a 200 MB ceiling catches any dense copy on the
lattice, pump and Hankel layers.  `pump --M 200` peaks at ~139 MB on a
2-core host, 61 MB under the ceiling.  `lattice --M 100` with all three
text formats (102 400 edges per edge file) peaks at ~90 MB, rendering a
chunk of edges at a time; holding one string per edge for a whole file
costs ~30 MB more.  `simulate --M 20`
(1600 modes) peaks at ~60 MB with the CSR Gaussian factor and ~520 MB
with a dense 2n x 2n one, so a 250 MB ceiling catches a fall-back to the
dense factor.  `simulate --M 64` (16 384 modes) peaks at ~120 MB with CSR
targets, and a single dense n x n target is 2 GiB, so a 300 MB ceiling
catches any dense target copy.  `reduce` conditions by a sparse
projection and keeps the projected rows as the factor: `reduce --M 20 --r
1,2` peaks at ~61 MB, and at ~230 MB with one dense QR of all measured and
kept rows, so a 180 MB ceiling catches a fall-back to that QR.
`reduce --M 28 --r 1` peaks at ~64 MB, and the dense projected factor alone
would be 73 MB (1458 x 6272), so a 120 MB ceiling catches densifying it.
`reduce --M 64 --r 1,2` (16 384 modes) peaks at ~127 MB, and one dense
3969 x 3969 V or U is 126 MB, so a 200 MB ceiling catches either.
`simulate --M 128 --r 1` (65 536 modes) peaks at ~271 MB with the
nullifier rounding bound built only for the rows its screen leaves open,
and at ~352 MB with the two-hop product |T| |L_q| (52 entries a row) for
every row, so a 310 MB ceiling catches that product's return.
Every output file is written a chunk at a time, so writing it adds no
peak: `lattice --M 200` (all three formats) peaks at ~132 MB and `reduce
--M 64 --r 1` at ~109 MB with and without --output-dir, where holding a
whole file's text cost 62 MB and 67 MB more (the 63 MB V/U dump), so a
10 MB margin between the two runs catches any file held whole.
"""

import json
import resource
import subprocess
import sys

import pytest

CEILING_MB = 200
SIMULATE_CEILING_MB = 250
SPARSE_TARGET_CEILING_MB = 300
BLOCKED_QR_CEILING_MB = 180
PROJECTED_QR_CEILING_MB = 120
SPARSE_REDUCE_CEILING_MB = 200
NULLIFIER_BOUND_CEILING_MB = 310
WRITE_MARGIN_MB = 10

CHILD = """
import json, resource, sys
from combcluster.cli import main
code = main(sys.argv[1:])
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"code": code, "peak_mb": peak}))
"""


def _cap():
    # a missed ceiling fails with MemoryError rather than exhausting memory
    resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))


def _run(argv, child_env, tmp_path, write=True):
    """(stdout lines, peak MB) of one command in a fresh, capped interpreter,
    writing its files to tmp_path unless ``write`` is false."""
    outdir = ["--output-dir", str(tmp_path)] if write else []
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *argv, *outdir],
        capture_output=True, text=True, env=child_env, preexec_fn=_cap,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["code"] == 0
    return lines, result["peak_mb"]


@pytest.mark.parametrize("argv", [
    ["pump", "--M", "40"],
    ["lattice", "--M", "32", "--formats", "triplet,report"],
    ["pump", "--M", "200"],
    ["lattice", "--M", "100", "--formats", "triplet,dot,report"],
], ids=["pump-40", "lattice-32", "pump-200", "lattice-100"])
def test_lattice_path_stays_under_ceiling(argv, child_env, tmp_path):
    lines, peak_mb = _run(argv, child_env, tmp_path)
    if argv[0] == "pump":
        assert lines[0].startswith("pump_lines=15 ")
    assert peak_mb < CEILING_MB


def test_sparse_factor_stays_under_ceiling(child_env, tmp_path):
    lines, peak_mb = _run(["simulate", "--M", "20"], child_env, tmp_path)
    assert lines[0].startswith("r=1 max_variance=")
    assert peak_mb < SIMULATE_CEILING_MB


def test_sparse_targets_stay_under_ceiling(child_env, tmp_path):
    lines, peak_mb = _run(["simulate", "--M", "64", "--r", "1,2"], child_env,
                          tmp_path)
    assert lines[0].startswith("r=1 max_variance=")
    assert lines[1].startswith("r=2 max_variance=")
    assert peak_mb < SPARSE_TARGET_CEILING_MB


def test_blocked_measurement_stays_under_ceiling(child_env, tmp_path):
    lines, peak_mb = _run(["reduce", "--M", "20", "--r", "1,2"], child_env,
                          tmp_path)
    assert lines[0].startswith("ideal nodes=361 connected=true")
    assert lines[1].startswith("r=1 max_residual=")
    assert lines[2].startswith("r=2 max_residual=")
    assert peak_mb < BLOCKED_QR_CEILING_MB


def test_projected_measurement_stays_under_ceiling(child_env, tmp_path):
    lines, peak_mb = _run(["reduce", "--M", "28", "--r", "1"], child_env,
                          tmp_path)
    assert lines[0].startswith("ideal nodes=729 connected=true")
    assert lines[1].startswith("r=1 max_residual=")
    assert peak_mb < PROJECTED_QR_CEILING_MB


def test_sparse_reduction_stays_under_ceiling(child_env, tmp_path):
    lines, peak_mb = _run(["reduce", "--M", "64", "--r", "1,2"], child_env,
                          tmp_path, write=False)
    assert lines[0].startswith("ideal nodes=3969 connected=true")
    assert lines[1].startswith("r=1 max_residual=")
    assert lines[2].startswith("r=2 max_residual=")
    assert peak_mb < SPARSE_REDUCE_CEILING_MB


def test_nullifier_bound_stays_under_ceiling(child_env, tmp_path):
    lines, peak_mb = _run(["simulate", "--M", "128", "--r", "1"], child_env,
                          tmp_path)
    assert lines[0].startswith("r=1 max_variance=")
    assert peak_mb < NULLIFIER_BOUND_CEILING_MB


@pytest.mark.parametrize("argv", [
    ["lattice", "--M", "200"],
    ["reduce", "--M", "64", "--r", "1"],
], ids=["lattice-200", "reduce-64"])
def test_writing_the_files_adds_no_peak(argv, child_env, tmp_path):
    bare_lines, bare_mb = _run(argv, child_env, tmp_path, write=False)
    assert not any(tmp_path.iterdir())
    lines, written_mb = _run(argv, child_env, tmp_path)
    assert lines[:len(bare_lines) - 1] == bare_lines[:-1]
    assert any(tmp_path.iterdir())
    assert abs(written_mb - bare_mb) < WRITE_MARGIN_MB
