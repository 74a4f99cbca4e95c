"""Memory ceilings of the exact lattice path and of the sparse factor.

Each command runs in a fresh interpreter that reports its own peak RSS.
At M=40 one dense (4M**2)**2 int64 adjacency is 327 MB and at M=200 it
would be 205 GB, so a 200 MB ceiling catches any dense copy on the
lattice, pump and Hankel layers.  `simulate --M 20` (1600 modes) peaks at
~166 MB with the CSR Gaussian factor and ~520 MB with a dense 2n x 2n
one, so a 250 MB ceiling catches a fall-back to the dense factor.
`simulate --M 64` (16 384 modes) peaks at ~160 MB with CSR targets, and a
single dense n x n target is 2 GiB, so a 300 MB ceiling catches any dense
target copy.
"""

import json
import resource
import subprocess
import sys

import pytest

CEILING_MB = 200
SIMULATE_CEILING_MB = 250
SPARSE_TARGET_CEILING_MB = 300

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


def _run(argv, child_env, tmp_path):
    """(stdout lines, peak MB) of one command in a fresh, capped interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *argv, "--output-dir", str(tmp_path)],
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
], ids=["pump-40", "lattice-32", "pump-200"])
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
