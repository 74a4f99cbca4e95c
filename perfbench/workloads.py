"""The benchmark's workloads: seed-drawn inputs, operations and checks.

A workload is a list of operations run closed-loop by one client: each
operation is one CLI command (``combcluster.cli.main``, in process) or one
public library call, and it completes before the next one starts.  Every
operation's result is checked against a closed form from the paper's
construction, never against the engine's own output.  Floats are compared
by value with a relative tolerance, so a backend whose last digits differ
still passes.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from combcluster import cli, lattice, verify

# Outputs are printed to 12 significant digits; the dense engine's relative
# error is ~2e-9 at r = 2 (cancellation of e^{+-4r} terms).
REL_TOL = 1e-6

# Problem sizes: the full benchmark, and the tiny smoke pass.
FULL = {"sim_M": 10, "reduce_M": 10, "lattice_M": 32, "pump_M": 40,
        "verify_M": 6, "walk_M": 14}
SMOKE = dict.fromkeys(FULL, 6)

_SIM_SPANS = {"lattice.build", "lattice.bicolor", "gaussian.evolve",
              "gaussian.rotate", "gaussian.convention", "gaussian.nullifier",
              "gaussian.format"}
_REDUCE_SPANS = _SIM_SPANS | {"gaussian.measure", "gaussian.effective_graph",
                              "gaussian.purity", "gaussian.reduce"}
_PUMP_SPANS = {"lattice.build", "lattice.orthogonal", "lattice.bicolor",
               "lattice.export", "lattice.renumber", "hankel.shorthand",
               "hankel.pump", "hankel.files", "verify.walk", "verify.criteria"}
_VERIFY_SPANS = {"verify.oracle", "verify.walk", "verify.criteria",
                 "lattice.build", "lattice.orthogonal", "lattice.renumber",
                 "hankel.shorthand", "hankel.pump", "gaussian.evolve",
                 "gaussian.convention", "gaussian.nullifier",
                 "gaussian.measure", "gaussian.effective_graph",
                 "gaussian.purity", "gaussian.reduce"}


class CheckError(Exception):
    """An operation's result differs from its closed form."""


def expect(cond, message: str) -> None:
    if not cond:
        raise CheckError(message)


@dataclass
class Op:
    """One operation: ``call`` is timed, ``check`` is not.

    ``check`` receives the call's result and returns the relative errors of
    the floats it compared; it raises CheckError on a wrong result.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], list]


@dataclass
class Workload:
    name: str
    inputs: dict
    ops: list
    spans: set      # span names a traced pass must show


def run_cli(argv) -> tuple:
    """Run one CLI command in process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _expect_exit(result, code: int, what: str) -> str:
    rc, stdout, stderr = result
    expect(rc == code, f"{what} exited {rc}, expected {code}: {stderr.strip()}")
    return stdout


def _within_tol(err: float, what: str) -> float:
    expect(err <= REL_TOL, f"{what}: relative deviation {err:.3g}")
    return err


def _rel_errors(values, want: float, what: str) -> list:
    expect(values, f"{what}: no values")
    errs = [abs(v - want) / abs(want) for v in values]
    _within_tol(max(errs), what)
    return errs


def _draw_r(rng: random.Random) -> list:
    """Two distinct squeezing parameters in [0.25, 2], 3 decimals."""
    rs = []
    while len(rs) < 2:
        r = round(rng.uniform(0.25, 2.0), 3)
        if r not in rs:
            rs.append(r)
    return rs


def skeleton_positions(M: int) -> list:
    """The 15 pump-line positions of the (M-1, M^2-2M-3) skeleton.

    One half is 0^s B 0^t B 0^s B 0 B 0^s B 0^t B 0^s B with s = M-1 and
    t = M^2-2M-3, then the corner block, then the same half again.
    """
    s, t = M - 1, M * M - 2 * M - 3
    first, pos = [], -1
    for run in (s, t, s, 1, s, t, s):
        pos += run + 1
        first.append(pos)
    return first + [pos + 2] + [2 * M * M + p for p in first]


# ============================================================
# cluster-sim
# ============================================================

def cluster_sim(seed: int, sizes: dict, out: Path) -> Workload:
    M = sizes["sim_M"]
    rs = _draw_r(random.Random(seed))
    argv = ["simulate", "--M", str(M), "--r", ",".join(map(_fmt, rs)),
            "--output-dir", str(out)]

    def check(result):
        _expect_exit(result, 0, "simulate")
        errs = []
        for r in rs:
            rows = (out / f"nullifiers_M{M}_r{_fmt(r)}.txt").read_text().splitlines()
            variances = [float(row.split()[1]) for row in rows[:-1]]
            expect(len(variances) == 4 * M * M,
                   f"r={r}: {len(variances)} variances, expected {4 * M * M}")
            errs += _rel_errors(variances, math.exp(-4 * r),
                                f"simulate r={r} variance vs e^-4r")
        return errs

    return Workload("cluster-sim", {"M": M, "r": rs},
                    [Op("simulate", lambda: run_cli(argv), check)], _SIM_SPANS)


# ============================================================
# cluster-reduce
# ============================================================

def _kept_target(M: int, keep_layer: int, meridians) -> np.ndarray:
    """Exact lattice adjacency on the nodes the layer + meridian cut keeps."""
    coords = lattice.coordinates(M)
    x0, y0 = meridians
    cut = set(coords.column(x0)) | set(coords.row(y0))
    kept = [4 * m + keep_layer for m in range(M * M) if m not in cut]
    Q = lattice.expand(lattice.build_torus_supergraph(M)).quarters
    return Q[np.ix_(kept, kept)] / 4.0


def _read_vu(path: Path):
    """Parse an effective-graph dump into (V, U)."""
    mats, rows = {}, None
    for line in path.read_text().splitlines():
        if line[:1] in ("V", "U"):
            rows = mats.setdefault(line[0], [])
        else:
            rows.append([float(v) for v in line.split()])
    return np.array(mats["V"]), np.array(mats["U"])


def cluster_reduce(seed: int, sizes: dict, out: Path) -> Workload:
    M = sizes["reduce_M"]
    rng = random.Random(seed)
    rs = _draw_r(rng)
    keep = rng.randrange(4)
    meridians = (rng.randrange(M), rng.randrange(M))
    T = _kept_target(M, keep, meridians)
    argv = ["reduce", "--M", str(M), "--r", ",".join(map(_fmt, rs)),
            "--keep-layer", str(keep), "--meridians", "%d,%d" % meridians,
            "--output-dir", str(out)]

    def check(result):
        stdout = _expect_exit(result, 0, "reduce")
        m = re.search(r"^ideal nodes=(\d+) connected=(\w+) max_degree=(\d+)",
                      stdout, re.M)
        expect(m is not None, "reduce printed no ideal-patch line")
        expect((int(m[1]), m[2], int(m[3])) == ((M - 1) ** 2, "true", 4),
               f"ideal patch {m[0]!r}: expected {(M - 1) ** 2} nodes, "
               "connected, max degree 4")
        errs = []
        for r in rs:
            V, U = _read_vu(out / f"effective_graph_M{M}_r{_fmt(r)}.txt")
            expect(V.shape == T.shape and U.shape == T.shape,
                   f"r={r}: V/U shape {V.shape}, expected {T.shape}")
            # The phase convention fixes the target's overall sign.
            ref = math.copysign(math.tanh(4 * r), float(np.sum(V * T))) * T
            sech = 1.0 / math.cosh(4 * r)
            errs.append(_within_tol(
                float(np.abs(V - ref).max() / np.abs(ref).max()),
                f"reduce r={r} V vs tanh(4r) T_kept"))
            errs.append(_within_tol(
                float(np.abs(U - sech * np.eye(len(U))).max() / sech),
                f"reduce r={r} U vs sech(4r) 1"))
        return errs

    inputs = {"M": M, "r": rs, "keep_layer": keep, "meridians": list(meridians)}
    return Workload("cluster-reduce", inputs,
                    [Op("reduce", lambda: run_cli(argv), check)], _REDUCE_SPANS)


# ============================================================
# lattice-pump
# ============================================================

def _check_walk(result, W: int) -> list:
    """Criterion 2 at M=W fails with a closed-W-walk certificate (k = M)."""
    expect(not result.passed, f"criterion 2 passed at M={W}")
    text = "\n".join(result.details)
    expect(f"closed-{W}-walk counts differ" in text,
           f"criterion 2 at M={W}: certificate walk length is not {W}")
    expect(f"achieved_positions(s={W - 1},t={W * W - 2 * W - 3})="
           f"{skeleton_positions(W)}" in text,
           f"criterion 2 at M={W}: layout is not the (M-1, M^2-2M-3) skeleton")
    return []


def lattice_pump(seed: int, sizes: dict, out: Path) -> Workload:
    # Sizes are pinned: build and pump cost grow like M^4, so any seed-drawn
    # M would change the workload's cost, which the seed must not do.
    L, P, W = sizes["lattice_M"], sizes["pump_M"], sizes["walk_M"]
    lattice_argv = ["lattice", "--M", str(L), "--formats", "triplet,report",
                    "--output-dir", str(out)]
    pump_argv = ["pump", "--M", str(P), "--output-dir", str(out)]

    def check_lattice(result):
        stdout = _expect_exit(result, 0, "lattice")
        expect(stdout.startswith("orthogonal=true bicolorable=true degree=4\n"),
               f"lattice summary {stdout.splitlines()[:1]}")
        report = (out / f"lattice_M{L}.report").read_text()
        m = re.search(r"physical_nodes=(\d+) superedges=\d+ physical_edges=(\d+)",
                      report)
        expect(m is not None and (int(m[1]), int(m[2])) == (4 * L * L, 32 * L * L),
               f"lattice report sizes {m and m[0]!r}: expected "
               f"{4 * L * L} nodes, {32 * L * L} edges")
        with open(out / f"lattice_M{L}.triplets") as fh:
            edges = sum(1 for _ in fh) - 1
        expect(edges == 32 * L * L,
               f"triplet file has {edges} edges, expected {32 * L * L}")
        return []

    # n_qumodes counts both polarizations of the 2M^2 frequency modes.
    def check_pump(result):
        stdout = _expect_exit(result, 0, "pump")
        expect(stdout.startswith(f"pump_lines=15 n_qumodes={4 * P * P} "),
               f"pump summary {stdout.splitlines()[:1]}")
        rows = (out / f"pump_M{P}.txt").read_text().splitlines()
        expect(rows[0].startswith(f"n_qumodes={4 * P * P} block_side=2 "),
               f"pump header {rows[0]!r}")
        lines = [re.match(r"d=(\d+) amp=(\S+) pol=([+-]45) yphase=(0|180)$", r)
                 for r in rows[1:]]
        expect(all(lines), "malformed pump line")
        positions = [int(m[1]) for m in lines]
        expect(positions == skeleton_positions(P),
               f"pump lines at {positions}, expected the (M-1, M^2-2M-3) "
               f"skeleton {skeleton_positions(P)}")
        return _rel_errors([float(m[2]) for m in lines], 1.0, "pump amplitude")

    return Workload("lattice-pump", {"lattice_M": L, "pump_M": P, "walk_M": W},
                    [Op("lattice", lambda: run_cli(lattice_argv), check_lattice),
                     Op("pump", lambda: run_cli(pump_argv), check_pump),
                     Op("criterion-2", lambda: verify.criterion_block_hankel_structure(W),
                        lambda result: _check_walk(result, W))],
                    _PUMP_SPANS)


# ============================================================
# verify-suite
# ============================================================

def verify_suite(seed: int, sizes: dict, out: Path) -> Workload:
    # The suite's inputs are pinned (its criteria fix their own sizes and
    # seeds), so this workload ignores the benchmark seed.
    M = sizes["verify_M"]
    argv = ["verify-all", "--M", str(M), "--output-dir", str(out)]
    expected = {i: "FAIL" if i in (2, 5) else "PASS" for i in range(1, 10)}

    def check_all(result):
        _expect_exit(result, 3, "verify-all")
        report = (out / "verify_report.txt").read_text()
        status = {int(i): s for i, s in
                  re.findall(r"^CRITERION (\d+) \S+: (PASS|FAIL)$", report, re.M)}
        expect(status == expected, f"criteria {status}, expected {expected}")
        expect(f"closed-{M}-walk counts differ" in report,
               f"criterion 2 lacks its closed-{M}-walk certificate")
        expect("pinned value exp(-2r)/2 is inconsistent" in report,
               "criterion 5 lacks its certificate line")
        decay = re.findall(r"^  case=\S+ r=(\S+) max_variance=(\S+) ", report, re.M)
        expect(len(decay) == 9, f"criterion 5 has {len(decay)} cases, expected 9")
        errs = []
        for r, v in decay:
            errs += _rel_errors([float(v)], math.exp(-4 * float(r)),
                                f"criterion 5 r={r} max variance vs e^-4r")
        return errs

    return Workload("verify-suite", {"verify_M": M},
                    [Op("verify-all", lambda: run_cli(argv), check_all)],
                    _VERIFY_SPANS)


WORKLOADS = {"cluster-sim": cluster_sim, "cluster-reduce": cluster_reduce,
             "lattice-pump": lattice_pump, "verify-suite": verify_suite}
