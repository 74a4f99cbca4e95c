"""
Command-line pipeline driver.

Subcommands build the lattices, compile pump spectra, run the Gaussian
simulations and write deterministic text outputs suitable for regression
diffing.  Exit codes: 0 success, 2 configuration error, 3 validation
failure, 4 internal invariant breach or lost precision (PrecisionLossError:
a nullifier variance float64 cannot resolve to 1e-6, seen from r near 5, or
an effective-graph error it cannot, seen from r near 2.2 to 2.5).
`simulate` and `reduce` exit 2 before building the lattice when their
estimated peak memory exceeds this machine's.
Errors print one machine-parsable stderr line:
error: code=<n> cause=<type> detail="...".
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import gaussian, hankel, lattice, verify
from .verify import _fmt

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_INTERNAL = 4


def _parse_int_list(text: str):
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise lattice.LatticeError(f"expected comma-separated integers, got {text!r}")


def _parse_float_list(text: str):
    try:
        return [float(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise lattice.LatticeError(f"expected comma-separated numbers, got {text!r}")


def _write(outdir, name, content, emitted):
    if outdir is None:
        return
    path = Path(outdir)
    path.mkdir(parents=True, exist_ok=True)
    target = path / name
    target.write_text(content)
    emitted.append(str(target))


# ============================================================
# Commands
# ============================================================

def _lattice_pipeline(M: int):
    S = lattice.build_torus_supergraph(M)
    A = lattice.expand(S)
    ortho = lattice.check_orthogonal(A)
    colors = lattice.bicoloring(A)
    degrees = set(S.degrees().tolist())
    return S, A, ortho, colors, degrees


def cmd_lattice(args) -> int:
    S, A, ortho, colors, degrees = _lattice_pipeline(args.M)
    coords = lattice.coordinates(args.M)
    degree = degrees.pop() if len(degrees) == 1 else sorted(degrees)
    emitted = []
    formats = set(args.formats.split(","))
    if "triplet" in formats:
        _write(args.output_dir, f"lattice_M{args.M}.triplets",
               lattice.export_triplets(A), emitted)
        _write(args.output_dir, f"supergraph_M{args.M}.triplets",
               lattice.export_super_triplets(S), emitted)
    if "dot" in formats:
        _write(args.output_dir, f"lattice_M{args.M}.dot",
               lattice.export_dot(A), emitted)
    summary = (f"orthogonal={str(ortho.is_orthogonal).lower()} "
               f"bicolorable=true degree={degree}")
    if "report" in formats:
        lines = [summary,
                 f"n_macro={S.n_macro} block_side={S.block_side} "
                 f"physical_nodes={A.n} superedges={S.n_superedges} "
                 f"physical_edges={A.nnz // 2}",
                 f"color_counts={np.bincount(colors.colors).tolist()}",
                 "axis_convention x=P2/P3 y=P1/P0 chart=row-major-walk"]
        for axis in ("x", "y"):
            cyc = coords.axis_cycles[axis]
            lines.append(f"axis={axis} cycle_length={len(cyc)} start={cyc[:4]}")
        _write(args.output_dir, f"lattice_M{args.M}.report",
               "\n".join(lines) + "\n", emitted)
    print(summary)
    for f in emitted:
        print(f"wrote {f}")
    return EXIT_OK


def cmd_ring(args) -> int:
    S = lattice.build_ring_supergraph(args.n_macro)
    A = lattice.expand(S)
    ortho = lattice.check_orthogonal(A)
    lattice.bicoloring(A)
    emitted = []
    _write(args.output_dir, f"crown_n{args.n_macro}.triplets",
           lattice.export_triplets(A), emitted)
    _write(args.output_dir, f"ring_n{args.n_macro}.triplets",
           lattice.export_super_triplets(S), emitted)
    summary = (f"orthogonal={str(ortho.is_orthogonal).lower()} "
               f"bicolorable=true n_physical={A.n}")
    print(summary)
    for f in emitted:
        print(f"wrote {f}")
    return EXIT_OK


def cmd_pump(args) -> int:
    M = args.M
    if M % 2:
        raise lattice.LatticeError(f"M must be even, got {M}")
    if M < 6:
        raise lattice.LatticeError(
            f"pump compilation requires even M >= 6: the long zero run "
            f"t = M^2-4M-3 = {M * M - 4 * M - 3} of the 2x2 layout is "
            f"negative at M={M}")
    A = lattice.expand(lattice.build_torus_supergraph(M))
    short = lattice.renumber_to_block_hankel(A, M).shorthand
    spectrum = hankel.compile_pump(short)
    emitted = []
    _write(args.output_dir, f"shorthand_M{M}.txt",
           hankel.shorthand_file(short), emitted)
    _write(args.output_dir, f"pump_M{M}.txt",
           hankel.pump_file(spectrum), emitted)
    print(f"pump_lines={len(spectrum.lines)} n_qumodes={spectrum.n_qumodes} "
          f"bandwidth_span={spectrum.bandwidth_span}")
    for f in emitted:
        print(f"wrote {f}")
    return EXIT_OK


def _emit(outdir, runs) -> None:
    """Print each run's line and write its files, then list the files.

    ``runs`` holds (line, [(name, text)]) pairs.  Callers compute every run
    before emitting any, so a refusal part-way through an --r list leaves
    no output behind."""
    emitted = []
    for line, files in runs:
        for name, content in files:
            _write(outdir, name, content, emitted)
        print(line)
    for f in emitted:
        print(f"wrote {f}")


def cmd_simulate(args) -> int:
    n = 4 * args.M ** 2
    gaussian.require_fit(n, gaussian._SPARSE_PEAK_PER_MODE * n, "sparse")
    A = lattice.expand(lattice.build_torus_supergraph(args.M))
    runs = []
    for r in args.squeeze_r:
        _, conv = gaussian.cluster_state(A, r)
        rep = conv.nullifiers
        tag = f"M{args.M}_r{_fmt(r)}"
        runs.append((
            f"r={_fmt(r)} max_variance={_fmt(rep.max_variance)} "
            f"convention=({conv.quarter_turns:+d},{conv.target_sign:+d}A)",
            [(f"nullifiers_{tag}.txt", gaussian.nullifier_table(rep)),
             (f"nullifiers_{tag}.kv", gaussian.nullifier_records(rep))]))
    _emit(args.output_dir, runs)
    return EXIT_OK


def cmd_reduce(args) -> int:
    n = 4 * args.M ** 2
    gaussian.require_fit(n, gaussian._DENSE_PEAK_FACTORS * (2 * n) ** 2 * 8, "dense")
    A = lattice.expand(lattice.build_torus_supergraph(args.M))
    meridians = tuple(args.meridians)
    _, ideal_report = gaussian.reduce_and_cut(
        A, args.M, args.keep_layer, meridians)
    st = ideal_report.graph_stats
    runs = [(f"ideal nodes={st.n_nodes} connected={str(st.is_connected).lower()} "
             f"max_degree={st.max_degree} cycle_rank={st.cycle_rank}", [])]
    for r in args.squeeze_r:
        rotated, conv = gaussian.cluster_state(A, r)
        target = conv.nullifiers.target_adjacency
        reduced, rep = gaussian.reduce_and_cut(
            rotated, args.M, args.keep_layer, meridians,
            target=target, squeeze_r=r)
        eg = gaussian.effective_graph(reduced)
        eg_err = gaussian.effective_graph_error(
            eg, target[rep.kept_nodes][:, rep.kept_nodes])
        tag = f"M{args.M}_r{_fmt(r)}"
        result = (f"max_residual={_fmt(rep.max_residual)} "
                  "effective_graph_error="
                  f"{gaussian.format_resolved(eg_err, eg.V_rounding)}")
        runs.append((f"r={_fmt(r)} {result}",
                     [(f"reduction_{tag}.txt", result + "\n"),
                      (f"effective_graph_{tag}.txt",
                       gaussian.effective_graph_dump(eg))]))
    _emit(args.output_dir, runs)
    return EXIT_OK


def cmd_scaling(args) -> int:
    rows = hankel.scaling_report(args.M_list)
    table = hankel.scaling_table(rows)
    emitted = []
    _write(args.output_dir, "scaling.txt", table, emitted)
    sys.stdout.write(table)
    for f in emitted:
        print(f"wrote {f}")
    return EXIT_OK


def cmd_verify_all(args) -> int:
    results, report, all_passed = verify.verify_all(args.M)
    emitted = []
    _write(args.output_dir, "verify_report.txt", report, emitted)
    sys.stdout.write(report)
    for f in emitted:
        print(f"wrote {f}")
    return EXIT_OK if all_passed else EXIT_VALIDATION


# ============================================================
# Parser and entry point
# ============================================================

class _Parser(argparse.ArgumentParser):
    """argparse variant whose errors surface as single-line config errors."""

    def error(self, message):
        raise lattice.LatticeError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="combcluster",
        description="Build comb cluster-state lattices, compile pump "
                    "spectra, and verify them with a Gaussian engine.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--output-dir", default=None,
                       help="directory for emitted files (default: no files)")

    p = sub.add_parser("lattice", help="build and validate the toroidal lattice")
    p.add_argument("--M", type=int, required=True, help="even lattice size >= 4")
    p.add_argument("--formats", default="triplet,dot,report",
                   help="comma subset of triplet,dot,report")
    add_common(p)
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("ring", help="build and validate the ring supergraph")
    p.add_argument("--n-macro", type=int, required=True, dest="n_macro",
                   help="even macronode count >= 4")
    add_common(p)
    p.set_defaults(func=cmd_ring)

    p = sub.add_parser("pump", help="renumber the lattice and compile its pump")
    p.add_argument("--M", type=int, required=True, help="even lattice size >= 6")
    add_common(p)
    p.set_defaults(func=cmd_pump)

    p = sub.add_parser("simulate", help="nullifier variances at given squeezing")
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--r", type=_parse_float_list, default=[1.0, 2.0],
                   dest="squeeze_r", help="comma list of squeezing parameters")
    add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reduce", help="layer measurement plus meridian cut")
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--r", type=_parse_float_list, default=[1.0, 2.0],
                   dest="squeeze_r")
    p.add_argument("--keep-layer", type=int, default=0, dest="keep_layer")
    p.add_argument("--meridians", type=_parse_int_list, default=[0, 0],
                   help="x0,y0 chart lines to cut")
    add_common(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("scaling", help="scaling table over lattice sizes")
    p.add_argument("--M", type=_parse_int_list, required=True, dest="M_list",
                   help="comma list of even sizes >= 6")
    add_common(p)
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser("verify-all", aliases=["verify_all"],
                       help="run the full verification suite")
    p.add_argument("--M", type=int, default=6)
    add_common(p)
    p.set_defaults(func=cmd_verify_all)
    return parser


def _fail(code: int, cause: str, detail: str) -> int:
    detail = detail.replace('"', "'").replace("\n", " ")
    sys.stderr.write(f'error: code={code} cause={cause} detail="{detail}"\n')
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "meridians", None) is not None \
                and len(args.meridians) != 2:
            raise lattice.LatticeError("meridians must be x0,y0")
        return args.func(args)
    except (lattice.LatticeError, gaussian.GaussianError,
            hankel.NotHankelError, hankel.PumpCompileError) as exc:
        return _fail(EXIT_CONFIG, type(exc).__name__, str(exc))
    except RuntimeError as exc:
        return _fail(EXIT_INTERNAL, type(exc).__name__, str(exc))


if __name__ == "__main__":
    sys.exit(main())
