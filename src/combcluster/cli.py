"""
Command-line pipeline driver.

Subcommands build the lattices, compile pump spectra, run the Gaussian
simulations and write deterministic text outputs suitable for regression
diffing.  Exit codes: 0 success, 2 configuration error, 3 validation
failure, 4 internal invariant breach or lost precision (PrecisionLossError:
a nullifier variance float64 cannot resolve to 1e-6, seen from r near 5, or
an effective-graph error it cannot, seen from r between 2.2 and 2.5 at
every M).
Every command applies the library's size rule, then exits 2 before building
the lattice when its estimated peak memory exceeds this machine's.
Errors print one machine-parsable stderr line:
error: code=<n> cause=<type> detail="...".
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

import numpy as np

from . import gaussian, hankel, lattice, verify
from .verify import _fmt

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_INTERNAL = 4


def _parse_list(kind, name: str, text: str):
    """Comma-separated values of ``kind``; refuses an empty list or entry."""
    try:
        return [kind(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated {name} with no empty entry, "
            f"got {text!r}")


_parse_int_list = functools.partial(_parse_list, int, "integers")
_parse_float_list = functools.partial(_parse_list, float, "numbers")


def _emit(outdir, runs) -> None:
    """Print each run's line and write its files, then list the files.

    ``runs`` holds (line, [(name, content)]) pairs, content as text or a
    writer called with the open file; without an outdir nothing is
    rendered or written.  Callers compute every run before emitting any, so
    a refusal part-way through an --r list leaves no output behind."""
    emitted = []
    for line, files in runs:
        if outdir is not None:
            for name, content in files:
                path = Path(outdir)
                path.mkdir(parents=True, exist_ok=True)
                with open(path / name, "w") as fh:
                    if callable(content):
                        content(fh)
                    else:
                        fh.write(content)
                emitted.append(path / name)
        print(line)
    for f in emitted:
        print(f"wrote {f}")


# ============================================================
# Commands
# ============================================================

def _checked_expansion(S):
    """(A, bicoloring, summary head) of the expanded supergraph S."""
    A = lattice.expand(S)
    ortho = lattice.check_orthogonal(A)
    colors = lattice.bicoloring(A)
    return A, colors, (f"orthogonal={str(ortho.is_orthogonal).lower()} "
                       "bicolorable=true")


_LATTICE_FORMATS = ("triplet", "dot", "report")
# Peak RSS above the import baseline in bytes per mode, at least twice what
# ru_maxrss of a fresh child measured with --output-dir on a 2-core host:
# lattice 516 at M = 362 (all three formats), ring 177 at 600 000 modes,
# pump 569 and scaling 586 at M = 362, simulate 5391 and reduce 5903 at
# M = 20 (4764 at M = 64), verify-all 6029 at M = 128.  Every file is
# written a chunk at a time, so writing it adds no per-mode cost.
_PEAK_PER_MODE = {"lattice": 1040, "ring": 360, "pump": 1180,
                  "scaling": 1180, "simulate": 16 * 1024,
                  "reduce": 16 * 1024, "verify-all": 12800}


def _memory_limit() -> int:
    """Physical memory in bytes, or the cgroup v2 memory.max if smaller."""
    limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    try:
        with open("/sys/fs/cgroup/memory.max") as fh:
            limit = min(limit, int(fh.read()))
    except (OSError, ValueError):          # no cgroup v2 file, or "max"
        pass
    return limit


def _require_fit(n: int, command: str) -> None:
    """LatticeError unless the command's peak for n modes fits in memory."""
    need = n * _PEAK_PER_MODE[command]
    limit = _memory_limit()
    if need > limit:
        raise lattice.LatticeError(
            f"{n} modes need ~{need / 2**30:.3g} GiB, more than the "
            f"{limit / 2**30:.3g} GiB of memory here")


def cmd_lattice(args) -> int:
    formats = set(args.formats.split(","))
    unknown = sorted(formats.difference(_LATTICE_FORMATS))
    if unknown:
        raise lattice.LatticeError(
            f"unknown formats {', '.join(map(repr, unknown))}: expected a "
            f"comma subset of {','.join(_LATTICE_FORMATS)}")
    _require_fit(4 * lattice.check_even_size("M", args.M) ** 2, "lattice")
    S = lattice.build_torus_supergraph(args.M)
    A, colors, checked = _checked_expansion(S)
    degrees = set(S.degrees().tolist())
    degree = degrees.pop() if len(degrees) == 1 else sorted(degrees)
    files = []
    if "triplet" in formats:
        files += [(f"lattice_M{args.M}.triplets",
                   functools.partial(lattice.export_triplets, A)),
                  (f"supergraph_M{args.M}.triplets",
                   functools.partial(lattice.export_super_triplets, S))]
    if "dot" in formats:
        files.append((f"lattice_M{args.M}.dot",
                      functools.partial(lattice.export_dot, A)))
    summary = f"{checked} degree={degree}"
    if "report" in formats:
        lines = [summary,
                 f"n_macro={S.n_macro} block_side={S.block_side} "
                 f"physical_nodes={A.n} superedges={S.n_superedges} "
                 f"physical_edges={A.nnz // 2}",
                 f"color_counts={np.bincount(colors).tolist()}",
                 "axis_convention x=P2/P3 y=P1/P0 chart=row-major-walk"]
        coords = lattice.coordinates(args.M)
        for axis in ("x", "y"):
            cyc = coords.axis_cycles[axis].tolist()
            lines.append(f"axis={axis} cycle_length={len(cyc)} start={cyc[:4]}")
        files.append((f"lattice_M{args.M}.report", "\n".join(lines) + "\n"))
    _emit(args.output_dir, [(summary, files)])
    return EXIT_OK


def cmd_ring(args) -> int:
    _require_fit(2 * lattice.check_even_size("n_macro", args.n_macro), "ring")
    S = lattice.build_ring_supergraph(args.n_macro)
    A, _, checked = _checked_expansion(S)
    _emit(args.output_dir, [(f"{checked} n_physical={A.n}", [
        (f"crown_n{args.n_macro}.triplets",
         functools.partial(lattice.export_triplets, A)),
        (f"ring_n{args.n_macro}.triplets",
         functools.partial(lattice.export_super_triplets, S))])])
    return EXIT_OK


def cmd_pump(args) -> int:
    M = lattice.check_even_size("M", args.M)
    _require_fit(4 * M * M, "pump")
    A = lattice.expand(lattice.build_torus_supergraph(M))
    short = lattice.renumber_to_block_hankel(A, M).shorthand
    spectrum = hankel.compile_pump(short)
    _emit(args.output_dir, [(
        f"pump_lines={len(spectrum.lines)} n_qumodes={spectrum.n_qumodes} "
        f"bandwidth_span={spectrum.bandwidth_span}",
        [(f"shorthand_M{M}.txt", hankel.shorthand_file(short)),
         (f"pump_M{M}.txt", hankel.pump_file(spectrum))])])
    return EXIT_OK


def cmd_simulate(args) -> int:
    _require_fit(4 * lattice.check_even_size("M", args.M) ** 2, "simulate")
    A = lattice.expand(lattice.build_torus_supergraph(args.M))
    runs = []
    for conv in gaussian.cluster_states(A, args.squeeze_r):
        rep = conv.nullifiers
        r = rep.squeeze_r
        tag = f"M{args.M}_r{_fmt(r)}"
        runs.append((
            f"r={_fmt(r)} max_variance={_fmt(rep.max_variance)} "
            f"convention=(+1,{conv.target_sign:+d}A)",
            [(f"nullifiers_{tag}.txt",
              functools.partial(gaussian.nullifier_table, rep)),
             (f"nullifiers_{tag}.kv",
              functools.partial(gaussian.nullifier_records, rep))]))
    _emit(args.output_dir, runs)
    return EXIT_OK


def cmd_reduce(args) -> int:
    if len(args.meridians) != 2:
        raise lattice.LatticeError("meridians must be x0,y0")
    _require_fit(4 * lattice.check_even_size("M", args.M) ** 2, "reduce")
    A = lattice.expand(lattice.build_torus_supergraph(args.M))
    cut = gaussian.reduce_and_cut(A, args.M, args.keep_layer,
                                  tuple(args.meridians))
    st = cut.graph_stats
    runs = [(f"ideal nodes={st.n_nodes} connected={str(st.is_connected).lower()} "
             f"max_degree={st.max_degree} cycle_rank={st.cycle_rank}", [])]
    for reduced, rep in gaussian.measure_and_delete(
            A, args.squeeze_r, cut.measured_nodes):
        eg = gaussian.effective_graph(reduced)
        eg_err = gaussian.effective_graph_error(eg, rep.target_adjacency)
        tag = f"M{args.M}_r{_fmt(rep.squeeze_r)}"
        resolved = gaussian.format_resolved
        result = (f"max_residual="
                  f"{resolved(rep.max_variance, rep.max_variance_rounding)} "
                  f"effective_graph_error={resolved(eg_err, eg.V_rounding)}")
        runs.append((f"r={_fmt(rep.squeeze_r)} {result}",
                     [(f"reduction_{tag}.txt", result + "\n"),
                      (f"effective_graph_{tag}.txt",
                       functools.partial(gaussian.effective_graph_dump, eg))]))
    _emit(args.output_dir, runs)
    return EXIT_OK


def cmd_scaling(args) -> int:
    Ms = [lattice.check_even_size("M", M) for M in args.M_list]
    _require_fit(4 * max(Ms) ** 2, "scaling")
    table = hankel.scaling_table(hankel.scaling_report(args.M_list))
    _emit(args.output_dir,
          [(table.removesuffix("\n"), [("scaling.txt", table)])])
    return EXIT_OK


def cmd_verify_all(args) -> int:
    _require_fit(4 * verify.check_suite_size(args.M) ** 2, "verify-all")
    _, report, all_passed = verify.verify_all(args.M)
    _emit(args.output_dir,
          [(report.removesuffix("\n"), [("verify_report.txt", report)])])
    return EXIT_OK if all_passed else EXIT_VALIDATION


# ============================================================
# Parser and entry point
# ============================================================

class _Parser(argparse.ArgumentParser):
    """argparse variant whose errors surface as single-line config errors."""

    def error(self, message):
        raise lattice.LatticeError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process: no command mutates a parsed value."""
    parser = _Parser(
        prog="combcluster",
        description="Build comb cluster-state lattices, compile pump "
                    "spectra, and verify them with a Gaussian engine.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, func):
        p.add_argument("--output-dir", default=None,
                       help="directory for emitted files (default: no files)")
        p.set_defaults(func=func)

    p = sub.add_parser("lattice", help="build and validate the toroidal lattice")
    p.add_argument("--M", type=int, required=True, help="even lattice size >= 4")
    p.add_argument("--formats", default="triplet,dot,report",
                   help="comma subset of triplet,dot,report")
    add_common(p, cmd_lattice)

    p = sub.add_parser("ring", help="build and validate the ring supergraph")
    p.add_argument("--n-macro", type=int, required=True, dest="n_macro",
                   help="even macronode count >= 4")
    add_common(p, cmd_ring)

    p = sub.add_parser("pump", help="renumber the lattice and compile its pump")
    p.add_argument("--M", type=int, required=True, help="even lattice size >= 4")
    add_common(p, cmd_pump)

    p = sub.add_parser("simulate", help="nullifier variances at given squeezing")
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--r", type=_parse_float_list, default=[1.0, 2.0],
                   dest="squeeze_r", help="comma list of squeezing parameters")
    add_common(p, cmd_simulate)

    p = sub.add_parser("reduce", help="layer measurement plus meridian cut")
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--r", type=_parse_float_list, default=[1.0, 2.0],
                   dest="squeeze_r")
    p.add_argument("--keep-layer", type=int, default=0, dest="keep_layer")
    p.add_argument("--meridians", type=_parse_int_list, default=[0, 0],
                   help="x0,y0 chart lines to cut")
    add_common(p, cmd_reduce)

    p = sub.add_parser("scaling", help="scaling table over lattice sizes")
    p.add_argument("--M", type=_parse_int_list, required=True, dest="M_list",
                   help="comma list of even sizes >= 4")
    add_common(p, cmd_scaling)

    p = sub.add_parser("verify-all", aliases=["verify_all"],
                       help="run the full verification suite")
    p.add_argument("--M", type=int, default=6)
    add_common(p, cmd_verify_all)
    return parser


def _fail(code: int, cause: str, detail: str) -> int:
    detail = detail.replace('"', "'").replace("\n", " ")
    sys.stderr.write(f'error: code={code} cause={cause} detail="{detail}"\n')
    return code


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (lattice.LatticeError, gaussian.GaussianError,
            hankel.NotHankelError, hankel.PumpCompileError,
            OSError) as exc:               # OSError: an unusable --output-dir
        return _fail(EXIT_CONFIG, type(exc).__name__, str(exc))
    except RuntimeError as exc:
        return _fail(EXIT_INTERNAL, type(exc).__name__, str(exc))


if __name__ == "__main__":
    sys.exit(main())
