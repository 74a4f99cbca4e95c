"""
Hankel structure analysis and pump-spectrum compilation.

A (block-)Hankel matrix is constant along its (block) skew-diagonals, so it
is fully described by its first block row plus last block column: the
*shorthand*, a vector of 2N-1 blocks whose k-th entry is the block on
skew-diagonal k (i + j = k), with the top-right corner at index N-1.

When the 2x2 blocks of a block-Hankel adjacency are all proportional to
pi+ or pi-, each nonzero skew-diagonal compiles to a single pump line: the
skew-diagonal index is the pump frequency offset (the pump couples qumode
pairs m + n = d), the pi pattern selects the pump polarization (+45 or -45
in the Z/Y plane, i.e. a 180-degree relative phase on the Y component),
and a negated block is recorded as an additional 180-degree overall phase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import (BLOCK_LABELS, PhysAdjacency, build_torus_supergraph,
                      expand, renumber_to_block_hankel)


class NotHankelError(ValueError):
    """Matrix has a non-constant block skew-diagonal.

    ``first_violation`` holds ((i1, j1), (i2, j2)): two block positions on
    the same skew-diagonal with different contents.
    """

    def __init__(self, message, first_violation=None):
        super().__init__(message)
        self.first_violation = first_violation


class PumpCompileError(ValueError):
    """Shorthand entry cannot be realized as a single polarized pump line."""


# Sign convention recorded in every pump file header:
#   pol  +45 -> all-plus 2x2 pattern (pi+), -45 -> checkerboard (pi-),
#   yphase 180 -> the whole block is negated (overall pump phase flip).
SIGN_CONVENTION = "pol:+45=pi+,-45=pi-;yphase:180=negated-block"


# ============================================================
# Shorthand encoding
# ============================================================

@dataclass
class HankelShorthand:
    """Shorthand vector of a (block-)Hankel matrix.

    entries[k] is the int64 quarters block on skew-diagonal k.  The number
    of block rows of the encoded matrix is (len(entries) + 1) // 2 and the
    corner (top-right block) sits at index n_blocks - 1.
    """

    entries: list
    block_side: int

    def __post_init__(self):
        if len(self.entries) % 2 == 0:
            raise NotHankelError(
                f"shorthand length must be odd (2N-1), got {len(self.entries)}")

    @property
    def length(self) -> int:
        return len(self.entries)

    @property
    def n_blocks(self) -> int:
        return (len(self.entries) + 1) // 2

    @property
    def corner_index(self) -> int:
        return self.n_blocks - 1

    def nonzero_indices(self) -> list:
        return [k for k, e in enumerate(self.entries) if np.any(e)]


def _as_quarters(A) -> np.ndarray:
    if isinstance(A, PhysAdjacency):
        return A.quarters
    return np.asarray(A, dtype=np.int64)


def shorthand_of(A, block_side: int = 1) -> HankelShorthand:
    """Extract the shorthand of A, verifying constant block skew-diagonals.

    Parameters
    ----------
    A : PhysAdjacency or int ndarray
        Square matrix of quarter numerators; side divisible by block_side.
    block_side : int
        Block granularity (1, 2 or 4).

    Raises
    ------
    NotHankelError
        If some block skew-diagonal is not constant; the first offending
        pair of block positions is attached for diagnosis.
    """
    Q = _as_quarters(A)
    n = Q.shape[0]
    if Q.shape[0] != Q.shape[1]:
        raise NotHankelError("matrix must be square")
    if n % block_side:
        raise NotHankelError(
            f"side {n} not divisible by block_side {block_side}")
    nb = n // block_side
    s = block_side
    # (nb, nb, s, s) view: R[i, j] is the (i, j) block
    R = Q.reshape(nb, s, nb, s).swapaxes(1, 2)
    entries = []
    for d in range(2 * nb - 1):
        i = np.arange(max(0, d - nb + 1), min(nb - 1, d) + 1)
        blocks = R[i, d - i]
        mismatch = np.flatnonzero((blocks != blocks[0]).any(axis=(1, 2)))
        if mismatch.size:
            i0, ibad = int(i[0]), int(i[mismatch[0]])
            raise NotHankelError(
                f"block skew-diagonal {d} is not constant: "
                f"block ({i0}, {d - i0}) != block ({ibad}, {d - ibad})",
                first_violation=((i0, d - i0), (ibad, d - ibad)))
        entries.append(blocks[0].copy())
    return HankelShorthand(entries=entries, block_side=s)


def matrix_of(short: HankelShorthand) -> np.ndarray:
    """Rebuild the full matrix from a shorthand (exact inverse of shorthand_of)."""
    nb = short.n_blocks
    s = short.block_side
    Q = np.zeros((nb * s, nb * s), dtype=np.int64)
    for d, entry in enumerate(short.entries):
        e = np.asarray(entry, dtype=np.int64)
        if e.shape != (s, s):
            raise NotHankelError(
                f"entry {d} has shape {e.shape}, expected {(s, s)}")
        for i in range(max(0, d - nb + 1), min(nb - 1, d) + 1):
            Q[s * i:s * i + s, s * (d - i):s * (d - i) + s] = e
    return Q


# ============================================================
# Pump compilation
# ============================================================

@dataclass(frozen=True)
class PumpLine:
    """One pump frequency: couples qumode pairs (m, n) with m + n = frequency_index."""

    frequency_index: int
    amplitude: float
    polarization: str   # '+45' or '-45'
    y_phase: int        # 0 or 180


@dataclass
class PumpSpectrum:
    lines: list
    n_qumodes: int
    sign_convention: str = SIGN_CONVENTION

    @property
    def bandwidth_span(self) -> int:
        if not self.lines:
            return 0
        ds = [ln.frequency_index for ln in self.lines]
        return max(ds) - min(ds)

    def coupled_pairs(self, line: PumpLine) -> list:
        """All qumode pairs (m, n), m <= n, coupled by one pump line."""
        d = line.frequency_index
        n = self.n_qumodes // 2   # qumode = 2x2 block = polarization pair
        return [(m, d - m) for m in range(max(0, d - n + 1), d // 2 + 1)]


def is_pi_block(b: np.ndarray) -> bool:
    """True for a nonzero 2x2 block proportional to pi+ or pi-."""
    return bool(b[0, 0] == b[1, 1] and b[0, 1] == b[1, 0]
                and abs(b[0, 0]) == abs(b[0, 1]) != 0)


def _classify_pi(block: np.ndarray):
    """Return (pattern, sign, magnitude_quarters) for c * pi+/- blocks."""
    b = np.asarray(block, dtype=np.int64)
    if b.shape != (2, 2):
        raise PumpCompileError("pump blocks must be 2x2")
    if is_pi_block(b):
        sign = 1 if b[0, 0] > 0 else -1
        pattern = "+" if b[0, 0] == b[0, 1] else "-"
        return pattern, sign, abs(int(b[0, 0]))
    raise PumpCompileError(
        f"block {b.tolist()} is not proportional to pi+ or pi-")


def compile_pump(short: HankelShorthand) -> PumpSpectrum:
    """Compile a 2x2 block shorthand into a pump spectrum.

    Every nonzero entry must be proportional to pi+ or pi- with one common
    magnitude across the shorthand (uniform interaction strength); the
    common magnitude is normalized to amplitude 1.  One PumpLine is emitted
    per nonzero skew-diagonal, sorted by frequency index.
    """
    if short.block_side != 2:
        raise PumpCompileError(
            f"pump compilation needs 2x2 blocks, got side {short.block_side}")
    lines = []
    magnitudes = set()
    for d in short.nonzero_indices():
        pattern, sign, mag = _classify_pi(short.entries[d])
        magnitudes.add(mag)
        lines.append(PumpLine(
            frequency_index=d,
            amplitude=1.0,
            polarization="+45" if pattern == "+" else "-45",
            y_phase=0 if sign > 0 else 180,
        ))
    if len(magnitudes) > 1:
        raise PumpCompileError(
            f"shorthand mixes block magnitudes {sorted(magnitudes)}/4; "
            "a single pump cannot realize non-uniform interaction strengths")
    lines.sort(key=lambda ln: ln.frequency_index)
    return PumpSpectrum(lines=lines, n_qumodes=short.n_blocks * 2)


def lattice_pump_spectrum(M: int) -> PumpSpectrum:
    """Full pipeline for the M-lattice: build, expand, renumber, compile."""
    A = expand(build_torus_supergraph(M))
    renum = renumber_to_block_hankel(A, M)
    return compile_pump(shorthand_of(renum.renumbered, block_side=2))


# ============================================================
# Scaling
# ============================================================

@dataclass(frozen=True)
class ScalingRow:
    M: int
    N: int                  # macronodes
    physical_modes: int
    superedges: int
    physical_edges: int     # unordered nonzero entry pairs
    pump_lines: int
    bandwidth_span: int


def scaling_report(M_list) -> list:
    """Scaling table rows for the given lattice sizes (even M >= 6).

    Mode, edge and bandwidth counts grow linearly with N = M**2 while the
    pump line count stays constant; all columns are computed from the
    actually constructed matrices, not from formulas.
    """
    rows = []
    for M in M_list:
        S = build_torus_supergraph(M)
        A = expand(S)
        spectrum = lattice_pump_spectrum(M)
        rows.append(ScalingRow(
            M=M,
            N=M * M,
            physical_modes=A.n,
            superedges=S.n_superedges,
            physical_edges=A.nnz // 2,
            pump_lines=len(spectrum.lines),
            bandwidth_span=spectrum.bandwidth_span,
        ))
    return rows


def scaling_table(rows) -> str:
    header = ("M N physical_modes superedges physical_edges "
              "pump_lines bandwidth_span")
    lines = [header]
    for r in rows:
        lines.append(f"{r.M} {r.N} {r.physical_modes} {r.superedges} "
                     f"{r.physical_edges} {r.pump_lines} {r.bandwidth_span}")
    return "\n".join(lines) + "\n"


# ============================================================
# File formats
# ============================================================

def pump_file(spectrum: PumpSpectrum, block_side: int = 2) -> str:
    """Machine-readable pump spectrum, deterministically ordered by d."""
    lines = [f"n_qumodes={spectrum.n_qumodes} block_side={block_side} "
             f"sign_convention={spectrum.sign_convention}"]
    for ln in spectrum.lines:
        lines.append(f"d={ln.frequency_index} amp={ln.amplitude:.12g} "
                     f"pol={ln.polarization} yphase={ln.y_phase}")
    return "\n".join(lines) + "\n"


def _payload(entry: np.ndarray) -> str:
    """Spell a block: named label, a half-scaled named label, or raw entries."""
    for name, ref in BLOCK_LABELS.items():
        if np.array_equal(entry, ref.quarters):
            return name
        if np.array_equal(2 * entry, ref.quarters):
            return name + "/2"
        if np.array_equal(-2 * entry, ref.quarters):
            return "-" + name + "/2"
    return ";".join(",".join(f"{v}/4" for v in row) for row in entry.tolist())


def shorthand_file(short: HankelShorthand) -> str:
    """Shorthand dump: header plus one line per nonzero entry."""
    nz = short.nonzero_indices()
    lines = [f"length={short.length} corner_index={short.corner_index} "
             f"block_side={short.block_side} nonzero={len(nz)}"]
    for k in nz:
        lines.append(f"{k} {_payload(np.asarray(short.entries[k], dtype=np.int64))}")
    return "\n".join(lines) + "\n"
