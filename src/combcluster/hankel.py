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
import scipy.sparse as sp

from .lattice import (BlockWeight, LatticeError, PhysAdjacency, _coo_of,
                      block_label, build_torus_supergraph, canonical_csr,
                      exact_int, exact_int64, expand, renumber_to_block_hankel)


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

def _check_block_side(s) -> int:
    side = exact_int(s)
    if side is None or side < 1:
        raise NotHankelError(f"block_side must be a positive integer, got {s!r}")
    return side


@dataclass
class HankelShorthand:
    """Shorthand vector of a (block-)Hankel matrix.

    ``entries`` is one int64 array of shape (2N-1, s, s), validated at
    construction (NotHankelError otherwise): block (i, j) of the encoded
    N x N block matrix is entries[i + j], the quarters block on
    skew-diagonal i + j.  The corner (top-right block) is entry N - 1.
    Entries are checked, not cast (`exact_int64`): the first bad one is named.
    """

    entries: np.ndarray

    def __post_init__(self):
        try:
            given = np.asarray(self.entries)
        except ValueError as exc:           # a ragged list of blocks
            raise NotHankelError(f"shorthand blocks differ in shape: {exc}")
        if (given.ndim != 3 or given.shape[1] != given.shape[2]
                or given.shape[1] < 1 or len(given) % 2 == 0):
            raise NotHankelError("shorthand must be 2N-1 square blocks, "
                                 f"got entries of shape {given.shape}")
        self.entries, bad = exact_int64(given)
        if bad is not None:
            raise NotHankelError(f"shorthand entry {bad} is {given[bad]}, "
                                 "not an integer number of quarters")

    @property
    def block_side(self) -> int:
        return self.entries.shape[1]

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
        return np.flatnonzero(self.entries.any(axis=(1, 2))).tolist()


_GATHER_CHUNK = 1 << 16


def shorthand_of(A, block_side: int = 1) -> HankelShorthand:
    """Extract the shorthand of A, verifying constant block skew-diagonals.

    Only the stored nonzeros are read, grouped by slot (d, a, b): entry
    (a, b) of the blocks on skew-diagonal d = i + j.  Each entry is read
    from its diagonal's first block (i0, d - i0), i0 = max(0, d - N + 1),
    which lies in the first block row or the last block column.
    A is block-Hankel iff every stored value equals its slot's entry and
    every nonzero slot is stored in all N - |d - N + 1| blocks of its
    diagonal, so a block left empty on a nonzero diagonal is caught.

    A is a PhysAdjacency or a square integer matrix, dense or sparse, of
    quarter numerators, and block_side (1, 2 or 4) divides its side;
    NotHankelError otherwise, or when some block skew-diagonal is not
    constant.  Then ``first_violation`` pairs the block its diagonal's
    entry was read from with the first block, in row-major order, where A
    differs from `matrix_of` of the entries read.
    """
    s = _check_block_side(block_side)
    try:
        Q = (A if isinstance(A, PhysAdjacency) else PhysAdjacency(
            A if sp.issparse(A) else np.atleast_2d(A))).csr
    except LatticeError as exc:
        raise NotHankelError(str(exc)) from None
    n = Q.shape[0]
    if n == 0:
        raise NotHankelError(f"matrix must be nonempty, got {Q.shape}")
    if n % s:
        raise NotHankelError(f"side {n} not divisible by block_side {s}")
    nb = n // s
    rows, cols, vals = _coo_of(Q)
    if 2 * n * s >= np.iinfo(rows.dtype).max:
        rows, cols = rows.astype(np.int64), cols.astype(np.int64)
    # entry (a, b) of block (i, j), at row i*s + a and column j*s + b,
    # fills slot (d, a, b) of d = i + j, flattened to (d*s + a)*s + b; the
    # entries are read from block row 0 and block column N - 1, the first
    # block (i0, d - i0) of each skew-diagonal
    first = (rows < s) | (cols >= n - s)
    slot = rows + cols
    del rows
    b = cols % s
    slot -= b                              # d*s + a
    slot *= s
    slot += b
    del b
    entries = np.zeros((2 * nb - 1) * s * s, dtype=np.int64)
    entries[slot[first]] = vals[first]
    short = HankelShorthand(entries.reshape(-1, s, s))
    # compared a chunk at a time: one int64 gather of every slot's entry
    # would add 8 bytes per nonzero to the peak
    ok = np.empty(vals.size, dtype=bool)
    for start in range(0, vals.size, _GATHER_CHUNK):
        part = slice(start, start + _GATHER_CHUNK)
        np.equal(vals[part], entries[slot[part]], out=ok[part])
    nonzero = np.flatnonzero(entries)
    # skew-diagonal d holds N - |d - N + 1| blocks, so no slot is stored
    # more often than that, and once every stored value matches (hence
    # lies in a nonzero slot) the slots are full iff the totals agree
    expected = nb - np.abs(nonzero // (s * s) - (nb - 1))
    if ok.all() and vals.size == expected.sum():
        return short
    rows, cols, _ = _coo_of(canonical_csr(Q - matrix_of(short), np.int64))
    bi, bj = divmod(int((rows.astype(np.int64) // s * nb + cols // s).min()), nb)
    d = bi + bj
    i0 = max(0, d - nb + 1)
    raise NotHankelError(
        f"block skew-diagonal {d} is not constant: "
        f"block ({i0}, {d - i0}) != block ({bi}, {bj})",
        first_violation=((i0, d - i0), (bi, bj)))


def matrix_of(short: HankelShorthand) -> sp.csr_array:
    """The matrix of a shorthand as a canonical int64 CSR array (the exact
    inverse of shorthand_of).

    Each nonzero slot (d, a, b) fills entry (a, b) of the N - |d - N + 1|
    blocks (i, d - i) on its skew-diagonal; no dense matrix is built.
    """
    nb, s = short.n_blocks, short.block_side
    d, a, b = np.nonzero(short.entries)
    lo = np.maximum(d - nb + 1, 0)         # each slot's first block row
    count = np.minimum(d, nb - 1) - lo + 1
    slot = np.repeat(np.arange(d.size), count)
    i = np.arange(slot.size) + np.repeat(lo - np.cumsum(count) + count, count)
    coords = (i * s + a[slot], (d[slot] - i) * s + b[slot])
    return canonical_csr(sp.coo_array((short.entries[d, a, b][slot], coords),
                                      shape=(nb * s, nb * s)), np.int64)


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
        b = short.entries[d]
        if not is_pi_block(b):
            raise PumpCompileError(
                f"block {b.tolist()} is not proportional to pi+ or pi-")
        magnitudes.add(abs(int(b[0, 0])))
        lines.append(PumpLine(
            frequency_index=d,
            amplitude=1.0,
            polarization="+45" if b[0, 0] == b[0, 1] else "-45",
            y_phase=0 if b[0, 0] > 0 else 180,
        ))
    if len(magnitudes) > 1:
        raise PumpCompileError(
            f"shorthand mixes block magnitudes {sorted(magnitudes)}/4; "
            "a single pump cannot realize non-uniform interaction strengths")
    return PumpSpectrum(lines=lines, n_qumodes=short.n_blocks * 2)


def lattice_pump_spectrum(M: int) -> PumpSpectrum:
    """Full pipeline for the M-lattice: build, expand, renumber, compile."""
    A = expand(build_torus_supergraph(M))
    return compile_pump(renumber_to_block_hankel(A, M).shorthand)


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
    """Scaling table rows for the given lattice sizes (even M >= 4).

    Mode, edge and bandwidth counts grow linearly with N = M**2 while the
    pump line count stays constant; all columns are computed from the
    actually constructed matrices, not from formulas.
    """
    rows = []
    for M in M_list:
        S = build_torus_supergraph(M)
        A = expand(S)
        spectrum = compile_pump(renumber_to_block_hankel(A, M).shorthand)
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

def pump_file(spectrum: PumpSpectrum) -> str:
    """Machine-readable pump spectrum, deterministically ordered by d."""
    lines = [f"n_qumodes={spectrum.n_qumodes} block_side=2 "
             f"sign_convention={SIGN_CONVENTION}"]
    for ln in spectrum.lines:
        lines.append(f"d={ln.frequency_index} amp={ln.amplitude:.12g} "
                     f"pol={ln.polarization} yphase={ln.y_phase}")
    return "\n".join(lines) + "\n"


def _payload(entry: np.ndarray) -> str:
    """Spell a block as `block_label` of itself, of twice it (label/2), of
    minus twice it (-label/2), or else as its raw entries."""
    for scale, spelling in ((1, "{}"), (2, "{}/2"), (-2, "-{}/2")):
        try:
            return spelling.format(block_label(BlockWeight(scale * entry)))
        except LatticeError:
            pass
    return ";".join(",".join(f"{v}/4" for v in row) for row in entry.tolist())


def shorthand_file(short: HankelShorthand) -> str:
    """Shorthand dump: header plus one line per nonzero entry."""
    nz = short.nonzero_indices()
    lines = [f"length={short.length} corner_index={short.corner_index} "
             f"block_side={short.block_side} nonzero={len(nz)}"]
    for k in nz:
        lines.append(f"{k} {_payload(short.entries[k])}")
    return "\n".join(lines) + "\n"
