"""
Matrix-weighted graph construction for frequency-comb cluster states.

All edge weights in this module are quarter-integers.  A weight w is stored
as the integer numerator of w = numerator/4 ("quarters"), so every matrix
here holds int64 and all structural checks (symmetry, row norms,
orthogonality A @ A = 1) are exact integer arithmetic, never floating point.
The physical adjacency is one sparse CSR matrix: the torus has 32 M**2
edges over 4 M**2 modes, and every exact check costs O(edges).

Two graph levels appear throughout:

* the *supergraph* of macronodes, whose edges carry small matrix weights
  (the rank-one projector blocks ``PI4`` at 4x4 granularity, or the 2x2
  blocks ``pi+`` / ``pi-``), and
* the expanded *physical* graph, one node per tensor slot of each
  macronode, with plain quarter-integer weights.

The toroidal lattice supergraph is built directly from its skew-diagonal
(Hankel) description: seven nonzero block skew-diagonals whose positions
are fixed by the lattice size M.  Geometry (torus coordinates, the one-unit
twist) is recovered afterwards by `coordinates`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, dijkstra

if TYPE_CHECKING:
    from .hankel import HankelShorthand


class LatticeError(ValueError):
    """Invalid construction parameter or malformed input matrix."""


class NonBipartiteError(LatticeError):
    """Raised when a two-coloring is requested for a graph with an odd cycle."""

    def __init__(self, message, odd_cycle_witness=None):
        super().__init__(message)
        self.odd_cycle_witness = odd_cycle_witness


# ============================================================
# Block weights
# ============================================================

@dataclass(frozen=True)
class BlockWeight:
    """Square matrix-valued edge weight with quarter-integer entries.

    ``quarters`` holds 4x the actual weight values, as int64.  Side is 2
    for the pi blocks and 4 for the rank-one projector blocks.
    """

    quarters: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.quarters, dtype=np.int64)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise LatticeError("block weight must be square")
        object.__setattr__(self, "quarters", q)
        q.setflags(write=False)

    @property
    def side(self) -> int:
        return self.quarters.shape[0]

    @property
    def is_zero(self) -> bool:
        return not self.quarters.any()

    def as_float(self) -> np.ndarray:
        return self.quarters / 4.0

    def transpose(self) -> "BlockWeight":
        return BlockWeight(self.quarters.T.copy())

    def __neg__(self) -> "BlockWeight":
        return BlockWeight(-self.quarters)

    def __eq__(self, other) -> bool:
        return (isinstance(other, BlockWeight)
                and np.array_equal(self.quarters, other.quarters))

    def __matmul__(self, other: "BlockWeight") -> "BlockWeight":
        # (a/4)(b/4) = (a@b/4)/4; exact only when a@b is divisible by 4,
        # which holds for all projector-block products used here.
        prod = self.quarters @ other.quarters
        if np.any(prod % 4):
            raise LatticeError("block product is not quarter-integer valued")
        return BlockWeight(prod // 4)


def _bw(rows, scale) -> BlockWeight:
    return BlockWeight(np.asarray(rows, dtype=np.int64) * scale)


# pi blocks: entries +-1/2, stored as quarters = +-2.
PI_PLUS = _bw([[1, 1], [1, 1]], 2)
PI_MINUS = _bw([[1, -1], [-1, 1]], 2)

# Rank-one projector blocks on R^4: entries +-1/4, quarters = +-1.
# They resolve the identity and are mutually orthogonal.
PI4 = (
    _bw([[1, 1, 1, 1], [1, 1, 1, 1], [1, 1, 1, 1], [1, 1, 1, 1]], 1),
    _bw([[1, -1, 1, -1], [-1, 1, -1, 1], [1, -1, 1, -1], [-1, 1, -1, 1]], 1),
    _bw([[1, 1, -1, -1], [1, 1, -1, -1], [-1, -1, 1, 1], [-1, -1, 1, 1]], 1),
    _bw([[1, -1, -1, 1], [-1, 1, 1, -1], [-1, 1, 1, -1], [1, -1, -1, 1]], 1),
)

# Label spelling used by the text export formats.
BLOCK_LABELS = {
    "P0": PI4[0], "P1": PI4[1], "P2": PI4[2], "P3": PI4[3],
    "-P3": -PI4[3], "pi+": PI_PLUS, "pi-": PI_MINUS,
}


def projector4(j: int) -> BlockWeight:
    """Return the j-th 4x4 rank-one projector block, j in 0..3."""
    if j not in (0, 1, 2, 3):
        raise LatticeError(f"projector index must be 0..3, got {j!r}")
    return PI4[j]


def projector2(sign) -> BlockWeight:
    """Return pi+ or pi-.  Accepts '+'/'-' or +1/-1."""
    if sign in ("+", +1):
        return PI_PLUS
    if sign in ("-", -1):
        return PI_MINUS
    raise LatticeError(f"sign must be '+' or '-', got {sign!r}")


def kron(a: BlockWeight, b: BlockWeight) -> BlockWeight:
    """Kronecker product of two blocks (exact, quarter-integer result)."""
    q = np.kron(a.quarters, b.quarters)
    if np.any(q % 4):
        raise LatticeError("kron product is not quarter-integer valued")
    return BlockWeight(q // 4)


def block_label(block: BlockWeight) -> str:
    """Spell a block as one of P0|P1|P2|P3|-P3|pi+|pi- (export payloads)."""
    for name, ref in BLOCK_LABELS.items():
        if block == ref:
            return name
    raise LatticeError("block is not one of the named projector weights")


# ============================================================
# Supergraph and physical adjacency
# ============================================================

@dataclass
class SuperAdjacency:
    """Macronode-level adjacency with matrix-valued weights.

    ``blocks`` maps canonical pairs (i, j) with i < j to the BlockWeight of
    that superedge; block(j, i) is the transpose.  Diagonal blocks are
    always absent (no self-loops).  Add blocks with `set_block`, which
    keeps the degree count current.
    """

    n_macro: int
    block_side: int
    blocks: dict = field(default_factory=dict)
    _degrees: np.ndarray | None = field(default=None, init=False, repr=False,
                                        compare=False)

    def set_block(self, i: int, j: int, w: BlockWeight):
        if i == j:
            raise LatticeError("self-loop blocks are not allowed")
        if w.side != self.block_side:
            raise LatticeError("block side mismatch")
        if i > j:
            i, j, w = j, i, w.transpose()
        self.blocks[(i, j)] = w
        self._degrees = None

    def block(self, i, j):
        """BlockWeight between macronodes i and j, or None."""
        if i < j:
            return self.blocks.get((i, j))
        w = self.blocks.get((j, i))
        return w.transpose() if w is not None else None

    def degrees(self) -> np.ndarray:
        """Incident-block count of every macronode, from one pass over blocks."""
        if self._degrees is None:
            ends = np.fromiter((v for pair in self.blocks for v in pair),
                               dtype=np.int64, count=2 * len(self.blocks))
            self._degrees = np.bincount(ends, minlength=self.n_macro)
        return self._degrees

    def degree(self, i: int) -> int:
        return int(self.degrees()[i])

    @property
    def n_superedges(self) -> int:
        return len(self.blocks)

    @property
    def n_physical(self) -> int:
        return self.n_macro * self.block_side


@dataclass(eq=False)
class PhysAdjacency:
    """Physical-node adjacency: one CSR matrix of int64 quarters (entry/4).

    ``csr`` is canonical (sorted indices, no duplicates, no explicit
    zeros), so ``nnz`` counts the nonzero entries and two adjacencies are
    equal iff their matrices are.  Any square integer matrix, dense or
    sparse, is accepted and converted.
    """

    csr: sp.csr_matrix

    def __post_init__(self):
        q = self.csr
        if not sp.issparse(q):
            q = np.asarray(q, dtype=np.int64)
            if q.ndim != 2:
                raise LatticeError("adjacency must be square")
        q = sp.csr_matrix(q, dtype=np.int64)
        if q.shape[0] != q.shape[1]:
            raise LatticeError("adjacency must be square")
        if not (q.has_canonical_format and q.data.all()):
            q = q.copy()
            q.sum_duplicates()
            q.eliminate_zeros()
        self.csr = q

    @property
    def quarters(self) -> np.ndarray:
        """Dense int64 copy of ``csr``, built on each access (small sizes)."""
        return self.csr.toarray()

    @property
    def n(self) -> int:
        return self.csr.shape[0]

    def dense(self) -> np.ndarray:
        """Float adjacency (exact: quarter-integers are binary fractions)."""
        return self.csr.toarray() / 4

    def weight(self, i, j) -> Fraction:
        return Fraction(int(self.csr[i, j]), 4)

    @property
    def nnz(self) -> int:
        return self.csr.nnz

    def is_symmetric(self) -> bool:
        return (self.csr != self.csr.T).nnz == 0

    def __eq__(self, other) -> bool:
        return (isinstance(other, PhysAdjacency)
                and self.csr.shape == other.csr.shape
                and (self.csr != other.csr).nnz == 0)


def _check_even_size(name, value, minimum):
    if not isinstance(value, (int, np.integer)):
        raise LatticeError(f"{name} must be an integer, got {value!r}")
    if value % 2 or value < minimum:
        raise LatticeError(f"{name} must be even and >= {minimum}, got {value}")


def torus_block_diagonals(M: int):
    """The seven nonzero 4x4-block skew-diagonals of the M-lattice.

    Returns [(d, label_index, sign), ...] with d the block skew-diagonal
    index (0 .. 2*M**2-2).  Derived from the run lengths u = M-1 and
    v = M**2-2*M-3 of the block-Hankel shorthand; the single negated P3
    diagonal is the twist that makes the later 2x2 regrouping consistent.
    """
    _check_even_size("M", M, 4)
    N = M * M
    return [
        (M - 1, 1, +1),
        (N - M - 3, 0, +1),
        (N - 3, 3, +1),
        (N - 1, 2, +1),
        (N + M - 1, 1, +1),
        (2 * N - M - 3, 0, +1),
        (2 * N - 3, 3, -1),
    ]


def build_torus_supergraph(M: int) -> SuperAdjacency:
    """Toroidal lattice supergraph on M**2 macronodes, 4x4 block weights.

    Parameters
    ----------
    M : even int >= 4
        Lattice period; the supergraph has N = M**2 macronodes.

    Returns
    -------
    SuperAdjacency
        Block-Hankel at macronode granularity: block(i, j) depends only on
        i + j and is nonzero on exactly seven skew-diagonals.  Every
        macronode ends up with exactly four incident blocks, one per
        projector label, which is what makes the expanded adjacency
        orthogonal.
    """
    _check_even_size("M", M, 4)
    N = M * M
    S = SuperAdjacency(n_macro=N, block_side=4)
    for d, lab, sg in torus_block_diagonals(M):
        block = PI4[lab] if sg > 0 else -PI4[lab]
        for i in range(max(0, d - N + 1), (d + 1) // 2):     # i < j = d - i
            S.set_block(i, d - i, block)
    return S


def build_ring_supergraph(n_macro: int) -> SuperAdjacency:
    """Ring supergraph with 2x2 weights alternating pi+ / pi- around the cycle.

    n_macro must be even and >= 4: an odd ring cannot alternate the two
    orthogonal pi blocks, and n_macro = 2 would double the single edge.
    Expanding gives the 2*n_macro-node crown graph.
    """
    _check_even_size("n_macro", n_macro, 4)
    S = SuperAdjacency(n_macro=n_macro, block_side=2)
    for k in range(n_macro):
        S.set_block(k, (k + 1) % n_macro, PI_PLUS if k % 2 == 0 else PI_MINUS)
    return S


def expand(S: SuperAdjacency) -> PhysAdjacency:
    """Expand a supergraph to its physical-node adjacency.

    Physical node index = macronode * block_side + layer; the entry between
    (i, layer a) and (j, layer b) is block(i, j)[a, b].  The CSR matrix is
    converted from block-sparse-row storage of the blocks; no dense matrix
    is built.
    """
    s = S.block_side
    n = S.n_physical
    pairs = np.array(list(S.blocks), dtype=np.int64).reshape(-1, 2)
    W = np.array([w.quarters for w in S.blocks.values()],
                 dtype=np.int64).reshape(-1, s, s)
    # block (i, j) and its mirror (j, i) = block.T, ordered by block row
    # then block column as block-sparse-row storage needs
    brow = np.concatenate([pairs[:, 0], pairs[:, 1]])
    bcol = np.concatenate([pairs[:, 1], pairs[:, 0]])
    order = np.lexsort((bcol, brow))
    data = W[order % len(W)]
    mirror = order >= len(W)
    data[mirror] = data[mirror].transpose(0, 2, 1)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(brow, minlength=S.n_macro))])
    bsr = sp.bsr_matrix((data, bcol[order], indptr), shape=(n, n))
    return PhysAdjacency(bsr.tocsr())


# ============================================================
# Exact validation
# ============================================================

@dataclass
class OrthogonalityReport:
    is_orthogonal: bool
    worst_deviation: Fraction
    witness_pair: tuple | None
    has_self_loops: bool


def check_orthogonal(A: PhysAdjacency) -> OrthogonalityReport:
    """Exact check of A @ A == identity.

    The square is the sparse integer product of the quarter numerators, so
    the verdict carries zero floating point tolerance.  When the check
    fails, ``witness_pair`` is the first (row-major) entry of A @ A that
    differs from the identity and ``worst_deviation`` the largest absolute
    deviation, in exact fractions.
    """
    if not A.is_symmetric():
        raise LatticeError("adjacency must be symmetric")
    Q = A.csr
    # A @ A in sixteenths, minus the identity (16 sixteenths)
    D = Q @ Q - sp.identity(A.n, dtype=np.int64, format="csr") * 16
    D.sum_duplicates()
    D.eliminate_zeros()
    loops = bool(Q.diagonal().any())
    if not D.nnz:
        return OrthogonalityReport(True, Fraction(0), None, loops)
    j = int(np.flatnonzero(np.diff(D.indptr))[0])
    k = int(D.indices[D.indptr[j]])
    worst = Fraction(int(np.abs(D.data).max()), 16)
    return OrthogonalityReport(False, worst, (j, k), loops)


def two_path_weight(A: PhysAdjacency, j: int, k: int) -> Fraction:
    """Exact summed weight of all two-step paths from node j to node k."""
    n = A.n
    if not (0 <= j < n and 0 <= k < n):
        raise LatticeError(f"node index out of range: ({j}, {k}) for n={n}")
    return Fraction(int((A.csr[j] @ A.csr[:, k]).sum()), 16)


@dataclass
class Bicoloring:
    """Two-coloring of the physical nodes; every edge joins distinct colors."""

    colors: np.ndarray

    @property
    def n(self) -> int:
        return len(self.colors)

    def nodes_of_color(self, c: int) -> np.ndarray:
        return np.flatnonzero(self.colors == c)


def _coo_of(Q: sp.csr_matrix):
    """Row, column and value arrays of a canonical CSR matrix, row-major."""
    rows = np.repeat(np.arange(Q.shape[0], dtype=Q.indices.dtype), np.diff(Q.indptr))
    return rows, Q.indices, Q.data


def bicoloring(A: PhysAdjacency) -> Bicoloring:
    """Two-color the support graph by BFS; NonBipartiteError on odd cycles.

    Deterministic: node v gets the parity of its BFS depth from the
    lowest-index node of its component, so color 0 always contains node 0
    of its component.  One search from a root joined to each of those
    nodes finds every depth.  Every edge is then checked; the witness is
    the first same-color edge in row-major order, which lies on an odd
    cycle (its two BFS paths meet above it).
    """
    if not A.is_symmetric():
        raise LatticeError("adjacency must be symmetric")
    n = A.n
    rows, cols, _ = _coo_of(A.csr)
    _, component = connected_components(A.csr, directed=False)
    _, starts = np.unique(component, return_index=True)
    rooted = sp.coo_matrix((np.ones(rows.size + starts.size),
                            (np.concatenate([rows, np.full(starts.size, n)]),
                             np.concatenate([cols, starts]))), shape=(n + 1, n + 1))
    depth = dijkstra(rooted, directed=False, indices=n, unweighted=True)[:n]
    colors = ((depth.astype(np.int64) + 1) % 2).astype(np.int8)
    clash = np.flatnonzero(colors[rows] == colors[cols])
    if clash.size:
        u, v = int(rows[clash[0]]), int(cols[clash[0]])
        raise NonBipartiteError(
            f"support graph has an odd cycle through edge ({u}, {v})",
            odd_cycle_witness=(u, v))
    return Bicoloring(colors)


# ============================================================
# Renumbering to 2x2 block-Hankel form
# ============================================================

@dataclass
class RenumberResult:
    """Outcome of the 2x2 block-Hankel renumbering.

    ``permutation`` maps new physical index -> old physical index, i.e.
    renumbered[a, b] = A[permutation[a], permutation[b]].  ``shorthand``
    is the 2x2 block shorthand of ``renumbered``.
    """

    permutation: np.ndarray
    renumbered: PhysAdjacency
    shorthand: HankelShorthand

    def restore(self) -> PhysAdjacency:
        return PhysAdjacency(_permuted(self.renumbered.csr,
                                       np.argsort(self.permutation)))


def _permuted(Q: sp.csr_matrix, perm: np.ndarray) -> sp.csr_matrix:
    """B with B[a, b] = Q[perm[a], perm[b]], for a permutation perm."""
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(perm.size)
    B = Q[perm]                            # rows gathered
    B.indices = inverse.astype(B.indices.dtype)[B.indices]    # columns relabelled
    B.has_sorted_indices = False
    B.sort_indices()
    return B


def renumber_permutation(M: int) -> np.ndarray:
    """Index map turning the expanded M-lattice into 2x2 block-Hankel form.

    Each 4x4 projector block factors as a Kronecker product of two pi
    blocks.  Grouping the physical index (macronode m, first factor x,
    second factor z) as  new = 2*(m + M**2 * x) + z  keeps the second
    factor as the inner 2x2 block index and makes every surviving 2x2
    skew-diagonal constant; the negated P3 diagonal of the construction is
    exactly what makes the two wrapped skew-diagonals consistent.
    """
    _check_even_size("M", M, 6)
    m = np.arange(M * M, dtype=np.int64)
    # new = 2*(m + M**2 * x) + z is the row-major position of (x, m, z)
    return (4 * m[None, :, None] + 2 * np.arange(2)[:, None, None]
            + np.arange(2)).ravel()


def renumber_to_block_hankel(A: PhysAdjacency, M: int) -> RenumberResult:
    """Renumber the expanded M-lattice so it is 2x2 block-Hankel.

    Requires even M >= 6 and A = expand(build_torus_supergraph(M)).
    The result is validated: the permutation is a bijection onto
    range(A.n), so ``restore()`` gives back A exactly, and the renumbered
    matrix has constant 2x2 block skew-diagonals with exactly 15 nonzero
    blocks.
    """
    _check_even_size("M", M, 6)
    if A.n != 4 * M * M:
        raise LatticeError(
            f"adjacency size {A.n} does not match an M={M} lattice "
            f"(expected {4 * M * M})")
    perm = renumber_permutation(M)
    # Internal invariants; failure here is a construction bug, not bad input.
    if not np.array_equal(np.sort(perm), np.arange(A.n)):
        raise RuntimeError("renumbering round trip failed")
    B = PhysAdjacency(_permuted(A.csr, perm))
    from .hankel import shorthand_of  # local import to avoid a module cycle
    short = shorthand_of(B, block_side=2)
    if len(short.nonzero_indices()) != 15:
        raise RuntimeError("renumbering lost the 15-diagonal structure")
    return RenumberResult(permutation=perm, renumbered=B, shorthand=short)


# ============================================================
# Torus geometry
# ============================================================

AXIS_LABELS = {"x": ("P2", "P3"), "y": ("P1", "P0")}


@dataclass
class MacronodeCoords:
    """Chart macronode -> (x, y) on the twisted M x M torus.

    The x axis follows the P2/P3 label pair: alternating those two labels
    from macronode 0 traverses a single cycle through all M**2 macronodes,
    laid out row-major in the chart.  The P1/P0 pair forms the second
    direction; in this chart its steps are the (1, 1) diagonal, with the
    one-unit twist showing up as shifted steps at the wrap rows.  Both
    label-pair subgraphs are single cycles covering every macronode.
    """

    M: int
    to_xy: dict
    to_index: dict
    axis_cycles: dict

    def column(self, x0: int):
        return sorted(m for m, (x, _) in self.to_xy.items() if x == x0)

    def row(self, y0: int):
        return sorted(m for m, (_, y) in self.to_xy.items() if y == y0)


def coordinates(M: int) -> MacronodeCoords:
    """Recover torus coordinates from the label structure of the supergraph.

    The chart is fixed by walking the P2/P3 cycle from macronode 0 and
    laying the visited nodes out row-major: step k lands on
    (x, y) = (k mod M, k div M).
    """
    _check_even_size("M", M, 4)
    N = M * M
    # Every block of a label has i + j = d (mod N), so the macronode the
    # label pairs with m is the reflection (d - m) mod N.
    diagonal = {f"P{lab}": d % N for d, lab, _ in torus_block_diagonals(M)}

    def walk(first, second):
        order = [0]
        cur, use_first = 0, True
        for _ in range(N - 1):
            cur = (diagonal[first if use_first else second] - cur) % N
            use_first = not use_first
            order.append(cur)
        return order

    x_cycle = walk(*AXIS_LABELS["x"])
    y_cycle = walk(*AXIS_LABELS["y"])
    if len(set(x_cycle)) != N or len(set(y_cycle)) != N:
        raise RuntimeError("axis label pairs do not cover all macronodes")
    to_xy = {m: (k % M, k // M) for k, m in enumerate(x_cycle)}
    to_index = {xy: m for m, xy in to_xy.items()}
    return MacronodeCoords(M=M, to_xy=to_xy, to_index=to_index,
                           axis_cycles={"x": x_cycle, "y": y_cycle})


def label_census(S: SuperAdjacency):
    """Map macronode -> {label: count} over its incident blocks."""
    census = {i: {} for i in range(S.n_macro)}
    for (i, j), w in S.blocks.items():
        name = block_label(w).lstrip("-")
        census[i][name] = census[i].get(name, 0) + 1
        census[j][name] = census[j].get(name, 0) + 1
    return census


# ============================================================
# Text export formats
# ============================================================

def _upper_edges(A: PhysAdjacency):
    """(i, j, quarters) of every entry with i < j, in row-major order."""
    U = sp.triu(A.csr, k=1, format="csr")
    rows, cols, vals = _coo_of(U)
    return zip(rows.tolist(), cols.tolist(), vals.tolist())


def export_triplets(A: PhysAdjacency) -> str:
    """Sparse triplet text: header 'n=<count> denom=4', lines 'i j num/4'."""
    lines = [f"n={A.n} denom=4"]
    lines += [f"{i} {j} {w}/4" for i, j, w in _upper_edges(A)]
    return "\n".join(lines) + "\n"


def export_dot(A: PhysAdjacency) -> str:
    """GraphViz DOT rendering with weights as edge labels."""
    lines = ["graph adjacency {"]
    lines += [f'  {i} -- {j} [label="{w}/4"];' for i, j, w in _upper_edges(A)]
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_super_triplets(S: SuperAdjacency) -> str:
    """Triplets at block granularity with named block payloads."""
    lines = [f"n={S.n_macro} block_side={S.block_side}"]
    for (i, j) in sorted(S.blocks):
        lines.append(f"{i} {j} {block_label(S.blocks[(i, j)])}")
    return "\n".join(lines) + "\n"
