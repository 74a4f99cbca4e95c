"""
Matrix-weighted graph construction for frequency-comb cluster states.

All edge weights in this module are quarter-integers.  A weight w is stored
as the integer numerator of w = numerator/4 ("quarters"), so every matrix
here holds int64 and all structural checks (symmetry, row norms,
orthogonality A @ A = 1) are exact integer arithmetic, never floating point.
The physical adjacency is one canonical scipy.sparse CSR array
(`canonical_csr`), the type every sparse matrix of the package has, so ``*``
is element-wise and ``@`` the product throughout: the torus has 32 M**2
edges over 4 M**2 modes, and every exact check costs O(edges).

Two graph levels appear throughout:

* the *supergraph* of macronodes, whose edges carry small matrix weights
  (the rank-one projector blocks ``PI4`` at 4x4 granularity, or the 2x2
  blocks ``pi+`` / ``pi-``), held as one array of superedges with one
  block label (a `BLOCK_LABELS` key) per superedge, and
* the expanded *physical* graph, one node per tensor slot of each
  macronode, with plain quarter-integer weights.

The toroidal lattice supergraph is built directly from its skew-diagonal
(Hankel) description: seven nonzero block skew-diagonals whose positions
are fixed by the lattice size M, each one range of superedges with one
label.  Geometry (torus coordinates, the one-unit twist) is recovered
afterwards by `coordinates`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

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

# The named blocks, all symmetric; supergraphs label their superedges with
# these keys and the text export formats spell blocks with them.
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

@dataclass(frozen=True, eq=False)
class SuperAdjacency:
    """Macronode-level adjacency: one labelled edge list, read only.

    ``pairs`` is a sorted (E, 2) int64 array of superedges (i, j) with
    i < j, and ``labels[e]`` names the block weight of superedge e, a key of
    `BLOCK_LABELS`.  Every named block is symmetric, so block(j, i) is
    block(i, j) and one label serves both directions.  The constructor
    accepts pairs in any order and orientation and rejects self-loops,
    out-of-range or repeated pairs, and labels that are unknown or whose
    block side is not ``block_side``.
    """

    n_macro: int
    block_side: int
    pairs: np.ndarray = ()
    labels: np.ndarray = ()

    def __post_init__(self):
        pairs = np.sort(np.asarray(self.pairs, dtype=np.int64).reshape(-1, 2),
                        axis=1)
        labels = np.asarray(self.labels, dtype=str).reshape(-1)
        if len(labels) != len(pairs):
            raise LatticeError(f"{len(pairs)} pairs but {len(labels)} labels")
        if (pairs[:, 0] == pairs[:, 1]).any():
            raise LatticeError("self-loop blocks are not allowed")
        if not np.all((pairs >= 0) & (pairs < self.n_macro)):
            raise LatticeError(f"superedge out of range for n_macro={self.n_macro}")
        for name in np.unique(labels).tolist():
            block = BLOCK_LABELS.get(name)
            if block is None or block.side != self.block_side:
                raise LatticeError(f"no block {name!r} of side {self.block_side}")
        order = np.lexsort((pairs[:, 1], pairs[:, 0]))
        pairs, labels = pairs[order], labels[order]
        if (np.diff(pairs, axis=0) == 0).all(axis=1).any():
            raise LatticeError("repeated superedge")
        for name, value in (("pairs", pairs), ("labels", labels)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def degrees(self) -> np.ndarray:
        """Incident-block count of every macronode."""
        return np.bincount(self.pairs.ravel(), minlength=self.n_macro)

    @property
    def n_superedges(self) -> int:
        return len(self.pairs)


_INT32_MAX = np.iinfo(np.int32).max


def canonical_csr(X, dtype=float) -> sp.csr_array:
    """``sp.csr_array(X, dtype=dtype)`` with sorted indices, no duplicates,
    no stored zeros, and int32 index arrays wherever they fit; copied only
    when the conversion is not so already.

    scipy's sparse arrays keep the int64 index arrays a conversion gives
    them (`expand`'s block storage, coordinate input); with those,
    `pump --M 200` peaked at ~180 MB instead of ~145 MB.
    """
    X = sp.csr_array(X, dtype=dtype)
    if not (X.has_canonical_format and X.data.all()):
        X = X.copy()
        X.sum_duplicates()
        X.eliminate_zeros()
    if X.indptr.dtype != np.int32 and max(*X.shape, X.nnz) <= _INT32_MAX:
        X.indices = X.indices.astype(np.int32)
        X.indptr = X.indptr.astype(np.int32)
    return X


def is_symmetric(X) -> bool:
    """X == X.T entry for entry, for a square sparse array X."""
    return (X != X.T).nnz == 0


@dataclass(eq=False)
class PhysAdjacency:
    """Physical-node adjacency: one CSR array of int64 quarters (entry/4).

    ``csr`` is canonical (`canonical_csr`), so ``nnz`` counts the nonzero
    entries and two adjacencies are equal iff their arrays are.  Any square
    matrix of integer quarters, dense or sparse, is accepted and converted;
    an entry that is not an integer (2.9, 0.5, nan) raises LatticeError
    naming its position, while integral floats such as 4.0 are exact.
    """

    csr: sp.csr_array

    def __post_init__(self):
        q = self.csr if sp.issparse(self.csr) else np.asarray(self.csr)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise LatticeError(f"adjacency must be square, got {q.shape}")
        q = canonical_csr(q, q.dtype)
        if q.dtype != np.int64:
            with np.errstate(invalid="ignore"):
                bad = np.flatnonzero(q.data.real.astype(np.int64) != q.data)
            if bad.size:
                e = int(bad[0])
                row = int(np.searchsorted(q.indptr, e, side="right")) - 1
                raise LatticeError(
                    f"adjacency entry ({row}, {q.indices[e]}) is {q.data[e]}, "
                    "not an integer number of quarters")
            q = q.astype(np.int64)
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

    @property
    def nnz(self) -> int:
        return self.csr.nnz

    def is_symmetric(self) -> bool:
        return is_symmetric(self.csr)

    def __eq__(self, other) -> bool:
        return (isinstance(other, PhysAdjacency)
                and self.csr.shape == other.csr.shape
                and (self.csr != other.csr).nnz == 0)


def _check_even_size(name, value, minimum):
    if not isinstance(value, (int, np.integer)):
        raise LatticeError(f"{name} must be an integer, got {value!r}")
    if value % 2 or value < minimum:
        raise LatticeError(f"{name} must be even and >= {minimum}, got {value}")


def constructed_run_lengths(M: int):
    """Run lengths (s, t) of the M-lattice's skeleton."""
    return M - 1, M * M - 2 * M - 3


def positions_from_run_lengths(M: int, s: int, t: int):
    """The 15 nonzero skew-diagonal positions of the 2x2 skeleton.

    Skeleton per half: 0^s B 0^t B 0^s B 0 B 0^s B 0^t B 0^s B 0, corner
    block, then the same half again; valid whenever s, t >= 0 and
    4s + 2t = 2M**2 - 10.  LatticeError otherwise.
    """
    if s < 0 or t < 0:
        raise LatticeError(f"run lengths ({s}, {t}) must not be negative")
    # each block follows its run of zeros: the k-th sits at run sum + k
    first = (np.cumsum([s, t, s, 1, s, t, s]) + np.arange(7)).tolist()
    if first[-1] + 2 != 2 * M * M - 1:
        raise LatticeError(f"run lengths ({s}, {t}) do not fit M={M}")
    return first + [2 * M * M - 1] + [2 * M * M + p for p in first]


def torus_block_diagonals(M: int):
    """The seven nonzero 4x4-block skew-diagonals of the M-lattice.

    Returns [(d, label), ...] with d the block skew-diagonal index
    (0 .. 2*M**2-2) and label the `BLOCK_LABELS` key of its block.  The
    positions are the first half of the skeleton: the renumbering keeps
    4x4 block (m, m') within 2x2 blocks (m + M**2 x, m' + M**2 x'), so the
    x = x' = 0 blocks lie on the same diagonals.  The single negated P3
    diagonal is the twist that makes the 2x2 regrouping consistent.
    """
    _check_even_size("M", M, 4)
    first = positions_from_run_lengths(M, *constructed_run_lengths(M))[:7]
    return list(zip(first, ("P1", "P0", "P3", "P2", "P1", "P0", "-P3")))


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
        i + j and is nonzero on exactly seven skew-diagonals, each one
        range of pairs (i, d - i).  Every macronode ends up with exactly
        four incident blocks, one per projector label, which is what makes
        the expanded adjacency orthogonal.
    """
    _check_even_size("M", M, 4)
    N = M * M
    pairs, labels = [], []
    for d, label in torus_block_diagonals(M):
        i = np.arange(max(0, d - N + 1), (d + 1) // 2)     # i < j = d - i
        pairs.append(np.column_stack([i, d - i]))
        labels.append(np.full(i.size, label))
    return SuperAdjacency(N, 4, np.concatenate(pairs), np.concatenate(labels))


def build_ring_supergraph(n_macro: int) -> SuperAdjacency:
    """Ring supergraph with 2x2 weights alternating pi+ / pi- around the cycle.

    n_macro must be even and >= 4: an odd ring cannot alternate the two
    orthogonal pi blocks, and n_macro = 2 would double the single edge.
    Expanding gives the 2*n_macro-node crown graph.
    """
    _check_even_size("n_macro", n_macro, 4)
    k = np.arange(n_macro)
    return SuperAdjacency(n_macro, 2, np.column_stack([k, (k + 1) % n_macro]),
                          np.where(k % 2 == 0, "pi+", "pi-"))


def expand(S: SuperAdjacency) -> PhysAdjacency:
    """Expand a supergraph to its physical-node adjacency.

    Physical node index = macronode * block_side + layer; the entry between
    (i, layer a) and (j, layer b) is block(i, j)[a, b].  The CSR array is
    converted from block-sparse-row storage of the blocks, looked up by
    label; no dense matrix is built.
    """
    s = S.block_side
    n = S.n_macro * s
    names, codes = np.unique(S.labels, return_inverse=True)
    table = np.array([BLOCK_LABELS[name].quarters for name in names.tolist()],
                     dtype=np.int64).reshape(-1, s, s)
    # every superedge (i, j) and its mirror (j, i), ordered by block row
    # then block column as block-sparse-row storage needs; the blocks are
    # symmetric, so the mirror carries the same block
    brow = np.concatenate([S.pairs[:, 0], S.pairs[:, 1]])
    bcol = np.concatenate([S.pairs[:, 1], S.pairs[:, 0]])
    order = np.lexsort((bcol, brow))
    data = table[codes[order % S.n_superedges]]
    indptr = np.concatenate([[0], np.cumsum(S.degrees())])
    return PhysAdjacency(sp.bsr_array((data, bcol[order], indptr), shape=(n, n)))


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
    D = canonical_csr(Q @ Q - 16 * sp.eye_array(A.n, dtype=np.int64,
                                                format="csr"), np.int64)
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
    # 2-D slices: scipy 1.17's dot of a 1-D int64 row and column reads
    # uninitialised memory (2**28 or 2**36 for a zero weight)
    return Fraction(int((A.csr[[j]] @ A.csr[:, [k]]).sum()), 16)


@dataclass
class Bicoloring:
    """Two-coloring of the physical nodes; every edge joins distinct colors."""

    colors: np.ndarray

    @property
    def n(self) -> int:
        return len(self.colors)

    def nodes_of_color(self, c: int) -> np.ndarray:
        return np.flatnonzero(self.colors == c)


def _coo_of(Q: sp.csr_array):
    """Row, column and value arrays of a canonical CSR array, row-major."""
    rows = np.repeat(np.arange(Q.shape[0], dtype=Q.indices.dtype), np.diff(Q.indptr))
    return rows, Q.indices, Q.data


def bfs_depths(csr) -> tuple[np.ndarray, np.ndarray, int]:
    """Breadth-first depth of each node from the lowest-index node of its
    component, each node's component label, and the number of components,
    of a symmetric CSR graph.

    Every stored entry is an edge (a self-loop joins nothing new).  Nodes
    without entries are components of depth 0, set in one step; the other
    components are searched one after another, each from its lowest
    unvisited node, and each level expands the whole frontier at once by
    gathering its rows of ``indices`` through ``indptr``.  Components are
    labelled 0, 1, ... in the order of their lowest node.
    """
    n = csr.shape[0]
    indptr, indices = csr.indptr, csr.indices
    degree = np.diff(indptr)
    isolated = degree == 0
    depth = np.where(isolated, 0, -1)
    root = np.arange(n)           # lowest node of each node's component
    unseen = ~isolated
    start = 0
    while start < n:
        # argmax stops at the first True, so finding every root costs O(n)
        start += int(np.argmax(unseen[start:]))
        if not unseen[start]:
            break
        unseen[start], depth[start] = False, 0
        frontier, level = np.array([start]), 0
        while frontier.size:
            level += 1
            starts, counts = indptr[frontier], degree[frontier]
            ends = np.cumsum(counts)
            slots = np.arange(ends[-1]) + np.repeat(starts - ends + counts,
                                                    counts)
            reached = indices[slots]
            frontier = np.unique(reached[unseen[reached]])
            unseen[frontier], depth[frontier] = False, level
            root[frontier] = start
    first = np.cumsum(root == np.arange(n))
    return depth, first[root] - 1, int(first[-1]) if n else 0


def bicoloring(A: PhysAdjacency) -> Bicoloring:
    """Two-color the support graph by BFS; NonBipartiteError on odd cycles.

    Deterministic: node v gets the parity of its `bfs_depths` depth, the
    breadth-first distance from the lowest-index node of its component,
    so color 0 always contains node 0 of its component.  Every edge is
    then checked; the witness is the first same-color edge in row-major
    order, which lies on an odd cycle (its two BFS paths meet above it).
    """
    if not A.is_symmetric():
        raise LatticeError("adjacency must be symmetric")
    depth, _, _ = bfs_depths(A.csr)
    colors = (depth % 2).astype(np.int8)
    rows, cols, _ = _coo_of(A.csr)
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


def _permuted(Q: sp.csr_array, perm: np.ndarray) -> sp.csr_array:
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
    _check_even_size("M", M, 4)
    m = np.arange(M * M, dtype=np.int64)
    # new = 2*(m + M**2 * x) + z is the row-major position of (x, m, z)
    return (4 * m[None, :, None] + 2 * np.arange(2)[:, None, None]
            + np.arange(2)).ravel()


def renumber_to_block_hankel(A: PhysAdjacency, M: int) -> RenumberResult:
    """Renumber the expanded M-lattice so it is 2x2 block-Hankel.

    Requires even M >= 4 and A = expand(build_torus_supergraph(M)).
    The result is validated: the permutation is a bijection onto
    range(A.n), so ``restore()`` gives back A exactly, and the renumbered
    matrix has constant 2x2 block skew-diagonals, nonzero exactly at the 15
    positions of the skeleton with `constructed_run_lengths`.
    """
    _check_even_size("M", M, 4)
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
    if short.nonzero_indices() != positions_from_run_lengths(
            M, *constructed_run_lengths(M)):
        raise RuntimeError("renumbered layout is not the lattice's skeleton")
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
    ``x`` and ``y`` hold each macronode's chart coordinates and
    ``axis_cycles`` each axis's walk, all as int arrays; ``column`` and
    ``row`` return the sorted macronodes on one chart line.
    """

    M: int
    x: np.ndarray
    y: np.ndarray
    axis_cycles: dict

    def column(self, x0: int) -> np.ndarray:
        return np.flatnonzero(self.x == x0)

    def row(self, y0: int) -> np.ndarray:
        return np.flatnonzero(self.y == y0)


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
    diagonal = {label.lstrip("-"): d % N for d, label in torus_block_diagonals(M)}

    def walk(first, second):
        # from 0, reflect by first, then second, ...: two steps add
        # diagonal[second] - diagonal[first]
        k = np.arange(N)
        shift = k // 2 * (diagonal[second] - diagonal[first])
        return np.where(k % 2, diagonal[first] - shift, shift) % N

    x_cycle = walk(*AXIS_LABELS["x"])
    y_cycle = walk(*AXIS_LABELS["y"])
    if np.unique(x_cycle).size != N or np.unique(y_cycle).size != N:
        raise RuntimeError("axis label pairs do not cover all macronodes")
    step = np.empty(N, dtype=np.int64)
    step[x_cycle] = np.arange(N)
    return MacronodeCoords(M=M, x=step % M, y=step // M,
                           axis_cycles={"x": x_cycle, "y": y_cycle})


def label_census(S: SuperAdjacency):
    """Map macronode -> {label: count} over its incident blocks, sign dropped."""
    names, codes = np.unique(np.char.lstrip(S.labels, "-"), return_inverse=True)
    counts = np.bincount((S.pairs * names.size + codes[:, None]).ravel(),
                         minlength=S.n_macro * names.size).reshape(S.n_macro, -1)
    names = names.tolist()
    return {i: {name: c for name, c in zip(names, row) if c}
            for i, row in enumerate(counts.tolist())}


# ============================================================
# Text export formats
# ============================================================

_RENDER_CHUNK = 1 << 14


def _render_rows(fh, row_format: str, *columns) -> None:
    """Write ``row_format % row`` for every row of the equal-length columns
    to the text stream ``fh``: the bytes of one %-format per row.

    Each chunk of rows is one %-format: the row format repeated once per
    row, applied to the chunk's values interleaved row by row as Python
    scalars.  Chunking bounds the temporaries to a few MB at any size.
    """
    n = len(columns[0])
    width = len(columns)
    for start in range(0, n, _RENDER_CHUNK):
        stop = min(start + _RENDER_CHUNK, n)
        values = [None] * ((stop - start) * width)
        for c, column in enumerate(columns):
            values[c::width] = column[start:stop].tolist()
        fh.write(row_format * (stop - start) % tuple(values))


def _upper_edges(A: PhysAdjacency):
    """Row, column and quarters arrays of the entries with i < j, row-major."""
    rows, cols, vals = _coo_of(A.csr)
    upper = cols > rows
    return rows[upper], cols[upper], vals[upper]


def export_triplets(A: PhysAdjacency, fh) -> None:
    """Sparse triplet text: header 'n=<count> denom=4', lines 'i j num/4'."""
    fh.write(f"n={A.n} denom=4\n")
    _render_rows(fh, "%d %d %d/4\n", *_upper_edges(A))


def export_dot(A: PhysAdjacency, fh) -> None:
    """GraphViz DOT rendering with weights as edge labels."""
    fh.write("graph adjacency {\n")
    _render_rows(fh, '  %d -- %d [label="%d/4"];\n', *_upper_edges(A))
    fh.write("}\n")


def export_super_triplets(S: SuperAdjacency, fh) -> None:
    """Triplets at block granularity with named block payloads."""
    fh.write(f"n={S.n_macro} block_side={S.block_side}\n")
    _render_rows(fh, "%d %d %s\n", *S.pairs.T, S.labels)
