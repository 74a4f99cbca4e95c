"""
Gaussian-state engine for cluster-state verification.

Conventions (fixed once, used everywhere): hbar = 1, [q, p] = i, vacuum
covariance = identity/2, quadrature ordering (q_1..q_n, p_1..p_n).  Under
the coupling Hamiltonian with symmetric adjacency A and overall squeezing
parameter r, the Heisenberg equations give q(t) = exp(2 r A) q(0) and
p(t) = exp(-2 r A) p(0); for orthogonal A the exponential collapses to
cosh(2r) 1 + sinh(2r) A.

A state is its mean and a factor L with cov = L @ L.T / 2 (vacuum L = 1,
evolved state L = S).  L is one canonical scipy.sparse CSR array: the
evolved factor has the sparsity of A, a quarter turn permutes and signs its
rows, and nullifier variances (row norms of L_p - T L_q, T a canonical
float CSR target) are sparse products.  Dense copies are taken only for QR
(q measurements, one QR of the measured and kept rows of L), SVD (purity
checks, svd of L.T @ Omega @ L) and solve (the effective graph, compared
with a dense copy of its small kept target), and for the covariance,
derived on access.  Reading the factor keeps these accurate where the
covariance is stiff with e^{+-4r} eigenvalue pairs.

The cluster-state path (evolve, convention, nullifiers, measurement,
effective graph) calls numpy.linalg and scipy.sparse only.  scipy.linalg
links a second OpenBLAS with its own thread pool, whose threads keep
spinning after each call and take the cores from numpy's: on a 2-core host,
one scipy.linalg.solve_triangular before each `simulate --M 10` made it
~1.8x slower (0.06 s to 0.11 s).  scipy's expm serves only non-orthogonal
adjacencies.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.csgraph import connected_components

from . import lattice
from .lattice import Bicoloring, PhysAdjacency


class GaussianError(ValueError):
    """Invalid state, parameters, or mode selection."""


class PrecisionLossError(RuntimeError):
    """A nullifier variance or an effective-graph error float64 cannot
    resolve to _PRECISION_TOL: its rounding bound is too large (e^{+-2r}
    rows cancel at large r) or it is not finite."""


_ORTHOGONAL_TOL = 1e-12
# Relative precision of nullifier variances and effective-graph errors;
# purity defect of effective graphs.
_PRECISION_TOL = 1e-6
# Largest r whose cosh(4r) is a finite float64: the evolved covariance
# holds (cosh(4r) 1 + sinh(4r) A) / 2 in its q and p blocks.
_MAX_SQUEEZE_R = 0.25 * math.acosh(np.finfo(float).max)
# Peak RSS above the import baseline, bounded by about twice what was
# measured: `reduce` per float64 entry of a dense 2n x 2n matrix (its dense
# QR; 3.8 and 3.1 at M = 10 and 14), `simulate` per mode (CSR factor and
# targets; 7.0, 6.1 and 5.9 KB at M = 20, 36 and 64).
_DENSE_PEAK_FACTORS = 8
_SPARSE_PEAK_PER_MODE = 16 * 1024


def omega(n: int) -> np.ndarray:
    """Symplectic form in (q.., p..) ordering: [[0, 1], [-1, 0]] blocks."""
    I = np.eye(n)
    Z = np.zeros((n, n))
    return np.block([[Z, I], [-I, Z]])


def _memory_limit() -> int:
    """Physical memory in bytes, or the cgroup v2 memory.max if smaller."""
    limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    try:
        with open("/sys/fs/cgroup/memory.max") as fh:
            limit = min(limit, int(fh.read()))
    except (OSError, ValueError):          # no cgroup v2 file, or "max"
        pass
    return limit


def require_fit(n: int, need: int, engine: str) -> None:
    """GaussianError unless ``need`` bytes, the caller's peak estimate for n
    modes in the "dense" or "sparse" ``engine``, fit in memory."""
    limit = _memory_limit()
    if need > limit:
        raise GaussianError(
            f"{n} modes need ~{need / 2**30:.3g} GiB in the {engine} Gaussian "
            f"engine, more than the {limit / 2**30:.3g} GiB of memory here")


# ============================================================
# States
# ============================================================

def _canonical_csr(X) -> sp.csr_array:
    """X as float64 CSR with sorted indices, no duplicates and no stored
    zeros; copied only when X is not so already."""
    X = sp.csr_array(X, dtype=float)
    if not (X.has_canonical_format and X.data.all()):
        X = X.copy()
        X.sum_duplicates()
        X.eliminate_zeros()
    return X


@dataclass
class GaussianState:
    """Mean vector and factor L (cov = L @ L.T / 2) over 2n quadratures.

    ``factor`` is a canonical float64 CSR array (sorted indices, no
    duplicates, no stored zeros); a dense or sparse matrix is converted.
    States are immutable values: operations return new ones, and the
    arrays of ``mean`` and ``factor`` are read-only.
    """

    mean: np.ndarray
    factor: sp.csr_array

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        L = self.factor if sp.issparse(self.factor) else np.asarray(self.factor)
        if L.ndim != 2 or L.shape[0] != self.mean.size:
            raise GaussianError("factor rows do not match mean length")
        if self.mean.size % 2:
            raise GaussianError("state must have an even number of quadratures")
        L = _canonical_csr(L)
        self.mean.setflags(write=False)
        for a in (L.data, L.indices, L.indptr):
            a.setflags(write=False)
        self.factor = L

    @property
    def n(self) -> int:
        return self.mean.size // 2

    @property
    def cov(self) -> np.ndarray:
        """Dense covariance L @ L.T / 2, derived on each access."""
        L = self.factor.toarray()
        return 0.5 * (L @ L.T)

    def symplectic_eigenvalues(self) -> np.ndarray:
        """Symplectic spectrum (n values, 1/2 each for a pure state)."""
        if self.n == 0:
            return np.zeros(0)
        L = self.factor.toarray()
        K = L.T @ omega(self.n) @ L
        s = np.sort(np.linalg.svd(K, compute_uv=False))[::-1]
        return 0.5 * s[:2 * self.n:2]

    def purity_defect(self) -> float:
        """|det(2 cov) - 1| computed through the symplectic spectrum."""
        if self.n == 0:
            return 0.0
        nus = self.symplectic_eigenvalues()
        return abs(np.expm1(2.0 * np.sum(np.log(2.0 * nus))))

    def uncertainty_defect(self) -> float:
        """How far below 1/2 the smallest symplectic eigenvalue falls (>= 0)."""
        if self.n == 0:
            return 0.0
        return max(0.0, 0.5 - float(self.symplectic_eigenvalues().min()))


def vacuum(n: int) -> GaussianState:
    """n-mode vacuum: zero mean, factor identity (covariance identity/2)."""
    if n < 1:
        raise GaussianError(f"mode count must be >= 1, got {n}")
    return GaussianState(np.zeros(2 * n), sp.eye_array(2 * n, format="csr"))


# ============================================================
# Evolution
# ============================================================

def _as_sparse_adjacency(A) -> sp.csr_array:
    """Canonical float CSR form of a square adjacency (PhysAdjacency,
    sparse or dense)."""
    if isinstance(A, PhysAdjacency):
        A = A.csr * 0.25
    elif not sp.issparse(A):
        A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise GaussianError("adjacency must be a square matrix")
    return _canonical_csr(A)


@dataclass(frozen=True)
class EvolutionParams:
    """Adjacency (stored as float CSR) plus overall squeezing parameter
    r = coupling * time."""

    adjacency: sp.csr_array
    squeeze_r: float

    def __post_init__(self):
        A = _as_sparse_adjacency(self.adjacency)
        if (A != A.T).nnz:
            raise GaussianError("adjacency must be symmetric")
        if not (self.squeeze_r >= 0):
            raise GaussianError(f"squeeze_r must be >= 0, got {self.squeeze_r}")
        if not (self.squeeze_r <= _MAX_SQUEEZE_R):
            raise GaussianError(
                f"squeeze_r={self.squeeze_r} overflows cosh(4r) in float64 "
                f"(largest allowed r is {_MAX_SQUEEZE_R:.12g})")
        object.__setattr__(self, "adjacency", A)


def evolution_symplectic(A, r: float) -> sp.csr_array:
    """Symplectic matrix blkdiag(exp(2rA), exp(-2rA)) of the evolution, CSR.

    For orthogonal A (A @ A = 1, exact for the quarter-integer lattices
    here, decided by the sparse product) the closed form
    cosh(2r) 1 +- sinh(2r) A is used; it has the sparsity of A and keeps
    the q and p blocks exactly inverse to each other, which protects state
    purity at large r.  Otherwise scipy's scaling-and-squaring expm runs on
    a dense copy.
    """
    A = _as_sparse_adjacency(A)
    I = sp.eye_array(A.shape[0], format="csr")
    if np.abs((A @ A - I).data).max(initial=0.0) <= _ORTHOGONAL_TOL:
        ch, sh = np.cosh(2 * r), np.sinh(2 * r)
        Sq = ch * I + sh * A
        Sp = ch * I - sh * A
    else:
        A = A.toarray()
        Sq = sp.csr_array(expm(2 * r * A))
        Sp = sp.csr_array(expm(-2 * r * A))
    return sp.block_diag((Sq, Sp), format="csr")


def evolve(params: EvolutionParams) -> GaussianState:
    """Evolve vacuum (factor 1) under the coupling: the factor becomes S."""
    S = evolution_symplectic(params.adjacency, params.squeeze_r)
    return GaussianState(np.zeros(S.shape[0]), S)


def rotate_color_class(state: GaussianState, coloring: Bicoloring,
                       quarter_turns: int) -> GaussianState:
    """Rotate every color-1 mode by +-90 degrees in phase space.

    quarter_turns = +1 maps (q, p) -> (p, -q) on color-1 modes, -1 the
    inverse.  Color-0 modes are untouched.  Symplectic, purity preserving.
    """
    if quarter_turns not in (+1, -1):
        raise GaussianError(f"quarter_turns must be +1 or -1, got {quarter_turns}")
    colors = np.asarray(coloring.colors if isinstance(coloring, Bicoloring)
                        else coloring)
    if colors.size != state.n:
        raise GaussianError(
            f"coloring covers {colors.size} modes, state has {state.n}")
    if not np.all(np.isin(colors, (0, 1))):
        raise GaussianError("coloring entries must be 0 or 1")
    # Rows of S @ (mean, factor) for S = [[P0, t P1], [-t P1, P0]]: on
    # color-1 modes q <- t p and p <- -t q, a signed row permutation.
    # Adding 0.0 turns the -0.0 of negated zero means into the +0.0 the
    # matrix product gives; the factor stores no zeros.
    q = np.flatnonzero(colors == 1)
    p = q + state.n
    rows = np.arange(2 * state.n)
    rows[q], rows[p] = p, q
    sign = np.ones(2 * state.n)
    sign[q], sign[p] = quarter_turns, -quarter_turns
    factor = state.factor[rows]
    factor.data = factor.data * np.repeat(sign, np.diff(factor.indptr))
    return GaussianState(sign * state.mean[rows] + 0.0, factor)


# ============================================================
# Nullifiers and the phase convention
# ============================================================

@dataclass
class NullifierReport:
    """Variances of p - A q against a target adjacency (canonical float CSR)."""

    target_adjacency: sp.csr_array
    variances: np.ndarray
    max_variance: float
    squeeze_r: float = float("nan")

    def target_hash(self) -> str:
        """SHA-256 prefix of the shape and CSR arrays (indices as int64)."""
        T = self.target_adjacency
        raw = b"".join(np.asarray(a, dtype=np.int64).tobytes()
                       for a in (T.shape, T.indptr, T.indices))
        return hashlib.sha256(raw + (T.data + 0.0).tobytes()).hexdigest()[:12]


def _row_norms(X: sp.csr_array) -> np.ndarray:
    """Euclidean norm of each row of X over its stored entries.

    Each row's squares are summed in ascending order, so rows holding the
    same values in different columns (the modes of a translation-invariant
    lattice) get bit-identical norms.
    """
    counts = np.diff(X.indptr)
    squares = np.zeros((X.shape[0], counts.max(initial=0)))
    rows = np.repeat(np.arange(X.shape[0]), counts)
    squares[rows, np.arange(X.nnz) - X.indptr[rows]] = X.data ** 2
    squares.sort(axis=1)
    return np.sqrt(squares.sum(axis=1))


def nullifier_variances(state: GaussianState, target,
                        squeeze_r: float = float("nan")) -> NullifierReport:
    """Var(p_i - sum_j T_ij q_j) = |(L_p - T L_q)_i|^2 / 2 for each i.

    PrecisionLossError when a variance is not finite, or when the rounding
    bound (k+1) eps |(|L_p| + |T| |L_q|)_i| of the product (k = largest row
    count of T) exceeds _PRECISION_TOL of |(L_p - T L_q)_i|."""
    At = _as_sparse_adjacency(target)
    n = state.n
    if At.shape != (n, n):
        raise GaussianError(f"target is {At.shape}, state has {n} modes")
    Lq, Lp = state.factor[:n], state.factor[n:]
    k = int(np.diff(At.indptr).max(initial=0))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        norms = _row_norms(Lp - At @ Lq)
        bound = (k + 1) * np.finfo(float).eps * _row_norms(
            abs(Lp) + abs(At) @ abs(Lq))
        variances = 0.5 * norms ** 2
        relative = bound / norms
    resolved = np.isfinite(variances) & (relative <= _PRECISION_TOL)
    if not resolved.all():
        i = int(np.argmin(resolved))
        raise PrecisionLossError(
            f"nullifier variance of mode {i} is {variances[i]:.12g} with "
            f"relative rounding bound {relative[i]:.3g} > {_PRECISION_TOL:g}: "
            f"float64 cannot resolve it")
    return NullifierReport(target_adjacency=At,
                           variances=variances,
                           max_variance=float(variances.max()),
                           squeeze_r=squeeze_r)


@dataclass
class PhaseConvention:
    """Chosen rotation direction and target sign, with the survey behind it.

    ``state`` is the rotated state, and ``nullifiers`` the winning
    candidate's report: the signed target (``target_adjacency``) and the
    nullifier variances of ``state`` against it.
    """

    quarter_turns: int
    target_sign: int
    survey: dict
    nullifiers: NullifierReport
    state: GaussianState


def best_phase_convention(state: GaussianState, coloring: Bicoloring,
                          target) -> PhaseConvention:
    """Turn in {+1, -1} and target in {+A, -A} minimizing the max variance.

    The first minimum in the order (+1, +A), (+1, -A), (-1, +A), (-1, -A)
    wins.  The -1 turn is the +1 turn followed by (q, p) -> (-q, -p) on
    the color-1 modes, which maps the nullifiers of -+A to those of +-A
    when every edge of A joins two colors; so only the +1 turn is
    computed, the survey copies its values to (-1, -+A), and the winner is
    a +1 turn.  A target with an edge inside a color class raises
    GaussianError.
    """
    At = _as_sparse_adjacency(target)
    rotated = rotate_color_class(state, coloring, +1)
    colors = np.asarray(getattr(coloring, "colors", coloring))
    if At.shape == (state.n, state.n) and np.any(
            np.repeat(colors, np.diff(At.indptr)) == colors[At.indices]):
        raise GaussianError("target has an edge inside a color class")
    reports = {sign: nullifier_variances(rotated, sign * At) for sign in (+1, -1)}
    survey = {(turns, sign): reports[turns * sign].max_variance
              for turns in (+1, -1) for sign in (+1, -1)}
    sign = -1 if reports[-1].max_variance < reports[+1].max_variance else +1
    return PhaseConvention(quarter_turns=+1, target_sign=sign,
                           survey=survey, nullifiers=reports[sign],
                           state=rotated)


def cluster_state(A: PhysAdjacency, r: float):
    """The cluster state of A at squeezing r, in its best phase convention.

    Evolves vacuum under A and picks the convention with
    `best_phase_convention`, whose color-1 rotation is the returned state.
    Returns (rotated state, PhaseConvention); the convention's
    ``nullifiers`` report carries squeeze_r = r.
    """
    colors = lattice.bicoloring(A)
    params = EvolutionParams(A, r)
    conv = best_phase_convention(evolve(params), colors, params.adjacency)
    conv.nullifiers.squeeze_r = r
    return conv.state, conv


# ============================================================
# Measurement
# ============================================================

def _validate_nodes(n, nodes):
    nodes = sorted(int(v) for v in nodes)
    if not nodes:
        raise GaussianError("node set must be nonempty")
    if len(set(nodes)) != len(nodes):
        raise GaussianError("node set has duplicates")
    if nodes[0] < 0 or nodes[-1] >= n:
        raise GaussianError(f"node index out of range for n={n}: {nodes}")
    return nodes


def measure_q(state: GaussianState, nodes, outcomes=None) -> GaussianState:
    """Ideal q measurement of the listed modes; returns the conditional state.

    Conditioning projects the kept rows L_r (kept q, then kept p) onto the
    null space of the measured q rows L_y.  One Householder QR of a dense
    copy of [L_y; L_r]^T = Q [[R_11, R_12], [0, R_22]] gives both results:
    the projected factor L_r P = (Q_2 R_22)^T, so the conditional factor is
    R_22^T (2m x 2m, stored as CSR) and the kept covariance is outcome
    independent; and the mean gain L_r L_y^T (L_y L_y^T)^-1 = R_12^T R_11^-T,
    without the normal equations that square L_y's condition number.  Means
    move by the gain for the given outcomes (default all zero).  Measuring
    every mode returns the empty state.
    """
    given = [int(v) for v in nodes]
    nodes = _validate_nodes(state.n, given)
    n = state.n
    keep = np.setdiff1d(np.arange(n), nodes, assume_unique=True)
    if outcomes is None:
        outcomes = np.zeros(len(nodes))
    else:
        outcomes = np.asarray(outcomes, dtype=float)
        if outcomes.shape != (len(given),):
            raise GaussianError("outcomes must match the measured node count")
        # reorder outcomes to follow the internally sorted node order
        outcomes = outcomes[np.argsort(given, kind="stable")]
    if not keep.size:
        return GaussianState(np.zeros(0), np.zeros((0, 0)))

    rest = np.concatenate([keep, n + keep])  # kept q then kept p rows
    k = len(nodes)
    rows = state.factor[np.concatenate([nodes, rest])].toarray()
    R = np.linalg.qr(rows.T, mode="r")
    gain = np.linalg.solve(R[:k, :k], R[:k, k:]).T
    mean_c = state.mean[rest] + gain @ (outcomes - state.mean[nodes])
    return GaussianState(mean_c, R[k:, k:].T)


def ideal_graph_delete(A, nodes) -> sp.csr_array:
    """Combinatorial limit of measure_q: drop the measured rows/columns.

    Returns float CSR.  An empty node set is allowed and returns A unchanged.
    """
    At = _as_sparse_adjacency(A)
    nodes = list(nodes)
    if nodes:
        nodes = _validate_nodes(At.shape[0], nodes)
    keep = np.setdiff1d(np.arange(At.shape[0]), nodes, assume_unique=True)
    return At[keep][:, keep]


# ============================================================
# Effective graph of a pure state
# ============================================================

@dataclass
class EffectiveGraph:
    """Complex-graph decomposition of a pure Gaussian state.

    V is the (real, symmetric) graph actually carried by the state, U the
    positive-definite error part; cov is recovered from (V, U) by
    `reconstruct_cov`.  For the states built here V tends to the signed
    target adjacency as r grows while U shrinks to zero.  ``V_rounding``
    bounds the rounding error of every entry of V.
    """

    V: np.ndarray
    U: np.ndarray
    V_rounding: float

    def reconstruct_cov(self) -> np.ndarray:
        Uinv = np.linalg.inv(self.U)
        qq = 0.5 * Uinv
        qp = 0.5 * (Uinv @ self.V)
        pp = 0.5 * (self.U + self.V @ Uinv @ self.V)
        return np.block([[qq, qp], [qp.T, pp]])


def effective_graph(state: GaussianState) -> EffectiveGraph:
    """Extract (V, U) with cov_qq = U^-1/2, cov_qp = U^-1 V / 2.

    Requires a pure state (purity defect within _PRECISION_TOL).  Errors
    gamma |qq|, gamma |qp| (gamma = (n+1) eps) move the solution V of
    qq V = qp by at most gamma 2|U| (|qq| |V| + |qp|), whose largest entry
    is ``V_rounding``.
    """
    defect = state.purity_defect()
    if not (defect <= _PRECISION_TOL):
        raise GaussianError(
            f"effective graph needs a pure state; purity defect {defect:.3e}")
    n = state.n
    L = state.factor.toarray()
    Lq, Lp = L[:n], L[n:]
    qq = 0.5 * (Lq @ Lq.T)
    qp = 0.5 * (Lq @ Lp.T)
    V = np.linalg.solve(qq, qp)
    V = 0.5 * (V + V.T)
    U = 0.5 * np.linalg.inv(qq)
    U = 0.5 * (U + U.T)
    gamma = (n + 1) * np.finfo(float).eps
    rounding = gamma * 2 * np.abs(U) @ (np.abs(qq) @ np.abs(V) + np.abs(qp))
    return EffectiveGraph(V=V, U=U, V_rounding=float(rounding.max(initial=0)))


def effective_graph_error(eg: EffectiveGraph, target) -> float:
    """max |V - target|, target densified; PrecisionLossError unless V's
    rounding bound is within _PRECISION_TOL of it."""
    error = float(np.abs(eg.V - _as_sparse_adjacency(target).toarray()).max())
    if not eg.V_rounding <= _PRECISION_TOL * error:
        raise PrecisionLossError(
            f"effective graph error is {error:.12g} with rounding bound "
            f"{eg.V_rounding:.3g} > {_PRECISION_TOL:g} of it: float64 cannot "
            f"resolve it")
    return error


# ============================================================
# Graph statistics and the torus cut
# ============================================================

@dataclass
class GraphStats:
    n_nodes: int
    n_edges: int
    max_degree: int
    n_components: int
    cycle_rank: int
    degree_histogram: dict

    @property
    def is_connected(self) -> bool:
        return self.n_components <= 1


def support_graph_stats(A) -> GraphStats:
    """Connectivity, degrees and cycle rank of the off-diagonal support."""
    At = _as_sparse_adjacency(A)
    n = At.shape[0]
    deg = np.diff(At.indptr) - (At.diagonal() != 0)
    edges = int(deg.sum()) // 2
    comps = connected_components(At, directed=False)[0]
    hist = {int(k): int(c) for k, c in
            zip(*np.unique(deg, return_counts=True))}
    return GraphStats(n_nodes=n, n_edges=edges,
                      max_degree=int(deg.max()) if n else 0,
                      n_components=comps,
                      cycle_rank=edges - n + comps,
                      degree_histogram=hist)


@dataclass
class ReductionReport:
    M: int
    keep_layer: int
    meridians: tuple
    kept_nodes: list
    measured_count: int
    graph_stats: GraphStats
    expected_patch_macronodes: int
    max_residual: float = float("nan")
    squeeze_r: float = float("nan")


def lattice_cut_nodes(M: int, keep_layer: int, meridians):
    """(measured, kept) physical-node lists for the layer + meridian cut.

    Measured: every node outside keep_layer, plus the keep_layer nodes of
    macronodes on chart column x0 or row y0.
    """
    if keep_layer not in (0, 1, 2, 3):
        raise GaussianError(f"keep_layer must be 0..3, got {keep_layer}")
    x0, y0 = meridians
    if not (0 <= x0 < M and 0 <= y0 < M):
        raise GaussianError(f"meridians {meridians} out of range for M={M}")
    coords = lattice.coordinates(M)
    cut = np.zeros(M * M, dtype=bool)
    cut[coords.column(x0) + coords.row(y0)] = True
    node = np.arange(4 * M * M)
    kept = (node % 4 == keep_layer) & ~cut[node // 4]
    return node[~kept].tolist(), node[kept].tolist()


def reduce_and_cut(obj, M: int, keep_layer: int, meridians,
                   target=None, squeeze_r: float = float("nan")):
    """Keep one layer minus the macronodes on chart column x0 and row y0.

    The report gives the kept support graph's connectivity, degrees and
    cycle rank; nothing checks that the cut opens the torus.

    Ideal path: ``obj`` is an adjacency (PhysAdjacency, sparse or dense);
    the measured nodes are deleted outright and the rest analyzed.

    Gaussian path: ``obj`` is a GaussianState (already in the cluster-state
    phase convention) and ``target`` its signed target adjacency; the
    measured nodes are q-measured and the report carries the maximum
    nullifier residual of the remaining modes against the reduced target.

    Returns (reduced state or remaining CSR adjacency, ReductionReport).
    """
    measured, kept = lattice_cut_nodes(M, keep_layer, meridians)
    is_state = isinstance(obj, GaussianState)
    if is_state and target is None:
        raise GaussianError("gaussian reduction needs the signed target")
    At = _as_sparse_adjacency(target if is_state else obj)
    if At.shape[0] != 4 * M * M or is_state and obj.n != At.shape[0]:
        raise GaussianError(f"{'state/target' if is_state else 'adjacency'} "
                            "size does not match the lattice")
    reduced = remaining = At[kept][:, kept]
    residual = float("nan")
    if is_state:
        reduced = measure_q(obj, measured)
        residual = nullifier_variances(reduced, remaining,
                                       squeeze_r=squeeze_r).max_variance
    report = ReductionReport(
        M=M, keep_layer=keep_layer, meridians=tuple(meridians),
        kept_nodes=kept, measured_count=len(measured),
        graph_stats=support_graph_stats(remaining),
        expected_patch_macronodes=(M - 1) ** 2,
        max_residual=residual, squeeze_r=squeeze_r)
    return reduced, report


# ============================================================
# Report formats
# ============================================================

def nullifier_table(report: NullifierReport) -> str:
    """Plain text table 'i variance' with a trailing summary line."""
    lines = ["%d %.12g" % iv for iv in enumerate(report.variances.tolist())]
    lines.append(f"r={report.squeeze_r:.12g} max={report.max_variance:.12g} "
                 f"target={report.target_hash()}")
    return "\n".join(lines) + "\n"


def nullifier_records(report: NullifierReport) -> str:
    """Machine-readable key-value variant of the nullifier table."""
    lines = ["node=%d variance=%.12g" % iv
             for iv in enumerate(report.variances.tolist())]
    lines.append(f"summary r={report.squeeze_r:.12g} "
                 f"max={report.max_variance:.12g} target={report.target_hash()}")
    return "\n".join(lines) + "\n"


def format_resolved(value: float, rounding: float) -> str:
    """``value`` to the significant digits its rounding bound resolves,
    min(12, floor(log10(value / rounding))); 12 for a zero bound.  An error
    that `effective_graph_error` accepted keeps at least 6."""
    digits = 12 if rounding == 0 else min(
        12, math.floor(math.log10(value / rounding)))
    return f"{value:.{digits}g}"


def effective_graph_dump(eg: EffectiveGraph) -> str:
    """Dense text dump of V and U with 12 significant digits."""
    out = []
    for name, mat in (("V", eg.V), ("U", eg.U)):
        out.append(f"{name} n={mat.shape[0]}")
        row_format = " ".join(["%.12g"] * mat.shape[1])
        out.extend(row_format % tuple(row) for row in mat.tolist())
    return "\n".join(out) + "\n"
