"""
Gaussian-state engine for cluster-state verification.

Conventions (fixed once, used everywhere): hbar = 1, [q, p] = i, vacuum
covariance = identity/2, quadrature ordering (q_1..q_n, p_1..p_n).  Under
the coupling Hamiltonian with symmetric adjacency A and overall squeezing
parameter r, the Heisenberg equations give q(t) = exp(2 r A) q(0) and
p(t) = exp(-2 r A) p(0); for orthogonal A the exponential collapses to
cosh(2r) 1 + sinh(2r) A.

A state is its mean and a factor L with cov = L @ L.T / 2 (vacuum L = 1,
evolved state L = S).  Purity checks (svd of L.T @ Omega @ L), nullifier
variances (row norms of L_p - T L_q) and q measurements (a projection of
L) all read the factor, which stays accurate where the derived covariance
is stiff with e^{+-4r} eigenvalue pairs.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.sparse.csgraph import connected_components

from . import lattice
from .lattice import Bicoloring, PhysAdjacency


class GaussianError(ValueError):
    """Invalid state, parameters, or mode selection."""


class PrecisionLossError(RuntimeError):
    """A nullifier variance float64 cannot resolve to _PRECISION_TOL: its
    rounding bound is too large (e^{+-2r} rows cancel at large r) or it is
    not finite."""


_ORTHOGONAL_TOL = 1e-12
# Relative precision of nullifier variances; purity defect of effective graphs.
_PRECISION_TOL = 1e-6
# Largest r whose cosh(4r) is a finite float64: the evolved covariance
# holds (cosh(4r) 1 + sinh(4r) A) / 2 in its q and p blocks.
_MAX_SQUEEZE_R = 0.25 * math.acosh(np.finfo(float).max)


def omega(n: int) -> np.ndarray:
    """Symplectic form in (q.., p..) ordering: [[0, 1], [-1, 0]] blocks."""
    I = np.eye(n)
    Z = np.zeros((n, n))
    return np.block([[Z, I], [-I, Z]])


# ============================================================
# States
# ============================================================

@dataclass
class GaussianState:
    """Mean vector and factor L (cov = L @ L.T / 2) over 2n quadratures.

    States are immutable values: operations return new ones.
    """

    mean: np.ndarray
    factor: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.factor = np.asarray(self.factor, dtype=float)
        if self.factor.ndim != 2 or self.factor.shape[0] != self.mean.size:
            raise GaussianError("factor rows do not match mean length")
        if self.mean.size % 2:
            raise GaussianError("state must have an even number of quadratures")
        self.mean.setflags(write=False)
        self.factor.setflags(write=False)

    @property
    def n(self) -> int:
        return self.mean.size // 2

    @property
    def cov(self) -> np.ndarray:
        """Covariance L @ L.T / 2, derived on each access."""
        return 0.5 * (self.factor @ self.factor.T)

    def symplectic_eigenvalues(self) -> np.ndarray:
        """Symplectic spectrum (n values, 1/2 each for a pure state)."""
        if self.n == 0:
            return np.zeros(0)
        L = self.factor
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

    def apply_symplectic(self, S: np.ndarray) -> "GaussianState":
        return GaussianState(S @ self.mean, S @ self.factor)


def vacuum(n: int) -> GaussianState:
    """n-mode vacuum: zero mean, factor identity (covariance identity/2)."""
    if n < 1:
        raise GaussianError(f"mode count must be >= 1, got {n}")
    return GaussianState(np.zeros(2 * n), np.eye(2 * n))


# ============================================================
# Evolution
# ============================================================

def _as_dense_adjacency(A) -> np.ndarray:
    if isinstance(A, PhysAdjacency):
        return A.dense()
    return np.asarray(A, dtype=float)


@dataclass(frozen=True)
class EvolutionParams:
    """Adjacency plus overall squeezing parameter r = coupling * time."""

    adjacency: np.ndarray
    squeeze_r: float

    def __post_init__(self):
        A = _as_dense_adjacency(self.adjacency)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise GaussianError("adjacency must be a square matrix")
        if not np.array_equal(A, A.T):
            raise GaussianError("adjacency must be symmetric")
        if not (self.squeeze_r >= 0):
            raise GaussianError(f"squeeze_r must be >= 0, got {self.squeeze_r}")
        if not (self.squeeze_r <= _MAX_SQUEEZE_R):
            raise GaussianError(
                f"squeeze_r={self.squeeze_r} overflows cosh(4r) in float64 "
                f"(largest allowed r is {_MAX_SQUEEZE_R:.12g})")
        object.__setattr__(self, "adjacency", A)


def evolution_symplectic(A, r: float) -> np.ndarray:
    """Symplectic matrix blkdiag(exp(2rA), exp(-2rA)) of the evolution.

    For orthogonal A (A @ A = 1, exact for the quarter-integer lattices
    here) the closed form cosh(2r) 1 +- sinh(2r) A is used; it keeps the
    q and p blocks exactly inverse to each other, which protects state
    purity at large r.  Otherwise scipy's scaling-and-squaring expm runs.
    """
    A = _as_dense_adjacency(A)
    n = A.shape[0]
    I = np.eye(n)
    if np.abs(A @ A - I).max() <= _ORTHOGONAL_TOL:
        ch, sh = np.cosh(2 * r), np.sinh(2 * r)
        Sq = ch * I + sh * A
        Sp = ch * I - sh * A
    else:
        Sq = expm(2 * r * A)
        Sp = expm(-2 * r * A)
    Z = np.zeros((n, n))
    return np.block([[Sq, Z], [Z, Sp]])


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
    P0 = np.diag((colors == 0).astype(float))
    P1 = np.diag((colors == 1).astype(float))
    S = np.block([[P0, quarter_turns * P1], [-quarter_turns * P1, P0]])
    return state.apply_symplectic(S)


# ============================================================
# Nullifiers and the phase convention
# ============================================================

@dataclass
class NullifierReport:
    """Variances of p - A q against a target adjacency."""

    target_adjacency: np.ndarray
    variances: np.ndarray
    max_variance: float
    squeeze_r: float = float("nan")

    def target_hash(self) -> str:
        raw = np.ascontiguousarray(self.target_adjacency, dtype=float).tobytes()
        return hashlib.sha256(raw).hexdigest()[:12]


def nullifier_variances(state: GaussianState, target,
                        squeeze_r: float = float("nan")) -> NullifierReport:
    """Var(p_i - sum_j T_ij q_j) = |(L_p - T L_q)_i|^2 / 2 for each i.

    PrecisionLossError when a variance is not finite, or when the rounding
    bound (k+1) eps |(|L_p| + |T| |L_q|)_i| of the product (k = largest row
    count of T) exceeds _PRECISION_TOL of |(L_p - T L_q)_i|."""
    At = _as_dense_adjacency(target)
    n = state.n
    if At.shape != (n, n):
        raise GaussianError(
            f"target is {At.shape}, state has {n} modes")
    Lq, Lp = state.factor[:n], state.factor[n:]
    k = int(np.count_nonzero(At, axis=1).max(initial=0))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        norms = np.linalg.norm(Lp - At @ Lq, axis=1)
        bound = (k + 1) * np.finfo(float).eps * np.linalg.norm(
            np.abs(Lp) + np.abs(At) @ np.abs(Lq), axis=1)
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
    At = _as_dense_adjacency(target)
    rotated = rotate_color_class(state, coloring, +1)
    colors = np.asarray(getattr(coloring, "colors", coloring))
    if At.shape == (state.n, state.n) and np.any(At[np.equal.outer(colors, colors)]):
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
    dense = A.dense()
    state = evolve(EvolutionParams(dense, r))
    conv = best_phase_convention(state, colors, dense)
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

    Conditioning projects the factor onto the null space of the measured
    q rows L_y, so the kept covariance is outcome independent; means move
    by the gain L_r L_y^T (L_y L_y^T)^-1 for the given outcomes (default
    all zero).  Measuring every mode returns the empty state.
    """
    given = [int(v) for v in nodes]
    nodes = _validate_nodes(state.n, given)
    n = state.n
    keep = [i for i in range(n) if i not in set(nodes)]
    if outcomes is None:
        outcomes = np.zeros(len(nodes))
    else:
        outcomes = np.asarray(outcomes, dtype=float)
        if outcomes.shape != (len(given),):
            raise GaussianError("outcomes must match the measured node count")
        # reorder outcomes to follow the internally sorted node order
        outcomes = outcomes[np.argsort(given, kind="stable")]
    if not keep:
        return GaussianState(np.zeros(0), np.zeros((0, 0)))

    rest = keep + [n + i for i in keep]      # kept q then kept p rows
    Ly = state.factor[nodes]
    Lr = state.factor[rest]
    gain = np.linalg.solve(Ly @ Ly.T, Ly @ Lr.T).T
    mean_c = state.mean[rest] + gain @ (outcomes - state.mean[nodes])
    _, _, vt = np.linalg.svd(Ly, full_matrices=True)
    u, s, _ = np.linalg.svd(Lr @ vt[len(nodes):].T, full_matrices=False)
    return GaussianState(mean_c, u * s)


def ideal_graph_delete(A, nodes) -> np.ndarray:
    """Combinatorial limit of measure_q: drop the measured rows/columns.

    An empty node set is allowed and returns A unchanged.
    """
    Ad = _as_dense_adjacency(A)
    nodes = list(nodes)
    if nodes:
        nodes = _validate_nodes(Ad.shape[0], nodes)
    keep = [i for i in range(Ad.shape[0]) if i not in set(nodes)]
    return Ad[np.ix_(keep, keep)].copy()


# ============================================================
# Effective graph of a pure state
# ============================================================

@dataclass
class EffectiveGraph:
    """Complex-graph decomposition of a pure Gaussian state.

    V is the (real, symmetric) graph actually carried by the state, U the
    positive-definite error part; cov is recovered from (V, U) by
    `reconstruct_cov`.  For the states built here V tends to the signed
    target adjacency as r grows while U shrinks to zero.
    """

    V: np.ndarray
    U: np.ndarray

    def reconstruct_cov(self) -> np.ndarray:
        Uinv = np.linalg.inv(self.U)
        qq = 0.5 * Uinv
        qp = 0.5 * (Uinv @ self.V)
        pp = 0.5 * (self.U + self.V @ Uinv @ self.V)
        return np.block([[qq, qp], [qp.T, pp]])


def effective_graph(state: GaussianState) -> EffectiveGraph:
    """Extract (V, U) with cov_qq = U^-1/2, cov_qp = U^-1 V / 2.

    Requires a pure state (purity defect within _PRECISION_TOL).
    """
    defect = state.purity_defect()
    if not (defect <= _PRECISION_TOL):
        raise GaussianError(
            f"effective graph needs a pure state; purity defect {defect:.3e}")
    n = state.n
    Lq, Lp = state.factor[:n], state.factor[n:]
    qq = 0.5 * (Lq @ Lq.T)
    qp = 0.5 * (Lq @ Lp.T)
    V = np.linalg.solve(qq, qp)
    V = 0.5 * (V + V.T)
    U = 0.5 * np.linalg.inv(qq)
    U = 0.5 * (U + U.T)
    return EffectiveGraph(V=V, U=U)


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
    """Connectivity, degrees and cycle rank of the nonzero-entry support."""
    Ad = _as_dense_adjacency(A)
    adj = Ad != 0
    np.fill_diagonal(adj, False)
    n = adj.shape[0]
    deg = adj.sum(axis=1)
    edges = int(adj.sum()) // 2
    comps = connected_components(adj, directed=False)[0]
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
    cut_mac = set(coords.column(x0)) | set(coords.row(y0))
    measured, kept = [], []
    for m in range(M * M):
        for layer in range(4):
            node = 4 * m + layer
            if layer != keep_layer or m in cut_mac:
                measured.append(node)
            else:
                kept.append(node)
    return measured, kept


def reduce_and_cut(obj, M: int, keep_layer: int, meridians,
                   target=None, squeeze_r: float = float("nan")):
    """Open the toroidal lattice into a planar patch.

    Ideal path: ``obj`` is an adjacency (PhysAdjacency or ndarray); the
    measured nodes are deleted outright and the remaining graph analyzed.

    Gaussian path: ``obj`` is a GaussianState (already in the cluster-state
    phase convention) and ``target`` its signed target adjacency; the
    measured nodes are q-measured and the report carries the maximum
    nullifier residual of the remaining modes against the reduced target.

    Returns (reduced object, ReductionReport).
    """
    measured, kept = lattice_cut_nodes(M, keep_layer, meridians)
    if isinstance(obj, GaussianState):
        if target is None:
            raise GaussianError("gaussian reduction needs the signed target")
        At = _as_dense_adjacency(target)
        if At.shape[0] != obj.n or obj.n != 4 * M * M:
            raise GaussianError("state/target size does not match the lattice")
        reduced = measure_q(obj, measured)
        target_kept = At[np.ix_(kept, kept)]
        rep = nullifier_variances(reduced, target_kept, squeeze_r=squeeze_r)
        stats = support_graph_stats(target_kept)
        report = ReductionReport(
            M=M, keep_layer=keep_layer, meridians=tuple(meridians),
            kept_nodes=kept, measured_count=len(measured),
            graph_stats=stats,
            expected_patch_macronodes=(M - 1) ** 2,
            max_residual=rep.max_variance, squeeze_r=squeeze_r)
        return reduced, report
    Ad = _as_dense_adjacency(obj)
    if Ad.shape[0] != 4 * M * M:
        raise GaussianError("adjacency size does not match the lattice")
    remaining = ideal_graph_delete(Ad, measured)
    stats = support_graph_stats(remaining)
    report = ReductionReport(
        M=M, keep_layer=keep_layer, meridians=tuple(meridians),
        kept_nodes=kept, measured_count=len(measured),
        graph_stats=stats,
        expected_patch_macronodes=(M - 1) ** 2)
    return remaining, report


# ============================================================
# Report formats
# ============================================================

def nullifier_table(report: NullifierReport) -> str:
    """Plain text table 'i variance' with a trailing summary line."""
    lines = [f"{i} {v:.12g}" for i, v in enumerate(report.variances)]
    lines.append(f"r={report.squeeze_r:.12g} max={report.max_variance:.12g} "
                 f"target={report.target_hash()}")
    return "\n".join(lines) + "\n"


def nullifier_records(report: NullifierReport) -> str:
    """Machine-readable key-value variant of the nullifier table."""
    lines = [f"node={i} variance={v:.12g}"
             for i, v in enumerate(report.variances)]
    lines.append(f"summary r={report.squeeze_r:.12g} "
                 f"max={report.max_variance:.12g} target={report.target_hash()}")
    return "\n".join(lines) + "\n"


def effective_graph_dump(eg: EffectiveGraph) -> str:
    """Dense text dump of V and U with 12 significant digits."""
    out = []
    for name, mat in (("V", eg.V), ("U", eg.U)):
        out.append(f"{name} n={mat.shape[0]}")
        for row in mat:
            out.append(" ".join(f"{v:.12g}" for v in row))
    return "\n".join(out) + "\n"
