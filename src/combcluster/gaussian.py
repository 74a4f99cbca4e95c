"""
Gaussian-state engine for cluster-state verification.

Conventions (fixed once, used everywhere): hbar = 1, [q, p] = i, vacuum
covariance = identity/2, quadrature ordering (q_1..q_n, p_1..p_n).  Under
the coupling Hamiltonian with symmetric adjacency A and overall squeezing
parameter r, the Heisenberg equations give q(t) = exp(2 r A) q(0) and
p(t) = exp(-2 r A) p(0); `EvolutionParams` admits only involutions,
A @ A = 1, for which exp(2 r A) = cosh(2r) 1 + sinh(2r) A.

A state is its mean and a factor L with cov = L @ L.T / 2 (vacuum L = 1,
evolved state L = S).  L is one canonical scipy.sparse CSR array: the
evolved factor has the sparsity of A (its q and p blocks stacked array by
array), a quarter turn permutes and signs its rows, and nullifier variances
(row norms of L_p - T L_q, T a canonical float CSR target) are sparse
products.  Their float64 rounding bound is screened row by row in O(nnz)
and built from the two-hop product |T| |L_q| only for the rows the screen
leaves open and the largest variance's (`nullifier_variances`).  One step,
`_condition`, projects rows off rows: a set of mutually orthogonal rows by
a sparse product, any other set by one QR of all its rows.  A q measurement
projects the kept rows off the measured q rows, and the projected rows,
every column kept, are the conditional factor.  The effective graph and the
purity check project the p rows off the q rows: V is the gain, U the
inverse Gram, and the purity defect the Schur residual of the projected p
rows.  The quarter-turned cluster state's q rows have Gram cosh(4r) 1, so
on its path every step is a sparse product.  Dense copies remain only for
the QR (the unturned state, random factors; never the cluster path), for
the dump of V and U a chunk of rows at a time, and for the covariance,
derived on access.  Reading the factor keeps these accurate where the
covariance is stiff with e^{+-4r} eigenvalue pairs.

The library imports numpy and scipy.sparse only, never scipy.linalg, whose
second OpenBLAS thread pool spins against numpy's on small hosts.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import lattice
from .lattice import PhysAdjacency, canonical_csr


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


# ============================================================
# States
# ============================================================

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
        L = canonical_csr(L)
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

    @functools.cached_property
    def _q_conditioning(self):
        """`_condition` of the p rows on the q rows: (gain, projected p
        rows, inverse Gram of the q rows), computed on the first use."""
        return _condition(self.factor[:self.n], self.factor[self.n:],
                          np.arange(self.n))

    def purity_defect(self) -> float:
        """Relative Schur residual max|R_p R_p^T - U| / max|U|.

        R_p is the p rows projected off the q rows and U = (L_q L_q^T)^-1.
        A state is pure exactly when its covariance's Schur complement
        cov_pp - cov_pq cov_qq^-1 cov_qp = R_p R_p^T / 2 equals
        cov_qq^-1 / 4 = U / 2.  Projecting the rows before the product keeps
        the e^{+-2r} terms from cancelling in it.  0 for the empty state;
        inf where a q row is zero or dependent on the others (a singular
        cov_qq, which no pure state has).
        """
        if self.n == 0:
            return 0.0
        try:
            _, Rp, U = self._q_conditioning
        except GaussianError:
            return math.inf
        return float(abs(Rp @ Rp.T - U).max() / abs(U).max())


def vacuum(n: int) -> GaussianState:
    """n-mode vacuum: zero mean, factor identity (covariance identity/2).

    The mode count is checked, not cast (`lattice.exact_int`): 2.0 is 2,
    and 2.5 raises GaussianError naming it."""
    m = lattice.exact_int(n)
    if m is None or m < 1:
        raise GaussianError(f"mode count must be an integer >= 1, got {n}")
    return GaussianState(np.zeros(2 * m), sp.eye_array(2 * m, format="csr"))


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
    return canonical_csr(A)


@dataclass(frozen=True)
class EvolutionParams:
    """Adjacency A of the coupling Hamiltonian, stored as float CSR and
    checked once: GaussianError unless A is square, symmetric and an
    involution, max|A @ A - 1| <= _ORTHOGONAL_TOL.  The overall squeezing
    r = coupling * time is passed to `evolve`, so one checked A serves
    every r."""

    adjacency: sp.csr_array

    def __post_init__(self):
        A = _as_sparse_adjacency(self.adjacency)
        if not lattice.is_symmetric(A):
            raise GaussianError("adjacency must be symmetric")
        residual = _involution_residual(A)
        if not residual <= _ORTHOGONAL_TOL:
            raise GaussianError(
                f"adjacency must satisfy A @ A = 1: max|A @ A - 1| = "
                f"{residual:.3g} > {_ORTHOGONAL_TOL:g}")
        object.__setattr__(self, "adjacency", A)


def _check_squeeze_r(r) -> None:
    if not (r >= 0):
        raise GaussianError(f"squeeze_r must be >= 0, got {r}")
    if not (r <= _MAX_SQUEEZE_R):
        raise GaussianError(f"squeeze_r={r} overflows cosh(4r) in float64 "
                            f"(largest allowed r is {_MAX_SQUEEZE_R:.12g})")


def _involution_residual(A: sp.csr_array) -> float:
    """max|A @ A - 1|, by the sparse product."""
    I = sp.eye_array(A.shape[0], format="csr")
    return float(np.abs((A @ A - I).data).max(initial=0.0))


def evolution_symplectic(params: EvolutionParams, r: float) -> sp.csr_array:
    """Symplectic blkdiag(exp(2rA), exp(-2rA)) of the evolution at squeezing
    r, as CSR: for the involution A the closed form cosh(2r) 1 +- sinh(2r) A,
    which has the sparsity of A and q and p blocks exactly inverse to each
    other.  GaussianError for r < 0 or r > _MAX_SQUEEZE_R.

    The two canonical n x n blocks are stacked by concatenating their CSR
    arrays, the p block's columns shifted by n: the arrays `sp.block_diag`
    builds through coordinates and a sort, without either."""
    _check_squeeze_r(r)
    A = params.adjacency
    n = A.shape[0]
    I = sp.eye_array(n, format="csr")
    ch, sh = np.cosh(2 * r), np.sinh(2 * r)
    chI, shA = ch * I, sh * A
    q, p = chI + shA, chI - shA
    stacked = (np.concatenate([q.data, p.data]),
               np.concatenate([q.indices, p.indices + np.int64(n)]),
               np.concatenate([q.indptr, p.indptr[1:] + np.int64(q.nnz)]))
    return canonical_csr(sp.csr_array(stacked, shape=(2 * n, 2 * n)))


def evolve(params: EvolutionParams, r: float) -> GaussianState:
    """Evolve vacuum (factor 1) to squeezing r: the factor becomes
    `evolution_symplectic`."""
    S = evolution_symplectic(params, r)
    return GaussianState(np.zeros(S.shape[0]), S)


def rotate_color_class(state: GaussianState, coloring: np.ndarray,
                       quarter_turns: int) -> GaussianState:
    """Rotate every color-1 mode by +-90 degrees in phase space.

    ``coloring`` is `lattice.bicoloring`'s 0/1 array; quarter_turns = +1
    maps (q, p) -> (p, -q) on color-1 modes, -1 the inverse.  Color-0 modes
    are untouched.  Symplectic, purity preserving.
    """
    if quarter_turns not in (+1, -1):
        raise GaussianError(f"quarter_turns must be +1 or -1, got {quarter_turns}")
    colors = np.asarray(coloring)
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
    """Variances of p - A q against a target adjacency (canonical float CSR).

    ``max_variance_rounding`` bounds the rounding error of ``max_variance``.
    """

    target_adjacency: sp.csr_array
    variances: np.ndarray
    max_variance: float
    squeeze_r: float = float("nan")
    max_variance_rounding: float = 0.0

    @functools.cached_property
    def target_hash(self) -> str:
        """SHA-256 prefix of the shape and CSR arrays (indices as int64),
        computed on the first read: a report's target is not changed."""
        T = self.target_adjacency
        raw = b"".join(np.asarray(a, dtype=np.int64).tobytes()
                       for a in (T.shape, T.indptr, T.indices))
        return hashlib.sha256(raw + (T.data + 0.0).tobytes()).hexdigest()[:12]


def _row_norms(X: sp.csr_array) -> np.ndarray:
    """Euclidean norm of each row of X over its stored entries.

    Each row's squares are summed in ascending order, so rows holding the
    same values in different columns (the modes of a translation-invariant
    lattice) get bit-identical norms.  Rows are taken a group of equal
    entry count at a time, unpadded, so a row's norm is a function of its
    own entries alone: the same bits as X[[i]] on its own.
    """
    counts = np.diff(X.indptr)
    norms = np.empty(X.shape[0])
    for c in np.unique(counts).tolist():
        rows = np.flatnonzero(counts == c)
        squares = X.data[X.indptr[rows, None] + np.arange(c)] ** 2
        squares.sort(axis=1)
        norms[rows] = np.sqrt(squares.sum(axis=1))
    return norms


def _rounding_screen(factor: sp.csr_array, absT: sp.csr_array,
                     k: int) -> np.ndarray:
    """s_i = gamma (|L_p,i| + sum_l |T_il| |L_q,l|) (1 + delta) >= b_i.

    gamma = (k+1) eps, and b_i = gamma |(|L_p| + |T| |L_q|)_i| is the
    rounding bound `nullifier_variances` computes, which the triangle
    inequality puts below s_i in exact arithmetic.  delta = (2k + 8 + c)
    eps, c the factor's column count, covers the rounding of both sides:
    the computed b_i is at most (1+u)^(k+3+c/2) times its exact value (k+1
    roundings per product entry, one per square and per sum of at most c
    squares, the square root, gamma) and the computed s_i at least
    (1-u)^(k+5+c/2) times its own (u = eps/2), and (1+delta) exceeds their
    ratio.  That accounting holds only where no product or square is
    subnormal or overflows: where a factor entry is below 2^-511 in size,
    a product |T_il L_lj| below it, or c (|L| (1 + k |T|))^2 above 2^1000
    (largest sizes), s_i is inf for every row.
    """
    eps = np.finfo(float).eps
    n = absT.shape[0]
    a, t = abs(factor.data), absT.data
    low_a, low_t = float(a.min(initial=1.0)), float(t.min(initial=1.0))
    high = float(a.max(initial=0.0)) * (1.0 + k * float(t.max(initial=0.0)))
    if not (min(low_a, low_a * low_t) >= 2.0 ** -511
            and factor.shape[1] * high * high <= 2.0 ** 1000):
        return np.full(n, np.inf)
    rows = np.repeat(np.arange(factor.shape[0]), np.diff(factor.indptr))
    norms = np.sqrt(np.bincount(rows, weights=factor.data ** 2,
                                minlength=factor.shape[0]))
    delta = (2 * k + 8 + factor.shape[1]) * eps
    return (k + 1) * eps * (norms[n:] + absT @ norms[:n]) * (1.0 + delta)


def nullifier_variances(state: GaussianState, target,
                        squeeze_r: float = float("nan"),
                        return_negated: bool = False):
    """Var(p_i - sum_j T_ij q_j) = |(L_p - T L_q)_i|^2 / 2 for each i, each
    norm (and rounding bound) a `_row_norms` norm of its own row alone.

    PrecisionLossError when a variance is not finite, or when the rounding
    bound b_i = (k+1) eps |(|L_p| + |T| |L_q|)_i| of the product (k =
    largest row count of T) exceeds _PRECISION_TOL of |(L_p - T L_q)_i|.
    The largest variance's rounding bound, |(L_p - T L_q)_i| b_i + b_i^2/2,
    is kept on the report.

    b_i reads the two-hop product |T| |L_q|, several times the factor's
    entries per row, so it is built only where it decides: an O(nnz)
    screen s_i >= b_i (`_rounding_screen`) resolves every row with
    s_i <= _PRECISION_TOL |(L_p - T L_q)_i|, which b_i then resolves too,
    and b_i is computed for the other rows and for the largest variance's.
    Near the refusal threshold every row falls back and the cost is the
    full product's.
    The first unresolved mode, its relative bound and the report's
    rounding are those of b_i computed for every row.

    With ``return_negated``, returns the pair of reports against T and -T.
    The second shares the product T L_q (L_p + T L_q is exactly
    L_p - (-T) L_q), the screen and the rounding bound b_i, which is the
    same for +-T."""
    At = _as_sparse_adjacency(target)
    n = state.n
    if At.shape != (n, n):
        raise GaussianError(f"target is {At.shape}, state has {n} modes")
    Lq, Lp = state.factor[:n], state.factor[n:]
    k = int(np.diff(At.indptr).max(initial=0))
    absT = abs(At)
    targets = [At, canonical_csr(-At)] if return_negated else [At]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        X = At @ Lq
        norms = [_row_norms(Lp - X)] + (
            [_row_norms(Lp + X)] if return_negated else [])
        variances = [0.5 * nm ** 2 for nm in norms]
        screen = _rounding_screen(state.factor, absT, k)
        screened = [np.isfinite(v) & (screen / nm <= _PRECISION_TOL)
                    for v, nm in zip(variances, norms)]
        rows = np.unique(np.concatenate(
            [np.flatnonzero(~ok) for ok in screened]
            + [[np.argmax(v)] for v in variances]))
        bound = np.full(n, np.nan)
        bound[rows] = (k + 1) * np.finfo(float).eps * _row_norms(
            abs(Lp[rows]) + absT[rows] @ abs(Lq))
    reports = tuple(
        _resolved_report(T, nm, v, ok, bound, squeeze_r)
        for T, nm, v, ok in zip(targets, norms, variances, screened))
    return reports if return_negated else reports[0]


def _resolved_report(At, norms, variances, screened, bound,
                     squeeze_r) -> NullifierReport:
    """Report of nullifier rows of norms ``norms`` against the target At;
    PrecisionLossError at the first row neither ``screened`` nor resolved
    by its rounding ``bound`` (computed where not screened, and at the
    largest variance)."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        relative = bound / norms
    resolved = screened | (np.isfinite(variances)
                           & (relative <= _PRECISION_TOL))
    if not resolved.all():
        i = int(np.argmin(resolved))
        raise PrecisionLossError(
            f"nullifier variance of mode {i} is {variances[i]:.12g} with "
            f"relative rounding bound {relative[i]:.3g} > {_PRECISION_TOL:g}: "
            f"float64 cannot resolve it")
    i = int(np.argmax(variances))
    return NullifierReport(
        target_adjacency=At, variances=variances,
        max_variance=float(variances[i]), squeeze_r=squeeze_r,
        max_variance_rounding=float(norms[i] * bound[i] + 0.5 * bound[i] ** 2))


@dataclass
class PhaseConvention:
    """Chosen target sign, with the survey behind it: ``state`` has its
    color-1 modes turned +1 quarter, ``survey`` maps each target sign to
    the max variance against sign * A, and ``nullifiers`` is the winning
    sign's report, its signed target ``target_adjacency``."""

    target_sign: int
    survey: dict
    nullifiers: NullifierReport
    state: GaussianState


def best_phase_convention(state: GaussianState, coloring: np.ndarray,
                          target) -> PhaseConvention:
    """Target sign in {+1, -1} minimizing the max variance of the +1
    quarter-turned state against sign * A; +1 wins a tie.

    ``coloring`` is the 0/1 color array of `lattice.bicoloring`.  The -1
    turn is the +1 turn followed by (q, p) -> (-q, -p) on the color-1
    modes, which maps the nullifiers of -+A to those of +-A when every edge
    of A joins two colors, so it mirrors the survey and is not computed.
    One `nullifier_variances` call gives the +A and -A reports from one
    product and rounding bound.  A target with an edge inside a color class
    raises GaussianError.
    """
    At = _as_sparse_adjacency(target)
    rotated = rotate_color_class(state, coloring, +1)
    colors = np.asarray(coloring)
    if At.shape == (state.n, state.n) and np.any(
            np.repeat(colors, np.diff(At.indptr)) == colors[At.indices]):
        raise GaussianError("target has an edge inside a color class")
    reports = dict(zip((+1, -1),
                       nullifier_variances(rotated, At, return_negated=True)))
    survey = {sign: rep.max_variance for sign, rep in reports.items()}
    sign = -1 if survey[-1] < survey[+1] else +1
    return PhaseConvention(target_sign=sign, survey=survey,
                           nullifiers=reports[sign], state=rotated)


def cluster_states(A: PhysAdjacency, rs):
    """Yield the cluster state of A at each squeezing r in ``rs``.

    Each is vacuum evolved under A, as the `best_phase_convention` of its
    rotated ``state``, whose ``nullifiers`` report carries squeeze_r = r.
    The bicoloring, the float adjacency and its involution check depend on
    A alone and are computed once.
    """
    colors = lattice.bicoloring(A)
    params = EvolutionParams(A)
    for r in rs:
        conv = best_phase_convention(evolve(params, r), colors,
                                     params.adjacency)
        conv.nullifiers.squeeze_r = r
        yield conv


def cluster_state(A: PhysAdjacency, r: float) -> PhaseConvention:
    """The PhaseConvention of A at one r: `cluster_states`."""
    return next(cluster_states(A, [r]))


# ============================================================
# Measurement
# ============================================================

def _node_array(nodes, what: str = "node") -> np.ndarray:
    """``nodes`` as a 1-D int64 index array, a scalar read as one node,
    checked, not cast (`lattice.exact_int64`): GaussianError for a nested
    list, a boolean mask or a non-integer ``what``."""
    given = np.asarray(nodes)
    if given.ndim > 1:
        raise GaussianError(f"{what}s must be one index or a list of "
                            f"indices, got shape {given.shape}")
    if given.dtype == bool:
        raise GaussianError(f"{what}s must be indices, not a boolean mask")
    exact, bad = lattice.exact_int64(given)
    if bad is not None:
        raise GaussianError(f"{what} {given[bad]} is not an integer")
    return exact.reshape(-1)


def _split_nodes(n: int, nodes):
    """(sorted node set, the other modes of 0..n-1) as int arrays.

    GaussianError naming a node that is not an integer (`_node_array`),
    given twice or outside 0..n-1.
    """
    nodes, counts = np.unique(_node_array(nodes), return_counts=True)
    if (counts > 1).any():
        raise GaussianError(f"node {nodes[np.argmax(counts > 1)]} is given "
                            "more than once")
    if nodes.size and not (0 <= nodes[0] and nodes[-1] < n):
        bad = nodes[0] if nodes[0] < 0 else nodes[-1]
        raise GaussianError(f"node {bad} is out of range for n={n}")
    kept = np.ones(n, dtype=bool)
    kept[nodes] = False
    return nodes, np.flatnonzero(kept)


def _uncorrelated_rows(X: sp.csr_array):
    """(whether every row of X is orthogonal to every other, Gram diagonal).

    Rows i and j are orthogonal when |G_ij| of the sparse Gram G = X X^T is
    within the product's rounding gamma sqrt(G_ii) sqrt(G_jj), gamma =
    (k+1) eps for k the largest row count.  A row whose G_ii overflows, or
    falls below tiny/eps where its squares may underflow (a row with no
    entries among them), answers no: its gain 1/G_ii would vanish,
    overflow or lose its digits.
    """
    G = (X @ X.T).tocoo()
    d = G.diagonal()
    gamma = (np.diff(X.indptr).max(initial=0) + 1) * np.finfo(float).eps
    root = np.sqrt(d)
    off = G.row != G.col
    i, j = G.row[off], G.col[off]
    in_range = (np.finfo(float).tiny / np.finfo(float).eps < d) & (d < np.inf)
    coupled = np.abs(G.data[off]) > gamma * root[i] * root[j]
    return bool(in_range.all() and not coupled.any()), d


def _condition(Y: sp.csr_array, X: sp.csr_array, modes):
    """Project the rows X off the rows Y: (gain, projected X, U).

    gain = X Y^T (Y Y^T)^-1 has one column per row of Y, the projected rows
    X - gain Y keep every column of X, and U = (Y Y^T)^-1; all three are
    CSR.  When every row of Y is orthogonal to every other
    (`_uncorrelated_rows`; the quarter-turned cluster state, whose q rows
    have Gram cosh(4r) 1) the projection is sparse, with gain
    X Y^T diag(1/|Y|^2) and U diag(1/|Y|^2).  Otherwise all rows of Y take
    one Householder QR on the columns they use, Y^T = Q R:
    X <- X - (X Q) Q^T, gain (X Q) R^-T and U = R^-1 R^-T, without the
    normal equations, which square Y's condition number.  A row whose
    pivot |R_ii| is within its QR rounding, (rows of Y) eps |row|, is zero
    or dependent on the rows before it: GaussianError naming its entry of
    ``modes``.
    """
    orthogonal, norms2 = _uncorrelated_rows(Y)
    if orthogonal:
        inverse = sp.diags_array(1.0 / norms2, format="csr")
        gain = (X @ Y.T) @ inverse
        return gain, canonical_csr(X - gain @ Y), inverse
    k = Y.shape[0]
    cols = np.unique(Y.indices)
    D = Y[:, cols].toarray()
    Q, R = np.linalg.qr(D.T)
    pivots = np.zeros(k)
    pivots[:R.shape[0]] = np.abs(np.diagonal(R))
    low = pivots <= k * np.finfo(float).eps * np.linalg.norm(D, axis=1)
    if low.any():
        raise GaussianError(
            f"measured q row of mode {modes[np.argmax(low)]} is zero or "
            "dependent on the other measured rows")
    XQ = X[:, cols] @ Q
    Rinv = np.linalg.solve(R, np.eye(k))
    U = Rinv @ Rinv.T
    step = sp.coo_array(XQ @ Q.T)
    X = X - sp.csr_array((step.data, (step.row, cols[step.col])), shape=X.shape)
    return (sp.csr_array(XQ @ Rinv.T), canonical_csr(X),
            sp.csr_array(0.5 * (U + U.T)))


def measure_q(state: GaussianState, nodes, outcomes=None) -> GaussianState:
    """Ideal q measurement of the listed modes; returns the conditional state.

    Conditioning projects the kept rows L_r (kept q, then kept p) off the
    measured q rows L_y (`_condition`: sparse when L_y's rows are mutually
    orthogonal, else one QR of them all).  The projected rows
    P = L_r - W L_y, W = L_r L_y^T (L_y L_y^T)^-1, are the conditional
    factor: 2m x (columns of L), CSR, with every column kept, so the kept
    covariance P P^T / 2 is outcome independent and a kept row without
    entries stays a zero row.  Means move by the gain, W (outcomes -
    measured means), for the given outcomes (default all zero).  A zero
    measured row, or one dependent on the others, raises GaussianError
    naming its mode.  Measuring every mode returns the empty state.
    """
    n = state.n
    given = _node_array(nodes)
    nodes, keep = _split_nodes(n, given)
    if not nodes.size:
        raise GaussianError("node set must be nonempty")
    if outcomes is None:
        outcomes = np.zeros(nodes.size)
    else:
        outcomes = np.asarray(outcomes, dtype=float)
        if outcomes.ndim > 1 or outcomes.size != given.size:
            raise GaussianError("outcomes must match the measured node count")
        # the nodes' shape rule, then the internally sorted node order
        outcomes = outcomes.reshape(-1)[np.argsort(given, kind="stable")]
    if not keep.size:
        return GaussianState(np.zeros(0), np.zeros((0, 0)))

    rest = np.concatenate([keep, n + keep])  # kept q then kept p rows
    gain, P, _ = _condition(state.factor[nodes], state.factor[rest], nodes)
    return GaussianState(
        state.mean[rest] + gain @ (outcomes - state.mean[nodes]), P)


def ideal_graph_delete(A, nodes) -> sp.csr_array:
    """Combinatorial limit of measure_q: drop the measured rows/columns.

    Returns float CSR.  An empty node set is allowed and returns A unchanged.
    """
    At = _as_sparse_adjacency(A)
    keep = _split_nodes(At.shape[0], nodes)[1]
    return At[keep][:, keep]


def measure_and_delete(A: PhysAdjacency, rs, nodes):
    """q-measure nodes of A's cluster state at each r in ``rs`` and delete
    them from its target.

    Yields (reduced state, its report against the reduced signed target).
    """
    for conv in cluster_states(A, rs):
        reduced, rep = measure_q(conv.state, nodes), conv.nullifiers
        yield reduced, nullifier_variances(
            reduced, ideal_graph_delete(rep.target_adjacency, nodes),
            squeeze_r=rep.squeeze_r)


# ============================================================
# Effective graph of a pure state
# ============================================================

@dataclass
class EffectiveGraph:
    """Complex graph Z = V + iU of a pure Gaussian state, as canonical CSR.

    V is the (real, symmetric) graph actually carried by the state, U the
    positive-definite error part.  For the states built here V tends to the
    signed target adjacency as r grows while U shrinks to zero.
    ``V_rounding`` bounds the rounding error of every entry of V.
    """

    V: sp.csr_array
    U: sp.csr_array
    V_rounding: float


def effective_graph(state: GaussianState) -> EffectiveGraph:
    """(V, U) with cov_qq = U^-1 / 2 and cov_qp = U^-1 V / 2.

    Requires a pure state (purity defect within _PRECISION_TOL).  With
    factor rows L_q and L_p, `_condition` of L_p on L_q gives both: U is
    the inverse Gram (L_q L_q^T)^-1 and V the symmetrised transpose of the
    gain L_p L_q^T U.  The sums the gain reads, X = L_p L_q^T and
    G = L_q L_q^T, are off by at most gamma |L_p| |L_q|^T and
    gamma |L_q| |L_q|^T, gamma = (k+1) eps for k the largest row count of
    L_q; to first order they move the gain by at most
    gamma (|L_p| |L_q|^T + |gain| |L_q| |L_q|^T) |U|.  That bound,
    symmetrised, plus eps |V| for the symmetrising sum, bounds each entry of
    V; its largest entry is ``V_rounding``.  It counts terms per row, not
    modes, so it does not grow with the state.
    """
    defect = state.purity_defect()
    if not (defect <= _PRECISION_TOL):
        raise GaussianError(
            f"effective graph needs a pure state; purity defect {defect:.3e}")
    gain, _, U = state._q_conditioning
    Lq, Lp = abs(state.factor[:state.n]), abs(state.factor[state.n:])
    gamma = (np.diff(Lq.indptr).max(initial=0) + 1) * np.finfo(float).eps
    bound = gamma * (Lp @ Lq.T + abs(gain) @ (Lq @ Lq.T)) @ abs(U)
    V = canonical_csr(0.5 * (gain + gain.T))
    rounding = 0.5 * (bound + bound.T) + np.finfo(float).eps * abs(V)
    return EffectiveGraph(V=V, U=canonical_csr(U),
                          V_rounding=float(rounding.data.max(initial=0.0)))


def effective_graph_error(eg: EffectiveGraph, target) -> float:
    """max |V - target|; PrecisionLossError unless V's rounding bound is
    within _PRECISION_TOL of it."""
    error = float(abs(eg.V - _as_sparse_adjacency(target)).max())
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
    """Connectivity, degrees and cycle rank of the off-diagonal support of
    a symmetric adjacency; GaussianError for one that is not symmetric."""
    At = _as_sparse_adjacency(A)
    if not lattice.is_symmetric(At):
        raise GaussianError("support graph needs a symmetric adjacency")
    n = At.shape[0]
    deg = np.diff(At.indptr) - (At.diagonal() != 0)
    edges = int(deg.sum()) // 2
    comps = lattice.bfs_depths(At)[1]
    hist = {int(k): int(c) for k, c in
            zip(*np.unique(deg, return_counts=True))}
    return GraphStats(n_nodes=n, n_edges=edges,
                      max_degree=int(deg.max()) if n else 0,
                      n_components=comps,
                      cycle_rank=edges - n + comps,
                      degree_histogram=hist)


@dataclass
class ReductionReport:
    kept_nodes: np.ndarray
    measured_nodes: np.ndarray
    graph_stats: GraphStats
    expected_patch_macronodes: int


def lattice_cut_nodes(M: int, keep_layer: int, meridians):
    """(measured, kept) physical-node arrays for the layer + meridian cut.

    Measured: every node outside keep_layer, plus the keep_layer nodes of
    macronodes on chart column x0 or row y0.  ``meridians`` is two integers,
    checked, not cast (`_node_array`); GaussianError naming it otherwise.
    """
    if keep_layer not in (0, 1, 2, 3):
        raise GaussianError(f"keep_layer must be 0..3, got {keep_layer}")
    try:
        x0, y0 = _node_array(meridians, "meridian").tolist()
    except ValueError:                      # also a GaussianError
        raise GaussianError(f"meridians must be two integers x0,y0, "
                            f"got {meridians!r}") from None
    if not (0 <= x0 < M and 0 <= y0 < M):
        raise GaussianError(f"meridians {meridians} out of range for M={M}")
    coords = lattice.coordinates(M)
    cut = (coords.x == x0) | (coords.y == y0)
    node = np.arange(4 * coords.M ** 2)
    kept = (node % 4 == keep_layer) & ~cut[node // 4]
    return node[~kept], node[kept]


def reduce_and_cut(A, M: int, keep_layer: int, meridians) -> ReductionReport:
    """Keep one layer minus the macronodes on chart column x0 and row y0.

    The measured nodes are deleted from the adjacency A (PhysAdjacency,
    sparse or dense); `measure_and_delete` takes the report's
    ``measured_nodes`` to q-measure them in the cluster state instead.  The
    report gives the kept support graph's connectivity, degrees and cycle
    rank; nothing checks that the cut opens the torus.

    Returns the ReductionReport; `ideal_graph_delete` of its
    ``measured_nodes`` gives the remaining adjacency.
    """
    measured, kept = lattice_cut_nodes(M, keep_layer, meridians)
    At = _as_sparse_adjacency(A)
    if At.shape[0] != 4 * M * M:
        raise GaussianError("adjacency size does not match the lattice")
    remaining = ideal_graph_delete(At, measured)
    return ReductionReport(
        kept_nodes=kept, measured_nodes=measured,
        graph_stats=support_graph_stats(remaining),
        expected_patch_macronodes=(M - 1) ** 2)


# ============================================================
# Report formats
# ============================================================

def _distinct_text(values: np.ndarray) -> np.ndarray:
    """``"%.12g" % x`` for each entry, as an object array of values' shape.

    Each distinct value, by bit pattern so -0.0 keeps its sign, is
    formatted once: a translation-invariant lattice has one nullifier
    variance for all of its modes, and few distinct V and U entries.
    """
    v = np.ascontiguousarray(values, dtype=np.float64)
    bits, which = np.unique(v.view(np.int64), return_inverse=True)
    text = np.array(["%.12g" % x for x in bits.view(np.float64).tolist()],
                    dtype=object)
    return text[which].reshape(v.shape)


def _write_variances(fh, row_format: str, report: NullifierReport,
                     prefix: str) -> None:
    """One ``row_format`` line (mode index, variance text) per mode, then
    a summary line of r, the maximum and the target hash after ``prefix``."""
    lattice._render_rows(fh, row_format, np.arange(report.variances.size),
                         _distinct_text(report.variances))
    fh.write(f"{prefix}r={report.squeeze_r:.12g} "
             f"max={report.max_variance:.12g} target={report.target_hash}\n")


def nullifier_table(report: NullifierReport, fh) -> None:
    """Plain text table 'i variance' with a trailing summary line."""
    _write_variances(fh, "%d %s\n", report, "")


def nullifier_records(report: NullifierReport, fh) -> None:
    """Machine-readable key-value variant of the nullifier table."""
    _write_variances(fh, "node=%d variance=%s\n", report, "summary ")


def format_resolved(value: float, rounding: float) -> str:
    """``value`` to the significant digits its rounding bound resolves,
    min(12, floor(log10(value / rounding))); 12 for a zero bound.  An error
    that `effective_graph_error` accepted keeps at least 6."""
    digits = 12 if rounding == 0 else min(
        12, math.floor(math.log10(value / rounding)))
    return f"{value:.{digits}g}"


def effective_graph_dump(eg: EffectiveGraph, fh) -> None:
    """Dense text dump of V and U with 12 significant digits, written a
    chunk of rows at a time from the CSR arrays."""
    for name, mat in (("V", eg.V), ("U", eg.U)):
        m = mat.shape[0]
        fh.write(f"{name} n={m}\n")
        step = max(1, lattice._RENDER_CHUNK // max(1, m))
        for start in range(0, m, step):
            rows = _distinct_text(mat[start:start + step].toarray()).tolist()
            fh.write("".join(" ".join(row) + "\n" for row in rows))
