"""
Consolidated verification suite.

Each criterion function checks one documented guarantee of the toolchain at
a pinned tolerance and returns a CriterionResult with deterministic detail
lines; `verify_all` runs them all (plus a determinism check that re-runs
the suite and compares rendered bytes) and renders one PASS/FAIL line per
criterion.  Criterion 4 checks the closed-form evolution every command uses
against an RK4 oracle on 24 involutions: 20 random sym(Q diag(+-1) Q^T), Q
from the QR of a Gaussian n x n matrix, n in 2..6, at r in [0.1, 1]; the
two-mode X at r = 0.5, 1, 2; crown-8 at r = 2.  Two criteria are expected
to FAIL and say why in their details:

* criterion 2 pins the renumbered pump layout to run lengths
  (2M-1, M**2-4M-3).  That layout is not reachable by any node
  renumbering: the support graphs of the constructed lattice and of the
  pinned layout differ in their closed-6-walk counts, an isomorphism
  invariant.  The constructed layout uses run lengths (M-1, M**2-2M-3).
* criterion 5 pins the nullifier decay to exp(-2r)/2.  The evolution
  transform cosh(2r) 1 + sinh(2r) A - which criterion 4 independently
  validates against an ODE oracle - forces the uniform value exp(-4r);
  at r = 0 the variance of p_i - (A q)_i is 1, not 1/2, for any
  unit-row-norm target, so no convention takes the unnormalised p - A q at
  this code's r to exp(-2r)/2.  But this r squeezes one mode to e^{-4r}/2,
  so r_s = 2r, and (p - A q)/sqrt(2) has variance exp(-2 r_s)/2 exactly.

The failures are reported honestly rather than patched over by loosening
the checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import gaussian, hankel, lattice
from .lattice import canonical_csr


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    details: list


def _fmt(x: float) -> str:
    return f"{x:.12g}"


# ============================================================
# Criterion implementations
# ============================================================

def criterion_exact_orthogonality(M: int = 6) -> CriterionResult:
    """A @ A = 1 in exact integer arithmetic for two lattice sizes."""
    details = []
    ok = True
    for m in (M, M + 2):
        A = lattice.expand(lattice.build_torus_supergraph(m))
        rep = lattice.check_orthogonal(A)
        ok &= rep.is_orthogonal
        details.append(f"M={m} orthogonal={str(rep.is_orthogonal).lower()} "
                       f"worst_deviation={rep.worst_deviation}")
    return CriterionResult(1, "exact-orthogonality", ok, details)


def claimed_run_lengths(M: int):
    """Pinned reference run lengths (long runs) for the 2x2 layout."""
    return 2 * M - 1, M * M - 4 * M - 3


def outer_support(B) -> sp.csr_array:
    """0/1 CSR occupancy of the 2x2 blocks of a physical matrix.

    B is a PhysAdjacency or any dense or sparse square matrix.
    """
    Q = B.csr if isinstance(B, lattice.PhysAdjacency) else canonical_csr(B, None)
    rows, cols, _ = lattice._coo_of(Q)
    nb = Q.shape[0] // 2
    S = canonical_csr(sp.coo_array((np.ones(rows.size, dtype=np.int64),
                                    (rows // 2, cols // 2)), shape=(nb, nb)),
                      np.int64)
    S.data[:] = 1                          # entries per block were summed
    return S


def layout_outer_support(M: int, positions) -> sp.csr_array:
    """0/1 CSR occupancy of a 2x2 block-Hankel layout: i ~ j iff i + j in D.

    LatticeError for a non-integer position or one outside 0..4M**2 - 2.
    """
    entries = np.zeros((4 * M * M - 1, 1, 1), dtype=np.int64)
    d, bad = lattice.exact_int64(positions)
    if bad is not None:
        raise lattice.LatticeError(
            f"skew-diagonal {np.asarray(positions)[bad]} is not an integer")
    outside = d[(d < 0) | (d >= len(entries))]
    if outside.size:
        raise lattice.LatticeError(
            f"skew-diagonal {outside[0]} is outside 0..{len(entries) - 1}")
    entries[d] = 1
    return hankel.matrix_of(hankel.HankelShorthand(entries, block_side=1))


def _closed_walks(S: sp.csr_array):
    """trace(S^1), trace(S^2), ... of a symmetric 0/1 int64 CSR matrix.

    trace(S^k) is the Frobenius product <S^a, S^b> with a = ceil(k/2) and
    b = floor(k/2), so only the powers up to ceil(k/2) are built, each
    from the last by S @ P, and an even k is the sum of squares of one
    power's stored values.  Every entry of a power and every partial sum of
    a product is non-negative and at most the trace, so nothing overflows
    while the trace itself fits in int64.
    """
    P, Q = S, sp.eye_array(S.shape[0], dtype=np.int64, format="csr")
    while True:                            # P = S^a, Q = S^(a-1)
        yield int(P.multiply(Q).sum())     # k = 2a - 1
        yield int(np.dot(P.data, P.data))  # k = 2a
        P, Q = S @ P, P


def walk_refutation(Sa, Sb, k_max: int):
    """First k with trace(Sa^k) != trace(Sb^k), or None up to k_max.

    Closed-walk counts are isomorphism invariants, so a differing pair
    proves the two support graphs cannot be related by any renumbering.
    Sa and Sb are symmetric 0/1 matrices, sparse or dense (LatticeError
    for one that is not symmetric); the counts are exact int64 products of
    half-length walks (`_closed_walks`).  k_max is clipped so the counts
    cannot overflow: with D the largest row count of the two, the k-walk
    count is at most D**k * n, so k stops at (63 - log2 n) / log2 D, with
    no clip for D <= 1.
    """
    Sa, Sb = canonical_csr(Sa, np.int64), canonical_csr(Sb, np.int64)
    if not (lattice.is_symmetric(Sa) and lattice.is_symmetric(Sb)):
        raise lattice.LatticeError("closed-walk counts need symmetric supports")
    degree = max(np.diff(S.indptr).max(initial=0) for S in (Sa, Sb))
    if degree > 1:
        k_max = min(k_max, int((63 - np.log2(Sa.shape[0])) // np.log2(degree)))
    for k, ta, tb in zip(range(1, k_max + 1),
                         _closed_walks(Sa), _closed_walks(Sb)):
        if ta != tb:
            return k, ta, tb
    return None


def criterion_block_hankel_structure(M: int = 6) -> CriterionResult:
    """Renumbered lattice: 2x2 block-Hankel, 15 pi blocks, pinned positions."""
    details = []
    A = lattice.expand(lattice.build_torus_supergraph(M))
    result = lattice.renumber_to_block_hankel(A, M)
    short = result.shorthand
    nonzero = short.nonzero_indices()
    roundtrip = result.restore() == A
    all_pi = all(hankel.is_pi_block(short.entries[d]) for d in nonzero)
    s_ref, t_ref = claimed_run_lengths(M)
    ref_positions = lattice.positions_from_run_lengths(M, s_ref, t_ref)
    positions_match = nonzero == ref_positions
    details.append(f"block_hankel=true nonzero_blocks={len(nonzero)} "
                   f"all_pi_proportional={str(all_pi).lower()} "
                   f"roundtrip_exact={str(roundtrip).lower()}")
    details.append(f"claimed_positions(s={s_ref},t={t_ref})={ref_positions}")
    details.append("achieved_positions(s={},t={})={}".format(
        *lattice.constructed_run_lengths(M), nonzero))
    if not positions_match:
        # Both supports are full-block 2x2 layouts, so comparing their
        # block-occupancy graphs is equivalent to comparing the physical
        # supports; closed-walk counts are renumbering invariants.
        cert = walk_refutation(outer_support(result.renumbered),
                               layout_outer_support(M, ref_positions),
                               k_max=2 * M)
        if cert is not None:
            k, ta, tb = cert
            details.append(
                f"claimed positions are unreachable by any renumbering: "
                f"closed-{k}-walk counts differ ({ta} vs {tb}), and walk "
                f"counts are invariant under node renumbering")
        else:
            details.append(
                "no closed-walk certificate separates the layouts at this "
                "size; positions still do not match")
    ok = (len(nonzero) == 15 and all_pi and roundtrip and positions_match)
    return CriterionResult(2, "pinned-pump-layout", ok, details)


def criterion_pump_constancy(M: int = 6) -> CriterionResult:
    """15 pump lines for every size; edge count 32 M**2 (linear in N)."""
    details = []
    ok = True
    rows = hankel.scaling_report([M, M + 2, M + 4])
    for r in rows:
        good = (r.pump_lines == 15 and r.physical_edges == 32 * r.M * r.M)
        ok &= good
        details.append(f"M={r.M} pump_lines={r.pump_lines} "
                       f"physical_edges={r.physical_edges} "
                       f"expected_edges={32 * r.M * r.M} "
                       f"bandwidth_span={r.bandwidth_span}")
    return CriterionResult(3, "pump-constancy", ok, details)


# ---- ODE oracle for the evolution (independent of evolve's matrix path) ----

def _rk4_propagator(F: np.ndarray, t: float, steps: int) -> np.ndarray:
    """Fixed-step RK4 for dS/dt = F S, S(0) = 1."""
    S = np.eye(F.shape[0])
    h = t / steps
    for _ in range(steps):
        k1 = F @ S
        k2 = F @ (S + 0.5 * h * k1)
        k3 = F @ (S + 0.5 * h * k2)
        k4 = F @ (S + h * k3)
        S = S + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return S


_ORACLE_TOL = 1e-12
_ORACLE_SEED = 20240915      # criterion 4's 20 random involutions


def ode_oracle_covariance(A: np.ndarray, r: float):
    """Vacuum covariance after integrating the quadrature equations of motion.

    Integrates dq/dt = 2A q, dp/dt = -2A p with RK4, halving the step until
    two successive propagators agree to _ORACLE_TOL (relative to the matrix
    scale), then returns S (1/2) S^T.
    """
    n = A.shape[0]
    Z = np.zeros((n, n))
    F = np.block([[2.0 * A, Z], [Z, -2.0 * A]])
    steps = 64
    prev = _rk4_propagator(F, r, steps)
    for _ in range(16):
        steps *= 2
        cur = _rk4_propagator(F, r, steps)
        scale = max(1.0, float(np.abs(cur).max()))
        if np.abs(cur - prev).max() <= _ORACLE_TOL * scale:
            return 0.5 * cur @ cur.T, steps
        prev = cur
    raise RuntimeError("ODE oracle did not converge")


def criterion_evolution_oracle() -> CriterionResult:
    """Closed-form evolution vs RK4 oracle, 1e-10, on 24 involutions."""
    rng = np.random.default_rng(_ORACLE_SEED)
    cases = []
    for _ in range(20):
        n = int(rng.integers(2, 7))
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        A = (Q * rng.choice((-1.0, 1.0), size=n)) @ Q.T
        cases.append((0.5 * (A + A.T), float(rng.uniform(0.1, 1.0))))
    X = np.array([[0.0, 1.0], [1.0, 0.0]])
    crown8 = lattice.expand(lattice.build_ring_supergraph(4)).dense()
    cases += [(X, 0.5), (X, 1.0), (X, 2.0), (crown8, 2.0)]
    worst = max(float(np.abs(
        gaussian.evolve(gaussian.EvolutionParams(A), r).cov
        - ode_oracle_covariance(A, r)[0]).max()) for A, r in cases)
    return CriterionResult(4, "evolution-oracle", worst <= 1e-10, [
        f"cases={len(cases)} worst_abs_difference={_fmt(worst)} tol=1e-10"])


def _convention_cases(M: int):
    X = lattice.PhysAdjacency(np.array([[0, 4], [4, 0]]))
    ring = lattice.expand(lattice.build_ring_supergraph(4))
    lat = lattice.expand(lattice.build_torus_supergraph(M))
    return [("two-mode", X), ("ring-4", ring), (f"lattice-M{M}", lat)]


def criterion_nullifier_decay(M: int = 6) -> CriterionResult:
    """Pinned decay exp(-2r)/2 within 1e-6 at r in {0.5, 1, 2}; monotone in r."""
    details = []
    value_ok = True
    monotone_ok = True
    for name, A in _convention_cases(M):
        maxima = []
        for _, conv in gaussian.cluster_states(A, (0.5, 1.0, 2.0)):
            rep = conv.nullifiers
            r = rep.squeeze_r
            claimed = np.exp(-2.0 * r) / 2.0
            err = float(np.abs(rep.variances - claimed).max())
            spread = float(np.ptp(rep.variances))
            value_ok &= err <= 1e-6
            maxima.append(rep.max_variance)
            details.append(
                f"case={name} r={_fmt(r)} max_variance={_fmt(rep.max_variance)} "
                f"claimed={_fmt(claimed)} deviation={_fmt(err)} "
                f"uniform_spread={_fmt(spread)} "
                f"convention=({conv.quarter_turns:+d},{conv.target_sign:+d}A)")
        monotone_ok &= maxima[0] > maxima[1] > maxima[2]
    if not value_ok:
        details.append(
            "pinned value exp(-2r)/2 is inconsistent with the validated "
            "transform cosh(2r)1 + sinh(2r)A: the engine's uniform decay is "
            "exp(-4r) (and equals 1, not 1/2, at r=0)")
    details.append(f"monotone_decrease={str(monotone_ok).lower()}")
    return CriterionResult(5, "nullifier-decay", value_ok and monotone_ok,
                           details)


def criterion_crown_to_ring() -> CriterionResult:
    """Measuring the crown's top layer leaves the bottom ring, better with r."""
    details = []
    residuals = []
    crown = lattice.expand(lattice.build_ring_supergraph(4))
    top = [2 * k for k in range(4)]       # layer-0 node of each macronode
    for _, target, rep in gaussian.measure_and_delete(crown, (1.0, 2.0, 3.0),
                                                      top):
        r = rep.squeeze_r
        residuals.append(rep.max_variance)
        details.append(f"r={_fmt(r)} max_residual=" + gaussian.format_resolved(
            rep.max_variance, rep.max_variance_rounding))
    # |weights| and support of the signed target do not depend on r
    weights = np.abs(target.data)
    uniform_half = bool(weights.size) and bool(np.all(weights == 0.5))
    stats = gaussian.support_graph_stats(target)
    ring_shape = (stats.n_nodes == 4 and stats.n_edges == 4
                  and stats.max_degree == 2 and stats.is_connected)
    decreasing = residuals[0] > residuals[1] > residuals[2]
    details.append(f"ideal_ring_uniform_half={str(uniform_half).lower()} "
                   f"ring_cycle={str(ring_shape).lower()} "
                   f"decreasing={str(decreasing).lower()}")
    ok = uniform_half and ring_shape and decreasing
    return CriterionResult(6, "crown-to-ring", ok, details)


def criterion_layer_reduction(M: int = 6) -> CriterionResult:
    """Measuring three of four layers leaves the uniform-|1/4| lattice."""
    details = []
    residuals, eg_errors = [], []
    A = lattice.expand(lattice.build_torus_supergraph(M))
    measured = [i for i in range(A.n) if i % 4 != 0]
    for reduced, target, rep in gaussian.measure_and_delete(A, (1.0, 2.0),
                                                            measured):
        r = rep.squeeze_r
        eg = gaussian.effective_graph(reduced)
        eg_err = gaussian.effective_graph_error(eg, target)
        residuals.append(rep.max_variance)
        eg_errors.append(eg_err)
        resolved = gaussian.format_resolved
        details.append(
            f"r={_fmt(r)} max_residual="
            f"{resolved(rep.max_variance, rep.max_variance_rounding)} "
            f"effective_graph_error={resolved(eg_err, eg.V_rounding)}")
    weights = np.abs(target.data)
    uniform_quarter = bool(np.all(weights == 0.25))
    stats = gaussian.support_graph_stats(target)
    regular4 = stats.n_nodes == M * M and stats.max_degree == 4 and \
        stats.degree_histogram == {4: M * M}
    decreasing = residuals[0] > residuals[1] and eg_errors[0] > eg_errors[1]
    details.append(f"ideal_uniform_quarter={str(uniform_quarter).lower()} "
                   f"four_regular={str(regular4).lower()} "
                   f"decreasing={str(decreasing).lower()}")
    ok = uniform_quarter and regular4 and decreasing
    return CriterionResult(7, "layer-reduction", ok, details)


def criterion_torus_cut(M: int = 6) -> CriterionResult:
    """Meridian cut: connected remaining patch, degree <= 4, residual improves."""
    details = []
    A = lattice.expand(lattice.build_torus_supergraph(M))
    meridians = (0, 0)
    # ideal path: the cut's graph statistics depend only on the support
    cut = gaussian.reduce_and_cut(A, M, 0, meridians)
    st = cut.graph_stats
    details.append(
        f"ideal nodes={st.n_nodes} expected_patch="
        f"{cut.expected_patch_macronodes} edges={st.n_edges} "
        f"connected={str(st.is_connected).lower()} max_degree={st.max_degree} "
        f"cycle_rank={st.cycle_rank} "
        f"degree_histogram={sorted(st.degree_histogram.items())}")
    residuals = []
    for _, _, rep in gaussian.measure_and_delete(A, (1.0, 2.0),
                                                 cut.measured_nodes):
        residuals.append(rep.max_variance)
        details.append(f"gaussian r={_fmt(rep.squeeze_r)} max_residual="
                       + gaussian.format_resolved(rep.max_variance,
                                                  rep.max_variance_rounding))
    ok = (st.is_connected and st.max_degree <= 4
          and residuals[1] < residuals[0])
    details.append(f"residual_improves={str(residuals[1] < residuals[0]).lower()}")
    return CriterionResult(8, "torus-cut", ok, details)


# ============================================================
# Suite driver
# ============================================================

def check_suite_size(M) -> int:
    """The suite's size rule: M as an int (`lattice.exact_int`) if even
    and >= 6."""
    size = lattice.exact_int(M)
    if size is None or size % 2 or size < 6:
        raise lattice.LatticeError(f"verify suite needs even M >= 6, got {M!r}")
    return size


def run_criteria(M: int = 6) -> list:
    M = check_suite_size(M)
    return [
        criterion_exact_orthogonality(M),
        criterion_block_hankel_structure(M),
        criterion_pump_constancy(M),
        criterion_evolution_oracle(),
        criterion_nullifier_decay(M),
        criterion_crown_to_ring(),
        criterion_layer_reduction(M),
        criterion_torus_cut(M),
    ]


def render_report(results) -> str:
    lines = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        lines.append(f"CRITERION {res.index} {res.name}: {status}")
        for d in res.details:
            lines.append(f"  {d}")
    return "\n".join(lines) + "\n"


def verify_all(M: int = 6):
    """Run the full suite twice; criterion 9 is byte-identical re-run output.

    Returns (results, report_text, all_passed).
    """
    first = run_criteria(M)
    text_first = render_report(first)
    second = run_criteria(M)
    deterministic = render_report(second) == text_first
    det = CriterionResult(9, "deterministic-reports", deterministic,
                          [f"rerun_bytes_identical={str(deterministic).lower()}"])
    results = first + [det]
    report = render_report(results)
    return results, report, all(r.passed for r in results)
