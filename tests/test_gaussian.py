"""Gaussian engine: evolution, conventions, nullifiers, measurement."""

import re

import numpy as np
import pytest
import scipy.sparse as sp

from combcluster import (EffectiveGraph, EvolutionParams, GaussianError,
                         GaussianState, NullifierReport, PhysAdjacency,
                         PrecisionLossError, best_phase_convention, bicoloring,
                         build_torus_supergraph, cluster_state, cluster_states,
                         effective_graph, effective_graph_dump,
                         evolution_symplectic, evolve, expand,
                         ideal_graph_delete, lattice_cut_nodes,
                         measure_and_delete, measure_q, nullifier_records,
                         nullifier_table, nullifier_variances, reduce_and_cut,
                         rotate_color_class, support_graph_stats, vacuum)
from combcluster.verify import ode_oracle_covariance
from conftest import written


def omega(n):
    """Symplectic form in (q.., p..) ordering: [[0, 1], [-1, 0]] blocks."""
    I, Z = np.eye(n), np.zeros((n, n))
    return np.block([[Z, I], [-I, Z]])


def symplectic_eigenvalues(state):
    """Symplectic spectrum (n values, 1/2 each for a pure state).

    The singular values of L^T Omega L come in equal pairs, one pair per
    value; a factor with fewer than 2n columns has fewer, and the missing
    values are 0."""
    L = state.factor.toarray()
    K = L.T @ omega(state.n) @ L
    s = np.zeros(2 * state.n + K.shape[0])
    s[:K.shape[0]] = np.sort(np.linalg.svd(K, compute_uv=False))[::-1]
    return 0.5 * s[:2 * state.n:2]


def uncertainty_defect(state):
    """How far below 1/2 the smallest symplectic eigenvalue falls (>= 0)."""
    return max(0.0, 0.5 - float(symplectic_eigenvalues(state).min()))


def schur_purity_residual(state):
    """Dense oracle of `purity_defect`: the Schur complement of the
    covariance, 2 (cov_pp - cov_pq cov_qq^-1 cov_qp), against
    U = (2 cov_qq)^-1, relative to max|U|."""
    n = state.n
    cov = state.cov
    qq, qp, pp = cov[:n, :n], cov[:n, n:], cov[n:, n:]
    U = np.linalg.inv(2 * qq)
    schur = 2 * (pp - qp.T @ np.linalg.solve(qq, qp))
    return np.abs(schur - U).max() / np.abs(U).max()


def reconstruct_cov(eg):
    """Covariance of the complex graph Z = V + iU: cov_qq = U^-1 / 2,
    cov_qp = U^-1 V / 2, cov_pp = (U + V U^-1 V) / 2."""
    V, U = eg.V.toarray(), eg.U.toarray()
    Uinv = np.linalg.inv(U)
    qq = 0.5 * Uinv
    qp = 0.5 * (Uinv @ V)
    pp = 0.5 * (U + V @ Uinv @ V)
    return np.block([[qq, qp], [qp.T, pp]])


def colors_of(A):
    return bicoloring(PhysAdjacency(np.asarray(np.round(A * 4), dtype=np.int64)))


def same_csr(X, Y):
    """Bit-identical CSR arrays: shape, structure and values."""
    return X.shape == Y.shape and all(
        np.array_equal(a, b) for a, b in
        ((X.indptr, Y.indptr), (X.indices, Y.indices), (X.data, Y.data)))


def optimal_rotation(A, r):
    state = evolve(EvolutionParams(A), r)
    colors = colors_of(A)
    conv = best_phase_convention(state, colors, A)
    return rotate_color_class(state, colors, +1), conv


# ============================================================
# Vacuum and evolution
# ============================================================

def test_vacuum_convention():
    st = vacuum(2)
    assert np.array_equal(st.cov, 0.5 * np.eye(4))
    assert np.array_equal(st.mean, np.zeros(4))
    assert st.purity_defect() < 1e-12
    assert uncertainty_defect(st) < 1e-12


def test_vacuum_requires_positive_n():
    with pytest.raises(GaussianError):
        vacuum(0)


def test_vacuum_nullifiers_against_zero_target():
    rep = nullifier_variances(vacuum(2), np.zeros((2, 2)))
    assert np.allclose(rep.variances, 0.5)


def test_evolve_r_zero_is_vacuum(two_mode):
    st = evolve(EvolutionParams(two_mode), 0.0)
    assert np.allclose(st.cov, 0.5 * np.eye(4), atol=1e-15)


def test_evolve_rejects_asymmetric():
    with pytest.raises(GaussianError, match="adjacency must be symmetric"):
        EvolutionParams(np.array([[0.0, 1.0], [0.0, 0.0]]))
    params = EvolutionParams(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(GaussianError, match=re.escape(
            "squeeze_r must be >= 0, got -0.5")):
        evolve(params, -0.5)
    with pytest.raises(GaussianError, match=re.escape(
            "squeeze_r=177.62 overflows cosh(4r) in float64 "
            "(largest allowed r is 177.6")):
        evolve(params, 177.62)


def old_oracle_case():
    """A symmetric matrix of spectral radius 0.5, as the evolution oracle
    drew them when it also evolved non-involutions."""
    A = np.random.default_rng(20240915).uniform(-1.0, 1.0, size=(4, 4))
    A = 0.5 * (A + A.T)
    np.fill_diagonal(A, 0.0)
    return A * (0.5 / abs(np.linalg.eigvalsh(A)).max())


@pytest.mark.parametrize("A", [np.array([[0.0, 0.5], [0.5, 0.0]]),
                               old_oracle_case()])
def test_evolution_params_refuse_a_non_involution(A):
    residual = abs(A @ A - np.eye(len(A))).max()
    assert residual > 0.1
    with pytest.raises(GaussianError, match=re.escape(
            f"max|A @ A - 1| = {residual:.3g} > 1e-12")):
        EvolutionParams(A)


def test_evolution_params_accept_an_involution_with_a_diagonal():
    # a Householder reflection 1 - 2 v v^T, v = (1, 1, 1, 1)/2: exact in
    # binary, with 1/2 on its diagonal
    H = np.eye(4) - 0.5 * np.ones((4, 4))
    S = evolution_symplectic(EvolutionParams(H), 0.6).toarray()
    ch, sh = np.cosh(1.2), np.sinh(1.2)
    assert np.array_equal(S[:4, :4], ch * np.eye(4) + sh * H)
    assert np.array_equal(S[4:, 4:], ch * np.eye(4) - sh * H)
    V_ode, _ = ode_oracle_covariance(H, 0.6)
    assert np.allclose(evolve(EvolutionParams(H), 0.6).cov, V_ode, atol=1e-10)


def test_evolution_symplectic_is_the_closed_form(two_mode):
    S = evolution_symplectic(EvolutionParams(two_mode), 0.7).toarray()
    ch, sh = np.cosh(1.4), np.sinh(1.4)
    expected_q = ch * np.eye(2) + sh * two_mode
    assert np.allclose(S[:2, :2], expected_q, atol=1e-14)
    assert np.allclose(S[2:, 2:], np.linalg.inv(expected_q), atol=1e-12)


def test_evolve_matches_ode_oracle(two_mode):
    st = evolve(EvolutionParams(two_mode), 0.5)
    V_ode, steps = ode_oracle_covariance(two_mode, 0.5)
    assert steps >= 128
    assert np.abs(st.cov - V_ode).max() < 1e-10


def test_two_mode_squeezed_quadratures(two_mode):
    # normalized sum/difference quadratures: product of variances is 1/4
    for r in (0.5, 1.0, 2.0):
        st = evolve(EvolutionParams(two_mode), r)
        u = np.array([1.0, -1.0, 0.0, 0.0]) / np.sqrt(2)
        w = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2)
        vm = u @ st.cov @ u
        vp = w @ st.cov @ w
        tol = 200 * np.finfo(float).eps * np.exp(8 * r)
        assert abs(vm - np.exp(-4 * r) / 2) < max(tol / np.exp(4 * r), 1e-12)
        assert abs(vm * vp - 0.25) < max(tol, 1e-12)


def test_evolution_purity_and_uncertainty(lattice6):
    for r in (0.5, 1.0, 2.0):
        st = evolve(EvolutionParams(lattice6.dense()), r)
        assert st.purity_defect() < 1e-9
        assert uncertainty_defect(st) < 1e-9


def svd_purity_defect(state):
    """|det(2 cov) - 1| through the symplectic spectrum: det(2 cov) is the
    squared product of the doubled symplectic values."""
    with np.errstate(divide="ignore"):
        log_det = 2.0 * np.sum(np.log(2.0 * symplectic_eigenvalues(state)))
    return abs(np.expm1(log_det))


def test_purity_defect_is_the_schur_residual(lattice6):
    # pure states have a zero Schur residual and the symplectic spectrum
    # 1/2; mixed ones have the dense covariance's residual and a spectrum
    # that says so too
    rng = np.random.default_rng(11)
    evolved = evolve(EvolutionParams(lattice6), 1.0)
    rotated = cluster_state(lattice6, 2.0).state
    measured = [i for i in range(lattice6.n) if i % 4]
    # a wider factor: the evolved one times 2n orthonormal rows
    rows = np.linalg.qr(rng.normal(size=(2 * lattice6.n + 9,
                                          2 * lattice6.n)))[0].T
    pure = [vacuum(3), evolved, rotated,
            measure_q(rotated, measured, rng.normal(size=len(measured))),
            GaussianState(evolved.mean, evolved.factor @ rows)]
    mixed = [GaussianState(np.zeros(4), rng.normal(size=(4, 4))),
             GaussianState(np.zeros(4), rng.normal(size=(4, 7)))]
    for st in pure:
        assert st.purity_defect() <= 1e-9
        assert svd_purity_defect(st) <= 1e-9
    for st in mixed:
        assert st.purity_defect() == pytest.approx(schur_purity_residual(st),
                                                   rel=1e-10)
        assert st.purity_defect() > 1e-3 and svd_purity_defect(st) > 1e-3


def test_singular_q_rows_are_not_pure():
    # a zero q row: cov_qq is singular, which no pure state's is
    st = GaussianState(np.zeros(4), np.diag([1.0, 0.0, 1.0, 1.0]))
    assert st.purity_defect() == np.inf
    with pytest.raises(GaussianError, match="purity defect inf"):
        effective_graph(st)


def test_narrow_factor_has_zero_symplectic_values():
    # a 6 x 4 factor has rank 4 < 2n: its covariance is singular
    st = GaussianState(np.zeros(6), np.random.default_rng(5).normal(size=(6, 4)))
    nus = symplectic_eigenvalues(st)
    assert nus.shape == (3,) and nus[-1] == 0.0
    assert uncertainty_defect(st) == 0.5
    assert st.purity_defect() == pytest.approx(schur_purity_residual(st),
                                               rel=1e-10)


# ============================================================
# Rotation and phase convention
# ============================================================

def test_rotation_inverse_pair(two_mode):
    st = evolve(EvolutionParams(two_mode), 0.8)
    colors = colors_of(two_mode)
    once = rotate_color_class(st, colors, +1)
    back = rotate_color_class(once, colors, -1)
    assert np.allclose(back.cov, st.cov, atol=1e-14)
    assert np.allclose(back.mean, st.mean, atol=1e-14)


def test_rotation_preserves_vacuum():
    st = vacuum(2)
    rot = rotate_color_class(st, np.array([0, 1]), +1)
    assert np.allclose(rot.cov, st.cov, atol=1e-15)


def dense_rotation(state, colors, turns):
    """The block-matrix form [[P0, t P1], [-t P1, P0]] applied by product."""
    P0 = np.diag((colors == 0).astype(float))
    P1 = np.diag((colors == 1).astype(float))
    S = np.block([[P0, turns * P1], [-turns * P1, P0]])
    return S @ state.mean, S @ state.factor.toarray()


def bit_identical(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def test_rotation_row_swap_is_bit_identical_to_block_product():
    from combcluster import build_torus_supergraph, expand
    lat6 = expand(build_torus_supergraph(6))
    lat10 = expand(build_torus_supergraph(10))
    cases = []
    for A, r in ((lat10, 1.0), (lat10, 2.0)):
        cases.append((evolve(EvolutionParams(A.dense()), r),
                      bicoloring(A)))
    # a measured state: reduced modes and a nonzero mean
    rotated = cluster_state(lat6, 1.0).state
    kept = [i for i in range(lat6.n) if i % 4 == 0]
    measured = [i for i in range(lat6.n) if i % 4]
    outcomes = np.random.default_rng(3).normal(size=len(measured))
    cases.append((measure_q(rotated, measured, outcomes),
                  bicoloring(lat6)[kept]))
    for state, colors in cases:
        for turns in (+1, -1):
            got = rotate_color_class(state, colors, turns)
            mean, factor = dense_rotation(state, colors, turns)
            assert bit_identical(got.mean, mean)
            assert bit_identical(got.factor.toarray(), factor)


def test_rotation_validates_input(two_mode):
    st = evolve(EvolutionParams(two_mode), 0.1)
    with pytest.raises(GaussianError):
        rotate_color_class(st, np.array([0, 1]), 2)
    with pytest.raises(GaussianError):
        rotate_color_class(st, np.array([0, 1, 0]), 1)


def test_two_mode_nullifier_decay_from_validated_transform(two_mode):
    # decay computed from the transform cosh(2r)1 + sinh(2r)A: the optimal
    # convention gives uniform variance exp(-4r); frozen at r = 1
    rotated, conv = optimal_rotation(two_mode, 1.0)
    rep = nullifier_variances(rotated, conv.nullifiers.target_adjacency)
    assert np.allclose(rep.variances, np.exp(-4.0), atol=1e-12)
    assert rep.max_variance == pytest.approx(0.018315638888734, abs=1e-12)
    assert conv.target_sign == -1


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_uniform_decay_two_mode_ring_lattice(r, two_mode, crown8, lattice6):
    for A in (two_mode, crown8.dense(), lattice6.dense()):
        rotated, conv = optimal_rotation(A, r)
        rep = nullifier_variances(rotated, conv.nullifiers.target_adjacency)
        assert np.allclose(rep.variances, np.exp(-4 * r), atol=1e-9)


def test_best_phase_convention_vacuum_tie_break(two_mode):
    st = evolve(EvolutionParams(two_mode), 0.0)
    conv = best_phase_convention(st, colors_of(two_mode), two_mode)
    # at r = 0 both signs give variance 1 (1/2 from p, 1/2 from the
    # unit-norm target row acting on vacuum q); tie-break picks +A
    assert all(v == pytest.approx(1.0, abs=1e-14)
               for v in conv.survey.values())
    assert conv.target_sign == +1


def test_best_phase_convention_survey_structure(two_mode):
    st = evolve(EvolutionParams(two_mode), 1.0)
    conv = best_phase_convention(st, colors_of(two_mode), two_mode)
    assert set(conv.survey) == {1, -1}
    assert conv.survey[-1] == pytest.approx(np.exp(-4.0), abs=1e-12)
    assert conv.survey[+1] == pytest.approx(np.exp(4.0), rel=1e-10)
    assert conv.nullifiers.max_variance == conv.survey[-1]


@pytest.mark.parametrize("r", [0.0, 0.3, 1.0, 2.0, 3.3])
def test_best_phase_convention_survey_matches_all_four_candidates(r, crown8,
                                                                  lattice6):
    # the search rotates once, +1; the -1 turn's report against each sign
    # equals the +1 turn's against the opposite sign, bit for bit, so the
    # survey holds the +1 turn's two signs and no turn is reported
    for A in (crown8, lattice6):
        dense = A.dense()
        colors = bicoloring(A)
        state = evolve(EvolutionParams(dense), r)
        conv = best_phase_convention(state, colors, dense)
        brute = {}
        for turns in (+1, -1):
            rotated = rotate_color_class(state, colors, turns)
            for sign in (+1, -1):
                brute[(turns, sign)] = nullifier_variances(rotated, sign * dense)
        for sign in (+1, -1):
            mirror, rep = brute[(-1, -sign)], brute[(+1, sign)]
            assert np.array_equal(mirror.variances, rep.variances)
            assert mirror.max_variance == rep.max_variance
            assert mirror.max_variance_rounding == rep.max_variance_rounding
        assert conv.survey == {sign: brute[(+1, sign)].max_variance
                               for sign in (+1, -1)}
        assert np.array_equal(conv.nullifiers.variances,
                              brute[(+1, conv.target_sign)].variances)


@pytest.mark.parametrize("r", [0.0, 1.0, 3.3, 5.0])
def test_negated_report_equals_a_separate_pass(r, lattice6):
    # the -T report shares T L_q and the rounding bound with the +T one,
    # and must equal its own pass bit for bit, refusals included
    T = lattice6.dense()
    rotated = rotate_color_class(evolve(EvolutionParams(T), r),
                                 bicoloring(lattice6), +1)
    try:
        ref = [nullifier_variances(rotated, sign * T, squeeze_r=r)
               for sign in (+1, -1)]
    except PrecisionLossError as err:
        with pytest.raises(PrecisionLossError, match=re.escape(str(err))):
            nullifier_variances(rotated, T, return_negated=True)
        return
    pair = nullifier_variances(rotated, T, squeeze_r=r, return_negated=True)
    for rep, want in zip(pair, ref):
        assert np.array_equal(rep.variances, want.variances)
        assert rep.max_variance == want.max_variance
        assert rep.target_hash == want.target_hash
        assert rep.squeeze_r == r


def test_best_phase_convention_refuses_edge_inside_color_class(two_mode):
    st = evolve(EvolutionParams(two_mode), 1.0)
    with pytest.raises(GaussianError, match="inside a color class"):
        best_phase_convention(st, np.array([0, 0]), two_mode)


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_cluster_state_matches_hand_composition(r, two_mode, crown8, lattice6):
    # cluster_state is evolve -> best_phase_convention -> rotate_color_class,
    # and its report equals a fresh nullifier pass, bit for bit
    for A in (PhysAdjacency(np.round(4 * two_mode)), crown8, lattice6):
        conv = cluster_state(A, r)
        rotated = conv.state
        ref_state, ref_conv = optimal_rotation(A.dense(), r)
        ref = nullifier_variances(ref_state, ref_conv.nullifiers.target_adjacency)
        assert np.array_equal(rotated.cov, ref_state.cov)
        assert np.array_equal(rotated.mean, ref_state.mean)
        assert conv.target_sign == ref_conv.target_sign
        assert np.array_equal(conv.nullifiers.variances, ref.variances)
        assert same_csr(conv.nullifiers.target_adjacency, ref.target_adjacency)
        assert conv.nullifiers.max_variance == ref.max_variance
        assert conv.nullifiers.squeeze_r == r


def test_cluster_state_rotates_once(monkeypatch, lattice6):
    # the convention search's rotated state is the one cluster_state returns
    import combcluster.gaussian as gaussian
    calls = []
    rotate = gaussian.rotate_color_class

    def counting_rotate(*args, **kwargs):
        calls.append(rotate(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(gaussian, "rotate_color_class", counting_rotate)
    for r in (0.0, 1.0):
        calls.clear()
        conv = cluster_state(lattice6, r)
        assert len(calls) == 1
        assert calls[0] is conv.state


def test_cluster_states_bicolor_and_check_orthogonality_once(monkeypatch,
                                                              lattice6):
    # what depends on A alone runs once for all r (one, three or four of
    # them), and each state equals a separate cluster_state call, bit for bit
    import combcluster.gaussian as gaussian
    runs = [(1.0,), (0.5, 1.0, 2.0), (0.0, 0.5, 1.0, 2.0)]
    want = {r: cluster_state(lattice6, r) for r in (0.0, 0.5, 1.0, 2.0)}
    calls = []
    for owner, name in ((gaussian.lattice, "bicoloring"),
                        (gaussian, "_involution_residual")):
        def counting(*args, _fn=getattr(owner, name), _name=name):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(owner, name, counting)
    for rs in runs:
        calls.clear()
        got = list(cluster_states(lattice6, rs))
        assert sorted(calls) == ["_involution_residual", "bicoloring"]
        assert len(got) == len(rs)
        for conv, r in zip(got, rs):
            ref_conv = want[r]
            assert same_csr(conv.state.factor, ref_conv.state.factor)
            assert np.array_equal(conv.nullifiers.variances,
                                  ref_conv.nullifiers.variances)
            assert conv.nullifiers.squeeze_r == r


def test_lattice_variance_shrinks_with_r(lattice6):
    dense = lattice6.dense()
    m1 = optimal_rotation(dense, 1.0)
    m2 = optimal_rotation(dense, 2.0)
    v1 = nullifier_variances(m1[0], m1[1].nullifiers.target_adjacency).max_variance
    v2 = nullifier_variances(m2[0], m2[1].nullifiers.target_adjacency).max_variance
    assert v2 < v1 < 0.5


# ============================================================
# Nullifier reports
# ============================================================

def test_nullifier_dimension_mismatch():
    with pytest.raises(GaussianError):
        nullifier_variances(vacuum(2), np.zeros((3, 3)))


def test_nullifier_permutation_invariance(crown8):
    A = crown8.dense()
    rotated, conv = optimal_rotation(A, 0.7)
    target = conv.nullifiers.target_adjacency
    rep = nullifier_variances(rotated, target)
    rng = np.random.default_rng(3)
    perm = rng.permutation(8)
    P2 = np.concatenate([perm, 8 + perm])
    from combcluster import GaussianState
    st_p = GaussianState(rotated.mean[P2], rotated.factor[P2])
    rep_p = nullifier_variances(st_p, target[np.ix_(perm, perm)])
    assert np.allclose(rep_p.variances, rep.variances[perm], atol=1e-12)


def test_nullifier_report_exports(two_mode):
    rotated, conv = optimal_rotation(two_mode, 1.0)
    rep = nullifier_variances(rotated, conv.nullifiers.target_adjacency,
                              squeeze_r=1.0)
    table = written(nullifier_table, rep)
    records = written(nullifier_records, rep)
    assert table.splitlines()[-1].startswith("r=1 max=")
    assert records.splitlines()[0].startswith("node=0 variance=")
    assert len(rep.target_hash) == 12


def test_target_hash_digests_the_canonical_csr_target(crown8):
    # dense, int32-index and int64-index copies of one target digest alike;
    # the sign and the shape of the target change the digest
    rotated = cluster_state(crown8, 1.0).state
    dense = crown8.dense()
    int32 = sp.csr_array(dense)
    int64 = int32.copy()
    int64.indptr, int64.indices = (int32.indptr.astype(np.int64),
                                   int32.indices.astype(np.int64))
    assert (int32.indices.dtype, int64.indices.dtype) == (np.int32, np.int64)
    hashes = {nullifier_variances(rotated, T).target_hash
              for T in (dense, int32, int64)}
    assert len(hashes) == 1
    assert nullifier_variances(rotated, -dense).target_hash not in hashes
    padded = NullifierReport(sp.csr_array(np.pad(dense, (0, 1))),
                             np.zeros(9), 0.0)
    assert padded.target_hash not in hashes


FORMAT_VALUES = np.array([-0.0, 0.0, 1e-300, 1e300, -1e300, 5e-324, 3.0,
                          -7.0, 1e12, 1e15, 1 / 3, -2 / 3, 0.1, np.pi,
                          np.nan, np.inf, -np.inf])


def test_formats_match_per_value_fstrings():
    # row-at-a-time %-formatting gives the bytes of one f-string per value
    rng = np.random.default_rng(5)
    values = np.concatenate([FORMAT_VALUES, rng.normal(size=64)
                             * 10.0 ** rng.integers(-300, 300, size=64)])
    square = values[:81].reshape(9, 9)
    eg = EffectiveGraph(V=sp.csr_array(square), U=sp.csr_array(-square.T),
                        V_rounding=0.0)
    expected = []
    for name, mat in (("V", eg.V.toarray()), ("U", eg.U.toarray())):
        expected.append(f"{name} n={mat.shape[0]}")
        expected.extend(" ".join(f"{v:.12g}" for v in row) for row in mat)
    assert written(effective_graph_dump, eg) == "\n".join(expected) + "\n"
    rep = NullifierReport(sp.csr_array((2, 2)), values, 1.0, squeeze_r=0.5)
    summary = f"max=1 target={rep.target_hash}"
    assert written(nullifier_table, rep) == "".join(
        f"{i} {v:.12g}\n" for i, v in enumerate(values)) + f"r=0.5 {summary}\n"
    assert written(nullifier_records, rep) == "".join(
        f"node={i} variance={v:.12g}\n" for i, v in enumerate(values)
    ) + f"summary r=0.5 {summary}\n"


# ============================================================
# Measurement
# ============================================================

def test_measure_vacuum_mode_leaves_vacuum():
    st = vacuum(2)
    red = measure_q(st, [0])
    assert red.n == 1
    assert np.allclose(red.cov, 0.5 * np.eye(2), atol=1e-14)


def test_measure_everything_gives_empty_state(two_mode):
    st = evolve(EvolutionParams(two_mode), 1.0)
    red = measure_q(st, [0, 1])
    assert red.n == 0
    assert red.cov.shape == (0, 0)
    assert red.purity_defect() == 0.0
    eg = effective_graph(red)
    assert eg.V.shape == eg.U.shape == (0, 0) and eg.V_rounding == 0.0


def test_measure_order_independence(crown8):
    rotated, _ = optimal_rotation(crown8.dense(), 1.5)
    joint = measure_q(rotated, [0, 2, 4, 6])
    seq = rotated
    for node, already in zip((0, 2, 4, 6), (0, 1, 2, 3)):
        seq = measure_q(seq, [node - already])
    assert np.abs(joint.cov - seq.cov).max() < 1e-12
    rev = rotated
    for node in (6, 4, 2, 0):
        rev = measure_q(rev, [node])
    assert np.abs(joint.cov - rev.cov).max() < 1e-12


def test_measure_purity_preserved(lattice6):
    rotated, _ = optimal_rotation(lattice6.dense(), 2.0)
    red = measure_q(rotated, [i for i in range(144) if i % 4 != 0])
    assert red.n == 36
    assert red.purity_defect() < 1e-9
    assert uncertainty_defect(red) < 1e-9


def test_measure_outcomes_shift_means_only(two_mode):
    st = evolve(EvolutionParams(two_mode), 1.0)
    red0 = measure_q(st, [0])
    red1 = measure_q(st, [0], outcomes=[1.7])
    assert np.array_equal(red0.cov, red1.cov)
    assert not np.allclose(red0.mean, red1.mean)


def test_measure_unsorted_nodes_pair_outcomes_correctly(crown8):
    rotated, _ = optimal_rotation(crown8.dense(), 1.0)
    a = measure_q(rotated, [5, 1], outcomes=[0.3, -0.8])
    b = measure_q(rotated, [1, 5], outcomes=[-0.8, 0.3])
    assert np.allclose(a.mean, b.mean, atol=1e-14)
    assert np.array_equal(a.cov, b.cov)


def test_measure_validates_nodes(two_mode):
    # lists and numpy int arrays alike; the error names the offending node
    st = evolve(EvolutionParams(two_mode), 1.0)
    with pytest.raises(GaussianError, match="nonempty"):
        measure_q(st, [])
    for bad, message in (([0, 0], "node 0 is given more than once"),
                         ([2], "node 2 is out of range for n=2"),
                         ([-1], "node -1 is out of range for n=2"),
                         (np.array([1, 0, 1]), "node 1 is given more than"),
                         (np.array([0, 7]), "node 7 is out of range for n=2"),
                         (np.array([-3, 1]), "node -3 is out of range"),
                         ([0.5], "node 0.5 is not an integer"),
                         (np.array([0, 1.7]), "node 1.7 is not an integer"),
                         ([np.nan], "node nan is not an integer"),
                         ([True, False], "not a boolean mask"),
                         (np.array([False, True]), "not a boolean mask")):
        for reduce in (measure_q, ideal_graph_delete):
            with pytest.raises(GaussianError, match=message):
                reduce(st if reduce is measure_q else two_mode, bad)
    # integral floats name their mode exactly
    assert ideal_graph_delete(two_mode, [1.0]).shape == (1, 1)
    assert np.array_equal(measure_q(st, np.array([1.0])).factor.toarray(),
                          measure_q(st, [1]).factor.toarray())


def test_node_sets_are_one_index_or_a_flat_list(crown8):
    # a scalar is one node, with a scalar outcome; a nested list is refused
    # by name, where numpy's broadcast ValueError or an IndexError escaped
    rotated, _ = optimal_rotation(crown8.dense(), 1.0)
    one, listed = measure_q(rotated, 3, outcomes=0.5), \
        measure_q(rotated, [3], outcomes=[0.5])
    assert np.array_equal(one.mean, listed.mean)
    assert same_csr(one.factor, listed.factor)
    assert same_csr(ideal_graph_delete(crown8, 3),
                    ideal_graph_delete(crown8, [3]))
    with pytest.raises(GaussianError, match=r"got shape \(2, 2\)"):
        measure_q(rotated, [[0, 2], [4, 6]], outcomes=[[.1, .2], [.3, .4]])
    with pytest.raises(GaussianError, match="outcomes must match"):
        measure_q(rotated, [0, 2, 4, 6], outcomes=[[.1, .2], [.3, .4]])
    with pytest.raises(GaussianError, match="outcomes must match"):
        measure_q(rotated, 3, outcomes=[0.5, 0.5])


def schur_conditioning(state, nodes, outcomes):
    """Covariance conditioning V_rr - V_ry V_yy^-1 V_yr on measured q rows y."""
    n = state.n
    keep = [i for i in range(n) if i not in set(nodes)]
    rest = keep + [n + i for i in keep]
    V = state.cov
    Vyr = V[np.ix_(nodes, rest)]
    gain = np.linalg.solve(V[np.ix_(nodes, nodes)], Vyr).T
    cov = V[np.ix_(rest, rest)] - gain @ Vyr
    return cov, state.mean[rest] + gain @ (outcomes - state.mean[nodes])


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 3.0])
def test_measure_matches_covariance_schur_complement(r, crown8, lattice6):
    # the factor projection agrees with the covariance Schur complement
    rng = np.random.default_rng(int(100 * r))
    for A in (crown8, lattice6):
        rotated = cluster_state(A, r).state
        for _ in range(3):
            k = int(rng.integers(1, A.n))
            nodes = sorted(int(v) for v in rng.choice(A.n, size=k, replace=False))
            outcomes = rng.normal(size=k)
            red = measure_q(rotated, nodes, outcomes=outcomes)
            cov, mean = schur_conditioning(rotated, nodes, outcomes)
            assert np.abs(red.cov - cov).max() / np.abs(cov).max() <= 1e-12
            assert np.abs(red.mean - mean).max() / np.abs(mean).max() <= 1e-12
            assert red.purity_defect() <= 1e-9


def svd_projection_conditioning(state, nodes, outcomes):
    """Reference conditioning by two SVDs: a full SVD of the measured rows
    L_y for their null space, a second SVD of the projected kept rows, and
    the gain from the normal equations (L_y L_y^T) G^T = L_y L_r^T."""
    n = state.n
    keep = np.setdiff1d(np.arange(n), nodes)
    rest = np.concatenate([keep, n + keep])
    L = state.factor.toarray()
    Ly, Lr = L[nodes], L[rest]
    gain = np.linalg.solve(Ly @ Ly.T, Ly @ Lr.T).T
    mean = state.mean[rest] + gain @ (outcomes - state.mean[nodes])
    _, _, vt = np.linalg.svd(Ly, full_matrices=True)
    u, s, _ = np.linalg.svd(Lr @ vt[len(nodes):].T, full_matrices=False)
    return 0.5 * (u * s) @ (u * s).T, mean


def measurement_cases(name, crown8, lattice6):
    """(cluster-state adjacency, measured node set) for each named case."""
    if name == "crown-8":
        return crown8, [0, 2, 4, 6]
    if name == "lattice-6":
        return lattice6, [i for i in range(lattice6.n) if i % 4]
    return expand(build_torus_supergraph(10)), lattice_cut_nodes(10, 2, (3, 1))[0]


def relative_gap(x, reference):
    return np.abs(x - reference).max() / np.abs(reference).max()


def mean_tolerance(state, nodes):
    """1e-12, or the cond(L_y L_y^T) eps to which a conditional mean is
    determined when the measured rows are ill conditioned."""
    Ly = state.factor.toarray()[nodes]
    return max(1e-12, 100 * np.linalg.cond(Ly @ Ly.T) * np.finfo(float).eps)


def states_of(A, r):
    """The cluster state, whose measured q rows are orthogonal, and the
    evolved state before its quarter turn, whose q rows are coupled."""
    return cluster_state(A, r).state, evolve(EvolutionParams(A.dense()), r)


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 3.0])
@pytest.mark.parametrize("case", ["crown-8", "lattice-6", "M10-cut"])
def test_measure_matches_svd_projection_oracle(case, r, crown8, lattice6):
    A, nodes = measurement_cases(case, crown8, lattice6)
    outcomes = np.random.default_rng(len(nodes)).normal(size=len(nodes))
    m = A.n - len(nodes)
    for state in states_of(A, r):
        red = measure_q(state, nodes, outcomes=outcomes)
        cov, mean = svd_projection_conditioning(state, nodes, outcomes)
        assert red.n == m
        assert relative_gap(red.cov, cov) <= 1e-12
        assert relative_gap(red.mean, mean) <= mean_tolerance(state, nodes)


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 3.0])
@pytest.mark.parametrize("case", ["crown-8", "lattice-6", "M10-cut"])
def test_measure_in_two_steps_equals_one(case, r, crown8, lattice6):
    # measuring A, then B in the reduced state, equals measuring A and B at once
    A, nodes = measurement_cases(case, crown8, lattice6)
    rng = np.random.default_rng(len(nodes))
    outcomes = rng.normal(size=len(nodes))
    first = rng.random(len(nodes)) < 0.5
    a, b = np.asarray(nodes)[first], np.asarray(nodes)[~first]
    b_after_a = b - np.searchsorted(a, b)       # indices among a's kept modes
    m = A.n - len(nodes)
    for state in states_of(A, r):
        steps = measure_q(measure_q(state, a, outcomes[first]),
                          b_after_a, outcomes[~first])
        joint = measure_q(state, nodes, outcomes)
        assert steps.n == joint.n == m
        assert relative_gap(steps.cov, joint.cov) <= 1e-12
        assert relative_gap(steps.mean, joint.mean) <= mean_tolerance(state, nodes)


def test_crown_reduction_residual_decreases(crown8):
    residuals = [rep.max_variance for _, rep in
                 measure_and_delete(crown8, (1.0, 2.0, 3.0), [0, 2, 4, 6])]
    assert residuals[0] > residuals[1] > residuals[2]


# ============================================================
# Ideal deletion
# ============================================================

def test_ideal_delete_crown_leaves_half_ring(crown8):
    ring = ideal_graph_delete(crown8.dense(), [0, 2, 4, 6])
    w = ring[ring != 0]
    assert np.all(np.abs(w) == 0.5)
    stats = support_graph_stats(ring)
    assert (stats.n_nodes, stats.n_edges, stats.max_degree) == (4, 4, 2)
    assert stats.is_connected


def test_ideal_delete_lattice_leaves_quarter_lattice(lattice6):
    kept_layer = 0
    deleted = ideal_graph_delete(
        lattice6.dense(), [i for i in range(144) if i % 4 != kept_layer])
    w = deleted[deleted != 0]
    assert np.all(np.abs(w) == 0.25)
    stats = support_graph_stats(deleted)
    assert stats.n_nodes == 36
    assert stats.degree_histogram == {4: 36}


def test_support_graph_stats_counts_components():
    # a 4-cycle, a triangle and an isolated node: three components,
    # cycle rank 7 edges - 8 nodes + 3 components = 2
    A = np.zeros((8, 8))
    for i, j in ((0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 4)):
        A[i, j] = A[j, i] = 1.0
    stats = support_graph_stats(A)
    assert (stats.n_nodes, stats.n_edges, stats.max_degree) == (8, 7, 2)
    assert stats.n_components == 3
    assert not stats.is_connected
    assert stats.cycle_rank == 2
    assert stats.degree_histogram == {0: 1, 2: 7}


def test_support_graph_stats_refuses_a_directed_support():
    # its out-degrees and the components of its symmetrised pattern
    # disagree: one edge counted, n_edges 0 and cycle rank -1
    with pytest.raises(GaussianError, match="symmetric"):
        support_graph_stats(np.array([[0.0, 1], [0, 0]]))


def test_ideal_delete_nothing_is_identity(crown8):
    out = ideal_graph_delete(crown8.dense(), [])
    assert same_csr(out, sp.csr_array(crown8.dense()))


# ============================================================
# Effective graph
# ============================================================

def test_effective_graph_of_vacuum():
    eg = effective_graph(vacuum(3))
    assert eg.V.nnz == 0
    assert same_csr(eg.U, sp.eye_array(3, format="csr"))


def test_effective_graph_converges_to_signed_target(two_mode):
    # At r = 5 float64 cannot resolve the nullifier variances to 1e-6, so
    # the convention search refuses; the +1 turn pairs with -A at every
    # r > 0 (pinned at r = 1 by the decay test above).
    state = evolve(EvolutionParams(two_mode), 5.0)
    rotated = rotate_color_class(state, colors_of(two_mode), +1)
    eg = effective_graph(rotated)
    assert np.abs(eg.V.toarray() - -two_mode).max() < 1e-3
    assert abs(eg.U).max() < 1e-3


def test_effective_graph_reconstruction(crown8):
    rotated, _ = optimal_rotation(crown8.dense(), 1.2)
    eg = effective_graph(rotated)
    rebuilt = reconstruct_cov(eg)
    scale = max(1.0, np.abs(rotated.cov).max())
    assert np.abs(rebuilt - rotated.cov).max() / scale < 1e-9


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("M, keep_layer, meridians", [(6, 0, (0, 0)),
                                                      (10, 2, (3, 1))])
def test_cut_effective_graph_is_the_closed_form(M, keep_layer, meridians, r):
    # the cluster state's complex graph is tanh(4r) T + i sech(4r) 1, and a
    # q measurement deletes nodes from it (Menicucci, Flammia & van Loock,
    # arXiv:1007.0725): V within its rounding bound, U = 1/|L_q|^2 within
    # the rounding of the row's (k+1)-term sum of squares and its inverse
    A = expand(build_torus_supergraph(M))
    cut = reduce_and_cut(A, M, keep_layer, meridians)
    remaining = ideal_graph_delete(A, cut.measured_nodes)
    (reduced, rep), = measure_and_delete(A, [r], cut.measured_nodes)
    T = rep.target_adjacency
    assert (abs(T) != abs(remaining)).nnz == 0   # the ideal cut, signed
    eg = effective_graph(reduced)
    assert 0 < eg.V_rounding <= 1e-14
    assert abs(eg.V - np.tanh(4 * r) * T).max() <= eg.V_rounding
    k = np.diff(reduced.factor.indptr).max()
    sech = 1 / np.cosh(4 * r)
    assert abs(eg.U - sech * sp.eye_array(T.shape[0])).max() <= \
        (k + 2) * np.finfo(float).eps * sech


def test_effective_graph_rejects_mixed_state():
    from combcluster import GaussianState
    mixed = GaussianState(np.zeros(2), 2.0 * np.eye(2))
    with pytest.raises(GaussianError):
        effective_graph(mixed)


def test_reduced_effective_graph_converges(crown8):
    errors = [abs(effective_graph(red).V - rep.target_adjacency).max()
              for red, rep in
              measure_and_delete(crown8, (1.0, 2.0, 3.0), [0, 2, 4, 6])]
    assert errors[0] > errors[1] > errors[2]


def test_uncertainty_relation_via_symplectic_form(lattice6):
    st = evolve(EvolutionParams(lattice6.dense()), 1.0)
    n = st.n
    H = st.cov + 0.5j * omega(n)
    eigs = np.linalg.eigvalsh(H)
    assert eigs.min() > -1e-9
