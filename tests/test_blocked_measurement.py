"""q measurement by projection against one QR of all measured rows.

`measure_q` projects the kept rows off the measured rows: by a sparse
projection when every measured row is orthogonal to every other, else with
one Householder QR of all the measured rows; the projected kept rows,
every column kept, are the conditional factor.  The oracle is the
single-QR algorithm: one QR of every measured and kept row,
[L_y; L_r]^T = Q R, with conditional factor R_22^T and mean gain
R_12^T R_11^-T.  Both project on the span of the measured rows, so they
give the same covariance and mean up to rounding, though their factors
differ in shape.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given, settings

from combcluster import (EvolutionParams, GaussianError, GaussianState,
                         cluster_state, evolve, measure_and_delete, measure_q,
                         nullifier_variances)
from combcluster import lattice, verify
from combcluster.cli import main


def single_qr_measure(state, nodes, outcomes):
    """(mean, factor) of the q measurement of sorted ``nodes`` by one QR."""
    n = state.n
    keep = np.setdiff1d(np.arange(n), nodes)
    rest = np.concatenate([keep, n + keep])
    k = len(nodes)
    rows = state.factor[np.concatenate([nodes, rest])].toarray()
    R = np.linalg.qr(rows.T, mode="r")
    gain = np.linalg.solve(R[:k, :k], R[:k, k:]).T
    return state.mean[rest] + gain @ (outcomes - state.mean[nodes]), R[k:, k:].T


@st.composite
def block_factors(draw):
    """(state, nodes, outcomes): a factor whose measured and kept rows fall
    in 1-3 groups with disjoint column sets, rows and columns permuted.

    A group holds any mix of measured and kept rows (possibly only one
    kind) and has at least as many columns as measured rows.  The factor
    has between k + 2m and 2n columns (k measured, m kept modes), so it is
    square or has fewer columns than rows; kept rows and the unused
    measured p rows may have no entries.  Measured rows are dense on their
    group's columns; some are then made orthogonal to every other measured
    row of their group (so to every other measured row), and when a mode
    is kept at most one is zero.  The factor is scaled by 1, 1e-150 or
    1e150.
    """
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    nodes = rng.permutation(n)[:k]
    keep = np.setdiff1d(np.arange(n), nodes)
    measured, kept = nodes, np.concatenate([keep, n + keep])
    groups = draw(st.integers(1, 3))
    group = {int(v): draw(st.integers(0, groups - 1))
             for v in np.concatenate([measured, kept])}
    widths = []
    for g in range(groups):
        kg = sum(group[int(v)] == g for v in measured)
        mg = sum(group[int(v)] == g for v in kept)
        widths.append(draw(st.integers(kg, kg + mg)))
    used = sum(widths)
    C = used + draw(st.integers(len(measured) + len(kept) - used, 2 * n - used))
    columns = np.split(rng.permutation(C)[:used], np.cumsum(widths)[:-1])
    L = np.zeros((2 * n, C))
    for v in measured:
        cols = columns[group[int(v)]]
        L[v, cols] = rng.normal(size=cols.size)
    for v in kept:
        cols = columns[group[int(v)]]
        if not draw(st.booleans()):           # else a row with no entries
            L[v, cols] = rng.normal(size=cols.size) * (rng.random(cols.size) < 0.7)
    for v in n + nodes:                       # not selected: any columns
        L[v] = rng.normal(size=C) * (rng.random(C) < 0.3)
    for v in measured:
        if draw(st.booleans()):              # orthogonal to the others
            cols = columns[group[int(v)]]
            others = [u for u in measured
                      if u != v and group[int(u)] == group[int(v)]]
            Q = np.linalg.qr(L[np.ix_(others, cols)].T)[0]
            L[v, cols] -= Q @ (Q.T @ L[v, cols])
    # (measuring every mode returns the empty state unchecked)
    zero = rng.choice(measured) if k < n and rng.random() < 0.2 else None
    if zero is not None:
        L[zero] = 0.0
    # well-conditioned nonzero measured rows, so both algorithms agree to
    # 1e-12
    nonzero = [v for v in nodes if v != zero]
    assume(not nonzero or np.linalg.cond(L[nonzero]) <= 100)
    # scales whose Gram entries would underflow or whose products of two
    # Gram entries would overflow
    L *= draw(st.sampled_from([1.0, 1e-150, 1e150]))
    state = GaussianState(rng.normal(size=2 * n), L)
    return state, nodes, rng.normal(size=k)


@settings(max_examples=200, deadline=None)
@given(block_factors())
def test_blocked_measurement_matches_single_qr(case):
    state, nodes, outcomes = case
    zero = np.diff(state.factor[nodes].indptr) == 0
    if zero.any():
        with pytest.raises(GaussianError, match=f"measured q row of mode "
                           f"{nodes[zero].min()} is zero or dependent"):
            measure_q(state, nodes, outcomes)
        return
    got = measure_q(state, nodes, outcomes)
    order = np.argsort(nodes)
    mean, factor = single_qr_measure(state, nodes[order], outcomes[order])
    assert got.n == state.n - nodes.size
    # relative to the kept rows' covariance before the measurement: where
    # the measured rows span the kept ones the result is 0 up to rounding
    n = state.n
    keep = np.setdiff1d(np.arange(n), nodes)
    scale = np.abs(state.cov[np.ix_(keep, keep)]).max(initial=0) + \
        np.abs(state.cov[np.ix_(n + keep, n + keep)]).max(initial=0)
    cov = 0.5 * factor @ factor.T
    assert np.abs(got.cov - cov).max(initial=0) <= 1e-12 * scale
    assert np.abs(got.mean - mean).max(initial=0) <= \
        1e-12 * max(1.0, np.abs(mean).max(initial=0))


@pytest.mark.parametrize("r", [0.7, 1.3, 3.0, 4.5])
def test_cluster_cut_matches_single_qr(r):
    # the rotated cluster state's measured q rows are all orthogonal, so it
    # is conditioned by the sparse projection alone; before the quarter
    # turn, measured neighbours are coupled and take the QR
    A = lattice.expand(lattice.build_torus_supergraph(6))
    rotated = cluster_state(A, r).state
    measured = np.array([i for i in range(A.n) if i % 4 != 0])
    cases = [(rotated, measured, np.linspace(-1.0, 1.0, measured.size), True)]
    # random subsets at M = 10; the unturned state's coupled measured rows
    # are ill conditioned at large r, which leaves its mean to their cond
    A10 = lattice.expand(lattice.build_torus_supergraph(10))
    rng = np.random.default_rng(int(10 * r))
    for state, check_mean in ((cluster_state(A10, r).state, True),
                              (evolve(EvolutionParams(A10), r), False)):
        for _ in range(2):
            k = int(rng.integers(1, A10.n))
            nodes = np.sort(rng.choice(A10.n, size=k, replace=False))
            cases.append((state, nodes, rng.normal(size=k), check_mean))
    for state, nodes, outcomes, check_mean in cases:
        got = measure_q(state, nodes, outcomes)
        mean, factor = single_qr_measure(state, nodes, outcomes)
        cov = 0.5 * factor @ factor.T
        assert np.abs(got.cov - cov).max() <= 1e-14 * np.abs(cov).max()
        if check_mean:
            assert np.abs(got.mean - mean).max() <= 1e-14 * np.abs(mean).max()


def test_cluster_path_never_takes_the_qr(monkeypatch, capsys):
    # the quarter-turned cluster state's measured q rows are orthogonal, so
    # the q measurement, the effective graph and the purity check of every
    # command and criterion on it are sparse products
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg.qr called on the cluster path")

    monkeypatch.setattr(np.linalg, "qr", refuse)
    assert main(["reduce", "--M", "10", "--r", "0.7,1.3", "--keep-layer", "2",
                 "--meridians", "3,1"]) == 0
    assert "effective_graph_error" in capsys.readouterr().out
    for result in (verify.criterion_crown_to_ring(),
                   verify.criterion_layer_reduction(6),
                   verify.criterion_torus_cut(6)):
        assert result.passed, result.details


@pytest.mark.parametrize("r", [1.0, 2.0, 3.0])
def test_max_variance_rounding_covers_the_measurement(r):
    # the crown-to-ring residual printed by verify-all: the projection and
    # the single QR give variances within the report's rounding bound
    crown = lattice.expand(lattice.build_ring_supergraph(4))
    top = np.arange(0, 8, 2)
    (_, rep), = measure_and_delete(crown, [r], top)
    mean, factor = single_qr_measure(cluster_state(crown, r).state, top,
                                     np.zeros(top.size))
    want = nullifier_variances(GaussianState(mean, factor),
                               rep.target_adjacency)
    assert 0 < rep.max_variance_rounding <= 1e-6 * rep.max_variance
    assert abs(rep.max_variance - want.max_variance) <= rep.max_variance_rounding


@pytest.mark.parametrize("diagonal, factor, nodes, mode", [
    # a measured q row with no entries
    ([0.0, 1, 1, 1], None, [0], 0),
    # two equal measured q rows
    (None, [[1.0, 2, 0, 0, 0, 0], [1, 2, 0, 0, 0, 0]], [1, 0], 1),
    # two measured q rows on one column
    (None, [[1.0, 0, 0, 0, 0, 0], [-2, 0, 0, 0, 0, 0]], [0, 1], 1),
])
def test_degenerate_measurement_names_the_mode(diagonal, factor, nodes, mode):
    if diagonal is not None:
        L = np.diag(diagonal)
    else:
        L = np.eye(6)
        L[:2] = factor
    with pytest.raises(GaussianError,
                       match=f"measured q row of mode {mode} is zero or "
                             "dependent"):
        measure_q(GaussianState(np.zeros(len(L)), L), nodes)


def test_kept_row_without_entries_stays_a_zero_row():
    red = measure_q(GaussianState(np.zeros(4), np.diag([1.0, 0, 1, 1])), [0])
    assert red.factor.shape == (2, 4)
    assert np.diff(red.factor.indptr).tolist() == [0, 1]
    assert np.array_equal(red.cov, np.diag([0.0, 0.5]))
