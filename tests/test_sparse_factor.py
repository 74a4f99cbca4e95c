"""The CSR factor against a dense-factor oracle, on random orthogonal graphs.

Graphs are A = [[0, B], [B, 0]] with B a signed sum of Kronecker products
of the pi blocks, B = sum_a s_a (pi_a1 x ... x pi_am) over a in {+, -}^m:
the products are orthogonal rank-one projectors summing to 1, so B^2 = 1
exactly in dyadic floats, A is bipartite, and A @ A = 1.  The nodes are
then relabelled at random.  The oracle is a dense-factor pipeline: a dense
S, the quarter turn as a block-matrix product, and nullifiers from dense
L_p - T @ L_q.
"""

import itertools

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from scipy.sparse import csr_array

from combcluster import (EvolutionParams, GaussianState, PI_MINUS, PI_PLUS,
                         effective_graph, evolve, measure_q,
                         nullifier_variances, rotate_color_class, vacuum)

PI = (PI_PLUS.quarters / 4, PI_MINUS.quarters / 4)


@st.composite
def orthogonal_bipartite(draw):
    """(A, colors) of a relabelled bipartite graph with A @ A = 1 exactly."""
    m = draw(st.integers(1, 4))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]),
                          min_size=2 ** m, max_size=2 ** m))
    B = 0.0
    for s, blocks in zip(signs, itertools.product(PI, repeat=m)):
        term = np.ones((1, 1))
        for block in blocks:
            term = np.kron(term, block)
        B = B + s * term
    Z = np.zeros_like(B)
    A = np.block([[Z, B], [B, Z]])
    colors = np.repeat([0, 1], len(B))
    perm = np.array(draw(st.permutations(range(len(A)))))
    return A[np.ix_(perm, perm)], colors[perm]


def quarter_turn(colors, turns):
    """The block matrix [[P0, t P1], [-t P1, P0]] of a color-1 quarter turn."""
    P0 = np.diag((colors == 0).astype(float))
    P1 = np.diag((colors == 1).astype(float))
    return np.block([[P0, turns * P1], [-turns * P1, P0]])


def dense_oracle(A, colors, r):
    """Dense factor of the evolved, +1-turned state."""
    n = len(A)
    ch, sh = np.cosh(2 * r), np.sinh(2 * r)
    I, Z = np.eye(n), np.zeros((n, n))
    S = np.block([[ch * I + sh * A, Z], [Z, ch * I - sh * A]])
    return quarter_turn(colors, +1) @ S


def bit_identical(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


r_values = st.floats(0.0, 3.0)


@settings(max_examples=60, deadline=None)
@given(graph=orthogonal_bipartite(), r=r_values)
def test_covariance_and_nullifiers_match_dense_oracle(graph, r):
    A, colors = graph
    n = len(A)
    state = rotate_color_class(evolve(EvolutionParams(A), r), colors, +1)
    L = dense_oracle(A, colors, r)
    assert np.array_equal(state.factor.toarray(), L)
    cov = 0.5 * L @ L.T
    assert np.abs(state.cov - cov).max() <= 1e-12 * np.abs(cov).max()
    for T in (A, -A):
        # Var = |x|^2 / 2 with x = L_p - T L_q, whose entries cancel terms
        # of size |L_p| + |T| |L_q|: the variance is resolved to the scale
        # |x| times the norm of those terms, not to its own size
        x = L[n:] - T @ L[:n]
        terms = np.abs(L[n:]) + np.abs(T) @ np.abs(L[:n])
        scale = np.linalg.norm(x, axis=1) * np.linalg.norm(terms, axis=1)
        got = nullifier_variances(state, T).variances
        want = 0.5 * np.linalg.norm(x, axis=1) ** 2
        assert np.all(np.abs(got - want) <= 1e-12 * scale)


@settings(max_examples=60, deadline=None)
@given(graph=orthogonal_bipartite(), r=r_values, data=st.data())
def test_rotation_is_bit_identical_to_block_product(graph, r, data):
    A, colors = graph
    state = evolve(EvolutionParams(A), r)
    # a measured state too: fewer modes, a nonzero mean, a dense-ish factor
    n = len(A)
    nodes = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                               max_size=n - 1, unique=True))
    keep = np.setdiff1d(np.arange(n), nodes)
    outcomes = np.linspace(-1.0, 1.0, len(nodes))
    measured = measure_q(state, nodes, outcomes)
    for before, cols in ((state, colors), (measured, colors[keep])):
        for turns in (+1, -1):
            got = rotate_color_class(before, cols, turns)
            R = quarter_turn(cols, turns)
            assert bit_identical(got.factor.toarray(), R @ before.factor.toarray())
            assert bit_identical(got.mean, R @ before.mean)


@settings(max_examples=60, deadline=None)
@given(graph=orthogonal_bipartite(), r=r_values, data=st.data())
def test_measuring_then_deleting_equals_deleting_then_measuring(graph, r, data):
    # an ideal q measurement deletes the measured rows and columns of the
    # complex graph Z = V + iU: the effective graph of the measured state is
    # the full state's with those nodes deleted, to 1e-12 of Z's largest
    # entry (V_rounding bounds the solve for V only, not the measurement)
    A, colors = graph
    n = len(A)
    state = rotate_color_class(evolve(EvolutionParams(A), r), colors, +1)
    nodes = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                               max_size=n - 1, unique=True))
    keep = np.setdiff1d(np.arange(n), nodes)
    full = effective_graph(state)
    measured = effective_graph(measure_q(state, nodes))
    scale = max(abs(full.V).max(), abs(full.U).max())
    assert abs(measured.V - full.V[keep][:, keep]).max() <= 1e-12 * scale
    assert abs(measured.U - full.U[keep][:, keep]).max() <= 1e-12 * scale


def test_factor_is_canonical_read_only_csr():
    state = evolve(EvolutionParams(np.array([[0.0, 1.0], [1.0, 0.0]])), 0.5)
    L = state.factor
    assert L.format == "csr" and L.dtype == np.float64
    assert L.has_canonical_format and L.data.all()
    for arr in (L.data, L.indices, L.indptr, state.mean):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]


def test_dense_and_unsorted_factors_are_converted():
    dense = np.array([[0.0, 2.0], [1.0, 0.0]])
    unsorted = csr_array((np.array([2.0, 0.0, 1.0]), np.array([1, 0, 0]),
                          np.array([0, 2, 3])), shape=(2, 2))
    for factor in (dense, unsorted):
        L = GaussianState(np.zeros(2), factor).factor
        assert L.has_canonical_format and L.nnz == 2
        assert np.array_equal(L.toarray(), dense)
    assert vacuum(3).factor.nnz == 6
