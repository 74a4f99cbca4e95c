"""The nullifier rounding screen never changes an answer.

`nullifier_variances` resolves most rows with an O(nnz) screen s_i >= b_i
and computes the rounding bound b_i = (k+1) eps |(|L_p| + |T| |L_q|)_i|
only for the other rows and the largest variance's.  The oracle here
builds the two-hop product for every row and applies the refusal rule to
all of them: variances, max_variance_rounding and every PrecisionLossError
message must be bit-identical to it.

Every row norm, of the residual L_p - T L_q and of the bound product, is a
function of its own row's entries: its squares sorted ascending and summed
by numpy, as the oracle sums each row on its own.  The former norms padded
every row with zeros to the longest row of the whole matrix, which regroups
numpy's pairwise sum; they are kept here as a reference, which lattice
states (every row one entry count) still match bit for bit.

`evolution_symplectic` stacks its two blocks' CSR arrays, bit-identical to
`sp.block_diag` of the same blocks.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings

from combcluster import gaussian, lattice
from combcluster.gaussian import (EvolutionParams, GaussianState,
                                  PrecisionLossError, evolution_symplectic,
                                  evolve, measure_and_delete, measure_q,
                                  nullifier_variances, rotate_color_class)

EPS = np.finfo(float).eps
R_GRID = (0.0, 0.3, 1.0, 2.5, 4.6, 4.7, 4.75, 4.8, 5.0)


def padded_norms(B):
    """The former row norms of the whole product: every row padded with
    leading zeros to B's longest row, then all sorted and summed at once."""
    counts = np.diff(B.indptr)
    squares = np.zeros((B.shape[0], counts.max(initial=0)))
    rows = np.repeat(np.arange(B.shape[0]), counts)
    squares[rows, np.arange(B.nnz) - B.indptr[rows]] = B.data ** 2
    squares.sort(axis=1)
    return np.sqrt(squares.sum(axis=1))


def each_row_norms(B):
    """Each row's norm from its own stored entries alone, one row at a
    time: squares sorted ascending, summed by numpy."""
    return np.array([np.sqrt(np.sort(B[[i]].data ** 2).sum())
                     for i in range(B.shape[0])])


def full_bound(state, T, row_norms):
    """b_i for every row, from the two-hop product of every row."""
    At = gaussian._as_sparse_adjacency(T)
    n = state.n
    Lq, Lp = state.factor[:n], state.factor[n:]
    k = int(np.diff(At.indptr).max(initial=0))
    with np.errstate(all="ignore"):
        B = abs(Lp) + abs(At) @ abs(Lq)
        return (k + 1) * EPS * row_norms(B), np.diff(B.indptr)


def bits(x):
    return np.float64(x).tobytes()


def reference(state, T, row_norms):
    """("refused", message) or ("ok", per report: variance bytes, max
    variance and rounding bits), for +T then -T, bounding every row; every
    norm, of the residual and of the bound product, by ``row_norms``."""
    At = gaussian._as_sparse_adjacency(T)
    n = state.n
    Lq, Lp = state.factor[:n], state.factor[n:]
    bound, _ = full_bound(state, T, row_norms)
    reports = []
    with np.errstate(all="ignore"):
        X = At @ Lq
        for residual in (Lp - X, Lp + X):
            norms = row_norms(residual)
            variances = 0.5 * norms ** 2
            relative = bound / norms
            resolved = np.isfinite(variances) & (relative <= 1e-6)
            if not resolved.all():
                i = int(np.argmin(resolved))
                return ("refused",
                        f"nullifier variance of mode {i} is "
                        f"{variances[i]:.12g} with relative rounding bound "
                        f"{relative[i]:.3g} > 1e-06: float64 cannot "
                        "resolve it")
            i = int(np.argmax(variances))
            rounding = norms[i] * bound[i] + 0.5 * bound[i] ** 2
            reports.append((variances.tobytes(), bits(variances[i]),
                            bits(rounding)))
    return ("ok", reports)


def outcome(state, T):
    try:
        reports = nullifier_variances(state, T, return_negated=True)
    except PrecisionLossError as err:
        return ("refused", str(err))
    return ("ok", [(rep.variances.tobytes(), bits(rep.max_variance),
                    bits(rep.max_variance_rounding)) for rep in reports])


def single_outcome(state, T):
    """The +T report alone, as the first entry of `outcome`'s pair."""
    try:
        rep = nullifier_variances(state, T)
    except PrecisionLossError as err:
        return ("refused", str(err))
    return ("ok", (rep.variances.tobytes(), bits(rep.max_variance),
                   bits(rep.max_variance_rounding)))


def assert_matches_the_full_bound(state, T, row_norms=each_row_norms):
    want = reference(state, T, row_norms)
    assert outcome(state, T) == want
    got = single_outcome(state, T)
    if want[0] == "ok":
        assert got == ("ok", want[1][0])
    elif got[0] == "refused":
        assert got == want
    return want


def lattice_state(M, r):
    A = lattice.expand(lattice.build_torus_supergraph(M))
    params = EvolutionParams(A)
    state = rotate_color_class(evolve(params, r), lattice.bicoloring(A), +1)
    return state, params.adjacency


@pytest.mark.parametrize("M", [4, 6, 10])
def test_lattice_states_match_the_full_bound(M):
    refused = []
    for r in R_GRID:
        state, A = lattice_state(M, r)
        for T in (A, -A):
            # every row of the product has one count, so the former padded
            # norms are the oracle too: lattice variances keep their bits
            counts = full_bound(state, T, padded_norms)[1]
            assert len(np.unique(counts)) == 1
            want = assert_matches_the_full_bound(state, T, padded_norms)
        refused.append(want[0] == "refused")
    # up to 4.7 every variance resolves (4.6 and 4.7 through the fallback),
    # 4.8 and 5 are refused; 4.75 is refused at M = 4 only
    assert refused == [False] * 6 + [M == 4] + [True] * 2


def test_exact_bound_is_computed_only_where_it_decides(monkeypatch):
    # the bound product |L_p| + |T| |L_q| is the one _row_norms argument
    # with no negative entry; the two others are the +-T residuals
    calls = []
    row_norms = gaussian._row_norms

    def recording(X):
        calls.append((X.shape[0], bool((X.data >= 0).all())))
        return row_norms(X)

    monkeypatch.setattr(gaussian, "_row_norms", recording)
    for M, r, rows in ((10, 1.0, (1, 2)), (6, 4.7, (144,))):
        calls.clear()
        state, A = lattice_state(M, r)
        nullifier_variances(state, A, return_negated=True)
        bound = [m for m, unsigned in calls if unsigned]
        assert len(calls) == 3 and len(bound) == 1 and bound[0] in rows


@pytest.mark.parametrize("M", [4, 6, 10])
def test_reduced_states_match_the_full_bound(M):
    A = lattice.expand(lattice.build_torus_supergraph(M))
    for keep_layer, meridians in ((0, (M // 2, 1)), (3, (0, M - 1))):
        measured, _ = gaussian.lattice_cut_nodes(M, keep_layer, meridians)
        for reduced, rep in measure_and_delete(A, (0.5, 1.7, 3.0), measured):
            target = rep.target_adjacency
            want = assert_matches_the_full_bound(reduced, target)
            assert want[1][0] == (rep.variances.tobytes(),
                                  bits(rep.max_variance),
                                  bits(rep.max_variance_rounding))
            # the former padded norms move rows shorter than the longest
            # by their last bits only
            padded = reference(reduced, target, padded_norms)
            for got, own in zip(padded[1], want[1]):
                got, own = (np.frombuffer(b"".join(x)) for x in (got, own))
                assert np.all(abs(got - own) <= 8 * EPS * own)


@pytest.mark.parametrize("M", [4, 6, 10])
def test_reduced_variance_is_its_own_rows_norm(M):
    # rows of a reduced residual differ in entry count; each variance is
    # its row's norm taken as a one-row matrix, whatever the other rows hold
    A = lattice.expand(lattice.build_torus_supergraph(M))
    for keep_layer, meridians in ((0, (M // 2, 1)), (3, (0, M - 1))):
        measured, _ = gaussian.lattice_cut_nodes(M, keep_layer, meridians)
        for reduced, rep in measure_and_delete(A, (0.5, 1.7), measured):
            n = reduced.n
            T = rep.target_adjacency
            residual = reduced.factor[n:] - T @ reduced.factor[:n]
            want = 0.5 * each_row_norms(residual) ** 2
            assert rep.variances.tobytes() == want.tobytes()


def test_large_r_reduced_states_match_the_full_bound():
    # the fallback rows of a reduced state, and a refused one
    M = 6
    A = lattice.expand(lattice.build_torus_supergraph(M))
    measured, _ = gaussian.lattice_cut_nodes(M, 1, (2, 3))
    outcomes = []
    for r in (4.6, 4.7, 4.75):
        state, At = lattice_state(M, r)
        reduced = measure_q(state, measured)
        target = gaussian.ideal_graph_delete(At, measured)
        outcomes.append(assert_matches_the_full_bound(reduced, target)[0])
    assert "ok" in outcomes


def entries(draw, size, wide):
    """Floats with zeros (uneven sparse rows) and, if ``wide``, powers of
    two from subnormal to near overflow."""
    values = st.one_of(
        st.just(0.0), st.sampled_from([0.25, -0.25, 1.0, -1.0]),
        st.floats(-4.0, 4.0),
        st.builds(lambda m, e: m * 2.0 ** e, st.floats(-1.0, 1.0),
                  st.integers(-1074 if wide else -40,
                              1000 if wide else 40)))
    return draw(st.lists(values, min_size=size, max_size=size))


@st.composite
def random_case(draw):
    """(state, target) with a random sparse factor and a random target."""
    n = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 2 * n + 2))
    wide = draw(st.booleans())
    L = np.array(entries(draw, 2 * n * cols, wide)).reshape(2 * n, cols)
    T = np.array(entries(draw, n * n, wide)).reshape(n, n)
    return GaussianState(np.zeros(2 * n), L), T


@st.composite
def measured_case(draw):
    """(state, target): q rows measured off a dense random factor, which
    takes the QR branch of the conditioning, and a random target."""
    n = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = 2.0 ** draw(st.integers(-30, 30))
    L = scale * rng.standard_normal((2 * n, 2 * n))
    nodes = draw(st.lists(st.integers(0, n - 1), min_size=1,
                          max_size=n - 1, unique=True))
    state = measure_q(GaussianState(np.zeros(2 * n), L), nodes)
    m = state.n
    T = np.array(entries(draw, m * m, False)).reshape(m, m)
    return state, T


@settings(max_examples=150, deadline=None)
@given(case=random_case())
def test_random_factors_match_the_full_bound(case):
    state, T = case
    assert_matches_the_full_bound(state, T)


@settings(max_examples=60, deadline=None)
@given(case=measured_case())
def test_measured_random_factors_match_the_full_bound(case):
    state, T = case
    assert_matches_the_full_bound(state, T)


@settings(max_examples=150, deadline=None)
@given(case=st.one_of(random_case(), measured_case()))
def test_screen_is_above_the_computed_bound(case):
    state, T = case
    At = gaussian._as_sparse_adjacency(T)
    k = int(np.diff(At.indptr).max(initial=0))
    with np.errstate(all="ignore"):
        screen = gaussian._rounding_screen(state.factor, abs(At), k)
    bound, _ = full_bound(state, T, each_row_norms)
    assert np.all((screen >= bound) | ~np.isfinite(screen))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 20),
       cols=st.integers(1, 80))
def test_each_row_norm_is_a_function_of_its_own_entries(seed, rows, cols):
    # rows of 0 to 80 entries: numpy sums 9 or more in pairwise groups
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((rows, cols)) * 2.0 ** rng.integers(
        -60, 60, (rows, cols))
    dense[rng.random((rows, cols)) < rng.random((rows, 1))] = 0.0
    L = sp.csr_array(dense)
    with np.errstate(all="ignore"):
        got = gaussian._row_norms(L)
        assert got.tobytes() == each_row_norms(L).tobytes()
        if len(np.unique(np.diff(L.indptr))) == 1:
            assert got.tobytes() == padded_norms(L).tobytes()


def involutions():
    """Criterion 4's 24 involutions (some with diagonal entries), then the
    M = 6 lattice."""
    rng = np.random.default_rng(20240915)
    cases = []
    for _ in range(20):
        n = int(rng.integers(2, 7))
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        A = (Q * rng.choice((-1.0, 1.0), size=n)) @ Q.T
        cases.append((0.5 * (A + A.T), float(rng.uniform(0.1, 1.0))))
    X = np.array([[0.0, 1.0], [1.0, 0.0]])
    crown8 = lattice.expand(lattice.build_ring_supergraph(4)).dense()
    cases += [(X, 0.5), (X, 1.0), (X, 2.0), (crown8, 2.0)]
    lat = lattice.expand(lattice.build_torus_supergraph(6))
    return cases + [(lat, 1.0)]


def test_evolution_symplectic_equals_block_diag():
    cases = involutions()
    assert sum(np.diagonal(A).any() for A, _ in cases[:24]) >= 10
    for A, r0 in cases:
        params = EvolutionParams(A)
        A_f = params.adjacency
        for r in (r0, 0.0, 20.0):
            I = sp.eye_array(A_f.shape[0], format="csr")
            ch, sh = np.cosh(2 * r), np.sinh(2 * r)
            want = sp.block_diag((ch * I + sh * A_f, ch * I - sh * A_f),
                                 format="csr")
            got = evolution_symplectic(params, r)
            assert got.shape == want.shape
            assert got.has_canonical_format and want.has_canonical_format
            assert got.indptr.tolist() == want.indptr.tolist()
            assert got.indices.tolist() == want.indices.tolist()
            assert got.data.tobytes() == want.data.tobytes()
