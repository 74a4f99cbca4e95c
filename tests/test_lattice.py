"""Lattice construction, exact validation, renumbering, geometry."""

from fractions import Fraction
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from scipy.sparse.csgraph import connected_components, dijkstra

from combcluster import (LatticeError, NonBipartiteError, PhysAdjacency,
                         bicoloring, build_ring_supergraph,
                         build_torus_supergraph, check_orthogonal, coordinates,
                         expand, export_dot, export_super_triplets,
                         export_triplets, label_census,
                         renumber_permutation, renumber_to_block_hankel,
                         torus_block_diagonals, two_path_weight)
from combcluster import lattice
from combcluster.lattice import bfs_depths, block_label, is_symmetric
from conftest import written


# ============================================================
# Torus supergraph
# ============================================================

def test_torus_m4_shorthand_segments():
    # u=3, v=5: [0^3 P1 0^5 P0 0^3 P3 0 / P2 / 0^3 P1 0^5 P0 0^3 -P3 0]
    from combcluster import BlockWeight, shorthand_of
    short = shorthand_of(expand(build_torus_supergraph(4)), block_side=4)
    assert short.length == 2 * 16 - 1 == 31
    labels = {k: block_label(BlockWeight(short.entries[k]))
              for k in short.nonzero_indices()}
    assert labels == {3: "P1", 9: "P0", 13: "P3", 15: "P2",
                      19: "P1", 25: "P0", 29: "-P3"}


@pytest.mark.parametrize("M", [4, 6, 8])
def test_torus_every_macronode_degree_four(M):
    S = build_torus_supergraph(M)
    assert S.n_macro == M * M
    assert S.degrees().tolist() == [4] * (M * M)
    assert S.n_superedges == 2 * M * M


def test_torus_label_census_one_of_each(torus6):
    census = label_census(torus6)
    for counts in census.values():
        assert counts == {"P0": 1, "P1": 1, "P2": 1, "P3": 1}


@pytest.mark.parametrize("M", [3, 5, 2, 0, -4])
def test_torus_rejects_bad_sizes(M):
    with pytest.raises(LatticeError):
        build_torus_supergraph(M)


def test_block_diagonal_positions_formula():
    for M in (4, 6, 8):
        ds = [d for d, _ in torus_block_diagonals(M)]
        N = M * M
        assert ds == [M - 1, N - M - 3, N - 3, N - 1,
                      N + M - 1, 2 * N - M - 3, 2 * N - 3]
        assert all(d % 2 == 1 for d in ds)  # odd diagonals: no self-loops


# ============================================================
# Expansion
# ============================================================

def test_expand_m4_entries_and_counts():
    A = expand(build_torus_supergraph(4))
    assert A.n == 64
    assert is_symmetric(A.csr)
    assert not np.diag(A.quarters).any()
    values = set(np.unique(A.quarters))
    assert values == {-1, 0, 1}            # all nonzero entries are +-1/4
    assert A.nnz == 64 * 16                 # 2 M^2 superedges x 16 entries x 2
    assert A.nnz // 2 == 32 * 16            # unordered pairs = 32 M^2


def test_expand_empty_supergraph_is_zero():
    from combcluster import SuperAdjacency
    A = expand(SuperAdjacency(n_macro=3, block_side=2))
    assert A.n == 6
    assert not A.quarters.any()


def test_expand_row_norms_are_one(lattice6):
    # row squared-norm (sum of squares of quarters) must be exactly 16/16
    sq = (lattice6.quarters.astype(np.int64) ** 2).sum(axis=1)
    assert np.array_equal(sq, np.full(lattice6.n, 16))


# ============================================================
# Orthogonality
# ============================================================

@pytest.mark.parametrize("M", [4, 6, 8])
def test_lattice_exactly_orthogonal(M):
    A = expand(build_torus_supergraph(M))
    rep = check_orthogonal(A)
    assert rep.is_orthogonal
    assert rep.worst_deviation == 0
    assert rep.witness_pair is None
    assert not rep.has_self_loops
    # the full structural invariant at every size: symmetric, hollow,
    # entries in {0, +-1/4}, unit row norms
    assert is_symmetric(A.csr)
    assert not np.diag(A.quarters).any()
    assert set(np.unique(A.quarters)) <= {-1, 0, 1}
    assert np.array_equal((A.quarters ** 2).sum(axis=1), np.full(A.n, 16))


def test_identity_adjacency_degenerate_but_orthogonal():
    rep = check_orthogonal(PhysAdjacency(4 * np.eye(3, dtype=np.int64)))
    assert rep.is_orthogonal
    assert rep.has_self_loops


def test_unweighted_four_cycle_not_orthogonal():
    cyc = np.zeros((4, 4), dtype=np.int64)
    for k in range(4):
        cyc[k, (k + 1) % 4] = cyc[(k + 1) % 4, k] = 4   # weight 1
    rep = check_orthogonal(PhysAdjacency(cyc))
    assert not rep.is_orthogonal
    assert rep.worst_deviation == 2    # opposite corners join via two 2-paths
    assert rep.witness_pair == (0, 0)  # first wrong entry: diagonal is 2 not 1


def test_check_orthogonal_requires_symmetry():
    bad = np.zeros((2, 2), dtype=np.int64)
    bad[0, 1] = 1
    with pytest.raises(LatticeError):
        check_orthogonal(PhysAdjacency(bad))


def test_two_path_weights(lattice6):
    # same-node two-paths sum to 1, distinct-node ones cancel to 0
    assert two_path_weight(lattice6, 0, 0) == 1
    assert two_path_weight(lattice6, 17, 17) == 1
    assert two_path_weight(lattice6, 0, 1) == 0
    assert two_path_weight(lattice6, 3, 40) == 0
    with pytest.raises(LatticeError):
        two_path_weight(lattice6, 0, lattice6.n)


def test_plain_torus_grid_has_single_term_two_paths():
    # the reason plain (scalar-weighted) toroidal grids cannot satisfy the
    # two-path cancellation: straight distance-2 pairs have exactly one
    # connecting 2-path, so the sum collapses to one nonzero term
    M = 6
    A = np.zeros((M * M, M * M), dtype=np.int64)
    for x in range(M):
        for y in range(M):
            i = x + M * y
            for j in (((x + 1) % M) + M * y, x + M * ((y + 1) % M)):
                A[i, j] = A[j, i] = 4      # unit weight
    grid = PhysAdjacency(A)
    i, k = 0, 2                            # two steps along a row
    terms = [l for l in range(M * M) if A[i, l] and A[l, k]]
    assert len(terms) == 1
    assert two_path_weight(grid, i, k) == 1
    assert not check_orthogonal(grid).is_orthogonal


# ============================================================
# Ring / crown
# ============================================================

def test_ring_expansion_is_orthogonal(crown8):
    assert crown8.n == 8
    rep = check_orthogonal(crown8)
    assert rep.is_orthogonal
    sq = (crown8.quarters ** 2).sum(axis=1)
    assert np.array_equal(sq, np.full(8, 16))   # 2 blocks x 2 entries x (1/4)


def test_ring_macronode_bipartition(ring4):
    assert np.all(ring4.pairs.sum(axis=1) % 2 == 1)


def test_ring_odd_or_small_rejected():
    for bad in (5, 3, 2, 1):
        with pytest.raises(LatticeError):
            build_ring_supergraph(bad)


# ============================================================
# Bicoloring
# ============================================================

def test_lattice_bicoloring_is_macronode_parity(lattice6):
    colors = bicoloring(lattice6)
    expected = np.array([(i // 4) % 2 for i in range(lattice6.n)], dtype=np.int8)
    assert colors.dtype == np.int8 and np.array_equal(colors, expected)
    # every edge joins the two color classes
    rows, cols = np.nonzero(lattice6.quarters)
    assert np.all(colors[rows] != colors[cols])
    assert np.bincount(colors).tolist() == [72, 72]


def test_even_ring_alternating_coloring():
    n = 6
    A = np.zeros((n, n), dtype=np.int64)
    for k in range(n):
        A[k, (k + 1) % n] = A[(k + 1) % n, k] = 4
    colors = bicoloring(PhysAdjacency(A))
    assert np.array_equal(colors, np.array([0, 1, 0, 1, 0, 1]))


def test_triangle_not_bipartite():
    A = 4 * (np.ones((3, 3), dtype=np.int64) - np.eye(3, dtype=np.int64))
    with pytest.raises(NonBipartiteError):
        bicoloring(PhysAdjacency(A))


# ============================================================
# Renumbering
# ============================================================

def test_renumber_round_trip_bit_exact(lattice6):
    result = renumber_to_block_hankel(lattice6, 6)
    assert np.array_equal(result.restore().quarters, lattice6.quarters)
    # permutation is a bijection
    assert sorted(result.permutation.tolist()) == list(range(lattice6.n))


@pytest.mark.parametrize("M", [6, 8, 10])
def test_renumber_returns_its_shorthand(M):
    from combcluster import shorthand_of
    result = renumber_to_block_hankel(expand(build_torus_supergraph(M)), M)
    ref = shorthand_of(result.renumbered, block_side=2)
    assert result.shorthand.block_side == ref.block_side == 2
    assert result.shorthand.length == ref.length
    for got, want in zip(result.shorthand.entries, ref.entries):
        assert np.array_equal(got, want)


def test_renumber_rejects_non_bijective_permutation(lattice6, monkeypatch):
    import combcluster.lattice as lat
    perm = renumber_permutation(6)
    perm[-1] = perm[0]                       # repeated index, one lost
    monkeypatch.setattr(lat, "renumber_permutation", lambda M: perm)
    with pytest.raises(RuntimeError, match="round trip"):
        renumber_to_block_hankel(lattice6, 6)


def test_renumber_produces_block_hankel(lattice6):
    from combcluster import shorthand_of
    result = renumber_to_block_hankel(lattice6, 6)
    short = shorthand_of(result.renumbered, block_side=2)
    nonzero = short.nonzero_indices()
    assert len(nonzero) == 15
    assert nonzero == lattice.positions_from_run_lengths(
        6, *lattice.constructed_run_lengths(6))
    assert nonzero == [5, 27, 33, 35, 41, 63, 69, 71,
                       77, 99, 105, 107, 113, 135, 141]


@pytest.mark.parametrize("M", range(4, 41, 2))
def test_renumbered_positions_are_the_skeleton(M):
    renum = renumber_to_block_hankel(expand(build_torus_supergraph(M)), M)
    skeleton = lattice.positions_from_run_lengths(
        M, *lattice.constructed_run_lengths(M))
    assert renum.shorthand.nonzero_indices() == skeleton
    # read off the matrix itself: the skew-diagonals of its 2x2 blocks
    rows, cols = renum.renumbered.csr.nonzero()
    assert np.unique(rows // 2 + cols // 2).tolist() == skeleton


def test_renumber_refuses_a_layout_off_the_skeleton(lattice6, monkeypatch):
    # any 15 positions used to pass; the claimed runs give other ones
    monkeypatch.setattr(lattice, "constructed_run_lengths",
                        lambda M: (2 * M - 1, M * M - 4 * M - 3))
    with pytest.raises(RuntimeError, match="skeleton"):
        renumber_to_block_hankel(lattice6, 6)


@pytest.mark.parametrize("M,s,t,match", [
    (4, 7, -3, "must not be negative"),      # the claimed runs at M = 4
    (6, -1, 33, "must not be negative"),
    (6, 5, 9, "do not fit M=6"),
])
def test_skeleton_refuses_runs_that_do_not_fit(M, s, t, match):
    with pytest.raises(LatticeError, match=match):
        lattice.positions_from_run_lengths(M, s, t)


def test_renumber_blocks_are_signed_pi_halves(lattice6):
    from combcluster import shorthand_of
    result = renumber_to_block_hankel(lattice6, 6)
    short = shorthand_of(result.renumbered, block_side=2)
    pattern = []
    for d in short.nonzero_indices():
        b = short.entries[d]
        assert abs(b[0, 0]) == 1 and abs(b[0, 1]) == 1
        assert b[0, 0] == b[1, 1] and b[0, 1] == b[1, 0]
        kind = "+" if b[0, 0] == b[0, 1] else "-"
        sign = "+" if b[0, 0] > 0 else "-"
        pattern.append(sign + kind)
    # strict pi-/pi+ alternation; three negated blocks, two of them the
    # wrapped second halves of the twist diagonal and one the corner
    assert pattern == ["+-", "++", "+-", "++", "+-", "++", "--", "-+",
                       "+-", "++", "+-", "++", "+-", "++", "--"]


def test_renumber_block_row_structure(lattice6):
    # every outer (2x2) block row holds exactly 8 nonzero blocks, each
    # contributing squared row weight 1/8: total row norm stays exactly 1
    result = renumber_to_block_hankel(lattice6, 6)
    B = result.renumbered.quarters
    R = B.reshape(72, 2, 72, 2).swapaxes(1, 2)
    per_row = (R != 0).any(axis=(2, 3)).sum(axis=1)
    assert np.array_equal(per_row, np.full(72, 8))
    sq = (B.astype(np.int64) ** 2).sum(axis=1)
    assert np.array_equal(sq, np.full(144, 16))


@pytest.mark.parametrize("convert", [np.asarray, sp.csr_array, sp.coo_matrix],
                         ids=["dense", "csr_array", "coo_matrix"])
def test_non_integral_quarters_are_refused(convert):
    # checked, not cast: 2.9 would be stored as 2 and 0.5 as no edge
    for Q, where in ((np.array([[0, 2.9], [2.9, 0]]), r"\(0, 1\) is 2\.9"),
                     (np.array([[0, 0.5], [0.5, 0]]), r"\(0, 1\) is 0\.5"),
                     (np.array([[0, 0, 0], [0, 0, 4], [0, -1.25, 0]]),
                      r"\(2, 1\) is -1\.25"),
                     (np.array([[0, np.nan], [np.nan, 0]]), r"\(0, 1\) is nan")):
        with pytest.raises(LatticeError, match=where + ", not an integer"):
            PhysAdjacency(convert(Q))
    # integral floats are exact quarters
    A = PhysAdjacency(convert(np.array([[0, 4.0], [4.0, 0]])))
    assert A.csr.dtype == np.int64 and A.quarters.tolist() == [[0, 4], [4, 0]]


def test_duplicate_sparse_quarters_are_summed_before_the_check():
    halves = sp.coo_array(([0.5, 0.5, 1.0], ([0, 0, 1], [1, 1, 0])), shape=(2, 2))
    assert PhysAdjacency(halves).quarters.tolist() == [[0, 1], [1, 0]]


def test_renumber_rejects_unsupported_m(lattice6):
    with pytest.raises(LatticeError):
        renumber_to_block_hankel(lattice6, 8)   # size mismatch


def test_renumber_permutation_groups_tensor_factor():
    perm = renumber_permutation(6)
    N = 36
    for m in (0, 5, 17, 35):
        for x in (0, 1):
            for z in (0, 1):
                assert perm[2 * (m + N * x) + z] == 4 * m + 2 * x + z


# ============================================================
# Coordinates
# ============================================================

def test_coordinates_bijective():
    coords = coordinates(4)
    assert coords.x.dtype.kind == coords.y.dtype.kind == "i"
    assert coords.x.shape == coords.y.shape == (16,)
    assert sorted((coords.y * 4 + coords.x).tolist()) == list(range(16))


@pytest.mark.parametrize("M", [4, 6, 8])
def test_axis_cycles_cover_all_macronodes(M):
    coords = coordinates(M)
    for axis in ("x", "y"):
        cyc = coords.axis_cycles[axis]
        assert len(cyc) == M * M
        assert sorted(cyc) == list(range(M * M))


def test_coordinates_x_axis_neighbors_consecutive(torus6):
    # consecutive nodes along the x walk are joined by P2/P3 superedges
    coords = coordinates(6)
    cyc = coords.axis_cycles["x"]
    labels = dict(zip(map(tuple, torus6.pairs.tolist()), torus6.labels.tolist()))
    for k in range(35):
        label = labels[tuple(sorted((cyc[k], cyc[k + 1])))]
        assert label.lstrip("-") in ("P2", "P3")


def test_column_row_selectors():
    coords = coordinates(6)
    col = coords.column(0)
    row = coords.row(0)
    assert len(col) == 6 and len(row) == 6
    assert len(set(col) & set(row)) == 1    # they intersect in one macronode


def _dict_chart(M):
    """Oracle: the x walk and the dict-based column and row selectors that
    the chart's int arrays replaced."""
    N = M * M
    diagonal = {label.lstrip("-"): d % N
                for d, label in torus_block_diagonals(M)}
    k = np.arange(N)
    shift = k // 2 * (diagonal["P3"] - diagonal["P2"])
    x_cycle = (np.where(k % 2, diagonal["P2"] - shift, shift) % N).tolist()
    to_xy = {m: (k % M, k // M) for k, m in enumerate(x_cycle)}

    def column(x0):
        return sorted(m for m, (x, _) in to_xy.items() if x == x0)

    def row(y0):
        return sorted(m for m, (_, y) in to_xy.items() if y == y0)

    return x_cycle, column, row


def _dict_cut_nodes(M, keep_layer, meridians):
    """Oracle for lattice_cut_nodes, on the dict-based selectors."""
    _, column, row = _dict_chart(M)
    x0, y0 = meridians
    cut = np.zeros(M * M, dtype=bool)
    cut[column(x0) + row(y0)] = True
    node = np.arange(4 * M * M)
    kept = (node % 4 == keep_layer) & ~cut[node // 4]
    return node[~kept], node[kept]


@pytest.mark.parametrize("M", [4, 6, 8, 16])
def test_chart_arrays_match_the_dict_selectors(M):
    from combcluster import lattice_cut_nodes
    coords = coordinates(M)
    x_cycle, column, row = _dict_chart(M)
    assert coords.axis_cycles["x"].tolist() == x_cycle
    for i in range(M):
        for selector, oracle in ((coords.column, column), (coords.row, row)):
            got = selector(i)
            assert got.dtype.kind == "i"
            assert got.tolist() == oracle(i)
    # every meridian pair at M = 6, a few at the other sizes
    pairs = ([(x0, y0) for x0 in range(M) for y0 in range(M)] if M == 6
             else [(0, 0), (M - 1, 1), (M // 2, M - 1)])
    for t, meridians in enumerate(pairs):
        measured, kept = lattice_cut_nodes(M, t % 4, meridians)
        want_measured, want_kept = _dict_cut_nodes(M, t % 4, meridians)
        assert np.array_equal(measured, want_measured)
        assert np.array_equal(kept, want_kept)


# ============================================================
# Exports
# ============================================================

def test_export_triplets_header_and_exactness(crown8):
    text = written(export_triplets, crown8)
    lines = text.splitlines()
    assert lines[0] == "n=8 denom=4"
    assert len(lines) - 1 == crown8.nnz // 2
    i, j, w = lines[1].split()
    assert w.endswith("/4")


def test_export_dot_contains_edges(crown8):
    text = written(export_dot, crown8)
    assert text.startswith("graph adjacency {")
    assert text.count("--") == crown8.nnz // 2


def per_edge_exports(Q):
    """Triplet and DOT text of dense Q, one f-string per upper edge."""
    n = len(Q)
    edges = [(i, j, int(Q[i, j])) for i in range(n) for j in range(i + 1, n)
             if Q[i, j]]
    triplets = f"n={n} denom=4\n" + "".join(f"{i} {j} {w}/4\n"
                                           for i, j, w in edges)
    dot = ("graph adjacency {\n"
           + "".join(f'  {i} -- {j} [label="{w}/4"];\n' for i, j, w in edges)
           + "}\n")
    return triplets, dot


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       density=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
       scale=st.sampled_from([4, 2**40]), index64=st.booleans(),
       chunk=st.sampled_from([1, 3, 64, lattice._RENDER_CHUNK]))
def test_exports_match_per_edge_fstrings(n, seed, density, scale, index64,
                                         chunk):
    """Bulk rendering gives the bytes of one f-string per edge.

    Signed quarter numerators up to 2**40, no edges, n = 1, int32 and
    int64 CSR indices, and chunks of 1 row up to the default.
    """
    rng = np.random.default_rng(seed)
    Q = rng.integers(-scale, scale + 1, size=(n, n))
    Q[rng.random((n, n)) >= density] = 0
    A = PhysAdjacency(Q)
    if index64:
        A.csr.indices = A.csr.indices.astype(np.int64)
        A.csr.indptr = A.csr.indptr.astype(np.int64)
    assert A.csr.indices.dtype == (np.int64 if index64 else np.int32)
    with mock.patch.object(lattice, "_RENDER_CHUNK", chunk):
        assert (written(export_triplets, A),
                written(export_dot, A)) == per_edge_exports(Q)


def test_export_super_triplets(ring4, torus6):
    text = written(export_super_triplets, ring4)
    assert text.splitlines()[0] == "n=4 block_side=2"
    assert "pi+" in text and "pi-" in text
    text6 = written(export_super_triplets, torus6)
    assert "-P3" in text6 and "P2" in text6


# ============================================================
# Sparse layers against dense oracles
# ============================================================

@pytest.mark.parametrize("M", [4, 6, 8])
def test_expand_equals_torus_shorthand_matrix(M):
    # the block-Hankel description of the torus, rebuilt densely
    from combcluster import HankelShorthand, matrix_of
    from combcluster.lattice import BLOCK_LABELS
    entries = np.zeros((2 * M * M - 1, 4, 4), dtype=np.int64)
    for d, label in torus_block_diagonals(M):
        entries[d] = BLOCK_LABELS[label].quarters
    want = matrix_of(HankelShorthand(entries=entries))
    A = expand(build_torus_supergraph(M))
    assert A.csr.has_canonical_format and A.csr.data.all()
    assert np.array_equal(A.quarters, want.toarray())


def dense_orthogonality(Q):
    """(worst deviation, first row-major witness) of Q @ Q - 16 * 1."""
    D = Q @ Q - 16 * np.eye(len(Q), dtype=np.int64)
    bad = np.argwhere(D != 0)
    if not len(bad):
        return 0, None
    return Fraction(int(np.abs(D).max()), 16), tuple(map(int, bad[0]))


@pytest.mark.parametrize("name", ["lattice6", "crown8"])
def test_check_orthogonal_matches_dense_oracle(name, request):
    Q0 = request.getfixturevalue(name).quarters
    rng = np.random.default_rng(11)
    n = len(Q0)
    for _ in range(8):
        Q = Q0.copy()
        for _ in range(int(rng.integers(1, 4))):
            i, j = (int(v) for v in rng.integers(0, n, size=2))
            Q[i, j] = Q[j, i] = Q[i, j] + int(rng.integers(-2, 3))
        rep = check_orthogonal(PhysAdjacency(Q))
        worst, witness = dense_orthogonality(Q)
        assert rep.is_orthogonal == (witness is None)
        assert (rep.worst_deviation, rep.witness_pair) == (worst, witness)
        assert rep.has_self_loops == bool(np.diag(Q).any())


def bfs_colors(Q):
    """Python BFS from the lowest node of each component, neighbors ascending."""
    n = len(Q)
    colors = np.full(n, -1, dtype=np.int8)
    for start in range(n):
        if colors[start] >= 0:
            continue
        colors[start] = 0
        queue = [start]
        while queue:
            u = queue.pop(0)
            for v in np.flatnonzero(Q[u]):
                if colors[v] < 0:
                    colors[v] = 1 - colors[u]
                    queue.append(v)
                assert colors[v] != colors[u]
    return colors


def test_bicoloring_matches_bfs_oracle(crown8):
    rng = np.random.default_rng(5)
    lattices = [expand(build_torus_supergraph(M)).quarters for M in (6, 8)]
    # two relabelled crowns and an isolated node: the lowest node of each
    # component is not where its rows start
    two = np.zeros((17, 17), dtype=np.int64)
    two[:8, :8] = two[8:16, 8:16] = crown8.quarters
    perm = rng.permutation(17)
    for Q in lattices + [crown8.quarters, two[np.ix_(perm, perm)]]:
        colors = bicoloring(PhysAdjacency(Q))
        assert colors.dtype == np.int8
        assert np.array_equal(colors, bfs_colors(Q))


def test_non_bipartite_witness_lies_on_odd_cycle():
    # a pendant edge (0, 3) before the triangle 3-4-5 in row-major order
    A = np.zeros((6, 6), dtype=np.int64)
    for u, v in ((1, 2), (0, 3), (3, 4), (4, 5), (3, 5)):
        A[u, v] = A[v, u] = 4
    with pytest.raises(NonBipartiteError) as err:
        bicoloring(PhysAdjacency(A))
    assert err.value.odd_cycle_witness == (4, 5)


def csgraph_depths(Q):
    """Depth of each node from its component's lowest node and the
    component count, by scipy.sparse.csgraph (one unweighted dijkstra per
    component)."""
    n_components, labels = connected_components(Q, directed=False)
    depth = np.zeros(Q.shape[0], dtype=np.int64)
    for c in range(n_components):
        nodes = np.flatnonzero(labels == c)
        depth[nodes] = dijkstra(Q, directed=False, indices=nodes[0],
                                unweighted=True)[nodes]
    return depth, n_components


@st.composite
def graphs(draw):
    """A symmetric CSR graph with self-loops allowed, from n = 0 to n = 600
    nodes; graphs with few edges per node have hundreds of components."""
    n = draw(st.integers(0, 600))
    m = draw(st.integers(0, 2 * n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    u, v = rng.integers(0, max(n, 1), size=(2, m))
    Q = sp.csr_array((np.full(2 * m, 4), (np.r_[u, v], np.r_[v, u])),
                     shape=(n, n))
    Q.sum_duplicates()
    index_dtype = draw(st.sampled_from([np.int32, np.int64]))
    Q.indices = Q.indices.astype(index_dtype)
    Q.indptr = Q.indptr.astype(index_dtype)
    return Q


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_bfs_depths_match_csgraph(Q):
    depth, n_components = bfs_depths(Q)
    want_depth, want_components = csgraph_depths(Q)
    assert n_components == want_components
    assert np.array_equal(depth, want_depth)
    # bicoloring: parity of those depths, or the first same-color edge in
    # row-major order as the odd-cycle witness
    colors = want_depth % 2
    A = PhysAdjacency(Q)
    rows = np.repeat(np.arange(A.n), np.diff(A.csr.indptr))
    clash = np.flatnonzero(colors[rows] == colors[A.csr.indices])
    if clash.size:
        with pytest.raises(NonBipartiteError) as err:
            bicoloring(A)
        i = clash[0]
        assert err.value.odd_cycle_witness == (rows[i], A.csr.indices[i])
    else:
        assert np.array_equal(bicoloring(A), colors)


@pytest.mark.parametrize("n", [0, 1])
def test_bfs_depths_of_trivial_graphs(n):
    depth, n_components = bfs_depths(sp.csr_array((n, n), dtype=np.int64))
    assert (depth.tolist(), n_components) == ([0] * n, n)
    assert bicoloring(PhysAdjacency(np.zeros((n, n), dtype=np.int64))).size == n


def test_bfs_depths_of_many_components_and_self_loops():
    # 300 two-node components in shuffled order, a self-loop on one node
    # of each, and 100 isolated nodes
    rng = np.random.default_rng(11)
    perm = rng.permutation(700)
    u, v = perm[:300], perm[300:600]
    Q = sp.csr_array((np.ones(900), (np.r_[u, v, u], np.r_[v, u, u])),
                     shape=(700, 700))
    depth, n_components = bfs_depths(Q)
    assert n_components == 400
    assert np.array_equal(depth[np.minimum(u, v)], np.zeros(300))
    assert np.array_equal(depth[np.maximum(u, v)], np.ones(300))
    assert np.array_equal(depth[perm[600:]], np.zeros(100))


def test_degrees_counted_once_and_kept_current():
    S = build_torus_supergraph(6)
    scan = [sum(1 for pair in S.pairs.tolist() if i in pair) for i in range(S.n_macro)]
    assert S.degrees().tolist() == scan
    # the edge list is read only, so the degrees cannot go stale
    with pytest.raises(ValueError):
        S.pairs[0, 1] = 7


def test_sparse_rows_match_dense_for_exports_and_two_paths(lattice6):
    Q = lattice6.quarters
    rows, cols = np.nonzero(np.triu(Q, 1))
    want = [f"{i} {j} {Q[i, j]}/4" for i, j in zip(rows, cols)]
    assert written(export_triplets, lattice6).splitlines()[1:] == want
    for j, k in ((0, 0), (5, 9), (17, 100), (143, 2)):
        assert two_path_weight(lattice6, j, k) == Fraction(int(Q[j] @ Q[:, k]), 16)


def test_renumber_restore_round_trip_at_m10():
    A = expand(build_torus_supergraph(10))
    result = renumber_to_block_hankel(A, 10)
    perm = result.permutation
    assert np.array_equal(result.renumbered.quarters, A.quarters[np.ix_(perm, perm)])
    assert result.restore() == A
    assert not (result.renumbered == A)
