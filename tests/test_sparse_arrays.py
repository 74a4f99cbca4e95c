"""One sparse array type from lattice to report.

Every sparse matrix the package returns is a canonical scipy.sparse CSR
array (sorted, duplicate-free column indices and no stored zeros), so
``*`` is element-wise and ``@`` the product everywhere, and its index
arrays are int32 wherever they fit, as they are at these sizes.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from combcluster import gaussian, hankel, lattice, verify


def torus(M=6):
    return lattice.expand(lattice.build_torus_supergraph(M))


def renumbered(M=6):
    return lattice.renumber_to_block_hankel(torus(M), M)


def reduced_effective_graph(M=6, r=1.0):
    A = torus(M)
    measured = np.flatnonzero(np.arange(A.n) % 4)     # three of four layers
    reduced, _, _ = next(gaussian.measure_and_delete(A, [r], measured))
    return gaussian.effective_graph(reduced)


OUTPUTS = {
    "expand-torus": lambda: torus().csr,
    "expand-ring": lambda: lattice.expand(lattice.build_ring_supergraph(6)).csr,
    "renumbered": lambda: renumbered().renumbered.csr,
    "restore": lambda: renumbered().restore().csr,
    "outer_support": lambda: verify.outer_support(renumbered().renumbered),
    "layout_outer_support": lambda: verify.layout_outer_support(
        6, lattice.positions_from_run_lengths(6, *verify.claimed_run_lengths(6))),
    "matrix_of": lambda: hankel.matrix_of(renumbered().shorthand),
    "factor": lambda: gaussian.cluster_state(torus(), 1.0)[0].factor,
    "signed_target": lambda: gaussian.cluster_state(
        torus(), 1.0)[1].nullifiers.target_adjacency,
    "ideal_graph_delete": lambda: gaussian.ideal_graph_delete(
        torus(), np.arange(0, 144, 4)),
    "effective_graph_V": lambda: reduced_effective_graph().V,
    "effective_graph_U": lambda: reduced_effective_graph().U,
}


@pytest.mark.parametrize("name", list(OUTPUTS))
def test_output_is_canonical_int32_csr_array(name):
    X = OUTPUTS[name]()
    assert isinstance(X, sp.csr_array) and not isinstance(X, sp.spmatrix)
    assert X.indices.dtype == X.indptr.dtype == np.int32
    rows = np.repeat(np.arange(X.shape[0]), np.diff(X.indptr))
    # strictly increasing columns within each row: sorted, no duplicates
    assert np.all(np.diff(X.indices)[rows[1:] == rows[:-1]] > 0)
    assert X.nnz and X.data.all()


def test_canonical_csr_narrows_int64_indices_and_copies_only_when_needed():
    X = sp.csr_array((np.array([2.0, 0.0, 3.0]), np.array([1, 0, 1]),
                      np.array([0, 2, 3])), shape=(2, 2))
    X.indices, X.indptr = X.indices.astype(np.int64), X.indptr.astype(np.int64)
    Y = lattice.canonical_csr(X)
    assert Y.indices.dtype == Y.indptr.dtype == np.int32
    assert Y.toarray().tolist() == [[0.0, 2.0], [0.0, 3.0]] and Y.nnz == 2
    assert X.nnz == 3 and X.indices.dtype == np.int64    # input untouched
    Z = lattice.canonical_csr(Y)                         # already canonical
    assert np.shares_memory(Z.data, Y.data) and np.shares_memory(Z.indices, Y.indices)


def test_one_symmetry_predicate():
    assert lattice.is_symmetric(torus().csr)
    X = sp.csr_array(np.array([[0, 1], [2, 0]]))
    assert not lattice.is_symmetric(X)
    assert lattice.is_symmetric(X + X.T)
