"""Integers are checked, not cast, at every seam that takes them.

Each seam reads its integers through `lattice.exact_int64`: a value that is
not an integer (1.5, nan, 1+1j) is refused with the module's own error
naming it, and an integral float or complex value (1.0, 1+0j) gives exactly
what the integer gives.  A seam that cast instead would silently change the
graph it builds or reads: a 0.5 edge dropped, node 0.5 read as node 0.
"""

import re

import numpy as np
import pytest

from combcluster import gaussian, hankel, lattice, verify
from combcluster.gaussian import GaussianError
from combcluster.hankel import NotHankelError
from combcluster.lattice import LatticeError

LATTICE6 = lattice.expand(lattice.build_torus_supergraph(6))
TWO_MODE = np.array([[0.0, 1.0], [1.0, 0.0]])

# seam -> (call with one integer-valued argument v, an integer v it
# accepts, the error it raises, the part of its result compared)
SEAMS = {
    "PhysAdjacency": (lambda v: lattice.PhysAdjacency([[0, v], [v, 0]]), 4,
                      LatticeError, lambda A: A.quarters.tolist()),
    "canonical_csr": (lambda v: lattice.canonical_csr([[v, 0]], np.int64), 3,
                      LatticeError, lambda X: (X.dtype, X.toarray().tolist())),
    "BlockWeight": (lambda v: lattice.BlockWeight([[v, 0], [0, v]]), 4,
                    LatticeError, lambda b: b.quarters.tolist()),
    "SuperAdjacency.pairs": (
        lambda v: lattice.SuperAdjacency(4, 2, [[0, v]], ["pi+"]), 1,
        LatticeError, lambda S: S.pairs.tolist()),
    "SuperAdjacency.n_macro": (
        lambda v: lattice.SuperAdjacency(v, 2, [[0, 1]], ["pi+"]), 4,
        LatticeError, lambda S: (type(S.n_macro), S.n_macro)),
    "SuperAdjacency.block_side": (
        lambda v: lattice.SuperAdjacency(4, v, [[0, 1]], ["pi+"]), 2,
        LatticeError, lambda S: (type(S.block_side), S.block_side,
                                 lattice.expand(S).csr.toarray().tolist())),
    "projector4": (lattice.projector4, 1, LatticeError,
                   lambda b: b.quarters.tolist()),
    "two_path_weight": (lambda v: lattice.two_path_weight(LATTICE6, v, 0), 1,
                        LatticeError, lambda w: w),
    "HankelShorthand": (
        lambda v: hankel.HankelShorthand([[[0]], [[v]], [[0]]], 1), 4,
        NotHankelError, lambda h: h.entries.tolist()),
    "vacuum": (gaussian.vacuum, 2, GaussianError,
               lambda st: st.factor.toarray().tolist()),
    "measure_q": (lambda v: gaussian.measure_q(gaussian.vacuum(2), [v]), 1,
                  GaussianError, lambda st: st.factor.toarray().tolist()),
    "ideal_graph_delete": (
        lambda v: gaussian.ideal_graph_delete(TWO_MODE, [v]), 1,
        GaussianError, lambda X: X.toarray().tolist()),
    "lattice_cut_nodes": (lambda v: gaussian.lattice_cut_nodes(6, 0, (v, 0)),
                          1, GaussianError,
                          lambda cut: [c.tolist() for c in cut]),
    "walk_refutation": (
        lambda v: verify.walk_refutation([[0, v, 0], [v, 0, 1], [0, 1, 0]],
                                         np.ones((3, 3)) - np.eye(3), 6), 1,
        LatticeError, lambda cert: cert),
    "layout_outer_support": (lambda v: verify.layout_outer_support(6, [v]), 2,
                             LatticeError, lambda X: X.toarray().tolist()),
    "check_even_size": (lambda v: lattice.check_even_size("M", v), 6,
                        LatticeError, lambda M: (type(M), M)),
    "_check_block_side": (hankel._check_block_side, 2, NotHankelError,
                          lambda s: (type(s), s)),
    "check_suite_size": (verify.check_suite_size, 6, LatticeError,
                         lambda M: (type(M), M)),
}


@pytest.mark.parametrize("seam", SEAMS)
def test_seam_refuses_a_non_integer_and_keeps_an_integral_one(seam):
    call, good, error, key = SEAMS[seam]
    for bad in (good + 0.5, np.nan, good + 1j):
        with pytest.raises(error, match=re.escape(str(bad))):
            call(bad)
    want = key(call(good))
    for same in (float(good), complex(good)):
        assert key(call(same)) == want


def test_gate_reports_the_first_entry_that_is_not_an_integer():
    exact, bad = lattice.exact_int64([[4.0, 1 + 0j], [2.9, np.nan]])
    assert exact.dtype == np.int64 and bad == (1, 0)
    assert lattice.exact_int64(4.5)[1] == ()
    assert lattice.exact_int64([None, 1])[1] == (0,)
    # an entry numpy cannot cast at all is found one entry at a time
    assert lattice.exact_int64([1, None])[1] == (1,)
    assert lattice.exact_int64([[1, 2], [3, "a"]])[1] == (1, 1)
    exact, bad = lattice.exact_int64(np.array([3, -2], dtype=np.int32))
    assert bad is None and exact.tolist() == [3, -2]


@pytest.mark.parametrize("call", [
    lambda: lattice.SuperAdjacency(4, 2, [[0, 10 ** 30]], ["pi+"]),
    lambda: lattice.BlockWeight([[0, 10 ** 30], [10 ** 30, 0]]),
    lambda: lattice.PhysAdjacency([[0, 10 ** 30], [10 ** 30, 0]])],
    ids=["SuperAdjacency", "BlockWeight", "PhysAdjacency"])
def test_an_integer_beyond_int64_is_refused_by_name(call):
    # numpy holds 10**30 in an object array, whose cast raised a raw
    # OverflowError, and which scipy refused with its own ValueError
    with pytest.raises(LatticeError, match=re.escape(str(10 ** 30))):
        call()


@pytest.mark.parametrize("check, error", [
    (lambda v: lattice.check_even_size("M", v), LatticeError),
    (hankel._check_block_side, NotHankelError),
    (verify.check_suite_size, LatticeError)])
def test_size_rules_read_a_size_by_value(check, error):
    # "6" used to reach `"6" % 2`, a raw TypeError; a list is no size
    for bad in ("6", [6], None):
        with pytest.raises(error, match=re.escape(repr(bad))):
            check(bad)
    # an int beyond int64 is kept for the memory estimate to refuse
    assert check(2 ** 70) == 2 ** 70


def test_an_integral_float_size_builds_what_its_int_builds():
    # 6.0 passed the suite's rule and was then refused by the lattice
    M = verify.check_suite_size(6.0)
    assert type(M) is int
    want = lattice.build_torus_supergraph(6)
    for size in (M, 6.0, np.float64(6)):
        S = lattice.build_torus_supergraph(size)
        assert (S.n_macro, S.pairs.tolist()) == (want.n_macro,
                                                 want.pairs.tolist())
    for build in (lattice.coordinates, lattice.renumber_permutation):
        assert str(build(6.0)) == str(build(6))
    assert hankel.shorthand_of(np.eye(4, dtype=np.int64), 2.0).block_side == 2
