"""Torus cut: layer measurement plus meridian opening."""

import re

import numpy as np
import pytest

from combcluster import (GaussianError, cluster_state, ideal_graph_delete,
                         lattice_cut_nodes, measure_and_delete, measure_q,
                         reduce_and_cut)


def test_cut_node_partition():
    measured, kept = lattice_cut_nodes(6, 0, (0, 0))
    assert len(measured) + len(kept) == 144
    assert len(kept) == 25                    # (M-1)^2 macronodes, one layer
    assert np.all(kept % 4 == 0)
    assert np.array_equal(np.sort(np.concatenate([measured, kept])),
                          np.arange(144))


def test_cut_rejects_bad_parameters():
    with pytest.raises(GaussianError):
        lattice_cut_nodes(6, 4, (0, 0))
    with pytest.raises(GaussianError):
        lattice_cut_nodes(6, 0, (6, 0))


@pytest.mark.parametrize("meridians", [(1, 2, 3), [[0, 0]], (0,), 5, [],
                                       [[0], [0, 1]]])
def test_cut_refuses_anything_but_two_meridians_by_name(meridians):
    # these raised numpy's or Python's raw ValueError or TypeError
    with pytest.raises(GaussianError,
                       match=re.escape(f"two integers x0,y0, got {meridians!r}")):
        lattice_cut_nodes(6, 0, meridians)


def test_ideal_cut_is_planar_patch(lattice6):
    A = lattice6.dense()
    report = reduce_and_cut(A, 6, 0, (0, 0))
    remaining = ideal_graph_delete(A, report.measured_nodes)
    st = report.graph_stats
    assert st.n_nodes == report.expected_patch_macronodes == 25
    assert st.is_connected
    assert st.max_degree <= 4
    assert st.cycle_rank == st.n_edges - st.n_nodes + 1
    assert remaining.shape == (25, 25)
    w = remaining[remaining != 0]
    assert np.all(np.abs(w) == 0.25)


def test_ideal_cut_all_layers_and_meridians(lattice6):
    # the cut must behave for every layer and meridian choice
    for keep_layer in range(4):
        report = reduce_and_cut(lattice6.dense(), 6, keep_layer, (2, 3))
        assert report.graph_stats.is_connected
        assert report.graph_stats.max_degree <= 4
        assert report.graph_stats.n_nodes == 25


def test_gaussian_cut_residual_improves_with_r(lattice6):
    report = reduce_and_cut(lattice6, 6, 0, (0, 0))
    measured, kept = lattice_cut_nodes(6, 0, (0, 0))
    assert np.array_equal(report.measured_nodes, measured)
    assert np.array_equal(report.kept_nodes, kept)
    residuals = []
    for reduced, rep in measure_and_delete(lattice6, (1.0, 2.0),
                                           report.measured_nodes):
        assert reduced.n == rep.target_adjacency.shape[0] == 25
        assert reduced.purity_defect() < 1e-9
        residuals.append(rep.max_variance)
    assert residuals[1] < residuals[0]


@pytest.mark.parametrize("r", [0.5, 1.7])
def test_reduced_report_target_is_the_deleted_signed_target(lattice6, r):
    # the report's target is the one reduced target: the signed target with
    # the measured nodes deleted, bit for bit
    measured, _ = lattice_cut_nodes(6, 1, (3, 1))
    (reduced, rep), = measure_and_delete(lattice6, [r], measured)
    want = ideal_graph_delete(
        cluster_state(lattice6, r).nullifiers.target_adjacency, measured)
    T = rep.target_adjacency
    assert T.shape == want.shape == (reduced.n, reduced.n)
    for got, expected in ((T.indptr, want.indptr),
                          (T.indices, want.indices), (T.data, want.data)):
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)


def test_measuring_everything_leaves_empty_state(lattice6):
    rotated = cluster_state(lattice6, 1.0).state
    assert measure_q(rotated, np.arange(144)).n == 0
