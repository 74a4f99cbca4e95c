"""Torus cut: layer measurement plus meridian opening."""

import numpy as np
import pytest

from combcluster import (EvolutionParams, GaussianError, best_phase_convention,
                         bicoloring, evolve, lattice_cut_nodes, reduce_and_cut,
                         rotate_color_class)


def rotated_lattice_state(lattice6, r):
    dense = lattice6.dense()
    colors = bicoloring(lattice6)
    state = evolve(EvolutionParams(dense, r))
    conv = best_phase_convention(state, colors, dense)
    return rotate_color_class(state, colors, conv.quarter_turns), conv


def test_cut_node_partition():
    measured, kept = lattice_cut_nodes(6, 0, (0, 0))
    assert len(measured) + len(kept) == 144
    assert len(kept) == 25                    # (M-1)^2 macronodes, one layer
    assert all(node % 4 == 0 for node in kept)
    assert sorted(measured + kept) == list(range(144))


def test_cut_rejects_bad_parameters():
    with pytest.raises(GaussianError):
        lattice_cut_nodes(6, 4, (0, 0))
    with pytest.raises(GaussianError):
        lattice_cut_nodes(6, 0, (6, 0))


def test_ideal_cut_is_planar_patch(lattice6):
    remaining, report = reduce_and_cut(lattice6.dense(), 6, 0, (0, 0))
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
        _, report = reduce_and_cut(lattice6.dense(), 6, keep_layer, (2, 3))
        assert report.graph_stats.is_connected
        assert report.graph_stats.max_degree <= 4
        assert report.graph_stats.n_nodes == 25


def test_gaussian_cut_residual_improves_with_r(lattice6):
    residuals = []
    for r in (1.0, 2.0):
        rotated, conv = rotated_lattice_state(lattice6, r)
        reduced, report = reduce_and_cut(rotated, 6, 0, (0, 0),
                                         target=conv.nullifiers.target_adjacency,
                                         squeeze_r=r)
        assert reduced.n == 25
        assert reduced.purity_defect() < 1e-9
        residuals.append(report.max_residual)
    assert residuals[1] < residuals[0]


def test_gaussian_cut_requires_target(lattice6):
    rotated, _ = rotated_lattice_state(lattice6, 1.0)
    with pytest.raises(GaussianError):
        reduce_and_cut(rotated, 6, 0, (0, 0))


def test_measuring_everything_leaves_empty_state(lattice6):
    from combcluster import measure_q
    rotated, _ = rotated_lattice_state(lattice6, 1.0)
    red = measure_q(rotated, list(range(144)))
    assert red.n == 0
