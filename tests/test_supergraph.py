"""The labelled edge-list supergraph against a per-superedge dict oracle.

The oracle is the straightforward construction: one `BlockWeight` per
superedge in a dict keyed by (i, j) with i < j, filled one `set_block` at a
time from the seven skew-diagonals (torus) or around the cycle (ring), with
every read done superedge by superedge.
"""

import numpy as np
import pytest

from combcluster import (BlockWeight, LatticeError, PI_MINUS, PI_PLUS,
                         SuperAdjacency, block_label, build_ring_supergraph,
                         build_torus_supergraph, expand, export_super_triplets,
                         label_census)
from combcluster.lattice import PI4
from conftest import written


def set_block(blocks, i, j, w):
    assert i != j
    if i > j:
        i, j, w = j, i, BlockWeight(w.quarters.T)
    blocks[(i, j)] = w


def oracle_torus(M):
    N = M * M
    diagonals = [(M - 1, 1, +1), (N - M - 3, 0, +1), (N - 3, 3, +1),
                 (N - 1, 2, +1), (N + M - 1, 1, +1), (2 * N - M - 3, 0, +1),
                 (2 * N - 3, 3, -1)]
    blocks = {}
    for d, lab, sign in diagonals:
        for i in range(max(0, d - N + 1), (d + 1) // 2):
            set_block(blocks, i, d - i, PI4[lab] if sign > 0 else -PI4[lab])
    return N, 4, blocks


def oracle_ring(n):
    blocks = {}
    for k in range(n):
        set_block(blocks, k, (k + 1) % n, PI_PLUS if k % 2 == 0 else PI_MINUS)
    return n, 2, blocks


def oracle_expand(n_macro, s, blocks):
    Q = np.zeros((n_macro * s, n_macro * s), dtype=np.int64)
    for (i, j), w in blocks.items():
        Q[i * s:(i + 1) * s, j * s:(j + 1) * s] = w.quarters
        Q[j * s:(j + 1) * s, i * s:(i + 1) * s] = w.quarters.T
    return Q


def oracle_export(n_macro, s, blocks):
    lines = [f"n={n_macro} block_side={s}"]
    for (i, j) in sorted(blocks):
        lines.append(f"{i} {j} {block_label(blocks[(i, j)])}")
    return "\n".join(lines) + "\n"


def oracle_census(n_macro, blocks):
    census = {i: {} for i in range(n_macro)}
    for (i, j), w in blocks.items():
        name = block_label(w).lstrip("-")
        census[i][name] = census[i].get(name, 0) + 1
        census[j][name] = census[j].get(name, 0) + 1
    return census


CASES = ([("torus", M) for M in (4, 6, 8, 10)]
         + [("ring", n) for n in (4, 6, 8)])


@pytest.mark.parametrize("kind,size", CASES)
def test_supergraph_matches_dict_oracle(kind, size):
    if kind == "torus":
        S, (n_macro, s, blocks) = build_torus_supergraph(size), oracle_torus(size)
    else:
        S, (n_macro, s, blocks) = build_ring_supergraph(size), oracle_ring(size)
    assert (S.n_macro, S.block_side, S.n_superedges) == (n_macro, s, len(blocks))
    assert S.pairs.dtype == np.int64
    assert S.pairs.tolist() == [list(p) for p in sorted(blocks)]
    assert S.labels.tolist() == [block_label(blocks[p]) for p in sorted(blocks)]
    assert np.array_equal(expand(S).quarters, oracle_expand(n_macro, s, blocks))
    assert (written(export_super_triplets, S).encode()
            == oracle_export(n_macro, s, blocks).encode())
    assert label_census(S) == oracle_census(n_macro, blocks)
    scan = [sum(1 for pair in blocks if i in pair) for i in range(n_macro)]
    assert S.degrees().tolist() == scan


def test_constructor_canonicalises_pairs():
    S = SuperAdjacency(4, 2, [(3, 0), (2, 1), (1, 0)], ["pi-", "pi-", "pi+"])
    assert S.pairs.tolist() == [[0, 1], [0, 3], [1, 2]]
    assert S.labels.tolist() == ["pi+", "pi-", "pi-"]
    assert S.degrees().tolist() == [2, 2, 1, 1]


@pytest.mark.parametrize("pairs,labels,match", [
    ([(0, 1), (2, 2)], ["pi+", "pi-"], "self-loop"),
    ([(0, 4)], ["pi+"], "out of range"),
    ([(-1, 2)], ["pi+"], "out of range"),
    ([(0, 1), (2, 3), (1, 0)], ["pi+", "pi-", "pi-"], "repeated"),
    ([(0, 1)], ["P0"], "of side 2"),
    ([(0, 1)], ["-P3"], "of side 2"),
    ([(0, 1)], ["P4"], "of side 2"),
    ([(0, 1)], ["pi+", "pi-"], "labels"),
])
def test_constructor_rejects_malformed_edges(pairs, labels, match):
    with pytest.raises(LatticeError, match=match):
        SuperAdjacency(4, 2, pairs, labels)
