"""Graph reductions by q measurement.

Measuring q deletes nodes in the infinite-squeezing limit.  Three
demonstrations: the 4-macronode crown collapsing to a uniform ring, the
lattice collapsing to one uniformly weighted layer, and the meridian cut,
which keeps one layer minus a chart column and row of macronodes and
reports the kept graph's size, connectivity, degree and cycle rank.  The
code does not check whether the cut opens the torus: for many meridians a
cycle around it survives.
"""

import numpy as np

from combcluster import (build_ring_supergraph, build_torus_supergraph,
                         cluster_state, effective_graph, expand,
                         ideal_graph_delete, measure_q, nullifier_variances,
                         reduce_and_cut)

print("== crown -> ring ==")
crown = expand(build_ring_supergraph(4))
top = [0, 2, 4, 6]
for r in (1.0, 2.0, 3.0):
    state, conv = cluster_state(crown, r)
    reduced = measure_q(state, top)
    target = ideal_graph_delete(conv.nullifiers.target_adjacency, top)
    rep = nullifier_variances(reduced, target)
    eg = effective_graph(reduced)
    print(f"r={r}: residual {rep.max_variance:.3e}, "
          f"effective-graph error {np.abs(eg.V - target).max():.3e}")
ideal = ideal_graph_delete(crown.dense(), top)
print("ideal ring weights:", sorted({float(v) for v in np.abs(ideal[ideal != 0])}))

print("\n== lattice -> single layer ==")
A = expand(build_torus_supergraph(6))
measured = [i for i in range(144) if i % 4 != 0]
for r in (1.0, 2.0):
    state, conv = cluster_state(A, r)
    reduced = measure_q(state, measured)
    target = ideal_graph_delete(conv.nullifiers.target_adjacency, measured)
    rep = nullifier_variances(reduced, target)
    print(f"r={r}: 36 remaining modes, residual {rep.max_variance:.3e}")
ideal = ideal_graph_delete(A.dense(), measured)
print("remaining |weights|:", sorted({float(v) for v in np.abs(ideal[ideal != 0])}))

print("\n== torus cut ==")
remaining, report = reduce_and_cut(A.dense(), 6, 0, (0, 0))
st = report.graph_stats
print(f"ideal cut: {st.n_nodes} nodes (expected "
      f"{report.expected_patch_macronodes}), connected={st.is_connected}, "
      f"max degree {st.max_degree}, cycle rank {st.cycle_rank}")
for r in (1.0, 2.0):
    state, conv = cluster_state(A, r)
    _, rep = reduce_and_cut(state, 6, 0, (0, 0),
                            target=conv.nullifiers.target_adjacency,
                            squeeze_r=r)
    print(f"gaussian path r={r}: max residual {rep.max_residual:.3e}")
