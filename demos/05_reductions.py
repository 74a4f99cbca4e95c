"""Graph reductions by q measurement.

Measuring q deletes nodes in the infinite-squeezing limit, so one step,
`measure_and_delete`, q-measures nodes of the cluster state, deletes them
from its signed target and scores the nullifiers.  Three demonstrations:
the 4-macronode crown collapsing to a uniform ring, the lattice collapsing
to one uniformly weighted layer, and the meridian cut.  `reduce_and_cut`
takes the cut on the ideal graph: it keeps one layer minus a chart column
and row of macronodes and reports the kept graph's size, connectivity,
degree and cycle rank; the report's measured nodes then go to
`measure_and_delete`.  The code does not check whether the cut opens the
torus: for many meridians a cycle around it survives.
"""

import numpy as np

from combcluster import (build_ring_supergraph, build_torus_supergraph,
                         effective_graph, expand, ideal_graph_delete,
                         measure_and_delete, reduce_and_cut)

print("== crown -> ring ==")
crown = expand(build_ring_supergraph(4))
top = [0, 2, 4, 6]
for reduced, target, rep in measure_and_delete(crown, (1.0, 2.0, 3.0), top):
    eg = effective_graph(reduced)
    print(f"r={rep.squeeze_r}: residual {rep.max_variance:.3e}, "
          f"effective-graph error {abs(eg.V - target).max():.3e}")
ideal = ideal_graph_delete(crown, top)
print("ideal ring weights:", sorted({float(v) for v in np.abs(ideal.data)}))

print("\n== lattice -> single layer ==")
A = expand(build_torus_supergraph(6))
measured = [i for i in range(144) if i % 4 != 0]
for reduced, _, rep in measure_and_delete(A, (1.0, 2.0), measured):
    print(f"r={rep.squeeze_r}: {reduced.n} remaining modes, "
          f"residual {rep.max_variance:.3e}")
ideal = ideal_graph_delete(A, measured)
print("remaining |weights|:", sorted({float(v) for v in np.abs(ideal.data)}))

print("\n== torus cut ==")
report = reduce_and_cut(A, 6, 0, (0, 0))
st = report.graph_stats
print(f"ideal cut: {st.n_nodes} nodes (expected "
      f"{report.expected_patch_macronodes}), connected={st.is_connected}, "
      f"max degree {st.max_degree}, cycle rank {st.cycle_rank}")
for _, _, rep in measure_and_delete(A, (1.0, 2.0), report.measured_nodes):
    print(f"gaussian path r={rep.squeeze_r}: max residual "
          f"{rep.max_variance:.3e}")
