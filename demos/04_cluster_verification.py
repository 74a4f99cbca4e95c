"""Verify the cluster-state claim numerically.

Vacuum evolved under the pair-coupling Hamiltonian becomes, after a 90
degree rotation of one color class, a state whose nullifier variances
against the signed adjacency decay uniformly as exp(-4r): the defining
cluster-state property (variances -> 0 with increasing squeezing).
"""

import numpy as np

from combcluster import build_torus_supergraph, cluster_state, expand

A = expand(build_torus_supergraph(6))

print("M=6 lattice, 144 qumodes")
print(f"{'r':>5} {'max variance':>14} {'exp(-4r)':>12} {'spread':>10} "
      f"{'purity defect':>14}")
for r in (0.5, 1.0, 1.5, 2.0):
    conv = cluster_state(A, r)
    rep = conv.nullifiers
    print(f"{r:5.2f} {rep.max_variance:14.6e} {np.exp(-4 * r):12.4e} "
          f"{np.ptp(rep.variances):10.1e} {conv.state.purity_defect():14.2e}")

conv = cluster_state(A, 1.0)
print(f"\nchosen convention: +1 quarter turn, target sign "
      f"{conv.target_sign:+d}")
print("survey of the two target signs:")
for sign, mv in sorted(conv.survey.items(), reverse=True):
    print(f"  sign={sign:+d}: max variance {mv:.6g}")
print("the -1 turn mirrors it: its sign -s reads the +1 turn's sign s")
