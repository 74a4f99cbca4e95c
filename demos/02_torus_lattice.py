"""Build the twisted toroidal lattice and verify it exactly.

The supergraph on M**2 macronodes is defined by seven nonzero block
skew-diagonals.  Expanding to physical nodes gives a quarter-integer
adjacency whose square is exactly the identity: every same-node pair of
two-step paths sums to 1 and every distinct-node pair cancels to 0.
"""

from combcluster import (bicoloring, build_torus_supergraph, check_orthogonal,
                         coordinates, expand, label_census, two_path_weight)

M = 6
S = build_torus_supergraph(M)
A = expand(S)

print(f"M = {M}: {S.n_macro} macronodes, {S.n_superedges} superedges, "
      f"{A.n} physical nodes, {A.nnz // 2} physical edges")

report = check_orthogonal(A)
print(f"A @ A == identity (exact integers): {report.is_orthogonal}, "
      f"worst deviation {report.worst_deviation}")

print("two-path weights:",
      f"(0,0) -> {two_path_weight(A, 0, 0)},",
      f"(0,1) -> {two_path_weight(A, 0, 1)},",
      f"(7,40) -> {two_path_weight(A, 7, 40)}")

colors = bicoloring(A)
print(f"bicolorable: color counts = "
      f"{[int((colors == c).sum()) for c in (0, 1)]}")

census = label_census(S)
assert all(c == {"P0": 1, "P1": 1, "P2": 1, "P3": 1} for c in census.values())
print("every macronode touches each projector label exactly once")

coords = coordinates(M)
print(f"torus chart: macronode 0 at ({coords.x[0]}, {coords.y[0]}), "
      f"x-axis cycle length {len(coords.axis_cycles['x'])}, "
      f"y-axis cycle length {len(coords.axis_cycles['y'])}")
print("first x-axis steps:", coords.axis_cycles["x"][:8].tolist())
