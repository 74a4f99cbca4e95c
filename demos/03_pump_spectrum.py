"""From lattice to pump: renumbering, shorthand, compilation, scaling.

Regrouping the physical nodes by tensor factor turns the lattice adjacency
into 2x2 block-Hankel form with exactly 15 nonzero skew-diagonals, one
pump frequency each - for every lattice size.  Only the edge count and the
bandwidth grow (linearly in the macronode count).
"""

from combcluster import (build_torus_supergraph, compile_pump, expand,
                         pump_file, renumber_to_block_hankel, scaling_report,
                         scaling_table)

M = 6
A = expand(build_torus_supergraph(M))
renum = renumber_to_block_hankel(A, M)
short = renum.shorthand

print(f"shorthand length {short.length}, corner at {short.corner_index}, "
      f"{len(short.nonzero_indices())} nonzero blocks at:")
print(" ", short.nonzero_indices())
print(f"run-length skeleton: short runs {M - 1}, long runs {M * M - 2 * M - 3}")

spectrum = compile_pump(short)
print(f"\npump: {len(spectrum.lines)} lines, bandwidth span "
      f"{spectrum.bandwidth_span} free-spectral-range units")
print(pump_file(spectrum))

line = spectrum.lines[0]
pairs = spectrum.coupled_pairs(line)
print(f"line d={line.frequency_index} couples {len(pairs)} qumode pairs, "
      f"first few: {pairs[:4]}")

print("\nscaling with lattice size:")
print(scaling_table(scaling_report([6, 8, 10])), end="")
print("pump_lines stays 15; edges and bandwidth grow linearly with N = M^2")
