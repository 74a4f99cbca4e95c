"""
combcluster: frequency-comb continuous-variable cluster states.

Three layers:

* `lattice` builds the matrix-weighted supergraphs (twisted toroidal
  lattice, ring/crown) with exact quarter-integer arithmetic and validates
  orthogonality, bicolorability and the block-Hankel renumbering,
* `hankel` encodes (block-)Hankel matrices as shorthand vectors and
  compiles them into pump spectra with scaling reports,
* `gaussian` evolves vacuum under the pair-coupling Hamiltonian and checks
  the cluster-state claims: nullifier variances, phase conventions,
  ideal q measurements and the graph reductions.

`verify` bundles the acceptance checks; `cli` drives everything from the
command line.
"""

from .lattice import (
    BlockWeight, PI_PLUS, PI_MINUS, PI4,
    projector2, projector4, kron, block_label,
    SuperAdjacency, PhysAdjacency,
    build_torus_supergraph, build_ring_supergraph, torus_block_diagonals,
    expand, check_orthogonal, two_path_weight,
    Bicoloring, bicoloring,
    RenumberResult, renumber_to_block_hankel, renumber_permutation,
    renumbered_diagonal_positions,
    MacronodeCoords, coordinates, label_census,
    export_triplets, export_dot, export_super_triplets,
    LatticeError, NonBipartiteError,
)
from .hankel import (
    HankelShorthand, shorthand_of, matrix_of,
    PumpLine, PumpSpectrum, compile_pump, lattice_pump_spectrum,
    ScalingRow, scaling_report, scaling_table,
    pump_file, shorthand_file,
    NotHankelError, PumpCompileError,
)
from .gaussian import (
    GaussianState, vacuum, omega,
    EvolutionParams, evolve, evolution_symplectic,
    rotate_color_class, best_phase_convention, PhaseConvention,
    cluster_state,
    NullifierReport, nullifier_variances,
    measure_q, ideal_graph_delete,
    EffectiveGraph, effective_graph,
    GraphStats, support_graph_stats,
    ReductionReport, reduce_and_cut, lattice_cut_nodes,
    nullifier_table, nullifier_records, effective_graph_dump,
    GaussianError,
)

__version__ = "0.1.0"
