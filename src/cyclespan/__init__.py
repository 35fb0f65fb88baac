"""cyclespan: do a graph's Hamilton cycles span its GF(2) cycle space?

Library layout, each module importing only from those above it:

- seeds: derived sub-seeds
- graph: immutable graphs, edge ids read from star masks, the BFS
  forest behind cut and bipartiteness tests, graph6 and edge-list I/O
- gf2: edge vectors, incremental elimination, cycle and cut spaces
- hamfinder: rotation-extension search, vertex-disjoint pair paths,
  splits, sheltered Hamilton paths
- spanning: Hamilton cycle enumeration, spanning verdicts, witnesses
- switcher: parity switcher gadgets and their two-parity traversals
- refute: synthetic witnesses, switcher construction, the refutation pipeline
- experiments: G(n, p) sampling, property report, campaigns
- cli: the command line
"""

from .gf2 import EdgeVector, Gf2Basis, cut_space_stars, cycle_space_basis, \
    intersection_parity, is_even_subgraph
from .graph import Graph, VertexSet, bfs_path, from_edge_list, from_graph6, \
    restrict, small_vertices, to_graph6
from .spanning import (
    HamiltonCycle,
    SpanVerdict,
    VerdictKind,
    WitnessR,
    confirm_spanning_sampled,
    decide_spanning_exact,
    enumerate_hamilton_cycles,
    extract_witness,
    is_bipartition_form,
    normalize_witness,
)
from .switcher import ParitySwitcher, find_switcher_cycle, hamilton_paths_of_switcher
from .hamfinder import SplitRequest, disjoint_pair_paths, hamilton_path_protected, \
    lll_split, rotation_extension_path
from .refute import RefutationResult, build_switcher, refutation_pipeline, \
    synthetic_witness
from .experiments import (
    CellSpec,
    ExperimentConfig,
    ModelParams,
    TrialRecord,
    property_report,
    run_experiment,
    sample_gnp,
    threshold_p,
)

__version__ = "0.1.0"
