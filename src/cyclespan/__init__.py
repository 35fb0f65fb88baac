"""cyclespan: do a graph's Hamilton cycles span its GF(2) cycle space?

Library layout:

- graph: immutable graphs, canonical edge ids, graph6 and edge-list I/O
- gf2: edge vectors, incremental elimination, cycle and cut spaces
- spanning: Hamilton cycle enumeration, spanning verdicts, witnesses
- switcher: parity switcher gadgets and their two-parity traversals
- hamfinder: rotation-extension search, splits, sheltered Hamilton paths
- experiments: G(n, p) sampling, the refutation pipeline, campaigns
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
from .switcher import ParitySwitcher, disjoint_pair_paths, find_switcher_cycle, \
    hamilton_paths_of_switcher
from .hamfinder import SplitRequest, hamilton_path_protected, lll_split, \
    rotation_extension_path
from .experiments import (
    CellSpec,
    ExperimentConfig,
    ModelParams,
    TrialRecord,
    property_report,
    refutation_pipeline,
    run_experiment,
    sample_gnp,
    synthetic_witness,
    threshold_p,
)

__version__ = "0.1.0"
