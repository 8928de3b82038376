"""Solvers for the minimum simultaneous dominating set problem.

An SD-set dominates every spanning tree of a connected graph at once.
The package provides an exact solver driven by block decomposition and
minimum vertex cover backends, LP-based approximations, brute-force
oracles for validation, generators, and a command line interface.
"""

from .blocks import (
    BlockCutTree,
    LeafComponentOrder,
    RootedBlockTree,
    blocks_and_cut_vertices,
    leaf_component_order,
    root_block_tree,
)
from .domination import (
    Colour,
    all_zero_hat,
    is_colour_respecting,
    is_sd_set,
    sd_witness,
)
from .errors import (
    BudgetExceededError,
    DisconnectedGraphError,
    GraphParseError,
    GuaranteeError,
    InvalidBipartitionError,
    InvalidDecompositionError,
    InvalidSdSetError,
    Not2ConnectedError,
    SimdomError,
    WidthBudgetError,
)
from .generators import (
    gap_graph,
    random_2connected_graph,
    random_bipartite_graph,
    random_chordal_graph,
    random_connected_graph,
    random_graph,
)
from .graph import (
    Graph,
    delete_edges_within,
    delete_vertices,
    induced_subgraph,
    parse_graph,
    write_graph,
)
from .lpapprox import (
    LpModel,
    LpRow,
    LpSolution,
    approx2_sds,
    approx4_sds_via_vc,
    build_sds_ip,
    round_lp,
    sds_to_vertex_cover,
    solve_lp_simplex,
)
from .oracle import (
    enumerate_spanning_trees,
    ip_optimum_bruteforce,
    is_sd_set_by_enumeration,
    min_crsds_bruteforce,
    min_sds_bruteforce,
    min_vc_bruteforce,
    spanning_tree_count,
)
from .solver import (
    BlockSolve,
    SolveReport,
    best_colour,
    crsds_2connected,
    solve_crsds,
    solve_sds,
)
from .treewidth import (
    TreeDecomposition,
    min_fill_decomposition,
    nice_decomposition,
    validate_decomposition,
    vc_via_tree_decomposition,
    write_td,
)
from .vertexcover import (
    VcResult,
    bipartition,
    is_vertex_cover,
    matching_2approx_vc,
    min_vc_bipartite,
    min_vc_branch_and_bound,
    min_vertex_cover,
)

__version__ = "0.1.0"

__all__ = [
    "BlockCutTree",
    "BlockSolve",
    "BudgetExceededError",
    "Colour",
    "DisconnectedGraphError",
    "Graph",
    "GraphParseError",
    "GuaranteeError",
    "InvalidBipartitionError",
    "InvalidDecompositionError",
    "InvalidSdSetError",
    "LeafComponentOrder",
    "LpModel",
    "LpRow",
    "LpSolution",
    "Not2ConnectedError",
    "RootedBlockTree",
    "SimdomError",
    "SolveReport",
    "TreeDecomposition",
    "VcResult",
    "WidthBudgetError",
    "all_zero_hat",
    "approx2_sds",
    "approx4_sds_via_vc",
    "best_colour",
    "bipartition",
    "blocks_and_cut_vertices",
    "build_sds_ip",
    "crsds_2connected",
    "delete_edges_within",
    "delete_vertices",
    "enumerate_spanning_trees",
    "gap_graph",
    "induced_subgraph",
    "ip_optimum_bruteforce",
    "is_colour_respecting",
    "is_sd_set",
    "is_sd_set_by_enumeration",
    "is_vertex_cover",
    "leaf_component_order",
    "matching_2approx_vc",
    "min_crsds_bruteforce",
    "min_fill_decomposition",
    "min_sds_bruteforce",
    "min_vc_bipartite",
    "min_vc_branch_and_bound",
    "min_vc_bruteforce",
    "min_vertex_cover",
    "nice_decomposition",
    "parse_graph",
    "random_2connected_graph",
    "random_bipartite_graph",
    "random_chordal_graph",
    "random_connected_graph",
    "random_graph",
    "root_block_tree",
    "round_lp",
    "sd_witness",
    "sds_to_vertex_cover",
    "solve_crsds",
    "solve_lp_simplex",
    "solve_sds",
    "spanning_tree_count",
    "validate_decomposition",
    "vc_via_tree_decomposition",
    "write_graph",
    "write_td",
]
