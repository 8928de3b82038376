"""Solvers for the minimum simultaneous dominating set problem.

An SD-set dominates every spanning tree of a connected graph at once.
The package provides an exact solver driven by block decomposition and
minimum vertex cover backends, LP-based approximations, brute-force
oracles for validation, generators, and a command line interface.

The names below are the library's entry points and the types they take
and return; everything else is imported from its submodule.
"""

from .blocks import blocks_and_cut_vertices
from .domination import Colour, is_sd_set, sd_witness
from .errors import (
    BudgetExceededError,
    DisconnectedGraphError,
    GraphParseError,
    GuaranteeError,
    InvalidBipartitionError,
    InvalidDecompositionError,
    InvalidSdSetError,
    SimdomError,
    WidthBudgetError,
)
from .graph import Graph, parse_graph, write_graph
from .lpapprox import approx2_sds, approx4_sds_via_vc
from .solver import BlockSolve, SolveReport, solve_crsds, solve_sds
from .vertexcover import min_vertex_cover

__version__ = "0.1.0"

__all__ = [
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
    "SimdomError",
    "SolveReport",
    "WidthBudgetError",
    "approx2_sds",
    "approx4_sds_via_vc",
    "blocks_and_cut_vertices",
    "is_sd_set",
    "min_vertex_cover",
    "parse_graph",
    "sd_witness",
    "solve_crsds",
    "solve_sds",
    "write_graph",
]
