"""Exact solvers for simultaneous domination.

On a single block the problem is a vertex cover computation on a
residual graph: delete the vertices that must be in the set, drop edges
between vertices that are exempt from domination, cover what remains.
General graphs peel leaf blocks off the block-cut tree, sizing the
three possible recolourings of each connection vertex and committing
the cheapest, then finish on the root block. A recolouring whose
residual equals one already solved is not solved again, and the ONE
search is told the smallest size it can have.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .blocks import BlockCutTree, blocks_and_cut_vertices, leaf_component_order
from .domination import Colour, Colouring, all_zero_hat, is_colour_respecting, is_sd_set
from .errors import (
    DisconnectedGraphError,
    GuaranteeError,
    InvalidSdSetError,
    Not2ConnectedError,
)
from .graph import Graph, delete_edges_within, delete_vertices, induced_subgraph
from .vertexcover import min_vertex_cover


@dataclass(frozen=True)
class BlockSolve:
    """Log entry for one peeled leaf block."""

    block: int
    connection_vertex: int
    size_one: int
    size_zero: int
    size_zero_hat: int
    case: str  # "all-equal" | "one-larger" | "zero-smaller"
    recoloured_to: Colour | None


@dataclass(frozen=True)
class SolveReport:
    solution: frozenset[int]
    size: int
    block_log: tuple[BlockSolve, ...]
    backends: tuple[str, ...]
    verified: bool


def best_colour(colours: Iterable[Colour]) -> Colour:
    """Maximum under ONE > ZERO > ZERO_HAT."""
    cs = list(colours)
    if not cs:
        raise ValueError("best_colour of an empty collection")
    return max(cs)


def _residual_core(
    h: Graph, fc: Colouring, backend: str, node_budget: int, min_size: int = 0
) -> tuple[frozenset[int], str]:
    """Minimum fc-respecting set of a block graph via vertex cover.

    The residual drops the ONE vertices and the edges between ZERO
    vertices; its cover plus the ONE vertices is the answer. Every block
    solve goes through here, leaf recolourings included. min_size is a
    lower bound on the answer's size known to the caller; it can only
    shorten the cover search, never change its result.
    """
    ones = {v for v in range(h.n) if fc[v] is Colour.ONE}
    zeros = {v for v in range(h.n) if fc[v] is Colour.ZERO}
    h1, old_to_new = delete_vertices(h, ones)
    h2 = delete_edges_within(h1, {old_to_new[v] for v in zeros})
    vc = min_vertex_cover(
        h2, backend, node_budget=node_budget, target=min_size - len(ones)
    )
    new_to_old = {nv: ov for ov, nv in old_to_new.items()}
    s = frozenset(new_to_old[w] for w in vc.cover) | frozenset(ones)
    return s, vc.backend


def crsds_2connected(
    g: Graph, f: Colouring, *, backend: str = "auto", node_budget: int = 0
) -> tuple[frozenset[int], int]:
    """Minimum colour-respecting SD-set of a graph that is one block."""
    bct = blocks_and_cut_vertices(g)
    if len(bct.blocks) != 1:
        raise Not2ConnectedError(
            f"graph has {len(bct.blocks)} blocks; expected a single block"
        )
    s, _ = _residual_core(g, f, backend, node_budget)
    return s, len(s)


def solve_crsds(
    g: Graph, f: Colouring, *, backend: str = "auto", node_budget: int = 0
) -> SolveReport:
    """Minimum f-respecting SD-set of a connected graph.

    Leaf blocks are processed in a precomputed peel order. For each, the
    connection vertex v is sized as ZERO_HAT, ZERO and ONE; the sizes
    can only form three patterns, each of which dictates the kept set
    and v's colour in the rest of the graph. Each leaf block takes two
    or three cover searches: see _solve.
    """
    if len(f) != g.n:
        raise ValueError("colouring length does not match the vertex count")
    return _solve(g, _decompose(g), f, backend, node_budget)


def _decompose(g: Graph) -> BlockCutTree:
    if not g.is_connected():
        raise DisconnectedGraphError("solver requires a connected graph")
    return blocks_and_cut_vertices(g)


def _solve(
    g: Graph, bct: BlockCutTree, f: Colouring, backend: str, node_budget: int
) -> SolveReport:
    """Peel the leaf blocks of ``bct`` in order, then solve the root block.

    Per leaf block, ZERO_HAT is solved first. Recolouring the pivot from
    ZERO_HAT to ZERO drops only its edges to ZERO neighbours, so without
    such a neighbour the ZERO residual is the same graph and its answer
    is reused instead of searched again. The ONE residual is the ZERO_HAT
    residual less the pivot, so its answer has at least s0h vertices,
    and that bound lets its search stop at the first set of that size.
    """
    order = leaf_component_order(bct)

    fcur = list(f)
    solution: set[int] = set()
    log: list[BlockSolve] = []
    tags: set[str] = set()

    for block_idx, conn in order.entries[:-1]:
        members = sorted(bct.blocks[block_idx])
        h, kept = induced_subgraph(g, members)
        local_f = [fcur[kept[i]] for i in range(h.n)]
        pivot = members.index(conn)
        sols: dict[Colour, frozenset[int]] = {}
        local_f[pivot] = Colour.ZERO_HAT
        sols[Colour.ZERO_HAT], tag = _residual_core(h, local_f, backend, node_budget)
        tags.add(tag)
        if any(local_f[w] is Colour.ZERO for w in h.neighbours(pivot)):
            local_f[pivot] = Colour.ZERO
            sols[Colour.ZERO], tag = _residual_core(h, local_f, backend, node_budget)
            tags.add(tag)
        else:
            sols[Colour.ZERO] = sols[Colour.ZERO_HAT]
        local_f[pivot] = Colour.ONE
        sols[Colour.ONE], tag = _residual_core(
            h, local_f, backend, node_budget, len(sols[Colour.ZERO_HAT])
        )
        tags.add(tag)
        s1 = len(sols[Colour.ONE])
        s0 = len(sols[Colour.ZERO])
        s0h = len(sols[Colour.ZERO_HAT])
        if not s0 <= s0h <= s1 <= s0 + 1:
            raise GuaranteeError(f"impossible size pattern {s1=} {s0h=} {s0=}")
        if s1 == s0h == s0:
            fcur[conn] = Colour.ONE
            chosen = sols[Colour.ONE]
            case = "all-equal"
            recolour: Colour | None = Colour.ONE
        elif s1 > s0h == s0:
            recolour = best_colour((fcur[conn], Colour.ZERO))
            fcur[conn] = recolour
            chosen = sols[Colour.ZERO_HAT]
            case = "one-larger"
        else:  # the ladder leaves only s0 < s0h == s1
            chosen = sols[Colour.ZERO]
            case = "zero-smaller"
            recolour = None
        solution.update(kept[w] for w in chosen)
        log.append(
            BlockSolve(block_idx, conn, s1, s0, s0h, case, recolour)
        )

    root_idx = order.entries[-1][0]
    members = sorted(bct.blocks[root_idx])
    h, kept = induced_subgraph(g, members)
    local_f = [fcur[kept[i]] for i in range(h.n)]
    s, tag = _residual_core(h, local_f, backend, node_budget)
    tags.add(tag)
    solution.update(kept[w] for w in s)

    result = frozenset(solution)
    if not is_colour_respecting(g, bct, f, result):
        raise InvalidSdSetError("solver produced a set that violates its colouring")
    return SolveReport(
        solution=result,
        size=len(result),
        block_log=tuple(log),
        backends=tuple(sorted(tags)),
        verified=True,
    )


def solve_sds(
    g: Graph, *, backend: str = "auto", node_budget: int = 0
) -> SolveReport:
    """Minimum SD-set: the all-ZERO_HAT colouring."""
    bct = _decompose(g)
    report = _solve(g, bct, all_zero_hat(g.n), backend, node_budget)
    if not is_sd_set(g, bct, report.solution):
        raise InvalidSdSetError("solver produced a set that is not an SD-set")
    return report
