"""Exact solvers for simultaneous domination.

On a single block the problem is a vertex cover computation on a
residual graph: delete the vertices that must be in the set, drop edges
between vertices that are exempt from domination, cover what remains.
General graphs peel leaf blocks off the block-cut tree, sizing the
three possible recolourings of each connection vertex and committing
the cheapest, then finish on the root block. One solve keeps a memo
from each residual graph to its cover, so a residual that comes up again
(in another recolouring, another leaf block or the root block) is
searched once; the ONE search is told the smallest size it can have.
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
from .graph import Graph, induced_subgraph
# unused here, but perfbench --trace looks these up on this module by name
from .graph import delete_edges_within, delete_vertices  # noqa: F401
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


# (vertex count, sorted relabelled edges) of a residual -> (cover, backend tag)
CoverMemo = dict[tuple[int, tuple[tuple[int, int], ...]], tuple[frozenset[int], str]]


def _residual_core(
    h: Graph,
    fc: Colouring,
    backend: str,
    node_budget: int,
    memo: CoverMemo,
    min_size: int = 0,
) -> tuple[frozenset[int], str]:
    """Minimum fc-respecting set of a block graph via vertex cover.

    The residual drops the ONE vertices and the edges between ZERO
    vertices; its cover plus the ONE vertices is the answer. Every block
    solve goes through here, leaf recolourings included. The residual's
    edges are relabelled in order, so they stay sorted and (vertex
    count, edges) is the key Graph equality compares; a residual already
    in memo is not searched again. The key keeps the labels because the
    cover's tie-breaks depend on them. min_size is a lower bound on the
    answer's size known to the caller; it can only shorten the cover
    search, never change its result, so a memo entry serves any bound.
    """
    kept: list[int] = []
    ones: list[int] = []
    index = [-1] * h.n
    for v in range(h.n):
        if fc[v] is Colour.ONE:
            ones.append(v)
        else:
            index[v] = len(kept)
            kept.append(v)
    zero = Colour.ZERO
    edges = tuple(
        (index[u], index[v])
        for u, v in h.edges
        if index[u] >= 0
        and index[v] >= 0
        and not (fc[u] is zero and fc[v] is zero)
    )
    key = (len(kept), edges)
    hit = memo.get(key)
    if hit is None:
        vc = min_vertex_cover(
            Graph(len(kept), edges),
            backend,
            node_budget=node_budget,
            target=min_size - len(ones),
        )
        hit = memo[key] = (vc.cover, vc.backend)
    cover, tag = hit
    return frozenset([kept[w] for w in cover] + ones), tag


def crsds_2connected(
    g: Graph, f: Colouring, *, backend: str = "auto", node_budget: int = 0
) -> tuple[frozenset[int], int]:
    """Minimum colour-respecting SD-set of a graph that is one block."""
    bct = blocks_and_cut_vertices(g)
    if len(bct.blocks) != 1:
        raise Not2ConnectedError(
            f"graph has {len(bct.blocks)} blocks; expected a single block"
        )
    s, _ = _residual_core(g, f, backend, node_budget, {})
    return s, len(s)


def solve_crsds(
    g: Graph, f: Colouring, *, backend: str = "auto", node_budget: int = 0
) -> SolveReport:
    """Minimum f-respecting SD-set of a connected graph.

    Leaf blocks are processed in a precomputed peel order. For each, the
    connection vertex v is sized as ZERO_HAT, ZERO and ONE; the sizes
    can only form three patterns, each of which dictates the kept set
    and v's colour in the rest of the graph. Each distinct residual is
    searched once per solve: see _solve.
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

    Per leaf block, the pivot is sized as ZERO_HAT, ZERO and ONE. The
    memo, local to this call, answers every residual already searched:
    recolouring the pivot from ZERO_HAT to ZERO drops only its edges to
    ZERO neighbours, so without such a neighbour the ZERO residual is the
    ZERO_HAT one, and on graphs of many small blocks the same residual
    recurs across blocks. The ONE residual is the ZERO_HAT residual less
    the pivot, so its answer has at least s0h vertices, and that bound
    lets its search stop at the first set of that size.
    """
    order = leaf_component_order(bct)

    fcur = list(f)
    solution: set[int] = set()
    log: list[BlockSolve] = []
    tags: set[str] = set()
    memo: CoverMemo = {}

    for block_idx, conn in order.entries[:-1]:
        members = sorted(bct.blocks[block_idx])
        h, kept = induced_subgraph(g, members)
        local_f = [fcur[kept[i]] for i in range(h.n)]
        pivot = members.index(conn)
        sols: dict[Colour, frozenset[int]] = {}
        for colour in (Colour.ZERO_HAT, Colour.ZERO, Colour.ONE):
            local_f[pivot] = colour
            bound = len(sols[Colour.ZERO_HAT]) if colour is Colour.ONE else 0
            sols[colour], tag = _residual_core(
                h, local_f, backend, node_budget, memo, bound
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
    s, tag = _residual_core(h, local_f, backend, node_budget, memo)
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
