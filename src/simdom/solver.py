"""Exact solvers for simultaneous domination.

On a single block the problem is a vertex cover computation on a
residual graph: delete the vertices that must be in the set, drop edges
between vertices that are exempt from domination, cover what remains.
General graphs peel leaf blocks off the block-cut tree, sizing the
three possible recolourings of each connection vertex and committing
the cheapest, then finish on the root block. A graph that is one block
with every vertex to dominate (solve_sds on a 2-connected graph, an
edge or a vertex) is its own residual, as its SD-sets are exactly its
vertex covers: it goes to the cover backends as it is, with no residual
built. One solve keeps two memos. The block memo maps a leaf block's
local view (the pivot's position, the other members' colours and the
relabelled edges) to its outcome, so a leaf block whose view repeats
builds no residual and only recolours its pivot. Below it, the residual
memo maps each residual graph to its cover, so a residual that comes up
again (in another recolouring, another leaf block or the root block) is
searched once; the ONE search is told the smallest size it can have. A
node budget bounds the branch-and-bound nodes of the whole solve.

Outside the cover backends a solve is near-linear in n + m. It is
polynomial as a whole when every residual is: a bipartite one goes to
König, and one whose kernel (what the root reductions leave) has
min-fill width at most 12 goes to the treewidth DP. Any other residual,
a chordal one with a large clique among them, may branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .blocks import BlockCutTree, blocks_and_cut_vertices, flat_blocks, leaf_component_order
from .domination import Colour, Colouring, all_zero_hat, is_colour_respecting
from .errors import GuaranteeError, InvalidSdSetError
from .graph import Graph
# unused here, but perfbench --trace looks these up on this module by name
from .domination import is_sd_set  # noqa: F401
from .graph import delete_edges_within, delete_vertices, induced_subgraph  # noqa: F401
from .vertexcover import budget_left, min_vertex_cover


class BlockSolve(NamedTuple):
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


# (vertex count, u0, v0, u1, v1, ...) of a residual, its sorted relabelled
# edges laid out flat -> (cover, the names of the backends that found it)
CoverMemo = dict[tuple[int, ...], tuple[frozenset[int], tuple[str, ...]]]
# (vertex count, pivot position, the members' colours with the pivot's
# read as ZERO_HAT, u0, v0, u1, v1, ...) of a leaf block -> (size_one,
# size_zero, size_zero_hat, case, the members it keeps, by position)
BlockMemo = dict[tuple[int, ...], tuple[int, int, int, str, tuple[int, ...]]]


def _residual_core(
    n: int,
    edges: list[int],
    fc: Colouring,
    backend: str,
    node_budget: int,
    memo: CoverMemo,
    min_size: int = 0,
) -> tuple[frozenset[int], tuple[str, ...], int]:
    """Minimum fc-respecting set of a block via vertex cover.

    The block has vertices 0..n-1 and the sorted edges ``edges``, laid
    out flat as u0, v0, u1, v1, .... The
    residual drops the ONE vertices and the edges between ZERO vertices;
    its cover plus the ONE vertices is the answer. Every block solve
    goes through here, leaf recolourings included, except a graph that
    is one block with every vertex ZERO_HAT. The residual's edges
    are relabelled in order, so they stay sorted, and the memo key is
    the vertex count followed by the edges' endpoints, flat: the same
    residuals share a key exactly when they compare equal as Graphs. A
    residual already in memo is not searched again; on a miss its Graph
    is built from the key itself, unchecked. The key keeps the labels
    because the cover's tie-breaks depend on them. min_size is a lower
    bound on the answer's size known to the caller; it can only shorten
    the cover search, never change its result, so a memo entry serves
    any bound.
    The third value is the branch-and-bound nodes spent, 0 on a memo hit.
    """
    one = Colour.ONE
    zero = Colour.ZERO
    kept: list[int] = []
    ones: list[int] = []
    index = [-1] * n
    for v, c in enumerate(fc):
        if c is one:
            ones.append(v)
        else:
            index[v] = len(kept)
            kept.append(v)
    flat = [len(kept)]
    ends = iter(edges)
    for u, v in zip(ends, ends):
        a = index[u]
        b = index[v]
        if a >= 0 and b >= 0 and (fc[u] is not zero or fc[v] is not zero):
            flat += a, b
    key = tuple(flat)
    hit = memo.get(key)
    nodes = 0
    if hit is None:
        residual = Graph._of_ends(key[0], key[1:])
        vc = min_vertex_cover(
            residual, backend, node_budget=node_budget, target=min_size - len(ones)
        )
        hit = memo[key] = (vc.cover, vc.backends)
        nodes = vc.nodes
    cover, names = hit
    return frozenset([kept[w] for w in cover] + ones), names, nodes


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
    if node_budget < 0:
        raise ValueError(f"node budget must be nonnegative, got {node_budget}")
    return _solve(g, blocks_and_cut_vertices(g), f, backend, node_budget)


def _solve(
    g: Graph,
    bct: BlockCutTree,
    f: Colouring,
    backend: str,
    node_budget: int,
    *,
    block_memo: bool = True,
) -> SolveReport:
    """Peel the leaf blocks of ``bct`` in order, then solve the root block,
    as g itself when it is all of g and every vertex is ZERO_HAT.

    Every block's sorted members come from bct, and its relabelled edges
    from one pass over g's edges (flat_blocks), made unless g is one
    block with every vertex ZERO_HAT.

    A leaf block's outcome (its three sizes, its case and the members it
    keeps) depends only on its local view: the pivot's position, the
    other members' colours and the relabelled edges. A block memo, local
    to this call, maps each view to its outcome, so a leaf block whose
    view repeats costs one lookup and recolours its pivot as the case
    says; on graphs of many small blocks most views repeat. block_memo
    False turns that memo off, so tests can compare against solving
    every block afresh.

    On a block memo miss the pivot is sized as ZERO_HAT, ZERO and ONE.
    The residual memo, also local to this call, answers every residual
    already searched: recolouring the pivot from ZERO_HAT to ZERO drops
    only its edges to ZERO neighbours, so without such a neighbour the
    ZERO residual is the ZERO_HAT one, and residuals recur across blocks
    whose views differ. The ONE residual is the ZERO_HAT residual less
    the pivot, so its answer has at least s0h vertices, and that bound
    lets its search stop at the first set of that size. node_budget
    bounds the branch-and-bound nodes of all searches together; each
    search gets what the earlier ones left.
    """
    order = leaf_component_order(bct)

    fcur = list(f)
    solution: set[int] = set()
    log: list[BlockSolve] = []
    covered_by: set[tuple[str, ...]] = set()  # each cover's backends
    memo: CoverMemo = {}
    peeled: BlockMemo = {}
    used = 0

    one, zero, zero_hat = Colour.ONE, Colour.ZERO, Colour.ZERO_HAT
    members_of, member_start = bct.members, bct.member_start
    # one block with every vertex to dominate: its SD-sets are its
    # vertex covers, so g is its own residual
    whole = len(order) == 1 and fcur.count(zero_hat) == g.n
    if not whole:
        ends, edge_start = flat_blocks(g, bct)
    for block_idx, conn in order[:-1]:
        members = members_of[member_start[block_idx]:member_start[block_idx + 1]]
        edges = ends[edge_start[block_idx]:edge_start[block_idx + 1]]
        local_f = [fcur[v] for v in members]
        pivot = members.index(conn)
        local_f[pivot] = zero_hat
        key = (len(members), pivot, *local_f, *edges)
        outcome = peeled.get(key) if block_memo else None
        if outcome is None:
            sols: dict[Colour, frozenset[int]] = {}
            for colour in (zero_hat, zero, one):
                local_f[pivot] = colour
                bound = len(sols[zero_hat]) if colour is one else 0
                sols[colour], names, nodes = _residual_core(
                    len(members), edges, local_f, backend,
                    budget_left(node_budget, used), memo, bound,
                )
                used += nodes
                covered_by.add(names)
            s1 = len(sols[one])
            s0 = len(sols[zero])
            s0h = len(sols[zero_hat])
            if not s0 <= s0h <= s1 <= s0 + 1:
                raise GuaranteeError(f"impossible size pattern {s1=} {s0h=} {s0=}")
            if s1 == s0h == s0:
                case, chosen = "all-equal", sols[one]
            elif s1 > s0h == s0:
                case, chosen = "one-larger", sols[zero_hat]
            else:  # the ladder leaves only s0 < s0h == s1
                case, chosen = "zero-smaller", sols[zero]
            # a tuple, as the memo keeps every outcome to the end of the
            # solve: it takes a quarter of the memory of a small frozenset
            outcome = peeled[key] = (s1, s0, s0h, case, tuple(chosen))
        s1, s0, s0h, case, chosen = outcome
        if case == "all-equal":
            recolour: Colour | None = one
            fcur[conn] = one
        elif case == "one-larger":
            recolour = fcur[conn] = max(fcur[conn], zero)
        else:  # zero-smaller: the pivot keeps its colour
            recolour = None
        solution.update(members[w] for w in chosen)
        log.append(BlockSolve(block_idx, conn, s1, s0, s0h, case, recolour))

    if whole:
        vc = min_vertex_cover(
            g, backend, node_budget=budget_left(node_budget, used), target=0
        )
        covered_by.add(vc.backends)
        solution.update(vc.cover)
    else:
        root = order[-1][0]
        members = members_of[member_start[root]:member_start[root + 1]]
        edges = ends[edge_start[root]:edge_start[root + 1]]
        s, names, _ = _residual_core(
            len(members), edges, [fcur[v] for v in members], backend,
            budget_left(node_budget, used), memo,
        )
        covered_by.add(names)
        solution.update(members[w] for w in s)

    result = frozenset(solution)
    if not is_colour_respecting(g, bct, f, result):
        raise InvalidSdSetError("solver produced a set that violates its colouring")
    return SolveReport(
        solution=result,
        size=len(result),
        block_log=tuple(log),
        backends=tuple(sorted(set().union(*covered_by))),
    )


def solve_sds(
    g: Graph, *, backend: str = "auto", node_budget: int = 0
) -> SolveReport:
    """Minimum SD-set: the all-ZERO_HAT colouring's solve_crsds.

    _solve's check that the set respects the colouring is, for this
    colouring, the check that it is an SD-set.
    """
    return solve_crsds(g, all_zero_hat(g.n), backend=backend, node_budget=node_budget)
