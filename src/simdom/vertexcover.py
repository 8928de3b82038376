"""Minimum vertex cover backends and graph-class recognition.

Three exact backends: branch and reduce (any graph; see
_kernels/pure.py for its LP reduction and cycle-cover bound), König via
Hopcroft-Karp (bipartite), and dynamic programming over a tree
decomposition (see treewidth module). The auto dispatcher picks per
connected component. A greedy maximal matching gives the classic
2-approximation and the matching_bound each result reports.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import AbstractSet, Sequence

from ._kernels import pure
from .errors import GuaranteeError, InvalidBipartitionError
from .graph import Graph, induced_subgraph

AUTO_WIDTH_CAP = 12
# widest decomposition the treewidth DP accepts; defined here, not in
# treewidth, because treewidth imports this module when it loads
WIDTH_BUDGET = 20


@dataclass(frozen=True)
class VcResult:
    """A vertex cover with provenance.

    backend is one of "bnb", "bipartite", "treewidth", or a +-joined
    combination when the auto dispatcher mixed backends across
    components. matching_bound is a maximal-matching lower bound on the
    optimum; nodes counts branch-and-bound search nodes when that
    backend ran.
    """

    cover: frozenset[int]
    size: int
    backend: str
    matching_bound: int | None = None
    nodes: int | None = None


def is_vertex_cover(g: Graph, s: AbstractSet[int]) -> bool:
    return all(u in s or v in s for u, v in g.edges)


def greedy_matching(g: Graph) -> tuple[tuple[int, int], ...]:
    """Maximal matching, edges taken greedily in sorted edge order."""
    matched: set[int] = set()
    picked: list[tuple[int, int]] = []
    for u, v in g.edges:
        if u not in matched and v not in matched:
            picked.append((u, v))
            matched.add(u)
            matched.add(v)
    return tuple(picked)


def matching_2approx_vc(g: Graph) -> frozenset[int]:
    """Both endpoints of a greedy maximal matching; at most twice optimal."""
    cover: set[int] = set()
    for u, v in greedy_matching(g):
        cover.add(u)
        cover.add(v)
    return frozenset(cover)


def min_vc_branch_and_bound(
    g: Graph, *, node_budget: int = 0, target: int = -1
) -> VcResult:
    """Exact minimum cover by branch and bound.

    node_budget of 0 means unlimited, otherwise exceeding it raises
    BudgetExceededError. target is a lower bound on the optimum known to
    the caller (see pure.vc_search); it changes the node count, not the
    cover.
    """
    mask, nodes = pure.vc_search(g.n, g.adjacency_masks(), node_budget, target)
    cover = frozenset(v for v in range(g.n) if (mask >> v) & 1)
    return VcResult(
        cover=cover,
        size=len(cover),
        backend="bnb",
        matching_bound=len(greedy_matching(g)),
        nodes=nodes,
    )


def bipartition(g: Graph) -> tuple[frozenset[int], frozenset[int]] | None:
    """Two-colour the graph by BFS, or None when an odd cycle exists.

    The smallest vertex of each component lands on the first side.
    """
    side = [-1] * g.n
    for root in range(g.n):
        if side[root] >= 0:
            continue
        side[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in sorted(g.neighbours(u)):
                if side[w] < 0:
                    side[w] = 1 - side[u]
                    queue.append(w)
                elif side[w] == side[u]:
                    return None
    return (
        frozenset(v for v in range(g.n) if side[v] == 0),
        frozenset(v for v in range(g.n) if side[v] == 1),
    )


def _hopcroft_karp(
    g: Graph, left: Sequence[int]
) -> tuple[dict[int, int], dict[int, int]]:
    """Maximum matching; returns (left-to-right, right-to-left) maps."""
    INF = float("inf")
    match_l: dict[int, int] = {}
    match_r: dict[int, int] = {}
    adj = {u: sorted(g.neighbours(u)) for u in left}
    dist: dict[int, float] = {}

    def bfs() -> bool:
        dist.clear()
        queue: deque[int] = deque()
        for u in left:
            if u not in match_l:
                dist[u] = 0
                queue.append(u)
        found = False
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                nxt = match_r.get(w)
                if nxt is None:
                    found = True
                elif nxt not in dist:
                    dist[nxt] = dist[u] + 1
                    queue.append(nxt)
        return found

    def dfs(root: int) -> None:
        """Augment along one shortest path from root, if there is one.

        Iterative, so path length is not bounded by the recursion limit.
        Each frame holds a left vertex and its remaining neighbours; a
        frame is only left once its vertex is matched or marked dead.
        """
        stack = [(root, iter(adj[root]))]
        while stack:
            u, it = stack[-1]
            for w in it:
                nxt = match_r.get(w)
                if nxt is None:
                    # Free right vertex: flip the path held by the stack.
                    for v, _ in reversed(stack):
                        prev = match_l.get(v)
                        match_l[v] = w
                        match_r[w] = v
                        w = prev
                    return
                if dist.get(nxt, INF) == dist[u] + 1:
                    stack.append((nxt, iter(adj[nxt])))
                    break
            else:
                dist[u] = INF
                stack.pop()

    while bfs():
        for u in left:
            if u not in match_l:
                dfs(u)
    return match_l, match_r


def min_vc_bipartite(
    g: Graph,
    sides: tuple[AbstractSet[int], AbstractSet[int]] | None = None,
) -> VcResult:
    """König cover: maximum matching, then alternating-path extraction.

    sides may be supplied (and is validated) or computed here; a graph
    with an odd cycle raises InvalidBipartitionError.
    """
    if sides is None:
        sides = bipartition(g)
        if sides is None:
            raise InvalidBipartitionError("graph contains an odd cycle")
    side_a, side_b = frozenset(sides[0]), frozenset(sides[1])
    if side_a & side_b or (side_a | side_b) != frozenset(range(g.n)):
        raise InvalidBipartitionError("sides do not partition the vertex set")
    for u, v in g.edges:
        if (u in side_a) == (v in side_a):
            raise InvalidBipartitionError(f"edge ({u}, {v}) lies inside one side")

    left = sorted(side_a)
    match_l, match_r = _hopcroft_karp(g, left)

    # König: Z = free left vertices plus everything reachable by
    # alternating paths (unmatched edges rightward, matched leftward).
    z_left = {u for u in left if u not in match_l}
    z_right: set[int] = set()
    queue = deque(sorted(z_left))
    while queue:
        u = queue.popleft()
        for w in sorted(g.neighbours(u)):
            if w in z_right or match_l.get(u) == w:
                continue
            z_right.add(w)
            back = match_r.get(w)
            if back is not None and back not in z_left:
                z_left.add(back)
                queue.append(back)
    cover = frozenset(side_a - z_left) | frozenset(z_right)

    if len(cover) != len(match_l):
        raise GuaranteeError("König equality violated")
    if not is_vertex_cover(g, cover):
        raise GuaranteeError("extracted set misses an edge")
    return VcResult(
        cover=cover,
        size=len(cover),
        backend="bipartite",
        matching_bound=len(match_l),
    )


def min_vc_treewidth(g: Graph, *, width_budget: int = WIDTH_BUDGET) -> VcResult:
    from .treewidth import min_fill_decomposition, vc_via_tree_decomposition

    td = min_fill_decomposition(g)
    return vc_via_tree_decomposition(g, td, width_budget=width_budget)


def min_vc_auto(
    g: Graph,
    *,
    node_budget: int = 0,
    width_cap: int = AUTO_WIDTH_CAP,
    target: int = -1,
) -> VcResult:
    """Per-component dispatch: König when bipartite, treewidth DP when the
    min-fill decomposition has width at most width_cap, branch and bound
    otherwise. Min-fill gives up as soon as a bag passes the cap.

    target, a lower bound on the optimum of g, reaches the branch and
    bound only when a single component has edges: then that component's
    cover is the whole cover.
    """
    from .treewidth import min_fill_decomposition, vc_via_tree_decomposition

    cover: set[int] = set()
    backends: list[str] = []
    nodes_total = 0
    saw_nodes = False
    comps = g.components()
    if sum(1 for comp in comps if len(comp) > 1) != 1:
        target = -1
    for comp in comps:
        if len(comps) == 1:
            # g is its own only component; a relabelled copy would equal it
            sub, kept = g, comp
        else:
            sub, kept = induced_subgraph(g, comp)
        if sub.m == 0:
            continue
        sides = bipartition(sub)
        if sides is not None:
            part = min_vc_bipartite(sub, sides)
        else:
            td = min_fill_decomposition(sub, max_width=width_cap)
            if td is not None:
                part = vc_via_tree_decomposition(sub, td)
            else:
                part = min_vc_branch_and_bound(
                    sub, node_budget=node_budget, target=target
                )
                saw_nodes = True
                nodes_total += part.nodes or 0
        backends.append(part.backend)
        cover.update(kept[v] for v in part.cover)
    backend = "+".join(sorted(set(backends))) if backends else "bipartite"
    return VcResult(
        cover=frozenset(cover),
        size=len(cover),
        backend=backend,
        matching_bound=len(greedy_matching(g)),
        nodes=nodes_total if saw_nodes else None,
    )


def min_vertex_cover(
    g: Graph, backend: str = "auto", *, node_budget: int = 0, target: int = -1
) -> VcResult:
    """Front door used by the solvers and the CLI --backend flag.

    target is a lower bound on the optimum that the caller knows; the
    branch and bound may stop once it reaches it. The cover returned is
    the same with or without it.
    """
    if backend == "auto":
        return min_vc_auto(g, node_budget=node_budget, target=target)
    if backend == "bnb":
        return min_vc_branch_and_bound(g, node_budget=node_budget, target=target)
    if backend == "bipartite":
        return min_vc_bipartite(g)
    if backend == "treewidth":
        return min_vc_treewidth(g)
    raise ValueError(f"unknown vertex cover backend: {backend!r}")
