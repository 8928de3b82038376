"""Minimum vertex cover backends and graph-class recognition.

Three exact backends: branch and reduce (any graph; see
_kernels/pure.py for its reductions, LP reduction and cycle-cover
bound), König via Hopcroft-Karp (bipartite), and dynamic programming
over a tree decomposition (see treewidth module). The auto dispatcher
picks per connected component, and on a non-bipartite one runs the
branch-and-reduce root reductions first, so that min-fill and the DP
see only the kernel they leave. A greedy maximal matching gives the
classic 2-approximation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import AbstractSet, Callable, Sequence

from ._kernels import pure
from .errors import GuaranteeError, InvalidBipartitionError, WidthBudgetError
from .graph import Graph, induced_subgraph

AUTO_WIDTH_CAP = 12
# Largest component the auto dispatcher reduces before min-fill. The
# reductions keep an n-bit adjacency mask per vertex, n^2/8 bytes in
# all, 2 MB at this size. On odd cycles they peaked at 2.7 MB against
# 3.1 MB for min-fill on the whole cycle at 4,097 vertices, but at
# 9.8 against 6.0 MB at 8,193 and 36.7 against 12.5 MB at 16,385.
KERNEL_VERTEX_LIMIT = 4096


@dataclass(frozen=True)
class VcResult:
    """A vertex cover with provenance.

    backends holds the sorted names of the backends that covered some
    part of the graph: one of "bnb", "bipartite" and "treewidth", or
    several when the auto dispatcher mixed backends across components.
    nodes counts branch-and-bound search nodes, its root reductions
    included, even when another backend then covered the kernel they
    left; it is 0 when no search ran. The cover's size is len(cover).
    """

    cover: frozenset[int]
    backends: tuple[str, ...]
    nodes: int = 0


def is_vertex_cover(g: Graph, s: AbstractSet[int]) -> bool:
    """True iff every vertex outside s has all its neighbours in s."""
    if not isinstance(s, (set, frozenset)):
        s = frozenset(s)
    return all(v in s or s.issuperset(row) for v, row in enumerate(g.nbrs))


def greedy_matching(g: Graph) -> tuple[tuple[int, int], ...]:
    """Maximal matching, edges taken greedily in sorted edge order."""
    matched: set[int] = set()
    picked: list[tuple[int, int]] = []
    for u, row in enumerate(g.nbrs):
        if u in matched:
            continue
        for v in row:
            if v > u and v not in matched:
                picked.append((u, v))
                matched.add(u)
                matched.add(v)
                break
    return tuple(picked)


def matching_2approx_vc(g: Graph) -> frozenset[int]:
    """Both endpoints of a greedy maximal matching; at most twice optimal."""
    cover: set[int] = set()
    for u, v in greedy_matching(g):
        cover.add(u)
        cover.add(v)
    return frozenset(cover)


def budget_left(node_budget: int, used: int) -> int:
    """What a node budget leaves after used nodes. 0 stays unlimited; a
    spent budget becomes -1, on which a search fails at its first node."""
    return node_budget and (node_budget - used or -1)


def _kernel_graph(alive: int, adj: list[int]) -> tuple[Graph, list[int]]:
    """The graph on the vertices of the alive mask, relabelled in
    ascending order, and the old label of each new vertex."""
    kept: list[int] = []
    rest = alive
    while rest:
        low = rest & -rest
        rest ^= low
        kept.append(low.bit_length() - 1)
    index = {v: i for i, v in enumerate(kept)}
    # each edge once, from its lower end, in sorted order: every list
    # takes its lower neighbours, then its higher ones, ascending
    nbrs: list[list[int]] = [[] for _ in kept]
    for i, v in enumerate(kept):
        later = adj[v] & alive & ~((2 << v) - 1)
        while later:
            low = later & -later
            later ^= low
            j = index[low.bit_length() - 1]
            nbrs[i].append(j)
            nbrs[j].append(i)
    return Graph._trusted(nbrs), kept


def min_vc_branch_and_bound(
    g: Graph,
    *,
    node_budget: int = 0,
    target: int = -1,
    kernel_backend: Callable[[Graph], VcResult | None] | None = None,
) -> VcResult:
    """Exact minimum cover by branch and bound.

    node_budget of 0 means unlimited, otherwise exceeding it raises
    BudgetExceededError. target is a lower bound on the optimum known to
    the caller (see pure.vc_search); it changes the node count, not the
    cover.

    kernel_backend, when given, is offered the kernel the root's
    reductions leave when edges remain, as a graph relabelled in
    ascending order. A result it returns is taken as the kernel's
    minimum cover, and the answer takes its backends; on None the
    search branches from the root's state.
    """
    backends = ("bnb",)
    root = None
    if kernel_backend is not None:

        def root(alive: int, adj: list[int]) -> int | None:
            nonlocal backends
            kernel, kept = _kernel_graph(alive, adj)
            part = kernel_backend(kernel)
            if part is None:
                return None
            backends = part.backends
            mask = 0
            for v in part.cover:
                mask |= 1 << kept[v]
            return mask

    mask, nodes = pure.vc_search(
        g.n, g.adjacency_masks(), node_budget, target, root
    )
    # bit v is character v of bin(mask) reversed, which ends in "b0":
    # one pass, where shifting the mask once per vertex is quadratic
    cover = frozenset(v for v, bit in enumerate(reversed(bin(mask))) if bit == "1")
    return VcResult(cover=cover, backends=backends, nodes=nodes)


def bipartition(g: Graph) -> tuple[frozenset[int], frozenset[int]] | None:
    """Two-colour the graph, or None when an odd cycle exists.

    The smallest vertex of each component lands on the first side.
    """
    sides: tuple[list[int], list[int]] = ([], [])
    for comp, colours in g.coloured_components():
        if colours is None:
            return None
        for v, c in zip(comp, colours):
            sides[c].append(v)
    return frozenset(sides[0]), frozenset(sides[1])


def _hopcroft_karp(g: Graph, left: Sequence[int]) -> tuple[list[int], list[int]]:
    """Maximum matching; returns (left-to-right, right-to-left) lists of
    n, with -1 at an unmatched vertex."""
    nbrs = g.nbrs
    match_l = [-1] * g.n
    match_r = [-1] * g.n
    # a left vertex's BFS layer; -1 before the BFS reaches it and once a
    # DFS finds no augmenting path through it. A vertex on the DFS stack
    # has a layer of 0 or more, so a -1 never matches the next layer.
    dist = [-1] * g.n

    def bfs() -> bool:
        dist[:] = [-1] * g.n
        queue: deque[int] = deque()
        for u in left:
            if match_l[u] < 0:
                dist[u] = 0
                queue.append(u)
        found = False
        while queue:
            u = queue.popleft()
            for w in nbrs[u]:
                nxt = match_r[w]
                if nxt < 0:
                    found = True
                elif dist[nxt] < 0:
                    dist[nxt] = dist[u] + 1
                    queue.append(nxt)
        return found

    def dfs(root: int) -> None:
        """Augment along one shortest path from root, if there is one.

        Iterative, so path length is not bounded by the recursion limit.
        Each frame holds a left vertex and its remaining neighbours; a
        frame is only left once its vertex is matched or marked dead.
        """
        stack = [(root, iter(nbrs[root]))]
        while stack:
            u, it = stack[-1]
            for w in it:
                nxt = match_r[w]
                if nxt < 0:
                    # Free right vertex: flip the path held by the stack.
                    for v, _ in reversed(stack):
                        prev = match_l[v]
                        match_l[v] = w
                        match_r[w] = v
                        w = prev
                    return
                if dist[nxt] == dist[u] + 1:
                    stack.append((nxt, iter(nbrs[nxt])))
                    break
            else:
                dist[u] = -1
                stack.pop()

    while bfs():
        for u in left:
            if match_l[u] < 0:
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
    nbrs = g.nbrs
    for u, row in enumerate(nbrs):
        other = side_b if u in side_a else side_a
        if not other.issuperset(row):
            # the least such u: an earlier end of a bad edge would be less
            v = next(w for w in row if w not in other)
            raise InvalidBipartitionError(f"edge ({u}, {v}) lies inside one side")

    left = sorted(side_a)
    match_l, match_r = _hopcroft_karp(g, left)

    # König: Z = free left vertices plus everything reachable by
    # alternating paths (unmatched edges rightward, matched leftward).
    free = [u for u in left if match_l[u] < 0]
    z_left = set(free)
    z_right: set[int] = set()
    queue = deque(free)
    while queue:
        u = queue.popleft()
        mate = match_l[u]
        for w in nbrs[u]:
            if w in z_right or w == mate:
                continue
            z_right.add(w)
            back = match_r[w]
            if back >= 0 and back not in z_left:
                z_left.add(back)
                queue.append(back)
    cover = frozenset(side_a - z_left) | frozenset(z_right)

    if len(cover) != len(left) - len(free):  # the matching's size
        raise GuaranteeError("König equality violated")
    if not is_vertex_cover(g, cover):
        raise GuaranteeError("extracted set misses an edge")
    return VcResult(cover=cover, backends=("bipartite",))


def min_vc_treewidth(g: Graph, max_width: int) -> VcResult | None:
    """Exact cover by the DP over the min-fill decomposition, or None
    when min-fill gives up as a bag passes max_width."""
    from .treewidth import min_fill_decomposition, vc_via_tree_decomposition

    td = min_fill_decomposition(g, max_width=max_width)
    return None if td is None else vc_via_tree_decomposition(g, td)


def min_vc_auto(
    g: Graph, *, node_budget: int = 0, target: int = -1
) -> VcResult:
    """Per-component dispatch. A bipartite component goes to König.
    Otherwise the branch-and-reduce search starts, and its root
    reductions run once: when they leave no edges, the component is
    covered; else the treewidth DP covers the kernel they leave when its
    min-fill decomposition has width at most AUTO_WIDTH_CAP, and only
    when it is wider does the search branch, from that same root state.
    Min-fill gives up as soon as a bag passes the cap.

    A component of more than KERNEL_VERTEX_LIMIT vertices is not
    reduced first, as the reductions' bitmasks take memory quadratic in
    its size: min-fill and the DP run on it whole when it is narrow, and
    branch and bound runs on it otherwise.

    target, a lower bound on the optimum of g, reaches the branch and
    bound only when a single component has edges: then that component's
    cover is the whole cover. node_budget bounds the nodes of all the
    components' searches together, and each root reduction pass is one
    node.
    """
    narrow = partial(min_vc_treewidth, max_width=AUTO_WIDTH_CAP)
    cover: set[int] = set()
    backends: set[str] = set()
    nodes_total = 0
    comps = g.coloured_components()
    if sum(1 for comp, _ in comps if len(comp) > 1) != 1:
        target = -1
    for comp, colours in comps:
        if len(comp) == 1:
            continue  # an isolated vertex: nothing to cover
        if len(comps) == 1:
            # g is its own only component; a relabelled copy would equal it
            sub, kept = g, comp
        else:
            sub, kept = induced_subgraph(g, comp)
        reduce_first = sub.n <= KERNEL_VERTEX_LIMIT
        if colours is not None:
            # sub numbers the component's vertices in the order of colours
            sides: tuple[list[int], list[int]] = ([], [])
            for v, c in enumerate(colours):
                sides[c].append(v)
            part = min_vc_bipartite(sub, sides)
        # above the limit, min-fill and the DP first try it whole
        elif reduce_first or (part := narrow(sub)) is None:
            part = min_vc_branch_and_bound(
                sub,
                node_budget=budget_left(node_budget, nodes_total),
                target=target,
                kernel_backend=narrow if reduce_first else None,
            )
            nodes_total += part.nodes
        backends.update(part.backends)
        cover.update(kept[v] for v in part.cover)
    return VcResult(
        frozenset(cover), tuple(sorted(backends)) or ("bipartite",), nodes_total
    )


BACKENDS = ("auto", "bnb", "bipartite", "treewidth")  # min_vertex_cover's names


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
        from .treewidth import WIDTH_BUDGET

        res = min_vc_treewidth(g, WIDTH_BUDGET)
        if res is None:
            raise WidthBudgetError(
                f"min-fill decomposition width exceeds the budget of {WIDTH_BUDGET}"
            )
        return res
    raise ValueError(f"unknown vertex cover backend: {backend!r}")
