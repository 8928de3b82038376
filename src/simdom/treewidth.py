"""Tree decompositions and exact vertex cover by dynamic programming.

The decomposition comes from the min-fill elimination heuristic, so its
width is an upper bound on the treewidth with no optimality claim. Fill
counts are incremental (Bodlaender & Koster, "Treewidth computations I.
Upper bounds", 2010): each is computed once, kept in a heap, and
updated only for the vertices near an eliminated one. The DP is
correct on any valid decomposition, which decomposition_violation checks
property by property, with the bags indexed by vertex.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

from .errors import GuaranteeError, InvalidDecompositionError, WidthBudgetError
from .graph import Graph
from .vertexcover import VcResult

WIDTH_BUDGET = 20  # widest decomposition the DP accepts


@dataclass(frozen=True)
class TreeDecomposition:
    bags: tuple[frozenset[int], ...]
    tree_edges: tuple[tuple[int, int], ...]

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1


def _fill(adj: list[set[int]], v: int) -> int:
    """Number of non-adjacent pairs among the neighbours of v."""
    nv = adj[v]
    d = len(nv)
    # every edge inside N(v) is counted from both of its ends
    inside = sum(len(adj[a] & nv) for a in nv)
    return (d * (d - 1) - inside) // 2


def min_fill_decomposition(
    g: Graph, *, max_width: int | None = None
) -> TreeDecomposition | None:
    """Eliminate by fewest fill edges (ties to the smallest vertex).

    The bag of an eliminated vertex is its closed neighbourhood at
    elimination time; each bag hangs below the bag of its earliest
    eliminated member, which keeps every vertex's bags connected.

    With max_width set, the elimination stops and None is returned as
    soon as a bag would hold more than max_width + 1 vertices; the
    elimination order does not depend on max_width, so a decomposition
    of width at most max_width is returned exactly as without it.

    Fill counts are kept in a heap of (fill, vertex) with lazy deletion:
    an entry is stale once its vertex is eliminated or its count has
    changed. Eliminating v changes only the fill of N(v), which is
    recounted, and of the other vertices of N(N(v)) that see both ends
    of a new fill edge, whose counts drop by one per such edge.
    """
    adj: list[set[int]] = [set(g.neighbours(v)) for v in range(g.n)]
    fill = [_fill(adj, v) for v in range(g.n)]
    heap = [(f, v) for v, f in enumerate(fill)]
    heapq.heapify(heap)
    alive = [True] * g.n
    elim_pos: dict[int, int] = {}
    bags: list[frozenset[int]] = []
    bag_members: list[list[int]] = []

    while len(bags) < g.n:
        f, v = heapq.heappop(heap)
        if not alive[v] or f != fill[v]:
            continue
        if max_width is not None and len(adj[v]) > max_width:
            return None
        nbrs = sorted(adj[v])
        elim_pos[v] = len(bags)
        bags.append(frozenset([v, *nbrs]))
        bag_members.append(nbrs)
        alive[v] = False
        added = [
            (a, b) for i, a in enumerate(nbrs) for b in nbrs[i + 1 :] if b not in adj[a]
        ]
        for a in nbrs:
            adj[a].discard(v)
        for a, b in added:
            adj[a].add(b)
            adj[b].add(a)
        # outside N[v] a neighbourhood keeps its vertices and only loses
        # the non-adjacent pairs that became fill edges
        outside: set[int] = set()
        for a, b in added:
            for w in adj[a] & adj[b]:
                if w not in adj[v]:
                    fill[w] -= 1
                    outside.add(w)
        for w in outside:
            heapq.heappush(heap, (fill[w], w))
        for w in nbrs:
            count = _fill(adj, w)
            if count != fill[w]:
                fill[w] = count
                heapq.heappush(heap, (count, w))

    edges: list[tuple[int, int]] = []
    for i, members in enumerate(bag_members):
        if members:
            parent = min(elim_pos[u] for u in members)
            edges.append((i, parent))
        elif i + 1 < len(bags):
            # vertex isolated at elimination time: tie the bag to the
            # next one so the bags still form a single tree
            edges.append((i, i + 1))
    return TreeDecomposition(tuple(bags), tuple(edges))


def decomposition_violation(g: Graph, td: TreeDecomposition) -> str | None:
    """None when valid, else a message naming the broken property."""
    k = len(td.bags)
    for i, j in td.tree_edges:
        if not (0 <= i < k and 0 <= j < k):
            return f"tree: edge ({i}, {j}) references a missing bag"
    nbrs: list[list[int]] = [[] for _ in range(k)]
    for i, j in td.tree_edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    if k > 0:
        if len(td.tree_edges) != k - 1:
            return f"tree: {len(td.tree_edges)} edges on {k} bags is not a tree"
        seen = {0}
        queue = deque([0])
        while queue:
            i = queue.popleft()
            for j in nbrs[i]:
                if j not in seen:
                    seen.add(j)
                    queue.append(j)
        if len(seen) != k:
            return "tree: bag graph is disconnected"

    where: list[set[int]] = [set() for _ in range(g.n)]
    for i, bag in enumerate(td.bags):
        for v in bag:
            if 0 <= v < g.n:
                where[v].add(i)
    for v in range(g.n):
        if not where[v]:
            return f"property (i): vertex {v} is in no bag"
    for u, v in g.edges:
        if where[u].isdisjoint(where[v]):
            return f"property (ii): edge ({u}, {v}) is in no bag"
    for v in range(g.n):
        member = where[v]
        start = min(member)
        reached = {start}
        queue = deque([start])
        while queue:
            i = queue.popleft()
            for j in nbrs[i]:
                if j in member and j not in reached:
                    reached.add(j)
                    queue.append(j)
        if reached != member:
            return f"property (iii): bags containing vertex {v} are disconnected"
    return None


@dataclass(frozen=True)
class NiceNode:
    kind: str  # "leaf" | "introduce" | "forget" | "join"
    bag: tuple[int, ...]
    vertex: int | None
    left: int | None
    right: int | None


def nice_decomposition(td: TreeDecomposition) -> tuple[NiceNode, ...]:
    """Nice form: children precede parents in the returned tuple, the
    last node is the root and has an empty bag."""
    nodes: list[NiceNode] = []

    def add(kind: str, bag: tuple[int, ...], vertex=None, left=None, right=None) -> int:
        nodes.append(NiceNode(kind, bag, vertex, left, right))
        return len(nodes) - 1

    def chain_to(idx: int, have: frozenset[int], want: frozenset[int]) -> int:
        bag = set(have)
        for v in sorted(have - want):
            bag.discard(v)
            idx = add("forget", tuple(sorted(bag)), vertex=v, left=idx)
        for v in sorted(want - have):
            bag.add(v)
            idx = add("introduce", tuple(sorted(bag)), vertex=v, left=idx)
        return idx

    k = len(td.bags)
    if k == 0:
        add("leaf", ())
        return tuple(nodes)

    children: list[list[int]] = [[] for _ in range(k)]
    parent = [-1] * k
    nbrs: list[list[int]] = [[] for _ in range(k)]
    for i, j in td.tree_edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    order = [0]
    seen = {0}
    queue = deque([0])
    while queue:
        i = queue.popleft()
        for j in sorted(nbrs[i]):
            if j not in seen:
                seen.add(j)
                parent[j] = i
                children[i].append(j)
                order.append(j)
                queue.append(j)

    root_of: dict[int, int] = {}
    for b in reversed(order):
        want = td.bags[b]
        branches = []
        for c in children[b]:
            branches.append(chain_to(root_of[c], td.bags[c], want))
        if not branches:
            idx = add("leaf", ())
            idx = chain_to(idx, frozenset(), want)
        else:
            idx = branches[0]
            for other in branches[1:]:
                idx = add("join", tuple(sorted(want)), left=idx, right=other)
        root_of[b] = idx

    top = chain_to(root_of[0], td.bags[0], frozenset())
    del top
    return tuple(nodes)


def vc_via_tree_decomposition(g: Graph, td: TreeDecomposition) -> VcResult:
    """Exact minimum vertex cover by subset DP over a nice decomposition.

    Table keys are bitmasks over bag-local positions: which bag members
    the cover contains. States that leave an introduced edge uncovered
    are dropped rather than stored. A decomposition wider than
    WIDTH_BUDGET raises WidthBudgetError.
    """
    problem = decomposition_violation(g, td)
    if problem is not None:
        raise InvalidDecompositionError(problem)
    if td.width > WIDTH_BUDGET:
        raise WidthBudgetError(
            f"decomposition width {td.width} exceeds the budget of {WIDTH_BUDGET}"
        )

    nodes = nice_decomposition(td)
    tables: list[dict[int, int]] = [{} for _ in nodes]
    forget_kept: list[dict[int, bool]] = [{} for _ in nodes]

    for idx, node in enumerate(nodes):
        table = tables[idx]
        if node.kind == "leaf":
            table[0] = 0
        elif node.kind == "introduce":
            v = node.vertex
            pos = node.bag.index(v)
            below = (1 << pos) - 1
            nbr_mask = 0
            for i, u in enumerate(node.bag):
                if u != v and u in g.neighbours(v):
                    nbr_mask |= 1 << i
            for old_mask, cost in tables[node.left].items():
                spread = (old_mask & below) | ((old_mask & ~below) << 1)
                if nbr_mask & ~spread == 0:
                    cur = table.get(spread)
                    if cur is None or cost < cur:
                        table[spread] = cost
                with_v = spread | (1 << pos)
                cur = table.get(with_v)
                if cur is None or cost + 1 < cur:
                    table[with_v] = cost + 1
        elif node.kind == "forget":
            v = node.vertex
            child_bag = nodes[node.left].bag
            pos = child_bag.index(v)
            below = (1 << pos) - 1
            kept = forget_kept[idx]
            for old_mask, cost in tables[node.left].items():
                new_mask = (old_mask & below) | ((old_mask >> 1) & ~below)
                had_v = bool(old_mask & (1 << pos))
                cur = table.get(new_mask)
                if cur is None or cost < cur or (cost == cur and not had_v):
                    table[new_mask] = cost
                    kept[new_mask] = had_v
        else:  # join
            right = tables[node.right]
            for mask, cost in tables[node.left].items():
                other = right.get(mask)
                if other is not None:
                    table[mask] = cost + other - mask.bit_count()

    root = len(nodes) - 1
    if not tables[root]:
        raise GuaranteeError("DP lost all states on a validated decomposition")
    best = tables[root][0]

    cover: set[int] = set()
    stack: list[tuple[int, int]] = [(root, 0)]
    while stack:
        idx, mask = stack.pop()
        node = nodes[idx]
        if node.kind == "leaf":
            continue
        if node.kind == "join":
            stack.append((node.left, mask))
            stack.append((node.right, mask))
        elif node.kind == "introduce":
            pos = node.bag.index(node.vertex)
            below = (1 << pos) - 1
            child_mask = (mask & below) | ((mask >> 1) & ~below)
            stack.append((node.left, child_mask))
        else:  # forget
            child_bag = nodes[node.left].bag
            pos = child_bag.index(node.vertex)
            below = (1 << pos) - 1
            child_mask = (mask & below) | ((mask & ~below) << 1)
            if forget_kept[idx][mask]:
                child_mask |= 1 << pos
                cover.add(node.vertex)
            stack.append((node.left, child_mask))

    if len(cover) != best:
        raise GuaranteeError("reconstruction does not match the DP optimum")
    return VcResult(cover=frozenset(cover), size=best, backend="treewidth")
