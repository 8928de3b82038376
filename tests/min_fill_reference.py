"""Test-only references: the rescanning min-fill and the scanning validator.

Both are copied line for line from ``simdom.treewidth`` as it was before
fill counts became incremental and bags were indexed by vertex. The
tests pin the library's elimination order, decompositions and
violation messages against them; the library keeps one implementation.
"""

from __future__ import annotations

from collections import deque

from simdom import Graph
from simdom.treewidth import TreeDecomposition


def rescanning_min_fill_decomposition(g: Graph) -> TreeDecomposition:
    """Eliminate by fewest fill edges (ties to the smallest vertex).

    The bag of an eliminated vertex is its closed neighbourhood at
    elimination time; each bag hangs below the bag of its earliest
    eliminated member, which keeps every vertex's bags connected.
    """
    adj: list[set[int]] = [set(row) for row in g.nbrs]
    alive = set(range(g.n))
    elim_pos: dict[int, int] = {}
    bags: list[frozenset[int]] = []
    bag_members: list[list[int]] = []

    while alive:
        best_v = -1
        best_fill = None
        for v in sorted(alive):
            nbrs = sorted(adj[v])
            fill = sum(
                1
                for i, a in enumerate(nbrs)
                for b in nbrs[i + 1 :]
                if b not in adj[a]
            )
            if best_fill is None or fill < best_fill:
                best_fill = fill
                best_v = v
        v = best_v
        nbrs = sorted(adj[v])
        elim_pos[v] = len(bags)
        bags.append(frozenset([v, *nbrs]))
        bag_members.append(nbrs)
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1 :]:
                adj[a].add(b)
                adj[b].add(a)
            adj[a].discard(v)
        alive.remove(v)

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


def scanning_decomposition_violation(g: Graph, td: TreeDecomposition) -> str | None:
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

    covered = set().union(*td.bags) if td.bags else set()
    for v in range(g.n):
        if v not in covered:
            return f"property (i): vertex {v} is in no bag"
    for u, v in g.edges:
        if not any(u in bag and v in bag for bag in td.bags):
            return f"property (ii): edge ({u}, {v}) is in no bag"
    for v in range(g.n):
        member = {i for i, bag in enumerate(td.bags) if v in bag}
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
