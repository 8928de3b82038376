"""Pure-Python branch-and-bound vertex-cover kernel.

Bitmask state over arbitrary-width Python ints, so any n is accepted.
The search is deterministic: the same graph always gives the same cover
and the same node count, and tests/test_kernels.py pins both on seeded
instances.

Search shape, in order, at every node:
  1. repeatedly resolve degree-1 vertices (smallest index first) by
     taking their neighbour,
  2. stop at a leaf when no edges remain,
  3. prune on cover size plus a greedy-matching lower bound,
  4. branch on the highest-degree vertex (smallest index on ties):
     first include it, then include its whole neighbourhood.
One pass over the alive vertices finds both the first degree-1 vertex
and the branch vertex, which is only used when the pass finds none.
"""

from __future__ import annotations


def vc_search(
    n: int, adj: list[int], node_budget: int = 0, target: int = -1
) -> tuple[int, int]:
    """Minimum vertex cover of the graph given by adjacency bitmasks.

    Returns (cover_mask, nodes_expanded). A node_budget of 0 means
    unlimited; exceeding a positive budget raises RuntimeError.

    target is a lower bound on the optimum that the caller knows: the
    search stops as soon as it holds a cover of at most target vertices.
    Covers are only replaced by strictly smaller ones, so the first
    optimum in search order is returned with or without a target; a
    valid target only saves the nodes that would prove it optimal. A
    target above the optimum may return a larger cover.
    """
    full = (1 << n) - 1
    best_size = n + 1
    best_mask = 0
    nodes = 0

    def walk(alive: int, size: int, cover: int) -> None:
        nonlocal best_size, best_mask, nodes
        if best_size <= target:
            return
        nodes += 1
        if node_budget and nodes > node_budget:
            raise RuntimeError("node budget exceeded")

        while True:
            pending = alive
            leaf = -1
            pick = -1
            pick_deg = 1
            while pending:
                low = pending & -pending
                pending ^= low
                v = low.bit_length() - 1
                d = adj[v] & alive
                if d:
                    if d & (d - 1) == 0:
                        leaf = v
                        break
                    deg = d.bit_count()
                    if deg > pick_deg:
                        pick_deg = deg
                        pick = v
            if leaf < 0:
                if pick < 0:  # no edges left
                    if size < best_size:
                        best_size = size
                        best_mask = cover
                    return
                break
            u_bit = adj[leaf] & alive
            cover |= u_bit
            size += 1
            alive &= ~(u_bit | (1 << leaf))
            if size >= best_size:
                return

        # Greedy matching in index order. A vertex left unmatched has no
        # unmatched neighbour, so the unvisited vertices are exactly the
        # candidates a later vertex can match with.
        lb = 0
        pending = alive
        while pending:
            low = pending & -pending
            pending ^= low
            cand = adj[low.bit_length() - 1] & pending
            if cand:
                pending ^= cand & -cand
                lb += 1
        if size + lb >= best_size:
            return

        v_bit = 1 << pick
        walk(alive & ~v_bit, size + 1, cover | v_bit)
        nbrs = adj[pick] & alive
        walk(alive & ~(nbrs | v_bit), size + nbrs.bit_count(), cover | nbrs)

    walk(full, 0, 0)
    return best_mask, nodes
