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
"""

from __future__ import annotations


def vc_search(n: int, adj: list[int], node_budget: int = 0) -> tuple[int, int]:
    """Minimum vertex cover of the graph given by adjacency bitmasks.

    Returns (cover_mask, nodes_expanded). A node_budget of 0 means
    unlimited; exceeding a positive budget raises RuntimeError.
    """
    full = (1 << n) - 1
    best_size = n + 1
    best_mask = 0
    nodes = 0

    def walk(alive: int, size: int, cover: int) -> None:
        nonlocal best_size, best_mask, nodes
        nodes += 1
        if node_budget and nodes > node_budget:
            raise RuntimeError("node budget exceeded")

        while True:
            pending = alive
            has_edge = False
            leaf = -1
            while pending:
                v = (pending & -pending).bit_length() - 1
                pending &= pending - 1
                d = adj[v] & alive
                if d:
                    has_edge = True
                    if d & (d - 1) == 0:
                        leaf = v
                        break
            if not has_edge:
                if size < best_size:
                    best_size = size
                    best_mask = cover
                return
            if leaf < 0:
                break
            u_bit = adj[leaf] & alive
            cover |= u_bit
            size += 1
            alive &= ~(u_bit | (1 << leaf))
            if size >= best_size:
                return

        matched = 0
        lb = 0
        pending = alive
        while pending:
            u = (pending & -pending).bit_length() - 1
            pending &= pending - 1
            if matched & (1 << u):
                continue
            cand = adj[u] & alive & ~matched
            if cand:
                v_bit = cand & -cand
                matched |= (1 << u) | v_bit
                pending &= ~v_bit
                lb += 1
        if size + lb >= best_size:
            return

        pick = -1
        pick_deg = -1
        pending = alive
        while pending:
            v = (pending & -pending).bit_length() - 1
            pending &= pending - 1
            d = (adj[v] & alive).bit_count()
            if d > pick_deg:
                pick_deg = d
                pick = v

        v_bit = 1 << pick
        walk(alive & ~v_bit, size + 1, cover | v_bit)
        nbrs = adj[pick] & alive
        walk(alive & ~(nbrs | v_bit), size + nbrs.bit_count(), cover | nbrs)

    walk(full, 0, 0)
    return best_mask, nodes
