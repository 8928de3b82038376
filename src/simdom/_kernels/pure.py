"""Pure-Python branch-and-reduce vertex-cover kernel.

Bitmask state over arbitrary-width Python ints, so any n is accepted.
The search is deterministic: the same graph always gives the same cover
and the same node count, and tests/test_kernels.py pins both on seeded
instances.

The lower bound is the LP relaxation, solved as a maximum matching M of
the bipartite double cover: a left copy L_v and a right copy R_v of each
alive vertex, with L_u-R_w and L_w-R_u for each edge uw. The LP optimum
is |M|/2 (Akiba & Iwata, "Branch-and-reduce exponential/FPT algorithms
in practice", TCS 2016). The matching is kept in two partner arrays,
mate_l[u] = w and mate_r[w] = u for each pair L_u-R_w; a child copies
its parent's arrays, drops the pairs that touch vertices deleted since,
and re-augments.

Search shape, in order, at every node:
  1. repeatedly resolve degree-1 vertices (smallest index first) by
     taking their neighbour, and drop isolated vertices; after the first
     pass over the alive vertices only the neighbours of a taken vertex
     are looked at again,
  2. stop at a leaf when no edges remain,
  3. re-augment the matching and prune on cover size plus ceil(|M|/2),
  4. Nemhauser-Trotter reduction (1975): read a half-integral LP optimum
     off the König cover of the double cover, take its x=1 vertices,
     drop its x=0 vertices, and go back to step 1 if there were any,
  5. on the all-1/2 remainder the matching is perfect, so mate_l is a
     permutation whose cycles are cycles of the graph (a 2-cycle is an
     edge); prune on cover size plus the sum of ceil(L/2) over its
     cycles of length L,
  6. branch on the highest-degree vertex (smallest index on ties):
     first include it, then include its whole neighbourhood.
"""

from __future__ import annotations

from ..errors import BudgetExceededError, GuaranteeError


def augment(
    adj: list[int],
    alive: int,
    mate_l: list[int],
    mate_r: list[int],
    free_l: int,
    free_r: int,
) -> tuple[int, int]:
    """Grow the double-cover matching of the alive vertices to maximum.

    free_l and free_r are the masks of unmatched left and right copies;
    mate_l and mate_r are updated in place and the new free masks are
    returned. Each free left copy is tried once, by breadth-first search
    over alternating paths: a copy with no augmenting path gains none
    from augmentations elsewhere (Berge).
    """
    via: dict[int, int] = {}
    pending = free_l
    while pending and free_r:
        root_bit = pending & -pending
        pending ^= root_bit
        frontier = [root_bit.bit_length() - 1]
        unseen = alive
        for x in frontier:
            nbrs = adj[x] & unseen
            if not nbrs:
                continue
            hit = nbrs & free_r
            if hit:
                end_bit = hit & -hit
                w = end_bit.bit_length() - 1
                # Flip the path: each left copy on it takes the right copy
                # it reached and gives up the one it was reached through.
                while w >= 0:
                    prev = mate_l[x]
                    mate_l[x] = w
                    mate_r[w] = x
                    w = prev
                    if w >= 0:
                        x = via[w]
                free_l ^= root_bit
                free_r ^= end_bit
                break
            unseen ^= nbrs
            while nbrs:
                low = nbrs & -nbrs
                nbrs ^= low
                w = low.bit_length() - 1
                via[w] = x
                frontier.append(mate_r[w])
    return free_l, free_r


def vc_search(
    n: int, adj: list[int], node_budget: int = 0, target: int = -1
) -> tuple[int, int]:
    """Minimum vertex cover of the graph given by adjacency bitmasks.

    Returns (cover_mask, nodes_expanded). A node_budget of 0 means
    unlimited; exceeding a positive budget raises BudgetExceededError.

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

    def walk(
        alive: int,
        size: int,
        cover: int,
        mate_l: list[int],
        mate_r: list[int],
        synced: int,
        free_l: int,
        free_r: int,
    ) -> None:
        # mate_l and mate_r hold a matching of the double cover of the
        # synced vertices; free_l and free_r are its unmatched copies.
        nonlocal best_size, best_mask, nodes
        if best_size <= target:
            return
        nodes += 1
        if node_budget and nodes > node_budget:
            raise BudgetExceededError("node budget exceeded")

        while True:
            # Vertices left out of pending keep a degree of at least 2, so
            # the lowest degree-1 vertex in pending is the lowest overall.
            pending = alive
            while pending:
                low = pending & -pending
                pending ^= low
                d = adj[low.bit_length() - 1] & alive
                if d & (d - 1) == 0:
                    if d:
                        cover |= d
                        size += 1
                        alive &= ~(d | low)
                        if size >= best_size:
                            return
                        pending = (pending | adj[d.bit_length() - 1]) & alive
                    else:
                        alive ^= low
            if not alive:  # no edges left
                if size < best_size:
                    best_size = size
                    best_mask = cover
                return

            # Drop the pairs that touch deleted vertices, then re-augment.
            dead = synced & ~alive
            while dead:
                low = dead & -dead
                dead ^= low
                u = low.bit_length() - 1
                w = mate_l[u]
                if w >= 0:
                    mate_l[u] = mate_r[w] = -1
                    free_r |= 1 << w
                x = mate_r[u]
                if x >= 0:
                    mate_l[x] = mate_r[u] = -1
                    free_l |= 1 << x
            synced = alive
            free_l, free_r = augment(
                adj, alive, mate_l, mate_r, free_l & alive, free_r & alive
            )
            if size + (alive.bit_count() - free_l.bit_count() + 1) // 2 >= best_size:
                return
            if not free_l:
                break

            # König cover of the double cover: Z holds the copies reachable
            # from free left copies by alternating paths, and the cover is
            # (L - Z) + (R & Z). Its LP value is 1 where only R_v is in Z,
            # 0 where only L_v is, and 1/2 elsewhere.
            z_l = free_l
            z_r = 0
            todo = free_l
            while todo:
                low = todo & -todo
                todo ^= low
                nbrs = adj[low.bit_length() - 1] & alive & ~z_r
                z_r |= nbrs
                while nbrs:
                    b = nbrs & -nbrs
                    nbrs ^= b
                    y = mate_r[b.bit_length() - 1]
                    if y < 0:
                        raise GuaranteeError("double-cover matching is not maximum")
                    y_bit = 1 << y
                    if not z_l & y_bit:
                        z_l |= y_bit
                        todo |= y_bit
            ones = z_r & ~z_l
            zeros = z_l & ~z_r
            if not ones | zeros:
                raise GuaranteeError("König cover of the double cover is not minimum")
            cover |= ones
            size += ones.bit_count()
            alive &= ~(ones | zeros)
            if size >= best_size:
                return

        # The matching is perfect, so mate_l permutes the alive vertices.
        bound = size
        pending = alive
        while pending:
            start = v = (pending & -pending).bit_length() - 1
            length = 0
            while v >= 0 and pending >> v & 1:
                pending ^= 1 << v
                length += 1
                v = mate_l[v]
            if v != start:
                raise GuaranteeError("double-cover matching is not perfect")
            bound += (length + 1) // 2
        if bound >= best_size:
            return

        pick = -1
        pick_deg = 1
        pending = alive
        while pending:
            low = pending & -pending
            pending ^= low
            v = low.bit_length() - 1
            deg = (adj[v] & alive).bit_count()
            if deg > pick_deg:
                pick_deg = deg
                pick = v
        v_bit = 1 << pick
        walk(
            alive & ~v_bit, size + 1, cover | v_bit,
            mate_l[:], mate_r[:], alive, 0, 0,
        )
        # This node is done with its arrays, so the second child takes them.
        nbrs = adj[pick] & alive
        walk(
            alive & ~(nbrs | v_bit), size + nbrs.bit_count(), cover | nbrs,
            mate_l, mate_r, alive, 0, 0,
        )

    walk(full, 0, 0, [-1] * n, [-1] * n, full, full, full)
    return best_mask, nodes
