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
  1. repeatedly resolve vertices of degree at most 2, smallest index
     first: drop an isolated vertex; take the neighbour of a degree-1
     vertex; take both neighbours u and w of a degree-2 vertex v when
     they are adjacent (triangle rule); otherwise fold u, v and w into
     one vertex at v's index, adjacent to N(u) | N(w) - {u, v, w}, which
     adds one to the cover size (Chen, Kanj and Jia 2001). While v is
     still the lowest pending vertex and has two neighbours that are not
     adjacent, it folds again at once, and only the neighbours the last
     of these folds leaves get v's bit: a degree-2 path folds in one
     pass, in the order one fold at a time would take. The parent
     branched with every degree at least 3, so a node first looks only
     at the neighbours of the vertices its parent took (the root, and a
     node back from step 4, look at every alive vertex), and after that
     only at vertices whose degree may have dropped,
  2. stop at a leaf when no edges remain,
  3. re-augment the matching and prune on cover size plus ceil(|M|/2),
  4. Nemhauser-Trotter reduction (1975): read a half-integral LP optimum
     off the König cover of the double cover, take its x=1 vertices,
     drop its x=0 vertices, and go back to step 1 if there were any,
  5. on the all-1/2 remainder the matching is perfect, so mate_l is a
     permutation whose cycles are cycles of the graph (a 2-cycle is an
     edge); one walk along those cycles sums ceil(L/2) over its cycles
     of length L and finds the highest-degree vertex (smallest index on
     ties); prune on cover size plus that sum,
  6. branch on the vertex the walk found: first include it, then
     include its whole neighbourhood.

A node's adjacency list is its parent's until the node first folds,
when it takes its own copy, so the caller's list is never changed. Each
search path keeps its folds; at a leaf they are undone newest first: if
the folded vertex is in the cover, u and w are, else v is.

A caller may hand the root's kernel, what steps 1-4 leave at the root
when edges remain, to another exact backend through vc_search's root
hook. The kernel is a minor of the input (folds contract edges, the
other rules delete vertices), so its treewidth is no larger. A cover of
the kernel ends the search as a leaf would, folds undone the same way;
without one the search goes on from that same state.
"""

from __future__ import annotations

from typing import Callable

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
    n: int,
    adj: list[int],
    node_budget: int = 0,
    target: int = -1,
    root: Callable[[int, list[int]], int | None] | None = None,
) -> tuple[int, int]:
    """Minimum vertex cover of the graph given by adjacency bitmasks.

    Returns (cover_mask, nodes_expanded). A node_budget of 0 means
    unlimited; expanding more nodes than a positive budget raises
    BudgetExceededError, and a negative budget allows no node.

    target is a lower bound on the optimum that the caller knows: the
    search stops as soon as it holds a cover of at most target vertices.
    Covers are only replaced by strictly smaller ones, so the first
    optimum in search order is returned with or without a target; a
    valid target only saves the nodes that would prove it optimal. A
    target above the optimum may return a larger cover.

    root, when given, is called once, when the root's reductions settle
    with edges left, as root(alive, adj): the kernel is the alive
    vertices, and adj[v] & alive is the neighbourhood of an alive v. It
    must not change adj. It returns a minimum cover of the kernel as a
    mask inside alive, which ends the search, or None, on which the
    search branches from that same state. Either way the root is the
    search's first node, counted against node_budget before its
    reductions run.
    """
    full = (1 << n) - 1
    best_size = n + 1
    best_mask = 0
    nodes = 0

    def settle(size: int, cover: int, folds: tuple | None) -> None:
        # a cover of what is left after the folds: undo them, newest first
        nonlocal best_size, best_mask
        if size < best_size:
            best_size = size
            while folds is not None:
                v, u, w, folds = folds
                if cover >> v & 1:
                    cover ^= 1 << v | 1 << u | 1 << w
                else:
                    cover |= 1 << v
            best_mask = cover

    def walk(
        alive: int,
        touched: int,
        size: int,
        cover: int,
        adj: list[int],
        folds: tuple | None,
        mate_l: list[int],
        mate_r: list[int],
        synced: int,
        free_l: int,
        free_r: int,
    ) -> None:
        # touched contains every alive vertex of degree at most 2: the
        # parent branched with none, so only neighbours of the vertices
        # it took can have one. adj is shared with the parent until this
        # node first folds, and folds is this path's (v, u, w, older
        # folds) chain. mate_l and mate_r hold a matching of the double
        # cover of the synced vertices; free_l and free_r are its
        # unmatched copies.
        nonlocal root, nodes
        if best_size <= target:
            return
        nodes += 1
        if node_budget and nodes > node_budget:
            raise BudgetExceededError("node budget exceeded")
        own = False

        while True:
            # Every vertex whose degree may have dropped is put back into
            # pending, so vertices left out of it keep a degree of at
            # least 3, and the lowest one of degree at most 2 in pending
            # is the lowest overall.
            pending = touched
            while pending:
                low = pending & -pending
                pending ^= low
                v = low.bit_length() - 1
                d = adj[v] & alive
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
                    continue
                w_bit = d & (d - 1)
                if w_bit & (w_bit - 1):
                    continue
                u_bit = d ^ w_bit
                u = u_bit.bit_length() - 1
                w = w_bit.bit_length() - 1
                if adj[u] & w_bit:
                    cover |= d
                    size += 2
                    alive &= ~(d | low)
                    if size >= best_size:
                        return
                    pending = (pending | adj[u] | adj[w]) & alive
                    continue
                while True:
                    size += 1
                    if size >= best_size:
                        return
                    if not own:
                        adj = adj[:]
                        own = True
                    # Only the common neighbours of u and w lose degree.
                    pending |= low | (adj[u] & adj[w])
                    alive ^= d
                    pending &= alive
                    d = adj[v] = (adj[u] | adj[w]) & alive & ~low
                    folds = (v, u, w, folds)
                    # v is next in pending unless a common neighbour below
                    # it joined; then, with two neighbours not adjacent, it
                    # folds again, so a degree-2 path folds in one pass
                    if pending & (low - 1):
                        break
                    w_bit = d & (d - 1)
                    if not w_bit:
                        break
                    if w_bit & (w_bit - 1):
                        # degree 3 or more: v, popped next, would be passed over
                        pending ^= low
                        break
                    u = (d ^ w_bit).bit_length() - 1
                    if adj[u] & w_bit:
                        break
                    w = w_bit.bit_length() - 1
                # only the neighbours the last fold left need v's bit
                while d:
                    b = d & -d
                    d ^= b
                    adj[b.bit_length() - 1] |= low
            if not alive:  # no edges left
                settle(size, cover, folds)
                return

            # Drop the pairs that touch deleted vertices, then re-augment.
            # This also drops every pair of a folded vertex: it was
            # paired only with neighbours alive when it was paired, and
            # of those only u and w were still alive when it folded.
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
            touched = alive
            if size >= best_size:
                return

        if root is not None:  # only the root gets here first
            hook, root = root, None
            kernel_cover = hook(alive, adj)
            if kernel_cover is not None:
                settle(size + kernel_cover.bit_count(), cover | kernel_cover, folds)
                return

        # The matching is perfect, so mate_l permutes the alive vertices.
        # One walk along its cycles sums the bound and finds the vertex
        # to branch on; it does not go in index order, so a tie in
        # degree goes to the smaller index explicitly.
        bound = size
        pick = -1
        pick_deg = 1
        pending = alive
        while pending:
            start = v = (pending & -pending).bit_length() - 1
            length = 0
            while v >= 0 and pending >> v & 1:
                pending ^= 1 << v
                length += 1
                deg = (adj[v] & alive).bit_count()
                if deg > pick_deg or deg == pick_deg and v < pick:
                    pick_deg = deg
                    pick = v
                v = mate_l[v]
            if v != start:
                raise GuaranteeError("double-cover matching is not perfect")
            bound += (length + 1) // 2
        if bound >= best_size:
            return

        v_bit = 1 << pick
        nbrs = adj[pick] & alive
        walk(
            alive & ~v_bit, nbrs, size + 1, cover | v_bit, adj, folds,
            mate_l[:], mate_r[:], alive, 0, 0,
        )
        # This node is done with its arrays, so the second child takes them.
        rest = alive & ~(nbrs | v_bit)
        touched = 0
        pending = nbrs
        while pending:
            low = pending & -pending
            pending ^= low
            touched |= adj[low.bit_length() - 1]
        walk(
            rest, touched & rest, size + nbrs.bit_count(), cover | nbrs,
            adj, folds, mate_l, mate_r, alive, 0, 0,
        )

    walk(full, full, 0, 0, adj, None, [-1] * n, [-1] * n, full, full, full)
    return best_mask, nodes
