"""Tree decompositions and exact vertex cover by dynamic programming.

The decomposition comes from the min-fill elimination heuristic, so its
width is an upper bound on the treewidth with no optimality claim. Fill
counts are incremental (Bodlaender & Koster, "Treewidth computations I.
Upper bounds", 2010): each is computed once, kept in a heap, and
updated only for the vertices near an eliminated one. On graphs of up
to MASK_VERTEX_LIMIT vertices the elimination keeps each neighbourhood
as an int bitmask, so a fill count is a popcount per neighbour and an
elimination rewrites each neighbour's row with one expression; larger
graphs keep sets, whose size follows the degree and not n.

The vertex cover DP runs on the decomposition's own bags, with no nice
form (Cygan et al., "Parameterized Algorithms", 2015, section 7.3): each
bag enumerates the covers of its own edges, and each child is joined
through a table keyed by its choice on the vertices it shares with its
parent. Ties go to the least bits outside the parent bag, so the cover
depends on the graph and the decomposition alone. The DP is correct on
any valid decomposition, which decomposition_violation checks property
by property in time linear in the bags' total size.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass

from .errors import GuaranteeError, InvalidDecompositionError, WidthBudgetError
from .graph import Graph
from .vertexcover import VcResult

WIDTH_BUDGET = 20  # widest decomposition the DP accepts
MASK_VERTEX_LIMIT = 512  # min-fill on more vertices keeps neighbour sets


@dataclass(frozen=True)
class TreeDecomposition:
    bags: tuple[frozenset[int], ...]
    tree_edges: tuple[tuple[int, int], ...]

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1


def _bits(x: int) -> list[int]:
    """Positions of the set bits of x, ascending."""
    out = []
    while x:
        top = x.bit_length() - 1
        out.append(top)
        x ^= 1 << top
    out.reverse()
    return out


def _mask_fill(adj: list[int], v: int) -> int:
    """Number of non-adjacent pairs among the neighbours of v."""
    nv = adj[v]
    d = nv.bit_count()
    if d <= 1:
        return 0
    if d == 2:
        top = nv.bit_length() - 1
        return 0 if adj[top] & (nv ^ 1 << top) else 1
    # every edge inside N(v) is counted from both of its ends
    inside = 0
    rest = nv
    while rest:
        a = rest.bit_length() - 1
        rest ^= 1 << a
        inside += (adj[a] & nv).bit_count()
    return (d * (d - 1) - inside) // 2


def _mask_eliminate(
    adj: list[int], v: int, nbrs: list[int], fill: list[int]
) -> list[int]:
    """Make N(v) a clique without v; see _set_eliminate."""
    nv = adj[v]
    vbit = 1 << v
    closed = nv | vbit
    touched = 0
    later = nv
    for a in nbrs:
        # fill edges at a go to the later neighbours missing from its row
        abit = 1 << a
        later ^= abit
        row = adj[a]
        missing = (later | row) ^ row  # later & ~row, with no negative int
        if missing:
            row_out = (row | closed) ^ closed
            while missing:
                b = missing.bit_length() - 1
                missing ^= 1 << b
                common = row_out & adj[b]
                if common:
                    touched |= common
                    for w in _bits(common):
                        fill[w] -= 1
        adj[a] = (row | nv) ^ (vbit | abit)
    return _bits(touched) if touched else []


def _set_fill(adj: list[set[int]], v: int) -> int:
    """Number of non-adjacent pairs among the neighbours of v."""
    nv = adj[v]
    d = len(nv)
    if d <= 1:
        return 0
    if d == 2:
        a, b = nv
        return 0 if b in adj[a] else 1
    # every edge inside N(v) is counted from both of its ends
    inside = sum(len(adj[a] & nv) for a in nv)
    return (d * (d - 1) - inside) // 2


def _set_eliminate(
    adj: list[set[int]], v: int, nbrs: list[int], fill: list[int]
) -> set[int]:
    """Make N(v) a clique without v. Outside N[v] a neighbourhood keeps
    its vertices and only loses the non-adjacent pairs that become fill
    edges, so each vertex there that sees both ends of a new fill edge
    has its fill decremented once per such edge; returns those vertices."""
    added = [
        (a, b) for i, a in enumerate(nbrs) for b in nbrs[i + 1 :] if b not in adj[a]
    ]
    for a in nbrs:
        adj[a].discard(v)
    for a, b in added:
        adj[a].add(b)
        adj[b].add(a)
    outside: set[int] = set()
    for a, b in added:
        for w in adj[a] & adj[b]:
            if w not in adj[v]:
                fill[w] -= 1
                outside.add(w)
    return outside


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

    Neighbourhoods are int bitmasks on graphs of at most
    MASK_VERTEX_LIMIT vertices, and sets above: a row costs its width in
    bits, so masks would take memory quadratic in n, while a set costs
    its degree. Both give the same decomposition.
    """
    if g.n <= MASK_VERTEX_LIMIT:
        adj: list = g.adjacency_masks()
        ascending, count_fill, eliminate = _bits, _mask_fill, _mask_eliminate
    else:
        adj = [set(row) for row in g.nbrs]
        ascending, count_fill, eliminate = sorted, _set_fill, _set_eliminate
    fill = [count_fill(adj, v) for v in range(g.n)]
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
        nbrs = ascending(adj[v])
        if max_width is not None and len(nbrs) > max_width:
            return None
        elim_pos[v] = len(bags)
        bags.append(frozenset([v, *nbrs]))
        bag_members.append(nbrs)
        alive[v] = False
        for w in eliminate(adj, v, nbrs, fill):
            heapq.heappush(heap, (fill[w], w))
        for w in nbrs:
            count = count_fill(adj, w)
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


def _rooted(td: TreeDecomposition) -> tuple[list[int], list[int]]:
    """Each bag's parent (-1 at the root, bag 0) and the bags in BFS
    order from bag 0; bags it does not reach are left out."""
    nbrs: list[list[int]] = [[] for _ in td.bags]
    for i, j in td.tree_edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    parent = [-1] * len(td.bags)
    order = [0] if td.bags else []
    for i in order:  # a BFS: order grows while it is read
        for j in nbrs[i]:
            if j != 0 and parent[j] < 0:
                parent[j] = i
                order.append(j)
    return parent, order


def decomposition_violation(g: Graph, td: TreeDecomposition) -> str | None:
    """None when valid, else a message naming the broken property, or
    the bag holding a member that is not a vertex of g.

    The BFS that proves the bags form a tree also roots it at bag 0.
    Call a bag holding v whose parent does not hold v a top bag of v:
    each connected part of v's bags has exactly one, so property (iii)
    asks for one top bag per vertex. Two subtrees of a rooted tree meet
    exactly when one holds the top of the other, so property (ii) looks
    at two top bags per edge; only an edge at a vertex with more than
    one top bag, which already breaks (iii), is checked against every
    bag. On a valid decomposition that is linear in the bags' total size.
    """
    k = len(td.bags)
    for i, j in td.tree_edges:
        if not (0 <= i < k and 0 <= j < k):
            return f"tree: edge ({i}, {j}) references a missing bag"
    if k > 0 and len(td.tree_edges) != k - 1:
        return f"tree: {len(td.tree_edges)} edges on {k} bags is not a tree"
    parent, order = _rooted(td)
    if len(order) != k:
        return "tree: bag graph is disconnected"

    bags = td.bags
    top = [-1] * g.n
    split: set[int] = set()  # vertices with more than one top bag
    for i, bag in enumerate(bags):
        above = bags[parent[i]] if parent[i] >= 0 else ()
        for v in bag:
            if not 0 <= v < g.n:
                return f"bag {i}: member {v} is not a vertex of the graph (n={g.n})"
            if v not in above:
                if top[v] < 0:
                    top[v] = i
                else:
                    split.add(v)
    if -1 in top:
        return f"property (i): vertex {top.index(-1)} is in no bag"
    for u, row in enumerate(g.nbrs):
        for v in row:
            if v < u or v in bags[top[u]] or u in bags[top[v]]:
                continue
            if (u in split or v in split) and any(u in b and v in b for b in bags):
                continue
            return f"property (ii): edge ({u}, {v}) is in no bag"
    if split:
        return f"property (iii): bags containing vertex {min(split)} are disconnected"
    return None


def _bag_covers(
    verts: list[int], nbrs: list[list[int]], up: dict[int, int]
) -> list[int]:
    """Covers of the edges inside one bag, as states.

    verts is the bag in ascending order; bit i of a state stands for
    verts[i]. Above those len(verts) bits a state carries its key: the
    same choice on the vertices the parent bag shares, as a mask over
    the parent positions up[v]. Vertices are added one at a time, and
    leaving one out needs its earlier neighbours in. The states without
    a vertex go first, so the states ascend in their low bits. Each
    earlier vertex is looked up in v's ascending neighbour list by
    bisection, so a vertex of high degree costs the bag's size, not its
    degree.
    """
    shift = len(verts)
    states = [0]
    for v in verts:
        row = nbrs[v]
        need = 0
        bit = 1
        i = 0
        for u in verts:  # the earlier vertices; bit ends at v's own
            if u == v:
                break
            i = bisect_left(row, u, i)
            if i < len(row) and row[i] == u:
                need |= bit
            bit <<= 1
        add = bit | (1 << (shift + up[v]) if v in up else 0)
        out = [s for s in states if s & need == need] if need else states
        states = out + [s | add for s in states]
    return states


def vc_via_tree_decomposition(g: Graph, td: TreeDecomposition) -> VcResult:
    """Exact minimum vertex cover by subset DP over the decomposition's bags.

    The DP roots the bag tree at bag 0, takes children in BFS order and
    runs bottom up. A bag's states are the covers of the edges inside it
    (_bag_covers). A state's cost is the least number of vertices
    outside the parent bag that a cover of the bag's subtree agreeing
    with the state holds. A child hands its parent, for each choice on
    the vertices they share (its key), the least such cost, and a parent
    state s adds proj[s & key_mask] of each child to its own count. The
    full tables are dropped once projected; the cover is read top down
    from each child's argmin per key.

    Tie rule: a child's argmin is the state of least cost, then of least
    integer value on its bits outside the parent, and the root takes the
    least (cost, mask). As bits follow ascending vertex order, among
    equal sizes the highest vertex is left out first. A decomposition
    wider than WIDTH_BUDGET raises WidthBudgetError.
    """
    problem = decomposition_violation(g, td)
    if problem is not None:
        raise InvalidDecompositionError(problem)
    if td.width > WIDTH_BUDGET:
        raise WidthBudgetError(
            f"decomposition width {td.width} exceeds the budget of {WIDTH_BUDGET}"
        )
    k = len(td.bags)
    if k == 0:  # validated, so g has no vertices
        return VcResult(frozenset(), ("treewidth",))

    parent, order = _rooted(td)
    verts = [sorted(bag) for bag in td.bags]
    unset = g.n + 1  # above every cost
    projected: dict[int, list[tuple[int, dict[int, int]]]] = {}
    key_mask = [0] * k
    argmin: list[dict[int, int]] = [{}] * k
    for b in reversed(order):
        p = parent[b]
        up = {v: i for i, v in enumerate(verts[p])} if p >= 0 else {}
        states = _bag_covers(verts[b], g.nbrs, up)
        # a state's cost counts the cover vertices of the subtree that
        # the parent bag does not hold
        own = km = 0
        for i, v in enumerate(verts[b]):
            if v in up:
                km |= 1 << up[v]
            else:
                own |= 1 << i
        costs = [(s & own).bit_count() for s in states]
        for shared, below in projected.pop(b, ()):
            costs = [c + below[s & shared] for s, c in zip(states, costs)]
        if p < 0:
            break
        # states ascend in their low bits, so the first least cost of a
        # key has the least bits outside the parent
        shift = len(verts[b])
        proj: dict[int, int] = {}
        argmin[b] = arg = {}
        for s, c in zip(states, costs):
            key = s >> shift
            if c < proj.get(key, unset):
                proj[key] = c
                arg[key] = s
        key_mask[b] = km
        projected.setdefault(p, []).append((km, proj))

    if not states:
        raise GuaranteeError("DP lost all states on a validated decomposition")
    size = min(costs)
    chosen = [0] * k
    chosen[0] = states[costs.index(size)]
    for b in order[1:]:
        chosen[b] = argmin[b][chosen[parent[b]] & key_mask[b]]
    cover = {v for b in order for i, v in enumerate(verts[b]) if chosen[b] >> i & 1}
    if len(cover) != size:
        raise GuaranteeError("reconstruction does not match the DP optimum")
    return VcResult(frozenset(cover), ("treewidth",))
