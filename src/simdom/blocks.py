"""Block-cutpoint decomposition.

Blocks are maximal 2-connected subgraphs; a bridge counts as a block on
its two endpoints. For a connected graph the bipartite graph on blocks
and cut vertices (adjacency by containment) is a tree, which drives both
the leaf-component solver loop and the rounding step of the LP scheme.
The decomposition is also the solver's connectivity check: its one DFS
raises DisconnectedGraphError when it leaves a vertex unreached.
"""

from __future__ import annotations

import heapq
from array import array
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple

from .errors import DisconnectedGraphError, GuaranteeError
from .graph import Graph

# A node of the block-cut tree: ("block", index) or ("cut", vertex).
TreeNode = tuple[str, int]


@dataclass(frozen=True)
class BlockCutTree:
    blocks: tuple[frozenset[int], ...]
    cut_vertices: frozenset[int]
    blocks_of_vertex: tuple[tuple[int, ...], ...] = field(repr=False)
    # Block b's members in ascending order are
    # members[member_start[b]:member_start[b + 1]], sorted once by the
    # DFS and read-only by contract. They restate ``blocks``, so they
    # are left out of equality. They are flat because a list per block
    # raised the peak memory of a chain of 50,000 triangles by 6 MB.
    members: list[int] = field(repr=False, compare=False)
    member_start: array[int] = field(repr=False, compare=False)

    def is_cut(self, v: int) -> bool:
        return v in self.cut_vertices


def blocks_and_cut_vertices(g: Graph) -> BlockCutTree:
    """Decompose a connected graph into blocks and cut vertices.

    Lowpoint DFS from vertex 0, visiting neighbours in ascending order
    as g.nbrs lists them; blocks are reported sorted by the smallest DFS
    discovery time they contain, then by their sorted member lists, so
    the decomposition is reproducible. A vertex the DFS never reaches
    means the graph is disconnected.

    The DFS keeps a stack of vertices, not edges. When a child u of p
    has low[u] >= disc[p], the vertices above u on the stack, u included,
    form a block with p, its head: the member with the least discovery
    time. Blocks with one head meet only there, so the least of their
    other members orders them as their sorted member lists would. Each
    block's members are sorted once, here, and laid out flat in
    ``members``.
    """
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    if g.n == 1:
        return BlockCutTree(
            blocks=(frozenset({0}),),
            cut_vertices=frozenset(),
            blocks_of_vertex=((0,),),
            members=[0],
            member_start=array("l", [0, 1]),
        )

    n = g.n
    nbrs = g.nbrs
    disc = [-1] * n
    low = [0] * n
    at = [0] * n  # a vertex's position on vstack
    vstack: list[int] = []
    found: list[list[int]] = []  # each block's sorted members
    keys: list[tuple[int, int]] = []

    disc[0] = 0
    timer = 1
    stack = [(0, iter(nbrs[0]))]
    while stack:
        u, it = stack[-1]
        for w in it:
            if disc[w] == -1:
                disc[w] = low[w] = timer
                timer += 1
                at[w] = len(vstack)
                vstack.append(w)
                stack.append((w, iter(nbrs[w])))
                break
            # the tree edge to u's parent p lowers low[u] to disc[p] at
            # most, which moves neither the block test nor low[p]
            if disc[w] < low[u]:
                low[u] = disc[w]
        else:
            stack.pop()
            if stack:
                p = stack[-1][0]
                if low[u] < low[p]:
                    low[p] = low[u]
                if low[u] >= disc[p]:
                    i = at[u]
                    comp = vstack[i:]
                    del vstack[i:]
                    keys.append((disc[p], min(comp)))
                    comp.append(p)
                    comp.sort()
                    found.append(comp)
    if timer < n:
        raise DisconnectedGraphError("block decomposition requires a connected graph")
    if vstack:
        raise GuaranteeError("vertex stack left non-empty by the lowpoint DFS")

    ordered = [found[i] for i in sorted(range(len(found)), key=keys.__getitem__)]
    members: list[int] = []
    member_start = array("l", [0])
    # blocks are appended in index order, so each list comes out sorted
    membership: list[list[int]] = [[] for _ in range(n)]
    for b, blk in enumerate(ordered):
        for v in blk:
            membership[v].append(b)
        members += blk
        member_start.append(len(members))
    blocks_of_vertex = tuple(map(tuple, membership))
    cut_vertices = frozenset(v for v in range(n) if len(membership[v]) >= 2)

    return BlockCutTree(
        blocks=tuple(map(frozenset, ordered)),
        cut_vertices=cut_vertices,
        blocks_of_vertex=blocks_of_vertex,
        members=members,
        member_start=member_start,
    )


class FlatBlocks(NamedTuple):
    """Every block's sorted members and relabelled edges, laid out flat.

    Block b's members are ``members[member_start[b]:member_start[b + 1]]``,
    ascending. Its edges are ``ends[edge_start[b]:edge_start[b + 1]]``,
    read in pairs u0, v0, u1, v1, ..., each end replaced by its position
    among the block's members, the pairs sorted. Four flat sequences, not
    a list per block, hold the whole layout. The two offset tables are
    arrays of machine ints, as a list would keep an int object per block.
    """

    members: list[int]
    member_start: array[int]
    ends: list[int]
    edge_start: array[int]


def flat_blocks(g: Graph, bct: BlockCutTree) -> FlatBlocks:
    """The members and relabelled edges of every block, from one pass
    over g.edges.

    An edge with a non-cut end lies in that end's only block; otherwise
    both ends are cut vertices, and it lies in the one block they share
    (two blocks share at most one vertex). A non-cut vertex's position
    is kept per vertex, and a cut vertex's is found by bisecting the
    block's members. g.edges is sorted, and relabelling by position in
    the sorted members keeps that order, so grouping the edges by block,
    stably, leaves each block's sorted. The members and their offsets
    are the decomposition's own, not copies.
    """
    blocks = bct.blocks
    bov = bct.blocks_of_vertex
    members = bct.members
    member_start = bct.member_start
    # a vertex's position in the last block that holds it: for a non-cut
    # vertex, its only block
    pos = [0] * g.n
    start = 0
    for end in member_start[1:]:
        for i, v in enumerate(members[start:end]):
            pos[v] = i
        start = end

    block_of: list[int] = []
    first: list[int] = []
    second: list[int] = []
    count = [0] * len(blocks)
    for u, v in g.edges:
        bu = bov[u]
        bv = bov[v]
        if len(bu) == 1:
            b = bu[0]
            first.append(pos[u])
            if len(bv) == 1:
                second.append(pos[v])
            else:
                lo = member_start[b]
                second.append(bisect_left(members, v, lo, member_start[b + 1]) - lo)
        elif len(bv) == 1:
            b = bv[0]
            lo = member_start[b]
            first.append(bisect_left(members, u, lo, member_start[b + 1]) - lo)
            second.append(pos[v])
        else:
            # walk the shorter block list: a cut vertex may lie in many blocks
            if len(bu) <= len(bv):
                b = next(x for x in bu if v in blocks[x])
            else:
                b = next(x for x in bv if u in blocks[x])
            lo = member_start[b]
            hi = member_start[b + 1]
            first.append(bisect_left(members, u, lo, hi) - lo)
            second.append(bisect_left(members, v, lo, hi) - lo)
        block_of.append(b)
        count[b] += 2
    by_block = sorted(range(len(block_of)), key=block_of.__getitem__)
    ends = [0] * (2 * len(block_of))
    ends[0::2] = map(first.__getitem__, by_block)
    ends[1::2] = map(second.__getitem__, by_block)
    return FlatBlocks(
        members, member_start, ends, array("l", accumulate(count, initial=0))
    )


def leaf_component_order(bct: BlockCutTree) -> tuple[tuple[int, int | None], ...]:
    """Blocks in an order where each is a leaf of the remaining tree.

    Every entry is (block index, connection vertex); the final entry is
    the root block with connection vertex None. Ties go to the smallest
    block index.

    At each step the smallest-indexed block with exactly one live cut
    vertex (one still shared with another remaining block) is peeled,
    with that cut vertex as its connection. A min-heap holds the current
    leaves, and each block keeps a count of its live cuts, so the whole
    order costs O((B + sum of |block|) log B) for B blocks.
    """
    nblocks = len(bct.blocks)
    bov = bct.blocks_of_vertex
    # each block's cut vertices, ascending as the cuts are visited in order
    cuts_of: list[list[int]] = [[] for _ in range(nblocks)]
    count: dict[int, int] = {}
    for v in sorted(bct.cut_vertices):
        count[v] = len(bov[v])
        for b in bov[v]:
            cuts_of[b].append(v)
    live = [len(cuts) for cuts in cuts_of]
    removed = [False] * nblocks
    heap = [i for i in range(nblocks) if live[i] == 1]

    entries: list[tuple[int, int | None]] = []
    for _ in range(nblocks - 1):
        leaf = heapq.heappop(heap)
        removed[leaf] = True
        for w in cuts_of[leaf]:
            left = count[w] = count[w] - 1
            if left:
                # w was live: the leaf's one live cut, its connection
                conn = w
                if left == 1:
                    # w stops being live in the one remaining block holding it
                    for j in bov[w]:
                        if not removed[j]:
                            break
                    live[j] -= 1
                    if live[j] == 1:
                        heapq.heappush(heap, j)
        entries.append((leaf, conn))
    entries.append((removed.index(False), None))
    return tuple(entries)


@dataclass(frozen=True)
class RootedBlockTree:
    root: TreeNode
    parent: dict[TreeNode, TreeNode | None]
    children: dict[TreeNode, tuple[TreeNode, ...]]
    depth: dict[TreeNode, int]

    def child_blocks_of_cut(self, v: int) -> tuple[int, ...]:
        return tuple(i for kind, i in self.children[("cut", v)] if kind == "block")


def root_block_tree(bct: BlockCutTree, root: TreeNode) -> RootedBlockTree:
    """Orient the block-cut tree away from ``root`` by BFS."""
    parent: dict[TreeNode, TreeNode | None] = {root: None}
    children: dict[TreeNode, list[TreeNode]] = {}
    depth: dict[TreeNode, int] = {root: 0}
    queue = deque([root])
    while queue:
        node = queue.popleft()
        kind, idx = node
        if kind == "block":
            nbrs: list[TreeNode] = [
                ("cut", v) for v in sorted(bct.blocks[idx] & bct.cut_vertices)
            ]
        else:
            nbrs = [("block", i) for i in bct.blocks_of_vertex[idx]]
        kids = [nb for nb in nbrs if nb != parent[node]]
        children[node] = kids
        for nb in kids:
            parent[nb] = node
            depth[nb] = depth[node] + 1
            queue.append(nb)
    return RootedBlockTree(
        root=root,
        parent=parent,
        children={k: tuple(v) for k, v in children.items()},
        depth=depth,
    )
