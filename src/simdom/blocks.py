"""Block-cutpoint decomposition.

Blocks are maximal 2-connected subgraphs; a bridge counts as a block on
its two endpoints. For a connected graph the bipartite graph on blocks
and cut vertices (adjacency by containment) is a tree, which drives both
the leaf-component solver loop and the rounding step of the LP scheme;
the rounding walks it rooted, as each cut vertex's depth and parent
block (``root_block_tree``).
The decomposition is also the solver's connectivity check: its one DFS
raises DisconnectedGraphError when it leaves a vertex unreached.

A decomposition is held in one flat layout: every block's sorted
members back to back, the offsets of the blocks, each vertex's first
block, and one dict from each cut vertex to its blocks. An edge lies in
the later of its two ends' first blocks (``BlockCutTree.edge_block``):
blocks are numbered in the order of their heads' discovery, and the
later-discovered end of an edge first appears in the block of its tree
edge to its DFS parent, which the edge shares a cycle with and which
holds the earlier end too. The per-block frozensets (``blocks``) and
the set of cut vertices, which ``simdom blocks`` prints, are built from
it on first read and cached; the solve and approximation paths never
ask for them.
So is each cut vertex's neighbourhood in each of its blocks
(``cut_neighbours``), which the LP model and its rounding read.
"""

from __future__ import annotations

import heapq
from array import array
from functools import cached_property
from itertools import accumulate

from .errors import DisconnectedGraphError, GuaranteeError
from .graph import Graph

# A node of the block-cut tree: ("block", index) or ("cut", vertex).
TreeNode = tuple[str, int]


class BlockCutTree:
    """The blocks and cut vertices of a connected graph.

    Block b's members in ascending order are
    ``members[member_start[b]:member_start[b + 1]]``. ``block_of[v]`` is
    v's first block: for every vertex but 0 the block holding its tree
    edge to its DFS parent, the one block where it is not the head; for
    vertex 0, block 0. The edge uv lies in block
    ``max(block_of[u], block_of[v])`` (edge_block). ``cut_blocks`` maps
    each cut vertex, in ascending order, to its blocks in ascending
    order. ``nbrs`` is the decomposed graph's own neighbour lists. All
    are read-only by contract. Two decompositions are equal when their
    blocks are, and hash by the same member lists and offsets that
    equality compares.
    """

    def __init__(
        self,
        members: list[int],
        member_start: array[int],
        block_of: array[int],
        cut_blocks: dict[int, tuple[int, ...]],
        nbrs: list[list[int]],
    ):
        self.members = members
        self.member_start = member_start
        self.block_of = block_of
        self.cut_blocks = cut_blocks
        self.nbrs = nbrs

    @cached_property
    def blocks(self) -> tuple[frozenset[int], ...]:
        members, start = self.members, self.member_start
        return tuple(
            frozenset(members[start[b]:start[b + 1]]) for b in range(len(start) - 1)
        )

    @cached_property
    def cut_vertices(self) -> frozenset[int]:
        return frozenset(self.cut_blocks)

    @cached_property
    def cut_neighbours(self) -> dict[tuple[int, int], list[int]]:
        """For each cut vertex v and each of its blocks b, keyed (v, b)
        in ascending order, v's neighbours in b in ascending order, from
        one pass over v's neighbours."""
        near: dict[tuple[int, int], list[int]] = {}
        nbrs = self.nbrs
        edge_block = self.edge_block
        for v, blocks in self.cut_blocks.items():
            for b in blocks:
                near[(v, b)] = []
            for w in nbrs[v]:
                near[(v, edge_block(v, w))].append(w)
        return near

    def edge_block(self, u: int, v: int) -> int:
        """The one block holding the edge uv: the later of u's and v's
        first blocks. Of the two ends, the later-discovered one first
        appears in the block of its tree edge to its DFS parent; the
        edge shares a cycle with that tree edge, and the earlier end,
        in that block too, first appears no later."""
        block_of = self.block_of
        return max(block_of[u], block_of[v])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BlockCutTree):
            return NotImplemented
        # sorted member lists in block order restate the blocks exactly
        return (
            self.member_start == other.member_start and self.members == other.members
        )

    def __hash__(self) -> int:
        return hash((tuple(self.member_start), tuple(self.members)))

    def __repr__(self) -> str:
        return f"BlockCutTree(blocks={self.blocks!r}, cut_vertices={self.cut_vertices!r})"


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
    block's members are sorted once, here, and laid out flat, in the
    order found, then once more in block order.

    Every vertex but the root 0 is a non-head member of exactly one
    block, the one that holds its tree edge to its DFS parent; that
    block's head was discovered before the vertex, so the block sorts
    before every block the vertex heads and is its first block
    (``block_of``). The root's first block is block 0, and it heads
    every other block it lies in.
    """
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    if g.n == 1:
        return BlockCutTree([0], array("l", [0, 1]), array("l", [0]), {}, g.nbrs)

    n = g.n
    nbrs = g.nbrs
    disc = [-1] * n
    low = [0] * n
    at = [0] * n  # a vertex's position on vstack
    vstack: list[int] = []
    found: list[int] = []  # each block's sorted members, in the order found
    found_end: list[int] = []
    keys: list[int] = []  # (head's discovery time, least other member), packed

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
                    keys.append(disc[p] * n + min(comp))
                    comp.append(p)
                    comp.sort()
                    found += comp
                    found_end.append(len(found))
    if timer < n:
        raise DisconnectedGraphError("block decomposition requires a connected graph")
    if vstack:
        raise GuaranteeError("vertex stack left non-empty by the lowpoint DFS")

    members: list[int] = []
    member_start = array("l", [0])
    block_of = [-1] * n  # an array once filled: a list reads faster
    cut_lists: dict[int, list[int]] = {}
    for b, j in enumerate(sorted(range(len(keys)), key=keys.__getitem__)):
        blk = found[found_end[j - 1] if j else 0:found_end[j]]
        for v in blk:
            first = block_of[v]
            if first < 0:
                block_of[v] = b
            else:
                # blocks come in index order, so each list comes out sorted
                seen = cut_lists.get(v)
                if seen is None:
                    cut_lists[v] = [first, b]
                else:
                    seen.append(b)
        members += blk
        member_start.append(len(members))
    cut_blocks = {v: tuple(cut_lists[v]) for v in sorted(cut_lists)}
    return BlockCutTree(members, member_start, array("l", block_of), cut_blocks, nbrs)


def flat_blocks(g: Graph, bct: BlockCutTree) -> tuple[list[int], array[int]]:
    """Every block's relabelled edges, laid out flat, from one pass over
    g's edges in sorted order: (ends, edge_start).

    Block b's edges are ``ends[edge_start[b]:edge_start[b + 1]]``, read
    in pairs u0, v0, u1, v1, ..., each end replaced by its position among
    the block's sorted members (``BlockCutTree.members``), the pairs
    sorted. Two flat sequences, not a list per block, hold the whole
    layout. The offset table is an array of machine ints, as a list
    would keep an int object per block.

    An edge lies in the later of its ends' first blocks
    (bct.edge_block). Each vertex's position in its first block is kept
    per vertex, and each block's head's position per block: an end
    whose first block is earlier than the edge's is that block's head,
    the one member that first appeared in another block. The edges are
    met in sorted order, and relabelling by position in the sorted
    members keeps that order, so grouping the edges by block, stably,
    leaves each block's sorted.
    """
    members = bct.members
    member_start = bct.member_start
    block_of = bct.block_of
    nblocks = len(member_start) - 1
    pos = [0] * g.n
    head_pos = [0] * nblocks
    start = 0
    for b, end in enumerate(member_start[1:]):
        for i, v in enumerate(members[start:end]):
            if block_of[v] == b:
                pos[v] = i
            else:
                head_pos[b] = i
        start = end

    edge_block: list[int] = []
    first: list[int] = []
    second: list[int] = []
    # bound once: the loop below runs once per edge
    add_block, add_first, add_second = edge_block.append, first.append, second.append
    count = [0] * nblocks
    for u, row in enumerate(g.nbrs):
        bu = block_of[u]
        for v in row:
            if v > u:
                bv = block_of[v]
                b = bu if bu > bv else bv  # bct.edge_block(u, v), inline
                add_first(pos[u] if bu == b else head_pos[b])
                add_second(pos[v] if bv == b else head_pos[b])
                add_block(b)
                count[b] += 2
    by_block = sorted(range(len(edge_block)), key=edge_block.__getitem__)
    ends = [0] * (2 * len(edge_block))
    ends[0::2] = map(first.__getitem__, by_block)
    ends[1::2] = map(second.__getitem__, by_block)
    return ends, array("l", accumulate(count, initial=0))


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
    nblocks = len(bct.member_start) - 1
    bov = bct.cut_blocks
    # each block's cut vertices, ascending as the cuts are visited in order
    cuts_of: list[list[int]] = [[] for _ in range(nblocks)]
    count: dict[int, int] = {}
    for v, blocks in bov.items():
        count[v] = len(blocks)
        for b in blocks:
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


def root_block_tree(bct: BlockCutTree, root: TreeNode) -> dict[int, tuple[int, int]]:
    """The block-cut tree oriented away from ``root``, as each cut
    vertex's (depth, parent block), by BFS.

    A root cut vertex has depth 0 and parent -1, and all its blocks are
    its children; under a root block, that block's cut vertices have
    depth 0. Every other cut vertex lies one deeper than the cut vertex
    above its parent block. A cut vertex's child blocks are its blocks
    other than its parent.
    """
    members, start = bct.members, bct.member_start
    cut_blocks = bct.cut_blocks
    kind, idx = root
    if kind == "cut":
        tree = {idx: (0, -1)}
        queue = [(b, idx, 1) for b in cut_blocks[idx]]
    else:
        tree = {}
        queue = [(idx, -1, 0)]
    for b, up, depth in queue:  # the list grows while it is read
        for v in members[start[b]:start[b + 1]]:
            if v != up and v in cut_blocks:
                tree[v] = (depth, b)
                queue += [(c, v, depth + 1) for c in cut_blocks[v] if c != b]
    return tree
