import dataclasses
import json
import random
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    clique,
    connected_graphs,
    cycle,
    path,
    star,
    two_triangles_sharing_vertex,
)
from simdom import DisconnectedGraphError, Graph, blocks_and_cut_vertices
from simdom.blocks import flat_blocks, leaf_component_order, root_block_tree
from simdom.generators import random_connected_graph


def test_path_blocks_are_edges():
    bct = blocks_and_cut_vertices(path(3))
    assert bct.blocks == (frozenset({0, 1}), frozenset({1, 2}))
    assert bct.cut_vertices == frozenset({1})


def test_cycle_is_one_block():
    bct = blocks_and_cut_vertices(cycle(5))
    assert len(bct.blocks) == 1
    assert bct.blocks[0] == frozenset(range(5))
    assert bct.cut_vertices == frozenset()


def test_single_vertex_is_one_block():
    bct = blocks_and_cut_vertices(Graph(1, []))
    assert bct.blocks == (frozenset({0}),)
    assert bct.cut_vertices == frozenset()


def test_shared_vertex_of_two_triangles_is_cut():
    bct = blocks_and_cut_vertices(two_triangles_sharing_vertex())
    assert bct.cut_vertices == frozenset({2})
    assert set(bct.blocks) == {frozenset({0, 1, 2}), frozenset({2, 3, 4})}


def test_star_centre_is_the_only_cut_vertex():
    bct = blocks_and_cut_vertices(star(4))
    assert bct.cut_vertices == frozenset({0})
    assert len(bct.blocks) == 4


def test_disconnected_rejected():
    with pytest.raises(DisconnectedGraphError):
        blocks_and_cut_vertices(Graph(4, [(0, 1), (2, 3)]))


def test_every_edge_in_exactly_one_block():
    g = random_connected_graph(12, 20, seed=5)
    bct = blocks_and_cut_vertices(g)
    for u, v in g.edges:
        owners = [i for i, blk in enumerate(bct.blocks) if u in blk and v in blk]
        assert len(owners) == 1


@settings(deadline=None, max_examples=150)
@given(connected_graphs(max_n=16))
def test_flat_blocks_match_induced_edges(g):
    # the one pass over g's edges gives each block the edges that an
    # edge scan finds for that block alone, and each edge of g lands in
    # exactly one block
    bct = blocks_and_cut_vertices(g)
    assume(bct.cut_vertices)
    members, member_start = bct.members, bct.member_start
    ends, edge_start = flat_blocks(g, bct)
    assert len(member_start) == len(edge_start) == len(bct.blocks) + 1
    seen = []
    for b, block in enumerate(bct.blocks):
        kept = members[member_start[b]:member_start[b + 1]]
        assert kept == sorted(block)
        flat = ends[edge_start[b]:edge_start[b + 1]]
        pairs = list(zip(flat[::2], flat[1::2]))
        index = {v: i for i, v in enumerate(kept)}
        assert pairs == [
            (index[u], index[v]) for u, v in g.edges if u in block and v in block
        ]
        seen += [(kept[a], kept[c]) for a, c in pairs]
    assert sorted(seen) == list(g.edges)


@settings(deadline=None, max_examples=100)
@given(connected_graphs(max_n=16))
def test_flat_members_are_the_sorted_blocks(g):
    # each block's members, sorted by the DFS and laid out flat, are the
    # block's; equality and hash follow the blocks, whichever views have
    # been built
    bct = blocks_and_cut_vertices(g)
    members, start = bct.members, bct.member_start
    assert len(start) == len(bct.blocks) + 1
    assert [members[start[b]:start[b + 1]] for b in range(len(bct.blocks))] == [
        sorted(blk) for blk in bct.blocks
    ]
    fresh = blocks_and_cut_vertices(g)
    assert fresh == bct and hash(fresh) == hash(bct)
    # a decomposition of another graph with the same vertex count
    # differs exactly when its blocks do
    h = Graph(g.n, list(g.edges)[1:]) if g.m else g
    if h.is_connected():
        other = blocks_and_cut_vertices(h)
        assert (other == bct) == (other.blocks == bct.blocks)


def test_cut_vertex_definition_matches_component_count():
    g = random_connected_graph(10, 14, seed=9)
    bct = blocks_and_cut_vertices(g)
    for v in range(g.n):
        rest = [u for u in range(g.n) if u != v]
        from simdom.graph import induced_subgraph

        sub, _ = induced_subgraph(g, rest)
        assert (v in bct.cut_blocks) == (not sub.is_connected())


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=0, max_value=10_000))
def test_block_size_identity(seed):
    # for a connected graph the block sizes satisfy sum(|B| - 1) = n - 1
    rng_n = 2 + seed % 9
    g = random_connected_graph(rng_n, min(rng_n + seed % 7, rng_n * (rng_n - 1) // 2), seed=seed)
    bct = blocks_and_cut_vertices(g)
    assert sum(len(b) - 1 for b in bct.blocks) == g.n - 1


def test_leaf_order_peels_to_root():
    g = two_triangles_sharing_vertex()
    bct = blocks_and_cut_vertices(g)
    order = leaf_component_order(bct)
    assert len(order) == 2
    assert order[-1][1] is None
    peeled_block, conn = order[0]
    assert conn == 2


def test_leaf_order_connection_is_the_single_live_cut():
    g = random_connected_graph(14, 17, seed=3)
    bct = blocks_and_cut_vertices(g)
    order = leaf_component_order(bct)
    assert len(order) == len(bct.blocks)
    assert {i for i, _ in order} == set(range(len(bct.blocks)))
    remaining = set(range(len(bct.blocks)))
    for idx, conn in order[:-1]:
        live = {
            v
            for v in bct.blocks[idx] & bct.cut_vertices
            if any(j != idx and v in bct.blocks[j] for j in remaining)
        }
        assert live == {conn}
        remaining.discard(idx)
    assert order[-1][1] is None


def quadratic_peel_order(bct):
    """Reference rule: the smallest remaining block with exactly one live
    cut vertex, peeled at that cut, rescanning every block at each step."""
    remaining = set(range(len(bct.blocks)))
    count = {v: len(blocks) for v, blocks in bct.cut_blocks.items()}

    def live_cuts(i):
        return [v for v in sorted(bct.blocks[i]) if count.get(v, 0) >= 2]

    entries = []
    while len(remaining) > 1:
        leaf = min(i for i in remaining if len(live_cuts(i)) == 1)
        entries.append((leaf, live_cuts(leaf)[0]))
        remaining.remove(leaf)
        for w in bct.blocks[leaf]:
            if w in count:
                count[w] -= 1
    entries.append((min(remaining), None))
    return tuple(entries)


def flower(petals):
    # petals triangles through vertex 0
    edges = []
    for k in range(petals):
        a, b = 2 * k + 1, 2 * k + 2
        edges += [(0, a), (0, b), (a, b)]
    return Graph(2 * petals + 1, edges)


def test_leaf_order_matches_quadratic_reference():
    graphs = {
        f"random seed {s}": random_connected_graph(10 + s % 40, 9 + s % 40 + s % 12, seed=s)
        for s in range(50)
    }
    graphs.update(
        {
            "path 200": path(200),
            "star 30": star(30),
            "flower of 200 triangles": flower(200),
            "single block": clique(6),
            "single vertex": Graph(1, []),
        }
    )
    for name, g in graphs.items():
        bct = blocks_and_cut_vertices(g)
        assert leaf_component_order(bct) == quadratic_peel_order(bct), name


def check_rooted_tree(bct, root):
    """Every cut vertex is reached, its parent block holds it, its depth
    is one more than that of the cut vertex above its parent block, and
    its other blocks, its children, are the parent of every other cut
    vertex in them."""
    tree = root_block_tree(bct, root)
    assert set(tree) == set(bct.cut_vertices)
    for v, (depth, parent) in tree.items():
        if parent == -1:
            assert root == ("cut", v) and depth == 0
            continue
        assert v in bct.blocks[parent]
        # the cut vertex above the parent block: the one that has it as a child
        above = [
            w for w, (_, p) in tree.items()
            if w != v and parent in bct.cut_blocks[w] and p != parent
        ]
        if above:
            (w,) = above
            assert depth == tree[w][0] + 1
        else:
            assert root == ("block", parent) and depth == 0
    for v, (_, parent) in tree.items():
        for c in bct.cut_blocks[v]:
            if c != parent:
                assert all(tree[w][1] == c for w in bct.blocks[c] & tree.keys() - {v})
    return tree


def test_rooted_tree_parents_and_depths():
    g = path(5)  # blocks are the 4 edges, cuts are 1, 2, 3
    bct = blocks_and_cut_vertices(g)
    assert check_rooted_tree(bct, ("block", 0)) == {1: (0, 0), 2: (1, 1), 3: (2, 2)}
    assert check_rooted_tree(bct, ("cut", 2)) == {2: (0, -1), 1: (1, 1), 3: (1, 2)}


def test_rooted_tree_covers_all_blocks_and_cuts():
    g = random_connected_graph(11, 13, seed=21)
    bct = blocks_and_cut_vertices(g)
    for root in [("block", 0), ("cut", min(bct.cut_vertices))]:
        tree = check_rooted_tree(bct, root)
        # each block is the root block or some cut vertex's child
        reached = {root[1]} if root[0] == "block" else set()
        reached |= {
            b for v, (_, p) in tree.items() for b in bct.cut_blocks[v] if b != p
        }
        assert reached == set(range(len(bct.blocks)))


def test_clique_has_no_cut_vertices():
    bct = blocks_and_cut_vertices(clique(5))
    assert bct.cut_vertices == frozenset()
    assert bct.blocks == (frozenset(range(5)),)


def cactus_edges(n, rng):
    """Bridges, triangles, 4-cycles and K4s, each hung at a random
    vertex of the graph so far, until about n vertices."""
    edges, size = [], 1
    while size < n:
        at = rng.randrange(size)
        k = rng.choice((1, 2, 3, 3))
        new = list(range(size, size + k))
        size += k
        if k == 3 and rng.random() < 0.5:  # K4
            ring = [at] + new
            edges += [(u, v) for i, u in enumerate(ring) for v in ring[i + 1 :]]
        else:  # bridge, triangle or 4-cycle
            ring = [at] + new
            edges += list(zip(ring, ring[1:]))
            if k > 1:
                edges.append((ring[-1], at))
    return size, edges


def chain_edges(n, rng):
    """Cycles of 3 to 40 vertices with a few chords, each glued at a
    random vertex of the one before, until about n vertices."""
    edges, size, prev = [], 1, [0]
    while size < n:
        k = rng.randint(3, 40)
        ring = [rng.choice(prev)] + list(range(size, size + k - 1))
        size += k - 1
        edges += list(zip(ring, ring[1:])) + [(ring[-1], ring[0])]
        chords = set()
        for _ in range(rng.randint(0, k // 4)):
            i, j = sorted(rng.sample(range(k), 2))
            if j - i > 1 and (i, j) != (0, k - 1):
                chords.add((ring[i], ring[j]))
        edges += sorted(chords)
        prev = ring
    return size, edges


def sparse_edges(n, rng):
    """A random tree on n vertices plus n // 5 random extra edges."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n - 1 + n // 5:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return n, sorted(edges)


@pytest.mark.parametrize("family", [cactus_edges, chain_edges, sparse_edges])
def test_blocks_match_networkx(family):
    rng = random.Random(family.__name__)
    for n in (20, 300, 10**4):
        size, edges = family(n, rng)
        perm = list(range(size))
        rng.shuffle(perm)
        g = Graph(size, [(perm[u], perm[v]) for u, v in edges])
        other = nx.Graph()
        other.add_nodes_from(range(g.n))
        other.add_edges_from(g.edges)
        bct = blocks_and_cut_vertices(g)
        assert len(set(bct.blocks)) == len(bct.blocks)
        assert set(bct.blocks) == {
            frozenset(c) for c in nx.biconnected_components(other)
        }
        assert bct.cut_vertices == frozenset(nx.articulation_points(other))
        assert_edge_blocks_match(g, bct, other)
    # the largest cactus has over 1,000 blocks
    assert family is not cactus_edges or len(bct.blocks) > 1000


def assert_edge_blocks_match(g, bct, other):
    """Each edge's block, each vertex's first block, each cut vertex's
    neighbours per block and the flat layout follow networkx's
    partition of the edges of ``other``, g as a networkx graph."""
    index = {blk: b for b, blk in enumerate(bct.blocks)}
    owner = {}
    for comp in nx.biconnected_component_edges(other):
        b = index[frozenset(x for e in comp for x in e)]
        for u, v in comp:
            assert bct.edge_block(u, v) == bct.edge_block(v, u) == b
            owner[min(u, v), max(u, v)] = b
    assert sorted(owner) == list(g.edges)
    for v in range(g.n):
        assert bct.block_of[v] == min(owner[min(v, w), max(v, w)] for w in g.nbrs[v])
    assert list(bct.cut_neighbours.items()) == [
        ((v, b), [w for w in g.nbrs[v] if owner[min(v, w), max(v, w)] == b])
        for v in bct.cut_blocks for b in bct.cut_blocks[v]
    ]
    ends, edge_start = flat_blocks(g, bct)
    members, member_start = bct.members, bct.member_start
    by_block = [[] for _ in bct.blocks]
    for u, v in g.edges:
        by_block[owner[u, v]].append((u, v))
    for b, pairs in enumerate(by_block):
        at = {v: i for i, v in enumerate(members[member_start[b]:member_start[b + 1]])}
        flat = ends[edge_start[b]:edge_start[b + 1]]
        assert list(zip(flat[::2], flat[1::2])) == [(at[u], at[v]) for u, v in pairs]


PINNED_ORDER = Path(__file__).resolve().parent / "block_order_reference.json"


def pinned_order_graphs():
    """Seven relabelled graphs of each family, 20 to 140 vertices."""
    for family in (cactus_edges, chain_edges, sparse_edges):
        for i in range(7):
            rng = random.Random(f"pin-{family.__name__}-{i}")
            size, edges = family(20 + 20 * i, rng)
            perm = list(range(size))
            rng.shuffle(perm)
            yield Graph(size, [(perm[u], perm[v]) for u, v in edges])


def block_order_record(g):
    bct = blocks_and_cut_vertices(g)
    return {
        "blocks": [sorted(b) for b in bct.blocks],
        "blocks_of_vertex": [
            list(bct.cut_blocks.get(v, (b,))) for v, b in enumerate(bct.block_of)
        ],
        "leaf_component_order": [list(e) for e in leaf_component_order(bct)],
    }


def test_block_order_is_pinned():
    # block numbers are printed by `simdom blocks` and in the solver's
    # block log; the reference was recorded from the edge-stack lowpoint
    # DFS that the vertex-stack one replaced
    expected = json.loads(PINNED_ORDER.read_text())
    records = [block_order_record(g) for g in pinned_order_graphs()]
    assert len(records) == len(expected) == 21
    for i, (got, want) in enumerate(zip(records, expected)):
        assert got == want, f"graph {i}"


@dataclasses.dataclass(frozen=True)
class EagerBlockCutTree:
    """Reference: a decomposition's views as they were built before they
    became lazy, a frozenset per block and a tuple per vertex, in a
    frozen dataclass whose equality reads all three."""

    blocks: tuple
    cut_vertices: frozenset
    blocks_of_vertex: tuple


def eager_reference(g, bct):
    """The eager views of bct's blocks, in bct's block order, which
    test_block_order_is_pinned checks on its own."""
    blocks = [bct.members[bct.member_start[b]:bct.member_start[b + 1]]
              for b in range(len(bct.member_start) - 1)]
    membership = [[] for _ in range(g.n)]
    for b, blk in enumerate(blocks):
        for v in blk:
            membership[v].append(b)
    return EagerBlockCutTree(
        tuple(map(frozenset, blocks)),
        frozenset(v for v in range(g.n) if len(membership[v]) >= 2),
        tuple(map(tuple, membership)),
    )


@st.composite
def hubs(draw, hub_at_root=False):
    """Stars and flowers, relabelled: one cut vertex in many blocks, each
    a bridge or a cycle of 3 to 5 vertices, some with a tail. With
    hub_at_root the hub keeps label 0, where the DFS starts, so it heads
    every block it lies in."""
    n, edges = 1, []
    for size in draw(st.lists(st.integers(min_value=2, max_value=5), min_size=1, max_size=12)):
        ring = [0] + list(range(n, n + size - 1))
        n += size - 1
        edges += [(ring[i], ring[i + 1]) for i in range(size - 1)]
        if size > 2:
            edges.append((ring[-1], 0))
        if draw(st.booleans()):
            edges.append((ring[-1], n))
            n += 1
    if hub_at_root:
        perm = [0] + draw(st.permutations(range(1, n)))
    else:
        perm = draw(st.permutations(range(n)))
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


LAYOUT_GRAPHS = st.one_of(connected_graphs(max_n=16), hubs(), hubs(hub_at_root=True))


@settings(deadline=None, max_examples=150)
@given(LAYOUT_GRAPHS, LAYOUT_GRAPHS)
def test_flat_layout_derives_the_eager_views(g, h):
    bct = blocks_and_cut_vertices(g)
    want = eager_reference(g, bct)
    nxg = nx.Graph(list(g.edges))
    nxg.add_nodes_from(range(g.n))
    if g.n > 1:
        assert set(want.blocks) == set(map(frozenset, nx.biconnected_components(nxg)))
        assert want.cut_vertices == set(nx.articulation_points(nxg))
    assert (bct.blocks, bct.cut_vertices) == (want.blocks, want.cut_vertices)
    assert hash(blocks_and_cut_vertices(g)) == hash(bct)
    assert list(bct.block_of) == [bs[0] for bs in want.blocks_of_vertex]
    assert bct.cut_blocks == {v: want.blocks_of_vertex[v] for v in sorted(want.cut_vertices)}
    assert list(bct.cut_blocks) == sorted(want.cut_vertices)
    near = [((v, b), [w for w in g.nbrs[v] if w in want.blocks[b]])
            for v in sorted(want.cut_vertices) for b in want.blocks_of_vertex[v]]
    assert list(bct.cut_neighbours.items()) == near
    for u, v in g.edges:
        assert bct.edge_block(u, v) == bct.edge_block(v, u) == next(
            b for b, blk in enumerate(want.blocks) if u in blk and v in blk
        )
    other = blocks_and_cut_vertices(h)
    assert (other == bct) == (eager_reference(h, other) == want) == (other.blocks == bct.blocks)
    if other == bct:
        assert hash(other) == hash(bct)
