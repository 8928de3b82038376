import math
import random
import tracemalloc

import networkx as nx
import pytest

import generators_reference
from conftest import random_colouring_values
from simdom import blocks_and_cut_vertices
from simdom.generators import (
    _PairsOutside,
    gap_graph,
    random_2connected_graph,
    random_bipartite_graph,
    random_chordal_graph,
    random_connected_graph,
    random_graph,
)


def test_gap_graph_construction_arithmetic():
    for k in (3, 5, 8):
        g = gap_graph(k)
        assert g.n == 3 * k
        assert g.m == math.comb(k, 2) + 2 * k
        # clique on the first k vertices
        for i in range(k):
            for j in range(i + 1, k):
                assert j in g.nbrs[i]
        # each dangling path has length two
        for i in range(k):
            assert k + i in g.nbrs[i]
            assert g.nbrs[2 * k + i] == [k + i]


def test_gap_graph_degenerate_and_invalid_sizes():
    # k=1 degenerates to a path of three vertices and still fits the family
    assert gap_graph(1).edges == ((0, 1), (1, 2))
    with pytest.raises(ValueError):
        gap_graph(0)


def test_random_graph_is_seed_deterministic():
    a = random_graph(8, 12, seed=42)
    b = random_graph(8, 12, seed=42)
    assert a == b
    c = random_graph(8, 12, seed=43)
    assert a != c or a.edges == c.edges  # different seeds usually differ


def test_random_connected_is_connected():
    for seed in range(15):
        g = random_connected_graph(9, 11, seed=seed)
        assert g.is_connected()
        assert g.m == 11


def test_random_connected_rejects_too_few_edges():
    with pytest.raises(ValueError):
        random_connected_graph(5, 3, seed=0)
    with pytest.raises(ValueError):
        random_graph(4, 7, seed=0)


def test_random_2connected_has_no_cut_vertices():
    for seed in range(15):
        g = random_2connected_graph(8, 12, seed=seed)
        bct = blocks_and_cut_vertices(g)
        assert len(bct.blocks) == 1
        assert not bct.cut_vertices
    with pytest.raises(ValueError):
        random_2connected_graph(2, 1, seed=0)


def test_random_chordal_is_chordal():
    for seed in range(15):
        g = random_chordal_graph(10, 0.35, seed=seed)
        # 0..n-1 is a perfect elimination ordering: the later neighbours
        # of each vertex form a clique.
        for v in range(g.n):
            later = [w for w in g.nbrs[v] if w > v]
            for i, a in enumerate(later):
                for b in later[i + 1 :]:
                    assert b in g.nbrs[a]
        nxg = nx.Graph(g.edges)
        nxg.add_nodes_from(range(g.n))
        assert nx.is_chordal(nxg)


def test_random_bipartite_edges_cross_sides():
    g = random_bipartite_graph(3, 4, 0.7, seed=1)
    assert g.n == 7
    for u, v in g.edges:
        assert (u < 3) != (v < 3)
    full = random_bipartite_graph(3, 3, 1.0, seed=0)
    assert full.m == 9
    empty = random_bipartite_graph(3, 3, 0.0, seed=0)
    assert empty.m == 0


def test_colouring_values_are_colour_codes():
    values = random_colouring_values(20, seed=9)
    assert len(values) == 20
    assert set(values) <= {0, 1, 2}
    assert values == random_colouring_values(20, seed=9)


RANDOM_FAMILIES = {
    "random_graph": (random_graph, lambda n: 0),
    "random_connected_graph": (random_connected_graph, lambda n: max(n - 1, 0)),
    "random_2connected_graph": (random_2connected_graph, lambda n: n),
}


@pytest.mark.parametrize("family", sorted(RANDOM_FAMILIES))
def test_random_generators_match_the_list_based_reference(family):
    # every n below 40 at both ends of its edge range and four counts
    # between, then three larger graphs, among them the CI's LP-scale one
    ours, low = RANDOM_FAMILIES[family]
    reference = getattr(generators_reference, family)
    rng = random.Random(family)
    first = {"random_graph": 0, "random_connected_graph": 1}.get(family, 3)
    for n in range(first, 40):
        top = n * (n - 1) // 2
        for m in {low(n), top, *(rng.randint(low(n), top) for _ in range(4))}:
            seed = rng.randrange(10**6)
            assert ours(n, m, seed) == reference(n, m, seed), (n, m, seed)
    for n, m, seed in ((300, 600, 2100), (1000, 3000, 1), (1000, 3000, 2)):
        assert ours(n, m, seed) == reference(n, m, seed), (n, m, seed)


def test_pairs_outside_indexes_the_free_pairs_in_order():
    n = 9
    taken = {(0, 1), (0, 2), (0, 8), (3, 4), (3, 6), (7, 8)}
    free = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in taken]
    pairs = _PairsOutside(n, taken)
    assert len(pairs) == len(free)
    assert list(pairs) == free
    assert pairs[-1] == free[-1]
    with pytest.raises(IndexError):
        pairs[len(free)]
    assert list(_PairsOutside(0, ())) == list(_PairsOutside(1, ())) == []


def test_random_connected_graph_memory_is_linear():
    # the list of free pairs would hold about 2 * 10^8 tuples here; the
    # graph itself peaks at about 25 MB
    tracemalloc.start()
    try:
        g = random_connected_graph(20_000, 40_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.m == 40_000 and g.is_connected()
    assert peak < 64 * 2**20
