import math

import networkx as nx
import pytest

from conftest import random_colouring_values
from simdom import blocks_and_cut_vertices
from simdom.generators import (
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
                assert g.has_edge(i, j)
        # each dangling path has length two
        for i in range(k):
            assert g.has_edge(i, k + i)
            assert g.has_edge(k + i, 2 * k + i)
            assert g.degree(2 * k + i) == 1


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
            later = [w for w in g.neighbours(v) if w > v]
            for i, a in enumerate(later):
                for b in later[i + 1 :]:
                    assert g.has_edge(a, b)
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
