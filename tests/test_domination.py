import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from conftest import cycle, path, star, two_triangles_sharing_vertex
from simdom import (
    Colour,
    Graph,
    blocks_and_cut_vertices,
    is_sd_set,
    sd_witness,
)
from simdom.domination import (
    COLOUR_TOKENS,
    TOKEN_OF_COLOUR,
    all_zero_hat,
    is_colour_respecting,
)
from simdom.oracle import is_sd_set_by_enumeration
from simdom.generators import random_connected_graph


def test_colour_tokens_round_trip():
    assert set(COLOUR_TOKENS) == {"1", "0", "0hat"}
    for token, colour in COLOUR_TOKENS.items():
        assert TOKEN_OF_COLOUR[colour] == token


def test_colour_order_puts_one_on_top():
    assert max(Colour.ZERO_HAT, Colour.ZERO) is Colour.ZERO
    assert max(Colour.ZERO, Colour.ONE) is Colour.ONE
    assert all_zero_hat(3) == [Colour.ZERO_HAT] * 3


def test_path_centre_dominates():
    g = path(3)
    bct = blocks_and_cut_vertices(g)
    assert is_sd_set(g, bct, {1})
    assert not is_sd_set(g, bct, {0})
    assert sd_witness(g, bct, {0}) == 2
    assert sd_witness(g, bct, {1}) is None


def test_non_cut_vertex_needs_whole_neighbourhood():
    # in C4 a vertex outside the set is non-cut, so all its neighbours must be in
    g = cycle(4)
    bct = blocks_and_cut_vertices(g)
    assert is_sd_set(g, bct, {0, 2})
    assert not is_sd_set(g, bct, {0, 1})


def test_cut_vertex_needs_one_full_block_neighbourhood():
    g = two_triangles_sharing_vertex()  # cut vertex 2
    bct = blocks_and_cut_vertices(g)
    # one full block neighbourhood of 2 suffices, here {0,1} or {3,4}
    assert is_sd_set(g, bct, {0, 1, 3, 4})
    assert is_sd_set(g, bct, {2, 0, 3})
    assert is_sd_set(g, bct, {2, 1, 4})
    # vertex 4 is non-cut, so a tree can leave it adjacent only to 2
    assert not is_sd_set(g, bct, {0, 1, 3})
    assert not is_sd_set(g, bct, {0, 3})


def test_star_centre():
    g = star(4)
    bct = blocks_and_cut_vertices(g)
    assert is_sd_set(g, bct, {0})
    assert not is_sd_set(g, bct, {1, 2, 3})
    assert is_sd_set(g, bct, {1, 2, 3, 4, 0})


def test_single_vertex_empty_set_is_accepted():
    # the block criterion accepts the empty set for K1; the spanning tree
    # reading differs there, so nothing below n=2 feeds the equivalence suite
    g = Graph(1, [])
    bct = blocks_and_cut_vertices(g)
    assert is_sd_set(g, bct, set())


def test_witness_is_genuinely_undominated():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(2, 7)
        m = rng.randint(n - 1, min(12, n * (n - 1) // 2))
        g = random_connected_graph(n, m, seed=rng.randint(0, 10**6))
        bct = blocks_and_cut_vertices(g)
        s = {v for v in range(n) if rng.random() < 0.4}
        w = sd_witness(g, bct, s)
        if w is None:
            assert is_sd_set(g, bct, s)
        else:
            assert w not in s
            assert not is_sd_set(g, bct, s)
            # adding the witness and all its neighbours repairs it locally
            assert is_sd_set(g, bct, set(range(n))) is True


@settings(deadline=None, max_examples=120)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=255))
def test_block_test_matches_tree_enumeration(seed, subset_bits):
    rng = random.Random(seed)
    n = rng.randint(2, 7)
    m = rng.randint(n - 1, min(12, n * (n - 1) // 2))
    g = random_connected_graph(n, m, seed=seed)
    s = {v for v in range(n) if subset_bits >> v & 1}
    bct = blocks_and_cut_vertices(g)
    assert is_sd_set(g, bct, s) == is_sd_set_by_enumeration(g, s)


def test_colour_respecting_requires_ones():
    g = path(3)
    bct = blocks_and_cut_vertices(g)
    f = [Colour.ONE, Colour.ZERO_HAT, Colour.ZERO_HAT]
    assert not is_colour_respecting(g, bct, f, {1})
    assert is_colour_respecting(g, bct, f, {0, 1})


def test_colour_respecting_exempts_zeros():
    g = path(3)
    bct = blocks_and_cut_vertices(g)
    f = [Colour.ZERO, Colour.ZERO, Colour.ZERO]
    assert is_colour_respecting(g, bct, f, set())
    f = [Colour.ZERO, Colour.ZERO, Colour.ZERO_HAT]
    # only vertex 2 needs simultaneous domination now
    assert not is_colour_respecting(g, bct, f, set())
    assert is_colour_respecting(g, bct, f, {1})
    assert is_colour_respecting(g, bct, f, {2})


def test_colour_respecting_length_check():
    g = path(3)
    bct = blocks_and_cut_vertices(g)
    with pytest.raises(ValueError):
        is_colour_respecting(g, bct, [Colour.ONE], {0})


@st.composite
def glued_blocks(draw):
    """A connected graph of 2 to 5 blocks (edges, cycles or cliques of up
    to 5 vertices), each glued at one vertex to those before it, so that
    it has cut vertices, some of them in several blocks."""
    n, edges = 1, []
    for _ in range(draw(st.integers(min_value=2, max_value=5))):
        size = draw(st.integers(min_value=2, max_value=5))
        ids = [draw(st.integers(0, n - 1))] + list(range(n, n + size - 1))
        n += size - 1
        if size == 2:
            edges.append((ids[0], ids[1]))
        elif draw(st.booleans()):
            edges += [(ids[i], ids[(i + 1) % size]) for i in range(size)]
        else:
            edges += [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:]]
    return Graph(n, edges)


@settings(deadline=None, max_examples=200)
@given(glued_blocks(), st.data())
def test_domination_checks_match_the_per_vertex_definition(g, data):
    # the definition, with blocks from networkx: v is dominated when it
    # is in s or one of its block neighbourhoods (its neighbours inside
    # one block holding it) is inside s
    colouring = data.draw(
        st.lists(st.sampled_from(list(Colour)), min_size=g.n, max_size=g.n)
    )
    s = data.draw(st.sets(st.integers(min_value=0, max_value=g.n - 1)))
    if data.draw(st.booleans()):
        s = set(range(g.n)) - s  # large sets too, so that some are valid
    blocks = list(nx.biconnected_components(nx.Graph(g.edges)))
    dominated = [
        v in s or any(g.adj[v] & b <= s for b in blocks if v in b)
        for v in range(g.n)
    ]
    bct = blocks_and_cut_vertices(g)
    assert bct.cut_vertices
    undominated = [v for v in range(g.n) if not dominated[v]]
    assert is_sd_set(g, bct, s) == (not undominated)
    assert sd_witness(g, bct, s) == (undominated[0] if undominated else None)
    respects = all(
        v in s if c is Colour.ONE else c is Colour.ZERO or dominated[v]
        for v, c in enumerate(colouring)
    )
    assert is_colour_respecting(g, bct, colouring, s) == respects
