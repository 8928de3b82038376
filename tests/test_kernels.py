"""The pure-Python branch-and-reduce search kernel."""

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from simdom import BudgetExceededError, Graph
from simdom._kernels import pure
from simdom.generators import random_2connected_graph, random_graph
from simdom.oracle import min_vc_bruteforce


def test_pure_kernel_small_cases():
    # single edge: the degree-1 rule takes the neighbour of vertex 0
    mask, nodes = pure.vc_search(2, [0b10, 0b01])
    assert mask == 0b10
    assert nodes >= 1
    # triangle: two vertices
    mask, _ = pure.vc_search(3, [0b110, 0b101, 0b011])
    assert bin(mask).count("1") == 2
    # empty graph
    mask, _ = pure.vc_search(3, [0, 0, 0])
    assert mask == 0


def test_pure_kernel_node_budget():
    masks = [0b111111 & ~(1 << i) for i in range(6)]  # K6
    with pytest.raises(BudgetExceededError):
        pure.vc_search(6, masks, 1)


def test_pure_kernel_search_is_pinned():
    # Cover and node count of the search as it stands; a change to the
    # search order, reductions or bound must update these on purpose.
    pinned = [
        # (n, m, seed, cover_mask, nodes, optimum)
        (12, 30, 1, 2421, 7, 7),
        (16, 40, 2, 31224, 11, 10),
        (20, 60, 3, 781784, 19, 13),
        (24, 70, 4, 4127397, 13, 15),
        (30, 90, 5, 662513517, 23, 19),
    ]
    for n, m, seed, cover_mask, nodes, optimum in pinned:
        g = random_graph(n, m, seed=seed)
        assert cover_mask.bit_count() == optimum
        assert pure.vc_search(n, g.adjacency_masks()) == (cover_mask, nodes)


def test_node_count_stays_a_quarter_of_the_greedy_matching_search():
    # The greedy-matching bound this search replaced took 2,033 nodes
    # here; the LP reduction and cycle-cover bound take 453.
    g = random_2connected_graph(100, 250, seed=1)
    mask, nodes = pure.vc_search(g.n, g.adjacency_masks(), 2 * 453)
    assert mask.bit_count() == 60
    assert nodes <= 2033 // 4


@st.composite
def small_graphs(draw, max_n=14):
    """Any graph on up to max_n vertices: isolated vertices and several
    components included."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])


@settings(deadline=None, max_examples=150)
@given(small_graphs())
def test_search_matches_brute_force(g):
    mask, _ = pure.vc_search(g.n, g.adjacency_masks())
    cover = {v for v in range(g.n) if mask >> v & 1}
    assert all(u in cover or v in cover for u, v in g.edges)
    assert len(cover) == len(min_vc_bruteforce(g))


@settings(deadline=None, max_examples=60)
@given(
    st.integers(min_value=1, max_value=30),
    st.floats(min_value=0.0, max_value=0.5),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_double_cover_matching_is_the_lp_bound(n, density, seed):
    # Half a maximum matching of the bipartite double cover is the
    # optimum of the vertex-cover LP relaxation, computed here by HiGHS.
    optimize = pytest.importorskip("scipy.optimize")
    g = random_graph(n, int(density * n * (n - 1) / 2), seed=seed)
    full = (1 << n) - 1
    mate_l, mate_r = [-1] * n, [-1] * n
    free_l, free_r = pure.augment(g.adjacency_masks(), full, mate_l, mate_r, full, full)
    matched = n - free_l.bit_count()
    assert matched == n - free_r.bit_count()
    for u, w in enumerate(mate_l):
        assert w < 0 or (mate_r[w] == u and g.has_edge(u, w))
    if g.m == 0:
        assert matched == 0
        return
    a_ub = [[-1 if v in e else 0 for v in range(n)] for e in g.edges]
    res = optimize.linprog(
        [1] * n, A_ub=a_ub, b_ub=[-1] * g.m, bounds=(0, 1), method="highs"
    )
    assert res.status == 0
    assert res.fun == pytest.approx(matched / 2)
    assert math.ceil(round(2 * res.fun) / 2) == (matched + 1) // 2


@settings(deadline=None, max_examples=60)
@given(
    st.integers(min_value=0, max_value=24),
    st.floats(min_value=0.0, max_value=0.6),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.data(),
)
def test_target_at_or_below_the_optimum_keeps_the_cover(n, density, seed, data):
    m = int(density * n * (n - 1) / 2)
    adj = random_graph(n, m, seed=seed).adjacency_masks()
    mask, nodes = pure.vc_search(n, adj)
    target = data.draw(st.integers(min_value=-1, max_value=mask.bit_count()))
    targeted_mask, targeted_nodes = pure.vc_search(n, adj, 0, target)
    assert targeted_mask == mask
    assert targeted_nodes <= nodes

