"""The pure-Python branch-and-reduce search kernel."""

import hashlib
import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import small_graphs
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
        (12, 30, 1, 2421, 5, 7),
        (16, 40, 2, 31224, 7, 10),
        (20, 60, 3, 781784, 13, 13),
        (24, 70, 4, 12548772, 5, 15),
        (30, 90, 5, 662513517, 17, 19),
    ]
    for n, m, seed, cover_mask, nodes, optimum in pinned:
        g = random_graph(n, m, seed=seed)
        assert cover_mask.bit_count() == optimum
        assert pure.vc_search(n, g.adjacency_masks()) == (cover_mask, nodes)


def test_node_count_stays_a_quarter_of_the_greedy_matching_search():
    # The greedy-matching bound this search replaced took 2,033 nodes
    # here; the LP reduction and cycle-cover bound took 453, and
    # degree-2 folding takes 201, a tenth.
    g = random_2connected_graph(100, 250, seed=1)
    mask, nodes = pure.vc_search(g.n, g.adjacency_masks(), 2 * 201)
    assert mask.bit_count() == 60
    assert nodes <= 2033 // 10


def test_odd_cycle_folds_down_to_a_triangle_at_the_root():
    # C_9: vertex 0 folds its neighbours in three times, leaving the
    # triangle 0-4-5, which the triangle rule takes; unfolding puts back
    # every other vertex of the cycle.
    n = 9
    adj = [1 << (v - 1) % n | 1 << (v + 1) % n for v in range(n)]
    mask, nodes = pure.vc_search(n, adj)
    assert nodes == 1
    assert mask.bit_count() == 5
    assert all(mask >> v & 1 or mask >> (v + 1) % n & 1 for v in range(n))


def test_search_leaves_its_adjacency_unchanged():
    # the search works on copies: a caller may search one list twice
    g = random_2connected_graph(60, 110, seed=3)
    adj = g.adjacency_masks()
    first = pure.vc_search(g.n, adj)
    assert adj == g.adjacency_masks()
    assert pure.vc_search(g.n, adj) == first


@settings(deadline=None, max_examples=150)
@given(small_graphs())
def test_search_matches_brute_force(g):
    mask, _ = pure.vc_search(g.n, g.adjacency_masks())
    cover = {v for v in range(g.n) if mask >> v & 1}
    assert all(u in cover or v in cover for u, v in g.edges)
    assert len(cover) == len(min_vc_bruteforce(g))


@st.composite
def degree_two_graphs(draw, max_n=16):
    """Graphs where most vertices have degree 2, relabelled at random:
    random graphs with subdivided edges, cycles with pendant paths, and
    theta graphs (two hubs joined by internally disjoint paths). Folds
    nest in all three, and the triangle rule fires when a path folds
    down to a triangle."""
    shape = draw(st.sampled_from(["subdivided", "pendant", "theta"]))
    edges = []
    if shape == "subdivided":
        k = draw(st.integers(min_value=2, max_value=7))
        n = k
        for u, v in itertools.combinations(range(k), 2):
            if not draw(st.booleans()):
                continue
            if n < max_n and draw(st.booleans()):
                edges += [(u, n), (n, v)]
                n += 1
            else:
                edges.append((u, v))
    elif shape == "pendant":
        n = draw(st.integers(min_value=3, max_value=10))
        edges = [(v, (v + 1) % n) for v in range(n)]
        while n < max_n and draw(st.booleans()):
            at = draw(st.integers(min_value=0, max_value=n - 1))
            length = draw(st.integers(min_value=1, max_value=max_n - n))
            edges += list(zip([at] + list(range(n, n + length - 1)), range(n, n + length)))
            n += length
    else:
        n = 2
        paths = draw(st.lists(st.integers(min_value=1, max_value=5), min_size=3, max_size=4))
        for length in paths:
            if n + length > max_n:
                break
            inner = list(range(n, n + length))
            edges += list(zip([0] + inner, inner + [1]))
            n += length
    perm = draw(st.permutations(range(n)))
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


@settings(deadline=None, max_examples=300)
@given(degree_two_graphs(), st.data())
def test_folding_matches_brute_force(g, data):
    adj = g.adjacency_masks()
    mask, nodes = pure.vc_search(g.n, adj)
    cover = {v for v in range(g.n) if mask >> v & 1}
    assert all(u in cover or v in cover for u, v in g.edges)
    assert len(cover) == len(min_vc_bruteforce(g))
    target = data.draw(st.integers(min_value=-1, max_value=len(cover)))
    targeted_mask, targeted_nodes = pure.vc_search(g.n, adj, 0, target)
    assert targeted_mask == mask
    assert targeted_nodes <= nodes


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
        assert w < 0 or (mate_r[w] == u and w in g.nbrs[u])
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



def kernel_of(alive, rows):
    """The root kernel a hook is offered, as a Graph on the alive
    vertices in ascending order, and those vertices."""
    kept = [v for v in range(len(rows)) if alive >> v & 1]
    edges = [
        (i, j)
        for i, u in enumerate(kept)
        for j, w in enumerate(kept)
        if i < j and rows[u] >> w & 1
    ]
    return Graph(len(kept), edges), kept


@settings(deadline=None, max_examples=150)
@given(st.one_of(degree_two_graphs(), small_graphs()))
def test_root_hook_declined_leaves_the_search_unchanged(g):
    # offered once, exactly when the root's reductions leave edges, with
    # every kernel vertex of degree at least 3
    adj = g.adjacency_masks()
    offered = []

    def decline(alive, rows):
        offered.append(kernel_of(alive, rows)[0])
        return None

    plain = pure.vc_search(g.n, adj)
    assert pure.vc_search(g.n, adj, 0, -1, decline) == plain
    assert adj == g.adjacency_masks()
    assert len(offered) <= 1
    if plain[1] > 1:
        assert len(offered) == 1
    for kernel in offered:
        assert kernel.m > 0
        assert min(map(len, kernel.nbrs)) >= 3


@settings(deadline=None, max_examples=150)
@given(st.one_of(degree_two_graphs(), small_graphs()))
def test_root_hook_cover_is_unfolded_to_an_optimum(g):
    def brute_force(alive, rows):
        kernel, kept = kernel_of(alive, rows)
        return sum(1 << kept[v] for v in min_vc_bruteforce(kernel))

    mask, nodes = pure.vc_search(g.n, g.adjacency_masks(), 0, -1, brute_force)
    cover = {v for v in range(g.n) if mask >> v & 1}
    assert nodes == 1
    assert all(u in cover or v in cover for u, v in g.edges)
    assert len(cover) == len(min_vc_bruteforce(g))


def _relabelled(n, edges, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    return n, [(perm[u], perm[v]) for u, v in edges]


def fold_pin_cases():
    """Graphs whose root reductions fold long degree-2 paths: odd and
    even cycles, as numbered and relabelled; theta graphs; seeded
    subdivided graphs; and a case where a common neighbour below the
    folded vertex is pending after its first fold."""
    cases = []
    rng = random.Random(2023)
    for n in (3, 4, 5, 6, 7, 8, 9, 10, 11, 16, 17, 100, 101, 500, 501, 2000, 2001):
        edges = [(v, (v + 1) % n) for v in range(n)]
        cases.append((n, edges))
        if n <= 501:
            cases.append(_relabelled(n, edges, rng))
    for _ in range(40):
        n, edges = 2, []
        for _ in range(rng.randint(2, 5)):
            length = rng.randint(0, 7)
            if length == 0:
                if (0, 1) not in edges:
                    edges.append((0, 1))
                continue
            inner = list(range(n, n + length))
            edges += list(zip([0] + inner, inner + [1]))
            n += length
        cases.append((n, edges))
        cases.append(_relabelled(n, edges, rng))
    for _ in range(200):
        k = rng.randint(2, 8)
        n, edges = k, []
        for u, v in itertools.combinations(range(k), 2):
            if rng.random() < 0.3:
                continue
            length = max(0, rng.randint(-5, 7))  # a plain edge 6 times in 13
            inner = list(range(n, n + length))
            edges += list(zip([u] + inner, inner + [v]))
            n += length
        cases.append(_relabelled(n, edges, rng))
    # 2 takes 6; 3 folds 5 and 7 into a vertex with neighbours 0 and 4,
    # not adjacent, but 0, their common neighbour, is now pending and
    # below 3, so 0 folds next
    cases.append((9, [(0, 5), (0, 7), (0, 8), (2, 6), (3, 5), (3, 7), (4, 5),
                      (4, 8), (6, 7)]))
    return cases


def fold_pin_digests():
    """sha256 digests of every case's (cover mask, nodes), and of the
    kernels the root offers a hook that declines them."""
    results, kernels = [], []
    for n, edges in fold_pin_cases():
        adj = Graph(n, edges).adjacency_masks()

        def decline(alive, rows):
            kept = [v for v in range(n) if alive >> v & 1]
            kernels.append((alive, [rows[v] & alive for v in kept]))
            return None

        results.append(pure.vc_search(n, adj, 0, -1, decline))
    return tuple(
        hashlib.sha256(repr(x).encode()).hexdigest() for x in (results, kernels)
    )


PINNED_FOLD_DIGESTS = (
    "248b2d88b2decca04a1ac60e0e2880a0d895893aa5cc8b9609eb406cfdc040bb",
    "c23ade8c35d3b7bb8f7a2091855ab03867573a3189a207705f926f8cc88bc31c",
)


def test_path_folds_are_pinned():
    # Taken when each fold went back through the pending loop on its
    # own: folding a path in one pass keeps every cover, node count and
    # kernel.
    assert fold_pin_digests() == PINNED_FOLD_DIGESTS
