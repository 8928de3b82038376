import argparse
import random

import pytest

from conftest import clique, cycle, path, petersen, star
import simdom.treewidth
import simdom.vertexcover
from simdom._kernels import pure
from simdom import (
    BudgetExceededError,
    Graph,
    GuaranteeError,
    InvalidBipartitionError,
    min_vertex_cover,
)
from simdom.oracle import min_vc_bruteforce
from simdom.cli import build_parser
from simdom.vertexcover import (
    BACKENDS,
    KERNEL_VERTEX_LIMIT,
    bipartition,
    greedy_matching,
    is_vertex_cover,
    matching_2approx_vc,
    min_vc_auto,
    min_vc_bipartite,
    min_vc_branch_and_bound,
)
from simdom.generators import (
    random_bipartite_graph,
    random_connected_graph,
    random_graph,
)


def test_is_vertex_cover():
    g = path(4)
    assert is_vertex_cover(g, {1, 2})
    assert not is_vertex_cover(g, {0, 3})
    assert is_vertex_cover(Graph(3, []), set())


def test_greedy_matching_takes_edges_in_index_order():
    g = path(4)  # edges (0,1), (1,2), (2,3)
    m = greedy_matching(g)
    assert m == ((0, 1), (2, 3))


def test_greedy_matching_is_maximal_and_disjoint():
    for seed in range(10):
        g = random_graph(9, 14, seed=seed)
        m = greedy_matching(g)
        used = [v for e in m for v in e]
        assert len(used) == len(set(used))
        taken = set(used)
        for u, v in g.edges:
            assert u in taken or v in taken


def test_matching_cover_is_a_cover_within_factor_two():
    for seed in range(10):
        g = random_graph(10, 16, seed=seed)
        c = matching_2approx_vc(g)
        assert is_vertex_cover(g, c)
        assert len(c) <= 2 * len(min_vc_bruteforce(g))


def test_bnb_matches_bruteforce():
    rng = random.Random(0)
    for _ in range(40):
        n = rng.randint(1, 12)
        m = rng.randint(0, n * (n - 1) // 2)
        g = random_graph(n, m, seed=rng.randint(0, 10**6))
        res = min_vc_branch_and_bound(g)
        assert is_vertex_cover(g, res.cover)
        assert len(res.cover) == len(min_vc_bruteforce(g))
        assert res.backends == ("bnb",)
        assert res.nodes >= 1
        matched = len(greedy_matching(g))
        assert matched <= len(res.cover) <= 2 * matched


def test_bnb_petersen():
    res = min_vc_branch_and_bound(petersen())
    assert len(res.cover) == len(min_vc_bruteforce(petersen())) == 6


def test_bnb_node_budget():
    g = clique(12)
    with pytest.raises(BudgetExceededError):
        min_vc_branch_and_bound(g, node_budget=2)


def test_node_budget_bounds_all_components_together():
    # two K14s, each above the width cap: each search takes 23 nodes, so
    # a budget of 23 would pass a cap on each search but not the total
    k14 = clique(14).edges
    g = Graph(28, k14 + tuple((u + 14, v + 14) for u, v in k14))
    assert min_vc_auto(g, node_budget=46).nodes == 46
    with pytest.raises(BudgetExceededError):
        min_vc_auto(g, node_budget=23)


def test_bipartition_on_even_structures():
    sides = bipartition(cycle(6))
    assert sides is not None
    a, b = sides
    assert a | b == frozenset(range(6))
    assert not a & b
    assert bipartition(cycle(5)) is None
    assert bipartition(path(2)) == (frozenset({0}), frozenset({1}))


def test_bipartition_spans_disconnected_graphs():
    g = Graph(5, [(0, 1), (2, 3)])
    sides = bipartition(g)
    assert sides is not None
    a, b = sides
    for u, v in g.edges:
        assert (u in a) != (v in a)
    assert a | b == frozenset(range(5))


def test_min_vc_bipartite_matches_bruteforce():
    rng = random.Random(3)
    for _ in range(25):
        g = random_bipartite_graph(rng.randint(1, 6), rng.randint(1, 6), 0.5, seed=rng.randint(0, 10**6))
        res = min_vc_bipartite(g)
        assert is_vertex_cover(g, res.cover)
        assert len(res.cover) == len(min_vc_bruteforce(g))
        matched = len(greedy_matching(g))
        assert matched <= len(res.cover) <= 2 * matched


def test_min_vc_bipartite_rejects_odd_cycles_and_bad_sides():
    with pytest.raises(InvalidBipartitionError):
        min_vc_bipartite(cycle(5))
    g = path(3)
    with pytest.raises(InvalidBipartitionError):
        min_vc_bipartite(g, sides=({0, 1}, {1, 2}))
    with pytest.raises(InvalidBipartitionError):
        min_vc_bipartite(g, sides=({0}, {2}))
    with pytest.raises(InvalidBipartitionError):
        min_vc_bipartite(g, sides=({0, 1}, {2}))
    # the message names the least edge inside a side
    with pytest.raises(InvalidBipartitionError, match=r"edge \(0, 2\) lies inside one side"):
        min_vc_bipartite(Graph(4, [(0, 1), (0, 2), (2, 3)]), sides=({0, 2}, {1, 3}))


def test_min_vc_bipartite_long_augmenting_path():
    # Path v_0..v_2999 labelled so that the odd vertices form the left
    # side (in index order) and the even ones are labelled in decreasing
    # index order. The first Hopcroft-Karp phase then matches each
    # v_{2j+1} to v_{2j+2}, leaving v_2999 free with a single augmenting
    # path through all 1500 left vertices down to v_0.
    length = 3000
    label = {}
    for v in list(range(1, length, 2)) + list(range(length - 2, -1, -2)):
        label[v] = len(label)
    g = Graph(length, [(label[i], label[i + 1]) for i in range(length - 1)])
    res = min_vc_bipartite(g)
    assert len(res.cover) == length // 2
    assert is_vertex_cover(g, res.cover)


def test_treewidth_backend_matches_bruteforce():
    rng = random.Random(8)
    for _ in range(20):
        n = rng.randint(1, 10)
        m = rng.randint(0, n * (n - 1) // 2)
        g = random_graph(n, m, seed=rng.randint(0, 10**6))
        res = min_vertex_cover(g, "treewidth")
        assert is_vertex_cover(g, res.cover)
        assert len(res.cover) == len(min_vc_bruteforce(g))
        assert res.backends == ("treewidth",)


def test_auto_dispatch_mixes_backends():
    # C4 (bipartite) next to two C5s sharing nothing: per-component routing
    edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    edges += [(4 + i, 4 + (i + 1) % 5) for i in range(5)]
    g = Graph(9, edges)
    res = min_vertex_cover(g)
    assert len(res.cover) == len(min_vc_bruteforce(g))
    assert "bipartite" in res.backends
    assert is_vertex_cover(g, res.cover)


def test_auto_on_isolated_vertices():
    res = min_vertex_cover(Graph(4, []))
    assert len(res.cover) == 0
    assert res.cover == frozenset()


def test_explicit_backends_agree():
    g = random_connected_graph(9, 13, seed=17)
    expected = len(min_vc_bruteforce(g))
    for backend in BACKENDS:
        # every name is taken; König only on a bipartite graph
        assert len(min_vertex_cover(cycle(10), backend=backend).cover) == 5
        if backend != "bipartite":
            assert len(min_vertex_cover(g, backend=backend).cover) == expected
    with pytest.raises(ValueError):
        min_vertex_cover(g, backend="magic")
    # `simdom solve --backend` offers exactly these names
    commands = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    option = next(a for a in commands.choices["solve"]._actions if a.dest == "backend")
    assert tuple(option.choices) == BACKENDS


def test_star_cover_is_centre():
    res = min_vc_branch_and_bound(star(6))
    assert res.cover == frozenset({0})


def record_subgraph_calls(monkeypatch):
    """The vertex list of every subgraph the dispatcher builds."""
    calls = []
    original = simdom.vertexcover.induced_subgraph

    def recording(g, vertices):
        vertices = list(vertices)
        calls.append(vertices)
        return original(g, vertices)

    monkeypatch.setattr(simdom.vertexcover, "induced_subgraph", recording)
    return calls


def test_auto_on_one_component_builds_no_subgraph(monkeypatch):
    calls = record_subgraph_calls(monkeypatch)
    g = petersen()
    assert len(min_vc_auto(g).cover) == len(min_vc_branch_and_bound(g).cover) == 6
    assert calls == []


def test_auto_builds_no_subgraph_for_an_isolated_vertex(monkeypatch):
    calls = record_subgraph_calls(monkeypatch)
    tri = [(0, 1), (1, 2), (0, 2)]
    g = Graph(9, tri + [(u + 4, v + 4) for u, v in tri])  # 3, 7 and 8 isolated
    res = min_vc_auto(g)
    assert (len(res.cover), res.backends) == (4, ("bnb",))
    assert calls == [[0, 1, 2], [4, 5, 6]]


def test_konig_equality_failure_raises(monkeypatch):
    # an empty matching leaves a one-vertex cover against a matching of 0
    monkeypatch.setattr(
        simdom.vertexcover, "_hopcroft_karp", lambda g, left: ([-1] * g.n, [-1] * g.n)
    )
    with pytest.raises(GuaranteeError, match="König equality"):
        min_vc_bipartite(path(2))


def test_konig_cover_missing_an_edge_raises(monkeypatch):
    monkeypatch.setattr(simdom.vertexcover, "is_vertex_cover", lambda *args: False)
    with pytest.raises(GuaranteeError, match="misses an edge"):
        min_vc_bipartite(path(4))


def test_auto_passes_the_target_only_to_a_lone_component(monkeypatch):
    # with a width cap of -1 the DP takes no kernel, so every non-bipartite
    # component goes to branch and bound; the target bounds the whole
    # cover, so it may end a search only when that search sees every edge
    monkeypatch.setattr(simdom.vertexcover, "AUTO_WIDTH_CAP", -1)
    rng = random.Random(21)
    saved = branched = 0
    for _ in range(10):
        a = random_graph(14, 40, seed=rng.randint(0, 10**6))
        b = random_graph(14, 40, seed=rng.randint(0, 10**6))
        two = Graph(28, list(a.edges) + [(u + 14, v + 14) for u, v in b.edges])
        with_isolated = Graph(16, list(a.edges))
        for g in (a, two, with_isolated):
            plain = min_vc_auto(g)
            targeted = min_vc_auto(g, target=len(plain.cover))
            assert targeted.cover == plain.cover
            assert targeted.nodes <= plain.nodes
            saved += plain.nodes - targeted.nodes
            branched += plain.nodes > 1
    assert saved > 0
    # the root reductions finish one draw of a, alone and beside isolated
    # vertices, with no branching; the other 28 of the 30 searches branch
    assert branched == 28


def test_bnb_target_keeps_the_cover_and_saves_nodes():
    g = petersen()
    plain = min_vertex_cover(g, "bnb")
    targeted = min_vertex_cover(g, "bnb", target=len(plain.cover))
    assert targeted.cover == plain.cover
    assert targeted.nodes < plain.nodes


def test_auto_reduces_first_and_matches_bruteforce(monkeypatch):
    # width caps -1 and 0 leave every kernel with edges to branch and
    # bound; 12 lets the DP take the kernels
    rng = random.Random(17)
    tags = set()
    for _ in range(80):
        n = rng.randint(1, 12)
        m = rng.randint(0, n * (n - 1) // 2)
        g = random_graph(n, m, seed=rng.randint(0, 10**6))
        expected = len(min_vc_bruteforce(g))
        for cap in (-1, 0, 12):
            monkeypatch.setattr(simdom.vertexcover, "AUTO_WIDTH_CAP", cap)
            res = min_vc_auto(g)
            assert is_vertex_cover(g, res.cover)
            assert len(res.cover) == expected
            tags.update(res.backends)
    assert tags == {"bipartite", "bnb", "treewidth"}


def chorded_cycle(n, chords, seed, span=20):
    """Cycle 0..n-1 plus random chords, each at most span steps long."""
    rng = random.Random(seed)
    edges = {(v, v + 1) for v in range(n - 1)} | {(0, n - 1)}
    while len(edges) < n + chords:
        u = rng.randrange(n - 2)
        edges.add((u, min(u + rng.randint(2, span), n - 1)))
    return Graph(n, edges)


def test_auto_covers_the_kernel_by_the_dp_without_branching():
    # branch and bound alone takes 107,621 nodes on this graph; the
    # root reductions leave a kernel that min-fill finds narrow
    g = chorded_cycle(1001, 600, seed=3)
    res = min_vc_auto(g, node_budget=1000)
    assert (res.backends, res.nodes) == (("treewidth",), 1)
    assert is_vertex_cover(g, res.cover)
    assert len(res.cover) == len(min_vertex_cover(g, "treewidth").cover) == 545


def test_auto_does_not_reduce_a_component_above_the_size_limit(monkeypatch):
    searches = []
    search = pure.vc_search

    def counting(n, *args):
        searches.append(n)
        return search(n, *args)

    monkeypatch.setattr(pure, "vc_search", counting)
    # the benchmark's odd cycles reach 1,003 vertices
    assert KERNEL_VERTEX_LIMIT >= 1003
    big = KERNEL_VERTEX_LIMIT + 1 | 1  # the odd length just above the limit
    g = Graph(big + 9, list(cycle(big).edges) + [(big + u, big + v) for u, v in cycle(9).edges])
    res = min_vc_auto(g)
    assert searches == [9]
    assert len(res.cover) == (big + 1) // 2 + 5
    assert res.backends == ("bnb", "treewidth") and res.nodes == 1
    assert is_vertex_cover(g, res.cover)


def test_auto_branches_on_a_wide_component_above_the_size_limit(monkeypatch):
    # above the limit min-fill tries the whole component; when it gives
    # up, branch and bound runs on it with no kernel hook
    decompositions = []
    searches = []
    decompose = simdom.treewidth.min_fill_decomposition
    search = pure.vc_search

    def recording_decompose(g, **kw):
        decompositions.append((g.n, kw))
        return decompose(g, **kw)

    def recording_search(n, adj, node_budget, target, root):
        searches.append((n, root))
        return search(n, adj, node_budget, target, root)

    monkeypatch.setattr(simdom.vertexcover, "KERNEL_VERTEX_LIMIT", 8)
    monkeypatch.setattr(simdom.treewidth, "min_fill_decomposition", recording_decompose)
    monkeypatch.setattr(pure, "vc_search", recording_search)
    res = min_vc_auto(clique(14))
    assert decompositions == [(14, {"max_width": 12})]
    assert searches == [(14, None)]
    assert res.backends == ("bnb",)
    assert len(res.cover) == 13


def test_kernel_graph_keeps_sorted_neighbour_lists():
    kernels = []

    def decline(kernel):
        kernels.append(kernel)
        return None

    for seed in range(4):
        min_vc_branch_and_bound(random_graph(40, 160, seed=seed), kernel_backend=decline)
    assert kernels
    for kernel in kernels:
        assert kernel.nbrs == [sorted(set(row)) for row in kernel.nbrs]


def test_cover_readout_keeps_high_vertices():
    # the cover is read off the mask's binary digits, lowest vertex first
    g = Graph(1001, [(0, 1000), (999, 1000)])
    res = min_vc_branch_and_bound(g)
    assert res.cover == frozenset({1000})
    assert min_vc_branch_and_bound(Graph(1001, [])).cover == frozenset()
