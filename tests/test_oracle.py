import itertools

import pytest

from conftest import clique, cycle, path, star
from simdom import (
    BudgetExceededError,
    Colour,
    DisconnectedGraphError,
    Graph,
    GuaranteeError,
    blocks_and_cut_vertices,
    is_sd_set,
)
from simdom import oracle
from simdom.oracle import (
    enumerate_spanning_trees,
    is_sd_set_by_enumeration,
    min_crsds_bruteforce,
    min_sds_bruteforce,
    min_vc_bruteforce,
    spanning_tree_count,
)
from simdom.generators import random_connected_graph


def test_tree_count_known_values():
    assert spanning_tree_count(path(3)) == 1
    assert spanning_tree_count(cycle(3)) == 3
    assert spanning_tree_count(cycle(5)) == 5
    # Cayley: K_n has n^(n-2) spanning trees
    assert spanning_tree_count(clique(4)) == 16
    assert spanning_tree_count(clique(5)) == 125
    assert spanning_tree_count(Graph(1, [])) == 1
    assert spanning_tree_count(Graph(2, [])) == 0


def test_enumeration_yields_valid_trees():
    g = clique(4)
    trees = list(enumerate_spanning_trees(g))
    assert len(trees) == 16
    seen = set()
    for t in trees:
        assert t not in seen
        seen.add(t)
        assert len(t) == g.n - 1
        assert all(e in set(g.edges) for e in t)
        reach = {0}
        frontier = [0]
        adj = {v: set() for v in range(g.n)}
        for u, v in t:
            adj[u].add(v)
            adj[v].add(u)
        while frontier:
            u = frontier.pop()
            for w in adj[u]:
                if w not in reach:
                    reach.add(w)
                    frontier.append(w)
        assert reach == set(range(g.n))


@pytest.mark.parametrize("seed", range(12))
def test_enumeration_count_matches_kirchhoff(seed):
    g = random_connected_graph(6, 6 + seed % 6, seed=seed)
    assert len(list(enumerate_spanning_trees(g))) == spanning_tree_count(g)


def test_enumeration_guards():
    with pytest.raises(DisconnectedGraphError):
        list(enumerate_spanning_trees(Graph(4, [(0, 1), (2, 3)])))
    with pytest.raises(BudgetExceededError):
        list(enumerate_spanning_trees(clique(7)))  # 21 edges
    assert len(list(enumerate_spanning_trees(clique(7), edge_budget=21))) == 7**5


def test_single_vertex_has_the_empty_tree():
    trees = list(enumerate_spanning_trees(Graph(1, [])))
    assert trees[0] == frozenset()


def test_min_vc_bruteforce_known():
    assert min_vc_bruteforce(path(2)) == frozenset({0})
    assert len(min_vc_bruteforce(cycle(3))) == 2
    assert len(min_vc_bruteforce(cycle(5))) == 3
    assert min_vc_bruteforce(star(4)) == frozenset({0})
    assert min_vc_bruteforce(Graph(3, [])) == frozenset()


def test_min_vc_bruteforce_returns_lex_smallest_of_smallest():
    g = cycle(4)  # both {0,2} and {1,3} are optimal
    assert min_vc_bruteforce(g) == frozenset({0, 2})


def test_min_vc_budget():
    with pytest.raises(BudgetExceededError):
        min_vc_bruteforce(Graph(21, [(0, 1)]))


def test_min_sds_bruteforce_small_cases():
    assert min_sds_bruteforce(path(3)) == frozenset({1})
    assert len(min_sds_bruteforce(cycle(3))) == 2
    assert min_sds_bruteforce(star(5)) == frozenset({0})
    assert len(min_sds_bruteforce(cycle(4))) == 2
    assert min_sds_bruteforce(Graph(1, [])) == frozenset()


def test_min_sds_bruteforce_agrees_with_literal_definition():
    # independent route: smallest subset dominating every enumerated tree
    for seed in range(8):
        g = random_connected_graph(6, 8, seed=seed)
        expected = None
        for k in range(g.n + 1):
            for combo in itertools.combinations(range(g.n), k):
                if is_sd_set_by_enumeration(g, set(combo)):
                    expected = k
                    break
            if expected is not None:
                break
        assert len(min_sds_bruteforce(g)) == expected


def test_min_sds_requires_connected():
    with pytest.raises(DisconnectedGraphError):
        min_sds_bruteforce(Graph(4, [(0, 1), (2, 3)]))


def test_min_sds_cross_check_failure_raises(monkeypatch):
    # a typed error rather than an assert, so it also runs under python -O
    monkeypatch.setattr(oracle, "is_sd_set_by_enumeration", lambda g, s: False)
    with pytest.raises(GuaranteeError, match="disagree"):
        min_sds_bruteforce(path(3))


def test_min_sds_budget():
    with pytest.raises(BudgetExceededError):
        min_sds_bruteforce(path(17))


def test_min_crsds_respects_ones_and_exemptions():
    tri = cycle(3)
    f = [Colour.ONE, Colour.ZERO_HAT, Colour.ZERO_HAT]
    s = min_crsds_bruteforce(tri, f)
    assert 0 in s
    assert len(s) == 2

    # a ZERO endpoint needs no domination, so the middle alone is not forced
    p = path(2)
    s = min_crsds_bruteforce(p, [Colour.ZERO, Colour.ZERO])
    assert s == frozenset()


def test_min_crsds_all_zero_hat_equals_plain_minimum():
    for seed in range(6):
        g = random_connected_graph(6, 7, seed=seed)
        f = [Colour.ZERO_HAT] * g.n
        assert len(min_crsds_bruteforce(g, f)) == len(min_sds_bruteforce(g))


def test_min_crsds_output_is_colour_respecting():
    from simdom.domination import is_colour_respecting

    g = random_connected_graph(7, 9, seed=2)
    f = [Colour.ZERO_HAT] * g.n
    f[0] = Colour.ONE
    f[3] = Colour.ZERO
    s = min_crsds_bruteforce(g, f)
    bct = blocks_and_cut_vertices(g)
    assert is_colour_respecting(g, bct, f, s)


def test_is_sd_set_by_enumeration_examples():
    assert is_sd_set_by_enumeration(path(3), {1})
    assert not is_sd_set_by_enumeration(path(3), {0})
    g = cycle(4)
    assert is_sd_set_by_enumeration(g, {0, 2})
    assert not is_sd_set_by_enumeration(g, {0})
    bct = blocks_and_cut_vertices(g)
    assert is_sd_set(g, bct, {0, 2})
