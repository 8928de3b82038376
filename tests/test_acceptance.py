"""End-to-end acceptance checks.

One test per criterion; the verbose pytest line for each test is the
pass/fail line for that criterion. Every check compares implementation
output against an independent oracle or a hand-verified value, and each
criterion asserts its own wall-clock budget.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from conftest import random_colouring_values
from simdom import (
    Colour,
    Graph,
    approx2_sds,
    blocks_and_cut_vertices,
    is_sd_set,
    min_vertex_cover,
    solve_sds,
)
from simdom.lpapprox import build_sds_ip
from simdom.oracle import (
    ip_optimum_bruteforce,
    is_sd_set_by_enumeration,
    min_crsds_bruteforce,
    min_sds_bruteforce,
    min_vc_bruteforce,
    sds_to_vertex_cover,
)
from simdom.vertexcover import (
    bipartition,
    is_vertex_cover,
    min_vc_bipartite,
    min_vc_branch_and_bound,
)
from simdom.generators import (
    gap_graph,
    random_2connected_graph,
    random_bipartite_graph,
    random_chordal_graph,
    random_connected_graph,
    random_graph,
)


@contextmanager
def budget(seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"runtime {elapsed:.1f}s exceeded the {seconds}s budget"


def test_criterion_01_gap_family_exactness():
    # solve_sds(gap(k)) = k and BnB vertex cover = 2k - 1 for k = 3..8
    with budget(5):
        for k in range(3, 9):
            g = gap_graph(k)
            assert solve_sds(g).size == k
            assert min_vc_branch_and_bound(g).size == 2 * k - 1


def test_criterion_02_block_test_equals_tree_enumeration():
    # 1000 (connected graph, subset) pairs; n >= 2 because the two
    # readings of a one-vertex graph legitimately differ
    rng = random.Random(2001)
    with budget(60):
        for _ in range(1000):
            n = rng.randint(2, 7)
            m = rng.randint(n - 1, min(12, n * (n - 1) // 2))
            g = random_connected_graph(n, m, seed=rng.randint(0, 10**9))
            s = {v for v in range(n) if rng.random() < 0.45}
            bct = blocks_and_cut_vertices(g)
            assert is_sd_set(g, bct, s) == is_sd_set_by_enumeration(g, s)


def _all_labelled_connected_graphs(max_n):
    for n in range(1, max_n + 1):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for bits in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            g = Graph(n, edges)
            if g.is_connected():
                yield g


def test_criterion_03_solver_exact_against_oracle():
    with budget(120):
        count = 0
        for g in _all_labelled_connected_graphs(5):
            assert solve_sds(g).size == len(min_sds_bruteforce(g))
            count += 1
        assert count == 1 + 1 + 4 + 38 + 728  # labelled connected graphs up to n=5

        rng = random.Random(2003)
        for _ in range(500):
            n = rng.randint(6, 10)
            m = rng.randint(n - 1, n * (n - 1) // 2)
            g = random_connected_graph(n, m, seed=rng.randint(0, 10**9))
            assert solve_sds(g).size == len(min_sds_bruteforce(g))


def test_criterion_04_two_connected_sds_equals_vertex_cover():
    rng = random.Random(2004)
    with budget(60):
        for _ in range(200):
            n = rng.randint(3, 10)
            m = rng.randint(n, n * (n - 1) // 2)
            g = random_2connected_graph(n, m, seed=rng.randint(0, 10**9))
            assert len(min_sds_bruteforce(g)) == len(min_vc_bruteforce(g))


def test_criterion_05_recolouring_size_ladder():
    # optimal sizes for the three recolourings of any pivot stay within one
    rng = random.Random(2005)
    with budget(30):
        for _ in range(200):
            n = rng.randint(3, 9)
            m = rng.randint(n, n * (n - 1) // 2)
            g = random_2connected_graph(n, m, seed=rng.randint(0, 10**9))
            f = [Colour(c) for c in random_colouring_values(n, rng.randint(0, 10**9))]
            pivot = rng.randrange(n)
            size = {}
            for colour in (Colour.ZERO, Colour.ZERO_HAT, Colour.ONE):
                fc = list(f)
                fc[pivot] = colour
                size[colour] = len(min_crsds_bruteforce(g, fc))
            assert size[Colour.ZERO] <= size[Colour.ZERO_HAT] <= size[Colour.ONE]
            assert size[Colour.ONE] <= size[Colour.ZERO] + 1


def test_criterion_06_cover_extension_bound():
    rng = random.Random(2006)
    with budget(60):
        for _ in range(500):
            n = rng.randint(2, 9)
            m = rng.randint(n - 1, n * (n - 1) // 2)
            g = random_connected_graph(n, m, seed=rng.randint(0, 10**9))
            s = min_sds_bruteforce(g)
            bct = blocks_and_cut_vertices(g)
            cover = sds_to_vertex_cover(g, bct, s)
            assert is_vertex_cover(g, cover)
            assert len(cover) <= 2 * len(s) - 1


def test_criterion_07_lp_sandwich():
    rng = random.Random(2007)
    with budget(180):
        for _ in range(300):
            n = rng.randint(2, 10)
            m = rng.randint(n - 1, n * (n - 1) // 2)
            g = random_connected_graph(n, m, seed=rng.randint(0, 10**9))
            rounded, bound = approx2_sds(g)
            assert isinstance(bound, Fraction)
            opt = len(min_sds_bruteforce(g))
            assert bound <= opt <= len(rounded) <= 2 * bound
            assert is_sd_set(g, blocks_and_cut_vertices(g), rounded)


def test_criterion_08_ip_model_optimum_matches_oracle():
    rng = random.Random(2008)
    with budget(60):
        for _ in range(100):
            n = rng.randint(2, 6)
            m = rng.randint(n - 1, n * (n - 1) // 2)
            g = random_connected_graph(n, m, seed=rng.randint(0, 10**9))
            model = build_sds_ip(g, blocks_and_cut_vertices(g))
            assert ip_optimum_bruteforce(model) == len(min_sds_bruteforce(g))


def _max_matching_size(g):
    # Kuhn's augmenting paths, kept independent of the Hopcroft-Karp code
    sides = bipartition(g)
    assert sides is not None
    match = {}

    def augment(u, seen):
        for w in g.nbrs[u]:
            if w in seen:
                continue
            seen.add(w)
            if w not in match or augment(match[w], seen):
                match[w] = u
                return True
        return False

    return sum(1 for u in sorted(sides[0]) if augment(u, set()))


def test_criterion_09_cover_backends_agree():
    rng = random.Random(2009)
    with budget(120):
        for _ in range(300):
            n = rng.randint(1, 12)
            m = rng.randint(0, n * (n - 1) // 2)
            g = random_graph(n, m, seed=rng.randint(0, 10**9))
            expected = len(min_vc_bruteforce(g))
            assert min_vc_branch_and_bound(g).size == expected
            assert min_vertex_cover(g, "treewidth").size == expected
            if bipartition(g) is not None:
                assert min_vc_bipartite(g).size == expected
        for _ in range(100):
            a = rng.randint(1, 20)
            b = rng.randint(1, 20)
            g = random_bipartite_graph(a, b, rng.uniform(0.1, 0.9), seed=rng.randint(0, 10**9))
            assert min_vc_bipartite(g).size == _max_matching_size(g)


def _has_chordless_odd_cycle_of_length_at_least_5(g):
    for k in (5, 7, 9):
        if k > g.n:
            break
        for combo in itertools.combinations(range(g.n), k):
            inside = set(combo)
            degs = [sum(1 for w in g.nbrs[v] if w in inside) for v in combo]
            if any(d != 2 for d in degs):
                continue
            # 2-regular induced subgraph: one cycle iff connected
            start = combo[0]
            seen = {start}
            frontier = [start]
            while frontier:
                u = frontier.pop()
                for w in g.nbrs[u]:
                    if w in inside and w not in seen:
                        seen.add(w)
                        frontier.append(w)
            if len(seen) == k:
                return True
    return False


def test_criterion_10_no_odd_holes_after_exempting_an_independent_set():
    from simdom.graph import delete_edges_within

    rng = random.Random(2010)
    with budget(60):
        for _ in range(100):
            n = rng.randint(2, 10)
            g = random_chordal_graph(n, rng.uniform(0.1, 0.5), seed=rng.randint(0, 10**9))
            order = list(range(n))
            rng.shuffle(order)
            independent = set()
            for v in order:
                if independent.isdisjoint(g.nbrs[v]):
                    independent.add(v)
            h = delete_edges_within(g, independent)
            assert not _has_chordless_odd_cycle_of_length_at_least_5(h)
