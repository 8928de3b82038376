import random
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import Phase, example, find, given, settings, strategies as st

from conftest import clique, cycle, path, star
from min_fill_reference import (
    rescanning_min_fill_decomposition,
    scanning_decomposition_violation,
)
import simdom.solver
import simdom.treewidth
from simdom import (
    Graph,
    GuaranteeError,
    InvalidDecompositionError,
    WidthBudgetError,
    solve_sds,
)
from simdom.oracle import min_vc_bruteforce
from simdom.treewidth import (
    TreeDecomposition,
    decomposition_violation,
    min_fill_decomposition,
    vc_via_tree_decomposition,
)
from simdom.vertexcover import is_vertex_cover, min_vc_branch_and_bound
from simdom.generators import random_2connected_graph, random_graph


def test_min_fill_width_on_known_families():
    assert min_fill_decomposition(path(6)).width == 1
    assert min_fill_decomposition(star(5)).width == 1
    td = min_fill_decomposition(cycle(3))
    assert td.width == 2
    assert min_fill_decomposition(cycle(4)).width == 2
    assert min_fill_decomposition(clique(5)).width == 4
    assert min_fill_decomposition(Graph(1, [])).width == 0


def test_min_fill_output_validates():
    rng = random.Random(2)
    checked = 0
    for _ in range(1000):
        n = rng.randint(1, 30)
        m = rng.randint(0, min(3 * n, n * (n - 1) // 2))
        g = random_graph(n, m, seed=rng.randint(0, 10**6))
        td = min_fill_decomposition(g)
        assert decomposition_violation(g, td) is None, decomposition_violation(g, td)
        checked += 1
    assert checked == 1000


def test_trivial_single_bag_decomposition_validates():
    g = cycle(5)
    td = TreeDecomposition((frozenset(range(5)),), ())
    assert decomposition_violation(g, td) is None
    assert td.width == 4


def test_violation_messages_name_property_and_witness():
    g = path(3)
    uncovered_vertex = TreeDecomposition((frozenset({0, 1}),), ())
    msg = decomposition_violation(g, uncovered_vertex)
    assert "property (i)" in msg and "2" in msg

    uncovered_edge = TreeDecomposition(
        (frozenset({0, 1}), frozenset({2})), ((0, 1),)
    )
    msg = decomposition_violation(g, uncovered_edge)
    assert "property (ii)" in msg and "(1, 2)" in msg

    split_occurrences = TreeDecomposition(
        (frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 0})),
        ((0, 1), (1, 2)),
    )
    msg = decomposition_violation(g, split_occurrences)
    assert "property (iii)" in msg and "0" in msg


def test_violation_on_malformed_tree():
    g = path(2)
    td = TreeDecomposition((frozenset({0, 1}), frozenset({0, 1})), ())
    assert decomposition_violation(g, td) is not None
    td = TreeDecomposition(
        (frozenset({0, 1}), frozenset({0, 1})), ((0, 1), (1, 0))
    )
    assert decomposition_violation(g, td) is not None
    td = TreeDecomposition((frozenset({0, 1}),), ((0, 5),))
    assert decomposition_violation(g, td) is not None


@pytest.mark.parametrize("member", [2, -1])
def test_out_of_range_bag_member_is_named(member):
    # a member outside 0..n-1 would index past the DP's vertex tables,
    # or wrap around to the last vertex
    g = Graph(2, [(0, 1)])
    td = TreeDecomposition((frozenset({0, 1, member}),), ())
    msg = decomposition_violation(g, td)
    assert msg is not None and "bag 0" in msg and f"member {member} " in msg
    with pytest.raises(InvalidDecompositionError, match=f"bag 0: member {member} "):
        vc_via_tree_decomposition(g, td)


def test_dp_cover_examples():
    res = vc_via_tree_decomposition(path(5), min_fill_decomposition(path(5)))
    assert len(res.cover) == 2
    assert is_vertex_cover(path(5), res.cover)

    tri = cycle(3)
    trivial = TreeDecomposition((frozenset({0, 1, 2}),), ())
    res = vc_via_tree_decomposition(tri, trivial)
    assert len(res.cover) == 2

    isolated = Graph(4, [])
    singleton_path = TreeDecomposition(
        tuple(frozenset({v}) for v in range(4)), ((0, 1), (1, 2), (2, 3))
    )
    res = vc_via_tree_decomposition(isolated, singleton_path)
    assert len(res.cover) == 0


def test_dp_matches_branch_and_bound_on_varied_density():
    rng = random.Random(10)
    for _ in range(300):
        n = rng.randint(1, 12)
        m = rng.randint(0, n * (n - 1) // 2)
        g = random_graph(n, m, seed=rng.randint(0, 10**6))
        a = vc_via_tree_decomposition(g, min_fill_decomposition(g))
        b = min_vc_branch_and_bound(g)
        assert len(a.cover) == len(b.cover)
        assert is_vertex_cover(g, a.cover)
        assert a.cover <= set(range(g.n))


def test_dp_rejects_invalid_or_wide_input():
    g = cycle(4)
    broken = TreeDecomposition((frozenset({0, 1}),), ())
    with pytest.raises(InvalidDecompositionError):
        vc_via_tree_decomposition(g, broken)
    k = clique(22)  # min-fill width 21, above the DP's budget of 20
    with pytest.raises(WidthBudgetError):
        vc_via_tree_decomposition(k, min_fill_decomposition(k))


@st.composite
def small_graphs(draw, max_n=30):
    """Graphs on up to max_n vertices; density 0 gives isolated vertices,
    low densities disconnected graphs, density 1 a clique."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    density = draw(st.sampled_from([0.0, 0.05, 0.15, 0.3, 0.6, 1.0]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density
    ]
    return Graph(n, edges)


def two_cliques_and_an_isolated_vertex() -> Graph:
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    edges += [(u, v) for u in range(4, 9) for v in range(u + 1, 9)]
    return Graph(10, edges)


@contextmanager
def rows(kind):
    """Make min-fill keep its neighbourhoods as bitmasks ("masks") or as
    sets ("sets") whatever the vertex count."""
    limit = {"masks": 10**9, "sets": -1}[kind]
    with mock.patch.object(simdom.treewidth, "MASK_VERTEX_LIMIT", limit):
        yield


@settings(deadline=None, max_examples=300)
@given(small_graphs())
@example(Graph(0, []))
@example(Graph(5, []))
@example(clique(30))
@example(two_cliques_and_an_isolated_vertex())
def test_min_fill_matches_rescanning_reference(g):
    reference = rescanning_min_fill_decomposition(g)
    for kind in ("masks", "sets"):
        with rows(kind):
            assert min_fill_decomposition(g) == reference


@settings(deadline=None, max_examples=300)
@given(small_graphs(), st.integers(min_value=-1, max_value=30))
@example(clique(30), 28)
@example(clique(30), 29)
@example(Graph(0, []), -1)
@example(Graph(5, []), 0)
def test_min_fill_stops_exactly_past_max_width(g, k):
    reference = rescanning_min_fill_decomposition(g)
    for kind in ("masks", "sets"):
        with rows(kind):
            td = min_fill_decomposition(g, max_width=k)
        if reference.width > k:
            assert td is None
        else:
            assert td == reference


def cycle_with_chords(n, m, rng, span):
    """Cycle 0..n-1 plus m-n chords, each within span steps along it."""
    edges = {(v, v + 1) for v in range(n - 1)} | {(0, n - 1)}
    while len(edges) < m:
        u = rng.randrange(n)
        v = u + rng.randint(2, span)
        if v < n:
            edges.add((u, v))
    return edges


def glued_pair(first, second, rng):
    """Two blocks, given as (n, edges), sharing one random vertex, then
    relabelled at random."""
    (n1, e1), (n2, e2) = first, second
    shared = rng.randrange(n1)
    ids = [shared] + list(range(n1, n1 + n2 - 1))
    edges = list(e1) + [(ids[u], ids[v]) for u, v in e2]
    n = n1 + n2 - 1
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


def test_min_fill_matches_reference_on_low_width_blocks_and_residuals(monkeypatch):
    rng = random.Random(5)
    graphs = []
    for _ in range(3):
        first = (101, cycle_with_chords(101, 111, rng, 60))
        second = (101, cycle_with_chords(101, 111, rng, 60))
        graphs.append(glued_pair(first, second, rng))
    for n1, n2 in ((99, 101), (101, 103)):
        graphs.append(glued_pair((n1, cycle(n1).edges), (n2, cycle(n2).edges), rng))

    residuals = []
    cover = simdom.solver.min_vertex_cover

    def recording(h, *args, **kwargs):
        residuals.append(h)
        return cover(h, *args, **kwargs)

    monkeypatch.setattr(simdom.solver, "min_vertex_cover", recording)
    for g in graphs:
        solve_sds(g)
    # per pair: the leaf block's ZERO_HAT and ONE recolourings (ZERO
    # reuses ZERO_HAT's residual, as nothing is coloured ZERO), then the
    # root block
    assert len(residuals) == 3 * len(graphs)
    for h in residuals:
        td = min_fill_decomposition(h)
        assert td == rescanning_min_fill_decomposition(h)
        assert decomposition_violation(h, td) is None


def graph_state(g):
    return g.n, g.edges, [list(row) for row in g.nbrs]


@pytest.mark.parametrize("n", [60, 100, 200, 300])
def test_min_fill_matches_reference_on_masks_wider_than_a_word(n):
    # 2.5n edges give min-fill widths of 18 to 88, well past the cap
    g = random_2connected_graph(n, 5 * n // 2, seed=n)
    assert g.n <= simdom.treewidth.MASK_VERTEX_LIMIT  # eliminates on masks
    before = graph_state(g)
    reference = rescanning_min_fill_decomposition(g)
    assert reference.width > 12
    assert min_fill_decomposition(g) == reference
    assert min_fill_decomposition(g, max_width=12) is None
    assert min_fill_decomposition(g, max_width=reference.width) == reference
    assert min_fill_decomposition(g, max_width=reference.width - 1) is None
    assert graph_state(g) == before


def test_min_fill_matches_reference_on_a_sparse_2000_vertex_graph():
    g = Graph(2000, cycle_with_chords(2000, 2200, random.Random(9), 40))
    assert g.n > simdom.treewidth.MASK_VERTEX_LIMIT  # keeps sets by default
    before = graph_state(g)
    reference = rescanning_min_fill_decomposition(g)
    assert min_fill_decomposition(g) == reference
    with rows("masks"):
        assert min_fill_decomposition(g) == reference
        assert min_fill_decomposition(g, max_width=reference.width) == reference
    assert graph_state(g) == before


def test_min_fill_on_a_3001_cycle():
    g = cycle(3001)
    td = min_fill_decomposition(g)
    assert td.width == 2
    assert decomposition_violation(g, td) is None
    assert solve_sds(g).size == 1501


@st.composite
def damaged_decompositions(draw):
    """A valid min-fill decomposition with one kind of damage."""
    g = draw(small_graphs(max_n=14))
    td = min_fill_decomposition(g)
    bags = [set(b) for b in td.bags]
    edges = list(td.tree_edges)
    damage = draw(st.sampled_from(["none", "drop-vertex", "drop-edge", "redirect-edge", "out-of-range-edge"]))
    if damage == "drop-vertex" and bags:
        bag = bags[draw(st.integers(0, len(bags) - 1))]
        if bag:
            bag.discard(draw(st.sampled_from(sorted(bag))))
    elif damage == "drop-edge" and edges:
        del edges[draw(st.integers(0, len(edges) - 1))]
    elif damage == "redirect-edge" and edges:
        i = draw(st.integers(0, len(edges) - 1))
        edges[i] = (edges[i][0], draw(st.integers(0, len(bags) - 1)))
    elif damage == "out-of-range-edge":
        k = len(bags)
        edges.append(draw(st.sampled_from([(0, k), (k + 3, 0), (-1, 0)])))
    return g, TreeDecomposition(tuple(frozenset(b) for b in bags), tuple(edges))


@settings(deadline=None, max_examples=400)
@given(damaged_decompositions())
def test_violation_messages_match_scanning_reference(case):
    g, td = case
    assert decomposition_violation(g, td) == scanning_decomposition_violation(g, td)


def test_violation_order_when_a_vertex_has_two_top_bags():
    # the bags chain 0 - 1 - 2; vertex 1 sits in bags 0 and 2 but not 1
    g = path(3)
    covered = TreeDecomposition(
        (frozenset({0, 1}), frozenset({2}), frozenset({1, 2})), ((0, 1), (1, 2))
    )
    # edge (1, 2) is only in bag 2, which is neither end's top bag
    msg = decomposition_violation(g, covered)
    assert msg == scanning_decomposition_violation(g, covered)
    assert msg.startswith("property (iii): bags containing vertex 1 ")
    # (ii) is reported before (iii) when both break
    uncovered = TreeDecomposition(
        (frozenset({0, 1}), frozenset({2}), frozenset({1})), ((0, 1), (1, 2))
    )
    msg = decomposition_violation(g, uncovered)
    assert msg == scanning_decomposition_violation(g, uncovered)
    assert msg == "property (ii): edge (1, 2) is in no bag"


@pytest.mark.parametrize(
    "phrase",
    [
        "references a missing bag",
        "is not a tree",
        "bag graph is disconnected",
        "property (i):",
        "property (ii):",
        "property (iii):",
    ],
)
def test_damage_draws_reach_every_message(phrase):
    def hits(case):
        message = scanning_decomposition_violation(*case)
        return message is not None and phrase in message

    quick = settings(
        max_examples=2000, database=None, phases=[Phase.generate], derandomize=True
    )
    case = find(damaged_decompositions(), hits, settings=quick)
    assert decomposition_violation(*case) == scanning_decomposition_violation(*case)


def test_dp_losing_every_state_raises(monkeypatch):
    # with no bag states the root has nothing to choose from; the real
    # _bag_covers always keeps the state holding the whole bag, whose
    # key every child also has
    monkeypatch.setattr(simdom.treewidth, "_bag_covers", lambda verts, adj, up: [])
    with pytest.raises(GuaranteeError, match="lost all states"):
        vc_via_tree_decomposition(path(2), min_fill_decomposition(path(2)))


def test_dp_reconstruction_mismatch_raises(monkeypatch):
    # the star sits whole in bags 0 and 2, which the tree joins only
    # through the empty bag 1: each of them counts its only least cover
    # {0}, the reconstruction finds vertex 0 once
    g = star(2)
    bag = frozenset({0, 1, 2})
    td = TreeDecomposition((bag, frozenset(), bag), ((0, 1), (1, 2)))
    assert "property (iii)" in decomposition_violation(g, td)
    monkeypatch.setattr(simdom.treewidth, "decomposition_violation", lambda g, td: None)
    with pytest.raises(GuaranteeError, match="reconstruction"):
        vc_via_tree_decomposition(g, td)


def elimination_bags(g, order):
    """Bags of eliminating g's vertices in order: each vertex with its
    neighbours at elimination time, hung below the bag of the earliest
    eliminated of those (or, with none, the next bag)."""
    adj = [set(row) for row in g.nbrs]
    at = {v: i for i, v in enumerate(order)}
    bags, edges = [], []
    for i, v in enumerate(order):
        later = adj[v]
        bags.append(frozenset(later | {v}))
        for a in later:
            adj[a] |= later - {a}
            adj[a].discard(v)
        if later:
            edges.append((i, min(at[u] for u in later)))
        elif i + 1 < g.n:
            edges.append((i, i + 1))
    return bags, edges


@st.composite
def decomposed_graphs(draw):
    """Graphs on at most 14 vertices with a valid decomposition that
    min-fill would not give: one bag, a random elimination order, or one
    padded with empty and duplicate bags; bags are then renumbered, so
    any bag may be the root."""
    g = draw(small_graphs(max_n=14))
    shape = draw(st.sampled_from(["single", "elimination", "padded"]))
    if shape == "single":
        bags, edges = ([frozenset(range(g.n))] if g.n else []), []
    else:
        bags, edges = elimination_bags(g, draw(st.permutations(range(g.n))))
    if shape == "padded":
        for _ in range(draw(st.integers(1, 4))):
            if not bags:
                bags.append(frozenset())
                continue
            j = draw(st.integers(0, len(bags) - 1))
            edges.append((len(bags), j))
            bags.append(draw(st.sampled_from([frozenset(), bags[j]])))
    perm = draw(st.permutations(range(len(bags))))
    renumbered = [frozenset()] * len(bags)
    for i, bag in enumerate(bags):
        renumbered[perm[i]] = bag
    edges = [(perm[i], perm[j]) for i, j in edges]
    return g, TreeDecomposition(tuple(renumbered), tuple(edges))


@settings(deadline=None, max_examples=200)
@given(decomposed_graphs())
def test_dp_is_exact_on_any_valid_decomposition(case):
    g, td = case
    assert decomposition_violation(g, td) is None
    res = vc_via_tree_decomposition(g, td)
    assert len(res.cover) == len(min_vc_bruteforce(g))
    assert res.cover <= set(range(g.n))
    assert is_vertex_cover(g, res.cover)


def test_dp_on_the_empty_graph():
    g = Graph(0, [])
    for td in (TreeDecomposition((), ()), TreeDecomposition((frozenset(),), ())):
        res = vc_via_tree_decomposition(g, td)
        assert len(res.cover) == 0 and res.cover == frozenset()


# Covers of random_graph(n, m, seed) under its min-fill decomposition.
# Solve output depends on which optimal cover the DP picks, so these pin
# the tie rule.
PINNED_COVERS = [
    (10, 13, 700, [1, 2, 6, 8]),
    (12, 19, 701, [1, 3, 5, 7, 8, 10]),
    (14, 26, 702, [0, 1, 2, 4, 5, 7, 13]),
    (16, 35, 703, [0, 2, 3, 5, 6, 7, 9, 12, 13]),
    (18, 21, 704, [2, 3, 5, 6, 7, 8, 16]),
    (20, 29, 705, [1, 3, 4, 8, 9, 11, 12, 15, 18]),
    (22, 39, 706, [0, 2, 3, 6, 8, 9, 10, 12, 14, 18, 19, 21]),
    (24, 51, 707, [1, 3, 5, 7, 8, 10, 12, 13, 14, 15, 17, 18, 19, 21]),
    (26, 29, 708, [4, 6, 8, 10, 14, 15, 17, 20, 22, 23]),
    (28, 40, 709, [1, 2, 5, 6, 7, 11, 13, 14, 16, 17, 20, 22]),
    (30, 53, 710, [0, 4, 6, 9, 10, 13, 15, 17, 18, 20, 22, 24, 26, 27, 29]),
    (32, 67, 711, [0, 1, 3, 4, 5, 6, 7, 8, 10, 14, 15, 16, 19, 21, 22, 25, 26, 31]),
    (34, 37, 712, [0, 1, 7, 11, 15, 17, 20, 21, 22, 23, 24, 25, 27, 28, 30]),
    (36, 51, 713, [1, 2, 6, 9, 11, 12, 15, 23, 24, 26, 27, 28, 31, 32, 33, 35]),
    (38, 66, 714, [0, 1, 4, 6, 9, 11, 13, 14, 15, 17, 20, 21, 25, 26, 27, 33, 34, 35, 37]),
    (40, 83, 715, [0, 1, 4, 5, 10, 11, 18, 19, 21, 23, 24, 28, 29, 30, 32, 33, 34, 36, 37, 38, 39]),
    (42, 45, 716, [3, 5, 6, 7, 8, 12, 13, 14, 16, 18, 19, 20, 22, 24, 30, 31, 35, 36, 38]),
    (44, 61, 717, [0, 2, 7, 10, 11, 13, 15, 16, 17, 22, 23, 24, 25, 30, 31, 34, 37, 38, 39, 42]),
    (46, 79, 718, [0, 2, 3, 4, 5, 6, 8, 10, 11, 13, 14, 17, 19, 20, 22, 25, 28, 30, 31, 36, 41, 43, 44, 45]),
    (48, 99, 719, [0, 1, 2, 4, 5, 7, 11, 12, 14, 16, 17, 19, 20, 21, 24, 27, 29, 30, 33, 34, 35, 37, 40, 43, 45, 46, 47]),
]


def test_dp_tie_rule_is_pinned():
    for n, m, seed, cover in PINNED_COVERS:
        g = random_graph(n, m, seed=seed)
        res = vc_via_tree_decomposition(g, min_fill_decomposition(g))
        assert sorted(res.cover) == cover, (n, m, seed)
