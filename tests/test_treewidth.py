import random

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
from simdom.treewidth import (
    NiceNode,
    TreeDecomposition,
    decomposition_violation,
    min_fill_decomposition,
    nice_decomposition,
    vc_via_tree_decomposition,
)
from simdom.vertexcover import is_vertex_cover, min_vc_branch_and_bound
from simdom.generators import random_connected_graph, random_graph


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


def test_nice_form_preserves_validity_and_width():
    rng = random.Random(4)
    for _ in range(60):
        n = rng.randint(1, 14)
        m = rng.randint(0, n * (n - 1) // 2)
        g = random_graph(n, m, seed=rng.randint(0, 10**6))
        td = min_fill_decomposition(g)
        nice = nice_decomposition(td)
        width = max(len(node.bag) for node in nice) - 1
        assert width == td.width
        # children precede parents, the root closes the list with an empty bag
        assert nice[-1].bag == ()
        for i, node in enumerate(nice):
            for child in (node.left, node.right):
                if child is not None:
                    assert child < i
        # re-validating the nice tree as a plain decomposition
        bags = tuple(frozenset(node.bag) for node in nice)
        edges = []
        for i, node in enumerate(nice):
            for child in (node.left, node.right):
                if child is not None:
                    edges.append((child, i))
        back = TreeDecomposition(bags, tuple(edges))
        assert decomposition_violation(g, back) is None, decomposition_violation(g, back)


def test_nice_node_kinds_change_one_vertex_at_a_time():
    g = random_connected_graph(9, 12, seed=6)
    nice = nice_decomposition(min_fill_decomposition(g))
    for node in nice:
        if node.kind == "leaf":
            assert node.bag == ()
        elif node.kind == "introduce":
            assert node.vertex in node.bag
            assert set(nice[node.left].bag) | {node.vertex} == set(node.bag)
        elif node.kind == "forget":
            assert node.vertex not in node.bag
            assert set(nice[node.left].bag) - {node.vertex} == set(node.bag)
        else:
            assert node.kind == "join"
            assert nice[node.left].bag == nice[node.right].bag == node.bag


def test_dp_cover_examples():
    res = vc_via_tree_decomposition(path(5), min_fill_decomposition(path(5)))
    assert res.size == 2
    assert is_vertex_cover(path(5), res.cover)

    tri = cycle(3)
    trivial = TreeDecomposition((frozenset({0, 1, 2}),), ())
    res = vc_via_tree_decomposition(tri, trivial)
    assert res.size == 2

    isolated = Graph(4, [])
    singleton_path = TreeDecomposition(
        tuple(frozenset({v}) for v in range(4)), ((0, 1), (1, 2), (2, 3))
    )
    res = vc_via_tree_decomposition(isolated, singleton_path)
    assert res.size == 0


def test_dp_matches_branch_and_bound_on_varied_density():
    rng = random.Random(10)
    for _ in range(300):
        n = rng.randint(1, 12)
        m = rng.randint(0, n * (n - 1) // 2)
        g = random_graph(n, m, seed=rng.randint(0, 10**6))
        a = vc_via_tree_decomposition(g, min_fill_decomposition(g))
        b = min_vc_branch_and_bound(g)
        assert a.size == b.size
        assert is_vertex_cover(g, a.cover)
        assert len(a.cover) == a.size


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


@settings(deadline=None, max_examples=300)
@given(small_graphs())
@example(Graph(0, []))
@example(Graph(5, []))
@example(clique(30))
@example(two_cliques_and_an_isolated_vertex())
def test_min_fill_matches_rescanning_reference(g):
    assert min_fill_decomposition(g) == rescanning_min_fill_decomposition(g)


@settings(deadline=None, max_examples=300)
@given(small_graphs(), st.integers(min_value=-1, max_value=30))
@example(clique(30), 28)
@example(clique(30), 29)
@example(Graph(0, []), -1)
@example(Graph(5, []), 0)
def test_min_fill_stops_exactly_past_max_width(g, k):
    reference = rescanning_min_fill_decomposition(g)
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
    # a join of its own, still empty, table leaves the root with no states
    monkeypatch.setattr(
        simdom.treewidth,
        "nice_decomposition",
        lambda td: (NiceNode("join", (), None, 0, 0),),
    )
    with pytest.raises(GuaranteeError, match="lost all states"):
        vc_via_tree_decomposition(path(2), min_fill_decomposition(path(2)))


def test_dp_reconstruction_mismatch_raises(monkeypatch):
    # two branches each introduce the edge (0, 1): the DP counts a cover
    # vertex in each, the reconstruction finds the same vertex twice
    branch = [
        NiceNode("leaf", (), None, None, None),
        NiceNode("introduce", (0,), 0, 0, None),
        NiceNode("introduce", (0, 1), 1, 1, None),
        NiceNode("forget", (0,), 1, 2, None),
        NiceNode("forget", (), 0, 3, None),
    ]
    nodes = tuple(branch) + (NiceNode("join", (), None, 4, 4),)
    monkeypatch.setattr(simdom.treewidth, "nice_decomposition", lambda td: nodes)
    with pytest.raises(GuaranteeError, match="reconstruction"):
        vc_via_tree_decomposition(path(2), min_fill_decomposition(path(2)))
