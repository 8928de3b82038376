import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    clique,
    connected_graphs,
    cycle,
    path,
    petersen,
    random_colouring_values,
    star,
    two_triangles_sharing_vertex,
)
import simdom
import simdom.lpapprox
import simdom.solver
from simdom import (
    BudgetExceededError,
    Colour,
    DisconnectedGraphError,
    Graph,
    GuaranteeError,
    InvalidSdSetError,
    approx2_sds,
    approx4_sds_via_vc,
    blocks_and_cut_vertices,
    is_sd_set,
    parse_graph,
    solve_crsds,
    solve_sds,
)
from simdom.domination import all_zero_hat, is_colour_respecting
from simdom.graph import induced_subgraph
from simdom.oracle import min_crsds_bruteforce, min_sds_bruteforce
from simdom.vertexcover import min_vc_branch_and_bound, min_vertex_cover
from simdom.generators import (
    gap_graph,
    random_2connected_graph,
    random_connected_graph,
)


def colouring_from_values(values):
    return [Colour(v) for v in values]


def test_crsds_2connected_on_triangle():
    tri = cycle(3)
    r = solve_crsds(tri, [Colour.ZERO_HAT] * 3)
    assert r.size == 2 and len(r.solution) == 2
    r = solve_crsds(tri, [Colour.ONE, Colour.ZERO_HAT, Colour.ZERO_HAT])
    assert 0 in r.solution and r.size == 2
    # everything exempt: the empty set respects an all-zero colouring
    r = solve_crsds(tri, [Colour.ZERO, Colour.ZERO, Colour.ZERO])
    assert r.size == 0
    # the exempt pair still leaves their edges to the 0hat vertex covered
    r = solve_crsds(tri, [Colour.ZERO, Colour.ZERO, Colour.ZERO_HAT])
    assert r.size == 1


def test_crsds_2connected_matches_oracle():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(3, 8)
        m = rng.randint(n, n * (n - 1) // 2)
        g = random_2connected_graph(n, m, seed=rng.randint(0, 10**6))
        f = colouring_from_values(random_colouring_values(n, rng.randint(0, 10**6)))
        r = solve_crsds(g, f)
        bct = blocks_and_cut_vertices(g)
        assert is_colour_respecting(g, bct, f, r.solution)
        assert r.size == len(min_crsds_bruteforce(g, f))


def test_recolouring_sizes_never_spread_by_more_than_one():
    rng = random.Random(6)
    for _ in range(60):
        n = rng.randint(3, 8)
        g = random_2connected_graph(n, rng.randint(n, n * (n - 1) // 2), seed=rng.randint(0, 10**6))
        f = colouring_from_values(random_colouring_values(n, rng.randint(0, 10**6)))
        pivot = rng.randrange(n)
        sizes = {}
        for colour in (Colour.ZERO, Colour.ZERO_HAT, Colour.ONE):
            fc = list(f)
            fc[pivot] = colour
            sizes[colour] = len(min_crsds_bruteforce(g, fc))
        assert sizes[Colour.ZERO] <= sizes[Colour.ZERO_HAT] <= sizes[Colour.ONE]
        assert sizes[Colour.ONE] <= sizes[Colour.ZERO] + 1


def test_solve_sds_tiny_examples():
    report = solve_sds(path(3))
    assert report.solution == frozenset({1})
    assert report.size == 1
    assert report.verified

    report = solve_sds(star(6))
    assert report.solution == frozenset({0})

    report = solve_sds(cycle(4))
    assert report.size == 2

    report = solve_sds(Graph(1, []))
    assert report.solution == frozenset()


def test_solve_sds_gap_family():
    for k in (3, 4):
        g = gap_graph(k)
        report = solve_sds(g)
        assert report.size == k
        # the k middle vertices are the canonical optimum
        assert report.solution == frozenset(range(k, 2 * k))


def test_solve_rejects_disconnected():
    with pytest.raises(DisconnectedGraphError):
        solve_sds(Graph(4, [(0, 1), (2, 3)]))


def test_solve_crsds_validates_length():
    with pytest.raises(ValueError):
        solve_crsds(path(3), [Colour.ONE])


def test_solve_sds_matches_oracle_on_random_graphs():
    rng = random.Random(7)
    for _ in range(80):
        n = rng.randint(2, 9)
        m = rng.randint(n - 1, n * (n - 1) // 2)
        g = random_connected_graph(n, m, seed=rng.randint(0, 10**6))
        report = solve_sds(g)
        assert report.verified
        assert report.size == len(min_sds_bruteforce(g))


def test_solve_crsds_matches_oracle_with_colours():
    rng = random.Random(8)
    for _ in range(80):
        n = rng.randint(2, 9)
        m = rng.randint(n - 1, n * (n - 1) // 2)
        g = random_connected_graph(n, m, seed=rng.randint(0, 10**6))
        f = colouring_from_values(random_colouring_values(n, rng.randint(0, 10**6)))
        report = solve_crsds(g, f)
        bct = blocks_and_cut_vertices(g)
        # verification must hold against the colouring as given, even
        # though peeling rewrites connection colours internally
        assert is_colour_respecting(g, bct, f, report.solution)
        assert report.size == len(min_crsds_bruteforce(g, f))


def test_block_log_records_peel_cases_and_size_ladder():
    g = gap_graph(3)
    report = solve_sds(g)
    assert len(report.block_log) == len(blocks_and_cut_vertices(g).blocks) - 1
    for entry in report.block_log:
        assert entry.case in {"all-equal", "one-larger", "zero-smaller"}
        assert entry.size_zero <= entry.size_zero_hat <= entry.size_one
        assert entry.size_one <= entry.size_zero + 1
        if entry.case == "zero-smaller":
            assert entry.recoloured_to is None
        else:
            assert entry.recoloured_to is not None


def test_backend_choice_does_not_change_size():
    rng = random.Random(9)
    for _ in range(15):
        n = rng.randint(2, 9)
        g = random_connected_graph(n, rng.randint(n - 1, n * (n - 1) // 2), seed=rng.randint(0, 10**6))
        sizes = {solve_sds(g, backend=b).size for b in ("auto", "bnb", "treewidth")}
        assert len(sizes) == 1


def test_solution_is_sd_set_under_both_verifiers():
    g = two_triangles_sharing_vertex()
    report = solve_sds(g)
    bct = blocks_and_cut_vertices(g)
    assert is_sd_set(g, bct, report.solution)
    from simdom.oracle import is_sd_set_by_enumeration

    assert is_sd_set_by_enumeration(g, report.solution)


# solve_sds has one check: with the all-ZERO_HAT colouring, respecting
# the colouring is being an SD-set
@pytest.mark.parametrize("check", ["is_colour_respecting"])
def test_failed_verification_raises(monkeypatch, check):
    monkeypatch.setattr(simdom.solver, check, lambda *args: False)
    with pytest.raises(InvalidSdSetError):
        solve_sds(two_triangles_sharing_vertex())


def test_failed_colour_check_raises_in_solve_crsds(monkeypatch):
    monkeypatch.setattr(simdom.solver, "is_colour_respecting", lambda *args: False)
    g = two_triangles_sharing_vertex()
    with pytest.raises(InvalidSdSetError):
        solve_crsds(g, [Colour.ZERO_HAT] * g.n)


def test_solve_sds_decomposes_once(monkeypatch):
    calls = []
    original = simdom.solver.blocks_and_cut_vertices

    def counting(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(simdom.solver, "blocks_and_cut_vertices", counting)
    report = solve_sds(gap_graph(3))
    assert report.size == 3
    assert len(calls) == 1


@pytest.mark.parametrize(
    "sizes",
    [
        {Colour.ONE: 1, Colour.ZERO: 1, Colour.ZERO_HAT: 0},  # s0 > s0hat
        {Colour.ONE: 0, Colour.ZERO: 0, Colour.ZERO_HAT: 1},  # s0hat > s1
        {Colour.ONE: 2, Colour.ZERO: 0, Colour.ZERO_HAT: 0},  # s1 > s0 + 1
    ],
    ids=["zero-above-zero-hat", "zero-hat-above-one", "one-above-zero-plus-one"],
)
def test_impossible_size_ladder_raises(monkeypatch, sizes):
    # path(3) coloured ZERO, ZERO_HAT, ZERO peels the leaf block {0, 1} or
    # {1, 2}: its only non-pivot vertex is a ZERO neighbour of the pivot,
    # so ZERO gets a search of its own, and the pivot colour is ONE or
    # ZERO_HAT when either appears, else ZERO
    def fake_residual_core(n, edges, fc, backend, node_budget, memo, min_size=0):
        colour = next((c for c in (Colour.ONE, Colour.ZERO_HAT) if c in fc), Colour.ZERO)
        return frozenset(range(sizes[colour])), "bnb", 0

    monkeypatch.setattr(simdom.solver, "_residual_core", fake_residual_core)
    with pytest.raises(GuaranteeError, match="impossible size pattern"):
        solve_crsds(path(3), [Colour.ZERO, Colour.ZERO_HAT, Colour.ZERO])


def test_node_budget_bounds_the_whole_solve():
    # two K6s sharing vertex 0: the leaf block's ZERO_HAT search takes 7
    # nodes and its ONE search, which the root block reuses, 3
    k6 = clique(6).edges
    g = Graph(11, k6 + tuple((u and u + 5, v + 5) for u, v in k6))
    assert solve_sds(g, backend="bnb", node_budget=10).size == 9
    with pytest.raises(BudgetExceededError):
        solve_sds(g, backend="bnb", node_budget=7)


def test_zero_with_a_zero_neighbour_is_searched_on_its_own():
    # the pivot 1 of leaf block {0, 1} or {1, 2} has the ZERO neighbour
    # at the block's other end: as ZERO_HAT it must dominate that edge,
    # as ZERO the edge drops out, so copying ZERO_HAT's answer would be
    # one vertex too large
    f = [Colour.ZERO, Colour.ZERO_HAT, Colour.ZERO]
    report = solve_crsds(path(3), f)
    (entry,) = report.block_log
    assert entry.size_zero < entry.size_zero_hat
    assert entry.case == "zero-smaller"
    assert report.size == len(min_crsds_bruteforce(path(3), f)) == 1


@pytest.mark.parametrize("backend", ["auto", "bnb"])
def test_first_peel_sizes_match_oracle(backend):
    # the first peeled block sees the colouring as given, so each size in
    # its log entry is the oracle's optimum for that pivot colour
    rng = random.Random(13)
    checked = 0
    while checked < 60:
        n = rng.randint(4, 9)
        g = random_connected_graph(n, rng.randint(n - 1, n * (n - 1) // 2), seed=rng.randint(0, 10**6))
        f = colouring_from_values(random_colouring_values(n, rng.randint(0, 10**6)))
        report = solve_crsds(g, f, backend=backend)
        if not report.block_log:
            continue
        checked += 1
        entry = report.block_log[0]
        members = sorted(blocks_and_cut_vertices(g).blocks[entry.block])
        h, kept = induced_subgraph(g, members)
        pivot = members.index(entry.connection_vertex)
        sizes = []
        for colour in (Colour.ONE, Colour.ZERO, Colour.ZERO_HAT):
            fc = [f[kept[i]] for i in range(h.n)]
            fc[pivot] = colour
            sizes.append(len(min_crsds_bruteforce(h, fc)))
        assert [entry.size_one, entry.size_zero, entry.size_zero_hat] == sizes


def record_cover_calls(monkeypatch):
    """(residual, target) of every cover call the solver makes."""
    calls = []
    original = simdom.solver.min_vertex_cover

    def recording(h, *args, target=-1, **kwargs):
        calls.append((h, target))
        return original(h, *args, target=target, **kwargs)

    monkeypatch.setattr(simdom.solver, "min_vertex_cover", recording)
    return calls


def test_residuals_keep_sorted_neighbour_lists(monkeypatch):
    calls = record_cover_calls(monkeypatch)
    for seed in range(4):
        solve_sds(random_connected_graph(30, 70, seed=seed))
    assert any(h.m for h, _ in calls)
    for h, _ in calls:
        assert h.nbrs == [sorted(set(row)) for row in h.nbrs]


@pytest.mark.parametrize("backend", ["auto", "bnb"])
def test_cover_targets_never_exceed_the_optimum_and_are_reached(monkeypatch, backend):
    # a target above the optimum could end the search on a larger cover;
    # in the all-equal case the ONE target is the optimum itself
    calls = record_cover_calls(monkeypatch)
    rng = random.Random(14)
    for _ in range(40):
        n = rng.randint(4, 12)
        g = random_connected_graph(n, rng.randint(n - 1, 2 * n - 2), seed=rng.randint(0, 10**6))
        f = colouring_from_values(random_colouring_values(n, rng.randint(0, 10**6)))
        solve_crsds(g, f, backend=backend)
    optima = [len(min_vc_branch_and_bound(h).cover) for h, _ in calls]
    assert all(target <= opt for (_, target), opt in zip(calls, optima))
    assert any(target == opt for (_, target), opt in zip(calls, optima))


def test_uncoloured_two_blocks_take_two_cover_calls(monkeypatch):
    # leaf block: ZERO_HAT, then ONE; ZERO has ZERO_HAT's residual as no
    # vertex is coloured ZERO, and the root block, whose connection
    # vertex is now ONE, has the leaf's ONE residual
    calls = record_cover_calls(monkeypatch)
    g = two_triangles_sharing_vertex()
    report = solve_sds(g)
    assert len(calls) == 2
    assert report.size == len(min_sds_bruteforce(g))
    (entry,) = report.block_log
    assert entry.size_zero == entry.size_zero_hat


def test_zero_neighbour_of_the_pivot_adds_the_third_cover_call(monkeypatch):
    # one ZERO vertex per triangle, so whichever triangle is the leaf,
    # its pivot (the shared vertex 2) has a ZERO neighbour; the root
    # block again has the leaf's ONE residual
    calls = record_cover_calls(monkeypatch)
    g = two_triangles_sharing_vertex()
    f = [Colour.ZERO, Colour.ZERO_HAT, Colour.ZERO_HAT, Colour.ZERO, Colour.ZERO_HAT]
    report = solve_crsds(g, f)
    assert len(calls) == 3
    assert report.size == len(min_crsds_bruteforce(g, f))


@pytest.mark.parametrize(
    "g",
    [cycle(7), petersen(), random_2connected_graph(40, 70, seed=3)],
    ids=["C7", "petersen", "random-2connected"],
)
@pytest.mark.parametrize("backend", ["auto", "bnb"])
def test_one_block_graph_is_its_own_vertex_cover(monkeypatch, g, backend):
    # on a 2-connected graph the SD-sets are the vertex covers, so the
    # solve is one cover call on g itself, with no residual built; that
    # call gives what the residual path gave: the residual of the
    # all-ZERO_HAT colouring is g
    residual = simdom.solver._residual_core(
        g.n, [x for e in g.edges for x in e], all_zero_hat(g.n), backend, 0, {}
    )

    def refuse(*args, **kwargs):
        raise AssertionError("a one-block graph was solved as a residual")

    monkeypatch.setattr(simdom.solver, "_residual_core", refuse)
    calls = record_cover_calls(monkeypatch)
    report = solve_sds(g, backend=backend)
    assert calls == [(g, 0)] and calls[0][0] is g
    vc = min_vertex_cover(g, backend)
    assert report.solution == vc.cover == residual[0]
    assert report.backends == (vc.backend,) == (residual[1],)
    assert report.block_log == ()


def test_two_blocks_or_a_colour_still_build_residuals(monkeypatch):
    calls = []
    original = simdom.solver._residual_core

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(simdom.solver, "_residual_core", counting)
    g = two_triangles_sharing_vertex()
    assert solve_sds(g).size == len(min_sds_bruteforce(g))
    assert calls == [3, 3, 3, 3]
    # one block, but vertex 0 must be in the set: not a plain vertex cover
    calls.clear()
    f = [Colour.ONE] + [Colour.ZERO_HAT] * 6
    assert solve_crsds(cycle(7), f).size == len(min_crsds_bruteforce(cycle(7), f))
    assert calls == [7]


def flower(k):
    """k triangles sharing vertex 0."""
    return Graph(
        2 * k + 1,
        [e for i in range(k) for e in ((0, 2 * i + 1), (0, 2 * i + 2), (2 * i + 1, 2 * i + 2))],
    )


@pytest.mark.parametrize("k", [50, 200, 400])
def test_flower_takes_two_cover_calls_whatever_its_size(monkeypatch, k):
    # every petal has the triangle as its ZERO_HAT and ZERO residual and
    # one edge as its ONE residual, and so does the root petal. Each
    # petal needs a vertex other than 0 (else a tree with the path
    # 0-a-b leaves b undominated), and 0 too (else a tree joining 0 only
    # to vertices outside the set leaves 0 undominated).
    calls = record_cover_calls(monkeypatch)
    report = solve_sds(flower(k))
    assert len(calls) == 2
    assert report.size == k + 1
    assert len(min_sds_bruteforce(flower(3))) == 4


@pytest.mark.parametrize("k", [50, 200, 400])
def test_flower_builds_four_residuals_whatever_its_size(monkeypatch, k):
    # the first petal builds its three residuals and every later leaf
    # petal has the same local view, so the block memo answers it; the
    # root petal, its pivot now ONE, builds the fourth
    calls = []
    original = simdom.solver._residual_core

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(simdom.solver, "_residual_core", counting)
    report = solve_sds(flower(k))
    assert calls == [3, 3, 3, 3]
    assert report.size == k + 1
    assert len(report.block_log) == k - 1


def test_negative_node_budget_is_rejected():
    g = two_triangles_sharing_vertex()
    with pytest.raises(ValueError, match="node budget"):
        solve_sds(g, node_budget=-1)
    with pytest.raises(ValueError, match="node budget"):
        solve_crsds(g, all_zero_hat(g.n), node_budget=-1)


@settings(deadline=None, max_examples=200)
@given(connected_graphs(), st.data(), st.sampled_from(["auto", "bnb"]))
def test_memo_never_changes_a_report(g, data, backend):
    # the unmemoised run solves every leaf block afresh (no block memo)
    # and searches every residual afresh (a new residual memo per call)
    f = data.draw(st.lists(st.sampled_from(list(Colour)), min_size=g.n, max_size=g.n))
    memoised = simdom.solver._residual_core

    def fresh_memo(n, edges, fc, backend_name, node_budget, memo, min_size=0):
        return memoised(n, edges, fc, backend_name, node_budget, {}, min_size)

    report = solve_crsds(g, f, backend=backend)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simdom.solver, "_residual_core", fresh_memo)
        bct = blocks_and_cut_vertices(g)
        unmemoised = simdom.solver._solve(g, bct, f, backend, 0, block_memo=False)
        assert unmemoised == report


def cactus_text(blocks, seed):
    """An edge list of bridges, triangles, 4-cycles and K4s, each hung at
    a random vertex of the graph built so far."""
    rng = random.Random(seed)
    n, lines = 1, []
    for _ in range(blocks):
        size = rng.choice((2, 3, 4, 4))
        ring = [rng.randrange(n)] + list(range(n, n + size - 1))
        n += size - 1
        pairs = [(ring[i], ring[(i + 1) % size]) for i in range(size)][: size - (size == 2)]
        if size == 4 and rng.random() < 0.5:
            pairs += [(ring[0], ring[2]), (ring[1], ring[3])]
        lines += [f"{u} {v}\n" for u, v in pairs]
    return "".join(lines)


@pytest.mark.parametrize("run", ["sds", "crsds", "approx", "approx-vc"])
def test_solve_paths_leave_the_frozenset_views_unbuilt(monkeypatch, run):
    # every solve and approximation reader reads the neighbour lists and
    # the flat block layout, so neither the graph's edge tuple nor the
    # decomposition's per-block frozensets and cut-vertex set are ever built
    decompositions = []
    for mod in (simdom.solver, simdom.lpapprox):
        original = mod.blocks_and_cut_vertices
        monkeypatch.setattr(
            mod, "blocks_and_cut_vertices",
            lambda g, original=original: decompositions.append(original(g)) or decompositions[-1],
        )
    g = parse_graph(cactus_text(25 if run == "approx" else 300, seed=7), "edgelist")
    assert len(blocks_and_cut_vertices(g).cut_blocks) > 10
    if run == "sds":
        solve_sds(g)
    elif run == "crsds":
        solve_crsds(g, colouring_from_values(random_colouring_values(g.n, 3)))
    elif run == "approx":
        approx2_sds(g)
    else:
        approx4_sds_via_vc(g)
    assert g._edges is None
    assert decompositions
    for bct in decompositions:
        assert not {"blocks", "cut_vertices"} & vars(bct).keys()


def test_the_library_switches_no_gc_setting():
    # cyclic GC is cut by keeping fewer containers, never by switching it
    # off, freezing it or moving its thresholds from inside the library
    src = Path(simdom.__file__).resolve().parent
    sources = sorted(src.rglob("*.py"))
    assert len(sources) > 10
    for path in sources:
        text = path.read_text(encoding="utf-8")
        assert not re.search(r"\bimport\s+gc\b|\bfrom\s+gc\s+import\b|\bgc\.", text), path
