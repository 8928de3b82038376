import random

import pytest

from conftest import (
    cycle,
    path,
    random_colouring_values,
    star,
    two_triangles_sharing_vertex,
)
import simdom.solver
from simdom import (
    Colour,
    DisconnectedGraphError,
    Graph,
    GuaranteeError,
    InvalidSdSetError,
    Not2ConnectedError,
    best_colour,
    blocks_and_cut_vertices,
    crsds_2connected,
    is_colour_respecting,
    is_sd_set,
    min_crsds_bruteforce,
    min_sds_bruteforce,
    solve_crsds,
    solve_sds,
)
from simdom.generators import (
    gap_graph,
    random_2connected_graph,
    random_connected_graph,
)


def colouring_from_values(values):
    return [Colour(v) for v in values]


def test_best_colour_is_the_maximum():
    assert best_colour([Colour.ZERO_HAT, Colour.ZERO]) is Colour.ZERO
    assert best_colour([Colour.ZERO, Colour.ONE]) is Colour.ONE
    assert best_colour([Colour.ZERO_HAT]) is Colour.ZERO_HAT
    with pytest.raises(ValueError):
        best_colour([])


def test_crsds_2connected_on_triangle():
    tri = cycle(3)
    s, size = crsds_2connected(tri, [Colour.ZERO_HAT] * 3)
    assert size == 2 and len(s) == 2
    s, size = crsds_2connected(tri, [Colour.ONE, Colour.ZERO_HAT, Colour.ZERO_HAT])
    assert 0 in s and size == 2
    # everything exempt: the empty set respects an all-zero colouring
    s, size = crsds_2connected(tri, [Colour.ZERO, Colour.ZERO, Colour.ZERO])
    assert size == 0
    # the exempt pair still leaves their edges to the 0hat vertex covered
    s, size = crsds_2connected(tri, [Colour.ZERO, Colour.ZERO, Colour.ZERO_HAT])
    assert size == 1


def test_crsds_2connected_rejects_cut_vertices():
    with pytest.raises(Not2ConnectedError):
        crsds_2connected(path(3), [Colour.ZERO_HAT] * 3)


def test_crsds_2connected_matches_oracle():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(3, 8)
        m = rng.randint(n, n * (n - 1) // 2)
        g = random_2connected_graph(n, m, seed=rng.randint(0, 10**6))
        f = colouring_from_values(random_colouring_values(n, rng.randint(0, 10**6)))
        s, size = crsds_2connected(g, f)
        bct = blocks_and_cut_vertices(g)
        assert is_colour_respecting(g, bct, f, s)
        assert size == len(min_crsds_bruteforce(g, f))


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
    from simdom import is_sd_set_by_enumeration

    assert is_sd_set_by_enumeration(g, report.solution)


@pytest.mark.parametrize("check", ["is_colour_respecting", "is_sd_set"])
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
    # path(3) peels the leaf block {0, 1} or {1, 2}: its only non-pivot
    # vertex is ZERO_HAT, so the pivot colour is whichever other colour
    # appears, else ZERO_HAT
    def fake_residual_core(h, fc, backend, node_budget):
        colour = next((c for c in (Colour.ONE, Colour.ZERO) if c in fc), Colour.ZERO_HAT)
        return frozenset(range(sizes[colour])), "bnb"

    monkeypatch.setattr(simdom.solver, "_residual_core", fake_residual_core)
    with pytest.raises(GuaranteeError, match="impossible size pattern"):
        solve_sds(path(3))
