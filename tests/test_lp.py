import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import cycle, path, star
from simdom import (
    Graph,
    GuaranteeError,
    InvalidSdSetError,
    approx2_sds,
    approx4_sds_via_vc,
    blocks_and_cut_vertices,
    is_sd_set,
    solve_sds,
)
from simdom.lpapprox import (
    LpRow,
    LpSolution,
    build_sds_ip,
    round_lp,
    solve_lp_simplex,
)
from simdom.oracle import (
    ip_optimum_bruteforce,
    min_sds_bruteforce,
    sds_to_vertex_cover,
)
from simdom.vertexcover import is_vertex_cover
from simdom import lpapprox, oracle
from simdom.errors import BudgetExceededError
from simdom.generators import gap_graph, random_2connected_graph, random_connected_graph
from simdom.simplex import UNBOUNDED, SimplexResult, simplex_min


def test_model_shape_for_a_path():
    g = path(3)
    bct = blocks_and_cut_vertices(g)
    m = build_sds_ip(g, bct)
    assert m.num_cols == 5  # x0..x2 plus y for the middle vertex's two blocks
    assert Counter(r.kind for r in m.rows) == {
        "adjacent-pair": 2,
        "block-neighbour": 2,
        "cut-cover": 1,
    }
    assert m.y_keys == ((1, 0), (1, 1))


def test_model_gives_each_pair_row_once():
    g = cycle(3)
    bct = blocks_and_cut_vertices(g)
    m = build_sds_ip(g, bct)
    # one row per edge, about its smaller end, on a block with no cuts
    assert [(r.kind, r.about) for r in m.rows] == [
        ("adjacent-pair", (0, 1)),
        ("adjacent-pair", (0, 2)),
        ("adjacent-pair", (1, 2)),
    ]
    # a cut end does not give the row: the non-cut end does, once
    g = path(3)
    m = build_sds_ip(g, blocks_and_cut_vertices(g))
    pairs = [r.about for r in m.rows if r.kind == "adjacent-pair"]
    assert pairs == [(0, 1), (2, 1)]


def test_row_count_identities():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(2, 10)
        g = random_connected_graph(n, rng.randint(n - 1, n * (n - 1) // 2), seed=rng.randint(0, 10**6))
        bct = blocks_and_cut_vertices(g)
        m = build_sds_ip(g, bct)
        counts = Counter(r.kind for r in m.rows)
        cuts = bct.cut_vertices
        assert counts.get("adjacent-pair", 0) == sum(
            1 for u, v in g.edges if u not in cuts or v not in cuts
        )
        assert counts.get("block-neighbour", 0) == sum(
            sum(1 for w in g.nbrs[v] if w in bct.blocks[b])
            for v, blocks in bct.cut_blocks.items()
            for b in blocks
        )
        assert counts.get("cut-cover", 0) == len(cuts)
        assert len(m.y_keys) == sum(map(len, bct.cut_blocks.values()))


def test_pair_duplicates_leave_the_lp_optimum():
    # the model with both rows of each edge with two non-cut ends, as
    # it was built before each pair row was given once
    rng = random.Random(19)
    for _ in range(30):
        n = rng.randint(2, 30)
        g = random_connected_graph(n, rng.randint(n - 1, 2 * n), seed=rng.randint(0, 10**6))
        bct = blocks_and_cut_vertices(g)
        m = build_sds_ip(g, bct)
        twins = tuple(
            LpRow("adjacent-pair", row.coeffs, 1, row.about[::-1])
            for row in m.rows
            if row.kind == "adjacent-pair" and row.about[1] not in bct.cut_blocks
        )
        full = replace(m, rows=twins + m.rows)
        assert len(twins) + sum(r.kind == "adjacent-pair" for r in m.rows) == sum(
            len(g.nbrs[v]) for v in range(n) if v not in bct.cut_blocks
        )
        assert solve_lp_simplex(full).objective == solve_lp_simplex(m).objective


def test_approx2_on_one_vertex():
    # no rows: the empty set dominates the single vertex, as solve_sds says
    g = Graph(1, [])
    assert approx2_sds(g) == (frozenset(), Fraction(0))
    assert solve_sds(g).size == 0


def test_broken_lp_point_raises_a_typed_error():
    # the rounding's feasibility checks must survive python -O
    g = path(3)
    bct = blocks_and_cut_vertices(g)
    x = (Fraction(0), Fraction(1, 4), Fraction(0))
    sol = LpSolution(sum(x), x)
    assert round_lp(g, bct, sol) == frozenset({1})  # unchecked, it rounds on
    with pytest.raises(
        GuaranteeError, match=r"after first rounding: adjacent-pair row \(0, 1\) broken"
    ):
        round_lp(g, bct, sol, check_feasibility=True)


def test_lp_objectives_on_known_graphs():
    for g, expected in [
        (path(2), Fraction(1)),
        (path(3), Fraction(1)),
        (cycle(3), Fraction(3, 2)),
    ]:
        bct = blocks_and_cut_vertices(g)
        sol = solve_lp_simplex(build_sds_ip(g, bct))
        assert sol.objective == expected


def test_rounding_with_per_step_checks():
    rng = random.Random(14)
    for _ in range(50):
        n = rng.randint(2, 9)
        g = random_connected_graph(n, rng.randint(n - 1, n * (n - 1) // 2), seed=rng.randint(0, 10**6))
        bct = blocks_and_cut_vertices(g)
        sol = solve_lp_simplex(build_sds_ip(g, bct))
        s = round_lp(g, bct, sol, check_feasibility=True)
        assert is_sd_set(g, bct, s)
        assert len(s) <= 2 * sol.objective


def lp_point(g, x):
    """The decomposition of g and a hand-made LpSolution at x, which must
    be feasible with each y at the least x over its block neighbourhood."""
    bct = blocks_and_cut_vertices(g)
    m = build_sds_ip(g, bct)
    z = list(x) + [min(x[u] for u in bct.cut_neighbours[key]) for key in m.y_keys]
    assert all(
        sum(a * z[j] for j, a in row.coeffs.items()) >= row.rhs for row in m.rows
    )
    return bct, LpSolution(sum(x), tuple(x))


def bridged_triangles(centres):
    """Centres 0..centres-1 on a path, each joined by bridges to three cut
    vertices that carry triangles, with x = 0 at a centre, 1/3 at a cut
    vertex and 2/3 at a triangle end: rounding step 2 has to pick centres."""
    edges = [(i, i + 1) for i in range(centres - 1)]
    x = [Fraction(0)] * centres
    for c in range(centres, 10 * centres, 3):
        edges += [((c - centres) // 9, c), (c, c + 1), (c, c + 2), (c + 1, c + 2)]
        x += [Fraction(1, 3), Fraction(2, 3), Fraction(2, 3)]
    return Graph(10 * centres, edges), x


ONE_CENTRE = [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (4, 5), (2, 6), (2, 7), (6, 7),
              (3, 8), (3, 9), (8, 9)]
ONE_CENTRE_X = [Fraction(0)] + [Fraction(1, 3)] * 3 + [Fraction(2, 3)] * 6
SWAP_0_1 = {0: 1, 1: 0}
# centre 0's third bridge becomes the triangle 0-3-10, whose end 10 is at 1
# while 3 stays fractional: that block does not cover 0
MIXED_BLOCK = [e for e in ONE_CENTRE if e != (0, 3)] + [(0, 3), (0, 10), (3, 10)]
# cut vertices 0, 1 and 2 share a triangle; 0 hangs a bridge to 3 and 1 a
# bridge to 4, and 2, 3 and 4 carry triangles. Rounding 1 must zero 4 in its
# child bridge, not 0 in the triangle above it, or 0's cover row breaks.
PARENT_BLOCK = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5), (2, 6), (5, 6),
                (3, 7), (3, 8), (7, 8), (4, 9), (4, 10), (9, 10)]


@pytest.mark.parametrize(
    "g, x, expected",
    [
        (Graph(10, ONE_CENTRE), ONE_CENTRE_X, [0, 4, 5, 6, 7, 8, 9]),
        # the centre is 1, no longer the cut vertex the walk is rooted at
        (
            Graph(10, [(SWAP_0_1.get(u, u), SWAP_0_1.get(v, v)) for u, v in ONE_CENTRE]),
            [ONE_CENTRE_X[SWAP_0_1.get(v, v)] for v in range(10)],
            [1, 4, 5, 6, 7, 8, 9],
        ),
        # bottom-up, centre 1 is rounded first and covers centre 0 through
        # their bridge; top-down would pick 0 instead
        (*bridged_triangles(2), [1, 3, 4, 6, 7, 9, 10, 12, 13, 15, 16, 18, 19]),
        (Graph(11, MIXED_BLOCK), ONE_CENTRE_X + [Fraction(1)], [0, 4, 5, 6, 7, 8, 9, 10]),
        (
            Graph(11, PARENT_BLOCK),
            [Fraction(1, 3)] * 5 + [Fraction(2, 3)] * 6,
            [0, 1, 5, 6, 7, 8, 9, 10],
        ),
    ],
    ids=["root-centre", "inner-centre", "two-centres", "mixed-block", "parent-block"],
)
def test_rounding_step_two_is_pinned(g, x, expected):
    bct, sol = lp_point(g, x)
    assert sorted(round_lp(g, bct, sol, check_feasibility=True)) == expected
    assert sorted(round_lp(g, bct, sol)) == expected


def test_step_two_check_catches_a_rounding_that_breaks_a_row(monkeypatch):
    # with every cut vertex a root at depth 0, 0 is rounded first and zeroes
    # 1 in their triangle, which is 1's parent block, and 1's cover row
    # drops to 2/3
    g = Graph(11, PARENT_BLOCK)
    bct, sol = lp_point(g, [Fraction(1, 3)] * 5 + [Fraction(2, 3)] * 6)
    monkeypatch.setattr(
        lpapprox, "root_block_tree", lambda bct, root: {v: (0, -1) for v in bct.cut_blocks}
    )
    with pytest.raises(
        GuaranteeError, match=r"after rounding cut vertex 0: cut-cover row \(1,\) broken"
    ):
        round_lp(g, bct, sol, check_feasibility=True)


def test_sandwich_relation_on_random_graphs():
    rng = random.Random(15)
    for _ in range(40):
        n = rng.randint(2, 9)
        g = random_connected_graph(n, rng.randint(n - 1, n * (n - 1) // 2), seed=rng.randint(0, 10**6))
        rounded, bound = approx2_sds(g)
        opt = len(min_sds_bruteforce(g))
        assert bound <= opt <= len(rounded) <= 2 * bound


def test_ip_bruteforce_equals_sds_oracle():
    rng = random.Random(16)
    for _ in range(30):
        n = rng.randint(2, 6)
        g = random_connected_graph(n, rng.randint(n - 1, n * (n - 1) // 2), seed=rng.randint(0, 10**6))
        bct = blocks_and_cut_vertices(g)
        m = build_sds_ip(g, bct)
        assert ip_optimum_bruteforce(m) == len(min_sds_bruteforce(g))


def test_ip_bruteforce_budget():
    g = path(17)
    bct = blocks_and_cut_vertices(g)
    m = build_sds_ip(g, bct)
    with pytest.raises(BudgetExceededError):
        ip_optimum_bruteforce(m)


def test_cover_extension_examples():
    g = path(3)
    bct = blocks_and_cut_vertices(g)
    cover = sds_to_vertex_cover(g, bct, {1})
    assert cover == frozenset({1})

    g = star(4)
    bct = blocks_and_cut_vertices(g)
    cover = sds_to_vertex_cover(g, bct, {0})
    assert cover == frozenset({0})


def test_cover_extension_bound_on_random_minimum_sets():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(2, 9)
        g = random_connected_graph(n, rng.randint(n - 1, n * (n - 1) // 2), seed=rng.randint(0, 10**6))
        s = min_sds_bruteforce(g)
        bct = blocks_and_cut_vertices(g)
        cover = sds_to_vertex_cover(g, bct, s)
        assert is_vertex_cover(g, cover)
        assert len(cover) <= 2 * len(s) - 1


def test_cover_extension_rejects_bad_input():
    g = path(3)
    bct = blocks_and_cut_vertices(g)
    with pytest.raises(InvalidSdSetError):
        sds_to_vertex_cover(g, bct, {0})
    k1 = Graph(1, [])
    with pytest.raises(ValueError):
        sds_to_vertex_cover(k1, blocks_and_cut_vertices(k1), set())


def test_matching_cover_is_an_sd_set():
    rng = random.Random(18)
    for _ in range(30):
        n = rng.randint(2, 9)
        g = random_connected_graph(n, rng.randint(n - 1, n * (n - 1) // 2), seed=rng.randint(0, 10**6))
        s = approx4_sds_via_vc(g)
        bct = blocks_and_cut_vertices(g)
        assert is_sd_set(g, bct, s)
        assert len(s) <= 4 * len(min_sds_bruteforce(g))


def test_approx2_on_gap_graph_stays_in_the_window():
    g = gap_graph(3)
    rounded, bound = approx2_sds(g)
    opt = solve_sds(g).size
    assert bound <= opt <= len(rounded) <= 2 * bound
    assert 3 <= len(rounded) <= 6


@pytest.mark.parametrize(
    "g, expected, bound",
    [
        (gap_graph(3), [3, 4, 5], 3),
        (random_connected_graph(12, 18, seed=1), [0, 3, 8, 10, 11], 5),
        (random_connected_graph(16, 24, seed=2), [0, 1, 3, 4, 6, 9, 10, 13], 8),
        (
            random_connected_graph(20, 30, seed=3),
            [0, 1, 4, 5, 9, 11, 12, 13, 15, 19],
            10,
        ),
        (
            random_connected_graph(24, 36, seed=4),
            [*range(10), *range(11, 19), *range(20, 24)],
            12,
        ),
    ],
    ids=["gap3", "random-12", "random-16", "random-20", "random-24"],
)
def test_approx2_sets_are_pinned(g, expected, bound):
    # the rounding of the optimal basis that the dual simplex reaches
    rounded, lp_bound = approx2_sds(g)
    assert (sorted(rounded), lp_bound) == (expected, bound)


def test_approx2_at_lp_scale_is_pinned(monkeypatch):
    # 200 vertices: hundreds of pivots whose integer rows fill in; Bland's
    # rule alone took 735
    pivots = []

    def counted(*args):
        result = simplex_min(*args)
        pivots.append(result.pivots)
        return result

    monkeypatch.setattr(lpapprox, "simplex_min", counted)
    rounded, lp_bound = approx2_sds(random_connected_graph(200, 400, seed=1400))
    assert (len(rounded), lp_bound, pivots) == (185, 99, [442])


def test_approx2_on_a_300_vertex_block_is_pinned():
    # one 2-connected block: no cut vertices, an all-1/2 optimum, and
    # every vertex rounded up; under Bland's rule alone it took seconds
    g = random_2connected_graph(300, 750, seed=1)
    assert approx2_sds(g) == (frozenset(range(300)), 150)


# The result checks below raise typed errors rather than assert, so they
# also run under python -O; each test forces one of them to fail.


def test_non_optimal_relaxation_raises(monkeypatch):
    monkeypatch.setattr(
        lpapprox, "simplex_min", lambda *args: SimplexResult(UNBOUNDED, None, None)
    )
    with pytest.raises(GuaranteeError):
        approx2_sds(path(3))


def test_relaxation_outside_the_box_raises():
    # a certified optimum never leaves the box, so the rounding's own guard
    # is reached with a hand-made solution: x0 = 2 on the path 0-1-2
    g = path(3)
    bct = blocks_and_cut_vertices(g)
    sol = LpSolution(Fraction(3), (Fraction(2), Fraction(1), Fraction(0)))
    with pytest.raises(GuaranteeError, match="box"):
        round_lp(g, bct, sol)


@pytest.mark.parametrize(
    "field, broken, message",
    [
        # duals carry the relaxation's z, values the dual's own solution
        ("duals", lambda z: z[:-1] + (Fraction(-1),), "below zero"),
        ("duals", lambda z: (Fraction(0),) * len(z), "relaxation breaks"),
        # halved, z is checked scaled by the lcm of its denominators
        ("duals", lambda z: tuple(v / 2 for v in z), "relaxation breaks"),
        ("duals", lambda z: (Fraction(1),) * len(z), "objectives differ"),
        ("values", lambda pi: pi[:-1] + (Fraction(-1),), "below zero"),
        ("values", lambda pi: (Fraction(1),) * len(pi), "dual breaks"),
        ("values", lambda pi: (Fraction(0),) * len(pi), "objectives differ"),
    ],
    ids=[
        "negative-z",
        "row-broken",
        "row-broken-when-scaled",
        "primal-too-large",
        "negative-pi",
        "column-broken",
        "dual-too-small",
    ],
)
def test_broken_duality_certificate_raises(monkeypatch, field, broken, message):
    solve = lpapprox.simplex_min

    def break_certificate(*args):
        result = solve(*args)
        return replace(result, **{field: broken(getattr(result, field))})

    monkeypatch.setattr(lpapprox, "simplex_min", break_certificate)
    with pytest.raises(GuaranteeError, match=message):
        approx2_sds(path(3))


def test_rounded_set_failing_domination_raises(monkeypatch):
    monkeypatch.setattr(lpapprox, "is_sd_set", lambda *args: False)
    with pytest.raises(InvalidSdSetError):
        approx2_sds(path(3))


def test_rounding_beyond_twice_the_bound_raises(monkeypatch):
    g = path(3)  # LP bound 1, so three vertices break the 2x guarantee
    monkeypatch.setattr(
        lpapprox, "round_lp", lambda g, *args, **kw: frozenset(range(g.n))
    )
    with pytest.raises(GuaranteeError):
        approx2_sds(g)


def test_cover_extension_missing_an_edge_raises(monkeypatch):
    g = path(3)
    monkeypatch.setattr(oracle, "is_vertex_cover", lambda *args: False)
    with pytest.raises(GuaranteeError):
        sds_to_vertex_cover(g, blocks_and_cut_vertices(g), {1})


def test_cover_extension_over_the_size_bound_raises(monkeypatch):
    # a tree with every cut vertex a root lists all its blocks as children,
    # so the star's centre joins the cover of {1}, giving 2 > 2 * 1 - 1
    def every_cut_is_a_root(bct, root):
        return {v: (0, -1) for v in bct.cut_blocks}

    g = star(3)
    monkeypatch.setattr(oracle, "is_sd_set", lambda *args: True)
    monkeypatch.setattr(oracle, "root_block_tree", every_cut_is_a_root)
    with pytest.raises(GuaranteeError):
        sds_to_vertex_cover(g, blocks_and_cut_vertices(g), {1})


def test_matching_cover_failing_domination_raises(monkeypatch):
    monkeypatch.setattr(lpapprox, "is_sd_set", lambda *args: False)
    with pytest.raises(InvalidSdSetError):
        approx4_sds_via_vc(path(3))
