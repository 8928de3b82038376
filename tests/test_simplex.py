import random
from fractions import Fraction

from simdom.blocks import blocks_and_cut_vertices
from simdom.generators import random_connected_graph
from simdom.lpapprox import build_sds_ip, solve_lp_simplex
from simdom.oracle import lp_vertex_enumeration_optimum
from simdom.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, simplex_min


def test_single_variable_lower_bound():
    res = simplex_min(1, [1], [({0: 1}, 3)])
    assert res.status == OPTIMAL
    assert res.objective == 3
    assert res.values == (Fraction(3),)


def test_two_variable_covering_model():
    # min x + y with x + y >= 1, x >= 1/4 scaled as 4x >= 1
    res = simplex_min(2, [1, 1], [({0: 1, 1: 1}, 1), ({0: 4}, 1)])
    assert res.status == OPTIMAL
    assert res.objective == 1


def test_weighted_objective():
    # min 3x + y with x + y >= 2: put the weight on the cheap column
    res = simplex_min(2, [3, 1], [({0: 1, 1: 1}, 2)])
    assert res.status == OPTIMAL
    assert res.objective == 2
    assert res.values == (Fraction(0), Fraction(2))


def test_fractional_optimum_is_exact():
    # the three pairwise constraints of a triangle relaxation
    rows = [({0: 1, 1: 1}, 1), ({1: 1, 2: 1}, 1), ({0: 1, 2: 1}, 1)]
    res = simplex_min(3, [1, 1, 1], rows)
    assert res.status == OPTIMAL
    assert res.objective == Fraction(3, 2)
    assert all(v == Fraction(1, 2) for v in res.values)


def test_redundant_and_duplicate_rows():
    rows = [({0: 1}, 1), ({0: 1}, 1), ({0: 2}, 1), ({0: 1}, 0)]
    res = simplex_min(1, [1], rows)
    assert res.status == OPTIMAL
    assert res.objective == 1


def test_infeasible_detected():
    # -x >= 1 cannot hold with x >= 0
    res = simplex_min(1, [1], [({0: -1}, 1)])
    assert res.status == INFEASIBLE
    assert res.objective is None


def test_unbounded_detected():
    res = simplex_min(1, [-1], [({0: 1}, 0)])
    assert res.status == UNBOUNDED


def test_zero_objective_still_finds_a_feasible_point():
    res = simplex_min(2, [0, 0], [({0: 1, 1: 1}, 5)])
    assert res.status == OPTIMAL
    assert res.objective == 0
    assert sum(res.values) >= 5


def test_matches_vertex_enumeration_on_domination_models():
    # the plane-subset oracle is combinatorial, so it only covers tiny models
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(2, 4)
        m = rng.randint(n - 1, n * (n - 1) // 2)
        g = random_connected_graph(n, m, seed=rng.randint(0, 10**6))
        bct = blocks_and_cut_vertices(g)
        model = build_sds_ip(g, bct, integral=False)
        sol = solve_lp_simplex(model)
        assert sol.objective == lp_vertex_enumeration_optimum(model)
