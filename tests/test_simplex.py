import math
import random
from fractions import Fraction

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from dense_simplex_reference import dense_simplex_min
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


def test_pivots_are_counted_in_both_phases():
    # phase 1 enters x0 for the artificial; phase 2 is already optimal
    assert simplex_min(1, [1], [({0: 1}, 3)]).pivots == 1
    # no artificial: only the phase 2 pivot that makes x0 basic
    assert simplex_min(1, [-1], [({0: -1}, -2)]).pivots == 1
    assert simplex_min(1, [1], [({0: 1}, 0)]).pivots == 0


@st.composite
def ge_lps(draw):
    """Random min c.z, rows >= rhs, z >= 0, with repeated rows mixed in.

    Exact repeats exercise the removal of duplicate rows. Doubled rows
    survive it, and negated ones pin a row to equality; both lead phase 1
    to end with an artificial variable basic at zero.
    """
    num_vars = draw(st.integers(1, 5))
    row = st.tuples(
        st.dictionaries(
            st.integers(0, num_vars - 1), st.integers(-3, 3), max_size=num_vars
        ),
        st.integers(-3, 3),
    )
    rows = draw(st.lists(row, min_size=1, max_size=7))
    repeat = st.tuples(st.sampled_from(rows), st.sampled_from((1, 2, -1)))
    rows += [
        ({j: k * a for j, a in coeffs.items()}, k * rhs)
        for (coeffs, rhs), k in draw(st.lists(repeat, max_size=3))
    ]
    rows = draw(st.permutations(rows))
    objective = draw(
        st.lists(st.integers(-3, 3), min_size=num_vars, max_size=num_vars)
    )
    return num_vars, objective, rows


@settings(max_examples=400, deadline=None)
@given(ge_lps())
def test_sparse_pivots_match_dense_reference(lp):
    # status, objective, values and the number of Bland pivots all agree
    assert simplex_min(*lp) == dense_simplex_min(*lp)


@pytest.mark.parametrize("case", [INFEASIBLE, UNBOUNDED, "degenerate-artificial"])
def test_reference_draws_reach_every_case(case):
    def hits(lp):
        cases: set[str] = set()
        result = dense_simplex_min(*lp, cases=cases)
        return case in cases or result.status == case

    quick = settings(
        max_examples=2000, database=None, phases=[Phase.generate], derandomize=True
    )
    lp = find(ge_lps(), hits, settings=quick)
    assert simplex_min(*lp) == dense_simplex_min(*lp)


def test_sparse_pivots_match_dense_reference_on_domination_models():
    rng = random.Random(41)
    for n in (20, 27, 34, 40):
        g = random_connected_graph(
            n, rng.randint(n - 1, 2 * n), seed=rng.randint(0, 10**6)
        )
        model = build_sds_ip(g, blocks_and_cut_vertices(g), integral=False)
        args = (
            model.num_cols,
            [1] * model.n + [0] * len(model.y_keys),
            [(row.coeffs, row.rhs) for row in model.rows],
        )
        sparse = simplex_min(*args)
        assert sparse.status == OPTIMAL
        assert sparse == dense_simplex_min(*args)


def test_objective_matches_highs_on_larger_models():
    optimize = pytest.importorskip("scipy.optimize")
    rng = random.Random(43)
    for _ in range(20):
        n = rng.randint(20, 60)
        g = random_connected_graph(
            n, rng.randint(n - 1, 2 * n), seed=rng.randint(0, 10**6)
        )
        model = build_sds_ip(g, blocks_and_cut_vertices(g), integral=False)
        a_ub = [[0] * model.num_cols for _ in model.rows]
        for i, row in enumerate(model.rows):
            for j, a in row.coeffs.items():
                a_ub[i][j] = -a
        highs = optimize.linprog(
            [1] * model.n + [0] * len(model.y_keys),
            A_ub=a_ub,
            b_ub=[-row.rhs for row in model.rows],
            bounds=(0, None),
            method="highs",
        )
        assert highs.status == 0
        exact = solve_lp_simplex(model)
        # HiGHS is a floating-point solver: compare at its own tolerance
        assert math.isclose(
            float(exact.objective), highs.fun, rel_tol=1e-7, abs_tol=1e-7
        )
        z = list(exact.x) + [exact.y[key] for key in model.y_keys]
        assert all(v >= 0 for v in z)
        for row in model.rows:
            assert sum(a * z[j] for j, a in row.coeffs.items()) >= row.rhs
