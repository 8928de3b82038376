import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from simdom.blocks import blocks_and_cut_vertices
from simdom.generators import random_connected_graph
from simdom.lpapprox import build_sds_ip, dual_program, solve_lp_simplex
from simdom.oracle import lp_vertex_enumeration_optimum
from simdom import simplex
from simdom.simplex import DEGENERATE_LIMIT, OPTIMAL, UNBOUNDED, simplex_min

from dense_simplex_reference import dense_simplex_min

# degenerate-pivot limits the comparisons run at: 0 is pure Bland, 2 lets
# the fallback run on small draws, and then the default
LIMITS = (0, 2, DEGENERATE_LIMIT)


def outcome(result):
    return result.status, result.objective, result.values, result.pivots


def both(lp, limit):
    """The sparse method and the dense reference, at one limit."""
    with mock.patch.object(simplex, "DEGENERATE_LIMIT", limit):
        sparse = simplex_min(*lp)
    return sparse, dense_simplex_min(*lp, degenerate_limit=limit)


def assert_same_pivots(lp, limits=LIMITS):
    # status, objective, values and the number of pivots all agree
    for limit in limits:
        sparse, dense = both(lp, limit)
        assert outcome(sparse) == outcome(dense), f"limit {limit}"
        if sparse.status == OPTIMAL:
            assert_duals_certify(*lp, sparse)


def assert_duals_certify(num_vars, objective, rows, result):
    # y >= 0, A^T y <= c and rhs . y == objective: y is dual optimal
    y = result.duals
    assert len(y) == len(rows)
    assert all(v >= 0 for v in y)
    load = [Fraction(0)] * num_vars
    for (coeffs, _), v in zip(rows, y):
        for j, a in coeffs.items():
            load[j] += a * v
    assert all(load[j] <= objective[j] for j in range(num_vars))
    assert sum(rhs * v for (_, rhs), v in zip(rows, y)) == result.objective


# The unit tests below are the dual forms of small covering LPs such as
# min x subject to x >= 3: max 3y subject to y <= 1 is the origin-feasible
# min -3y subject to -y >= -1. Its optimum is minus the covering optimum,
# and its duals are the covering LP's optimal solution.


def test_single_variable_lower_bound():
    res = simplex_min(1, [-3], [({0: -1}, -1)])
    assert res.status == OPTIMAL
    assert res.objective == -3
    assert res.values == (Fraction(1),)
    assert res.duals == (Fraction(3),)


def test_two_variable_covering_model():
    # min x0 + x1 with x0 + x1 >= 1 and 4 x0 >= 1
    rows = [({0: -1, 1: -4}, -1), ({0: -1}, -1)]
    res = simplex_min(2, [-1, -1], rows)
    assert res.status == OPTIMAL
    assert res.objective == -1
    assert sum(res.duals) == 1
    assert 4 * res.duals[0] >= 1


def test_weighted_objective():
    # min 3 x0 + x1 with x0 + x1 >= 2: put the weight on the cheap column
    res = simplex_min(1, [-2], [({0: -1}, -3), ({0: -1}, -1)])
    assert res.status == OPTIMAL
    assert res.objective == -2
    assert res.values == (Fraction(1),)
    assert res.duals == (Fraction(0), Fraction(2))


def test_fractional_optimum_is_exact():
    # the three pairwise rows of a triangle relaxation; each column of the
    # dual is a vertex, each dual variable an edge
    rows = [({0: -1, 2: -1}, -1), ({0: -1, 1: -1}, -1), ({1: -1, 2: -1}, -1)]
    res = simplex_min(3, [-1, -1, -1], rows)
    assert res.status == OPTIMAL
    assert res.objective == Fraction(-3, 2)
    assert all(v == Fraction(1, 2) for v in res.values)
    assert all(v == Fraction(1, 2) for v in res.duals)


def test_redundant_and_duplicate_rows():
    # max y0 + y1 + y2 subject to a repeated row, its double, and a
    # row that is already implied
    rows = [
        ({0: -1, 1: -1, 2: -2}, -1),
        ({0: -1, 1: -1, 2: -2}, -1),
        ({0: -2, 1: -2, 2: -4}, -2),
        ({0: -1}, 0),
        ({0: -1, 1: -1}, -5),
    ]
    res = simplex_min(3, [-1, -1, -1], rows)
    assert res.status == OPTIMAL
    assert res.objective == -1
    assert_duals_certify(3, [-1, -1, -1], rows, res)


def test_positive_rhs_is_rejected():
    # x >= 1 is not feasible at the origin: it needs a phase 1
    with pytest.raises(ValueError, match="rhs"):
        simplex_min(1, [1], [({0: 1}, 1)])
    with pytest.raises(ValueError, match="row 1"):
        simplex_min(1, [1], [({0: 1}, 0), ({0: -1}, 2)])


def test_unbounded_detected():
    res = simplex_min(1, [-1], [({0: 1}, 0)])
    assert res.status == UNBOUNDED
    assert res.duals is None


def test_zero_objective_still_finds_a_feasible_point():
    # min 0 with x0 + x1 >= 5: the dual max 5y subject to y <= 0 twice
    rows = [({0: -1}, 0), ({0: -1}, 0)]
    res = simplex_min(1, [-5], rows)
    assert res.status == OPTIMAL
    assert res.objective == 0
    assert sum(res.duals) >= 5
    assert_duals_certify(1, [-5], rows, res)


def test_matches_vertex_enumeration_on_domination_models():
    # the plane-subset oracle is combinatorial, so it only covers tiny models
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(2, 4)
        m = rng.randint(n - 1, n * (n - 1) // 2)
        g = random_connected_graph(n, m, seed=rng.randint(0, 10**6))
        bct = blocks_and_cut_vertices(g)
        model = build_sds_ip(g, bct)
        sol = solve_lp_simplex(model)
        assert sol.objective == lp_vertex_enumeration_optimum(model)


def test_pivots_are_counted():
    # x0 enters once and the slack basis gives way
    assert simplex_min(1, [-1], [({0: -1}, -2)]).pivots == 1
    # the slack basis is already optimal
    assert simplex_min(1, [1], [({0: -1}, -2)]).pivots == 0
    # a degenerate pivot counts too
    assert simplex_min(1, [-1], [({0: -1}, 0), ({0: -1}, -1)]).pivots == 1


@st.composite
def ge_lps(draw, bound=3, degenerate=False):
    """Random min c.z, rows >= rhs <= 0, z >= 0, with repeated rows mixed in.

    Repeats, doubled rows and negated rows with rhs 0 (which pin a row
    to equality) all make ties in the ratio test and degenerate pivots.
    Objective and row coefficients lie in [-bound, bound] and
    right-hand sides in [-bound, 0]. With ``degenerate``, there are up
    to 7 variables and 10 drawn rows and most right-hand sides are 0,
    so most pivots are degenerate and runs of them grow longer.
    """
    num_vars = draw(st.integers(1, 7 if degenerate else 5))
    rhs = st.integers(-bound, 0)
    if degenerate:
        rhs = st.one_of(st.just(0), st.just(0), st.just(0), rhs)
    row = st.tuples(
        st.dictionaries(
            st.integers(0, num_vars - 1),
            st.integers(-bound, bound),
            max_size=num_vars,
        ),
        rhs,
    )
    rows = draw(st.lists(row, min_size=1, max_size=10 if degenerate else 7))
    repeat = st.tuples(st.sampled_from(rows), st.sampled_from((1, 2, -1)))
    rows += [
        ({j: k * a for j, a in coeffs.items()}, k * rhs)
        for (coeffs, rhs), k in draw(st.lists(repeat, max_size=3))
        if k * rhs <= 0
    ]
    rows = draw(st.permutations(rows))
    objective = draw(
        st.lists(
            st.integers(-bound, bound), min_size=num_vars, max_size=num_vars
        )
    )
    return num_vars, objective, rows


@settings(max_examples=400, deadline=None)
@given(ge_lps())
def test_sparse_pivots_match_dense_reference(lp):
    assert_same_pivots(lp)


@settings(max_examples=400, deadline=None)
@given(ge_lps(bound=9))
def test_sparse_pivots_match_dense_reference_wide_coefficients(lp):
    # non-unit pivots and rows with common factors exercise the integer
    # rows' denominators and gcd reduction against the Fraction reference
    assert_same_pivots(lp)


@settings(max_examples=400, deadline=None)
@given(ge_lps(degenerate=True))
def test_sparse_pivots_match_dense_reference_degenerate(lp):
    # long degenerate runs, so Bland's rule takes over in some draws
    assert_same_pivots(lp, (1, 2))


@pytest.mark.parametrize(
    "case, draws",
    [(UNBOUNDED, ge_lps()), ("bland-fallback", ge_lps(degenerate=True))],
    ids=[UNBOUNDED, "bland-fallback"],
)
def test_reference_draws_reach_every_case(case, draws):
    limit = 2

    def hits(lp):
        cases = set()
        result = dense_simplex_min(*lp, cases, degenerate_limit=limit)
        return case in cases | {result.status}

    quick = settings(
        max_examples=2000, database=None, phases=[Phase.generate], derandomize=True
    )
    assert_same_pivots(find(draws, hits, settings=quick), (limit,))


def test_sparse_pivots_match_dense_reference_on_domination_models():
    rng = random.Random(41)
    for n in (20, 27, 34, 40):
        g = random_connected_graph(
            n, rng.randint(n - 1, 2 * n), seed=rng.randint(0, 10**6)
        )
        model = build_sds_ip(g, blocks_and_cut_vertices(g))
        args = dual_program(model)
        assert simplex_min(*args).status == OPTIMAL
        assert_same_pivots(args)


def test_objective_matches_highs_on_larger_models():
    optimize = pytest.importorskip("scipy.optimize")
    rng = random.Random(43)
    for _ in range(20):
        n = rng.randint(20, 60)
        g = random_connected_graph(
            n, rng.randint(n - 1, 2 * n), seed=rng.randint(0, 10**6)
        )
        bct = blocks_and_cut_vertices(g)
        model = build_sds_ip(g, bct)
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
        # each y at the least x over its block neighbourhood, as the
        # rounding reads it
        near = bct.cut_neighbours
        z = list(exact.x) + [min(exact.x[u] for u in near[key]) for key in model.y_keys]
        assert all(v >= 0 for v in z)
        for row in model.rows:
            assert sum(a * z[j] for j, a in row.coeffs.items()) >= row.rhs
