"""Integer/linear programming route to simultaneous domination.

The model has one x-variable per vertex and one y-variable per
(cut vertex, block) pair. Non-cut vertices contribute edge rows like a
vertex cover; cut vertices are covered blockwise: y_{v,B} may only rise
to 1 when every block neighbour is picked, and some block (or v itself)
must cover v. Rounding the LP relaxation in three steps yields a
2-approximation. The rounding keeps only x, as each y it needs is the
least x over a block neighbourhood, and its optional checks read the
rows the model itself builds. Extending any SD-set by busy cut
vertices yields a vertex cover of size at most 2|S| - 1
(oracle.sds_to_vertex_cover checks it), so the matching cover, itself
an SD-set, is a 4-approximation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .blocks import BlockCutTree, blocks_and_cut_vertices, root_block_tree
from .domination import is_sd_set
from .errors import GuaranteeError, InvalidSdSetError
from .graph import Graph
from .simplex import OPTIMAL, simplex_min
from .vertexcover import matching_2approx_vc

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class LpRow:
    kind: str  # "adjacent-pair" | "block-neighbour" | "cut-cover"
    coeffs: dict[int, int]
    rhs: int
    about: tuple[int, ...]


@dataclass(frozen=True)
class LpModel:
    """Columns 0..n-1 are x-variables; y-variables follow in y_keys order."""

    n: int
    y_keys: tuple[tuple[int, int], ...]
    rows: tuple[LpRow, ...]

    @property
    def num_cols(self) -> int:
        return self.n + len(self.y_keys)


@dataclass(frozen=True)
class LpSolution:
    status: str
    objective: Fraction
    x: tuple[Fraction, ...]
    y: dict[tuple[int, int], Fraction]


def build_sds_ip(g: Graph, bct: BlockCutTree) -> LpModel:
    """The domination model: its rows with 0/1 variables are the integer
    program, and with 0 <= z they are the LP relaxation.

    Rows: x_u + x_v >= 1 once for each edge uv with a non-cut end,
    about (v, u) with v the smaller non-cut end; then one
    block-neighbour row per (cut v, block, block neighbour); then one
    cut-cover row per cut vertex. Each group is sorted by vertex index.
    An edge with two non-cut ends would otherwise give the same pair row
    twice, which only adds a duplicate column to the dual.
    """
    cut_blocks = bct.cut_blocks
    near = bct.cut_neighbours
    y_keys = list(near)
    col_of = {key: g.n + i for i, key in enumerate(y_keys)}

    rows: list[LpRow] = []
    for v, row in enumerate(g.nbrs):
        if v in cut_blocks:
            continue
        for u in row:
            if u < v and u not in cut_blocks:
                continue  # given as (u, v) already
            rows.append(
                LpRow("adjacent-pair", {u: 1, v: 1}, 1, (v, u))
            )
    for (v, b), us in near.items():
        col = col_of[(v, b)]
        for u in us:
            rows.append(LpRow("block-neighbour", {u: 1, col: -1}, 0, (v, b, u)))
    for v, blocks in cut_blocks.items():
        coeffs = {col_of[(v, b)]: 1 for b in blocks}
        coeffs[v] = 1
        rows.append(LpRow("cut-cover", coeffs, 1, (v,)))
    return LpModel(g.n, tuple(y_keys), tuple(rows))


def dual_program(
    m: LpModel,
) -> tuple[int, list[int], list[tuple[dict[int, int], int]]]:
    """simplex_min's arguments for the dual of the relaxation.

    The relaxation is min c . z subject to A z >= b and z >= 0, with c
    one on x-columns and zero on y-columns, and b in {0, 1}. Its dual,
    max b . pi subject to A^T pi <= c and pi >= 0, is passed as the rows
    -A^T pi >= -c, whose right-hand sides are all <= 0.
    """
    cols: list[dict[int, int]] = [{} for _ in range(m.num_cols)]
    for i, row in enumerate(m.rows):
        for j, a in row.coeffs.items():
            cols[j][i] = -a
    return (
        len(m.rows),
        [-row.rhs for row in m.rows],
        [(col, -1 if j < m.n else 0) for j, col in enumerate(cols)],
    )


def _broken_row(
    rows: tuple[LpRow, ...], z: Sequence[int | Fraction], scale: int = 1
) -> LpRow | None:
    """The first row that the point z / scale breaks, or None."""
    for row in rows:
        if sum(a * z[j] for j, a in row.coeffs.items()) < row.rhs * scale:
            return row
    return None


def solve_lp_simplex(m: LpModel) -> LpSolution:
    """Optimal basic solution of the relaxation, exactly, via its dual.

    The simplex solves the dual in one phase from pi = 0, and z is read
    off its final objective row. The answer is certified by duality: z
    and pi are feasible and their objectives are equal, so both are
    optimal. The checks run in integers: z, pi and the bound are scaled
    by the lcm of their denominators.
    """
    num_pi, neg_b, dual_rows = dual_program(m)
    result = simplex_min(num_pi, neg_b, dual_rows)
    if result.status != OPTIMAL:
        raise GuaranteeError(f"the model family is never {result.status}")
    z, pi, bound = result.duals, result.values, -result.objective
    scale = bound.denominator
    for v in (*z, *pi):
        scale = lcm(scale, v.denominator)
    zs = [v.numerator * (scale // v.denominator) for v in z]
    pis = [v.numerator * (scale // v.denominator) for v in pi]
    bound_s = bound.numerator * (scale // bound.denominator)
    if any(v < 0 for v in zs) or any(p < 0 for p in pis):
        raise GuaranteeError("relaxation or dual value below zero")
    row = _broken_row(m.rows, zs, scale)
    if row is not None:
        raise GuaranteeError(f"relaxation breaks {row.kind} row {row.about}")
    for j, (col, rhs) in enumerate(dual_rows):
        if sum(a * pis[i] for i, a in col.items() if pis[i]) < rhs * scale:
            raise GuaranteeError(f"dual breaks the row of column {j}")
    b_pi = sum(row.rhs * p for row, p in zip(m.rows, pis))
    if sum(zs[: m.n]) != bound_s or b_pi != bound_s:
        raise GuaranteeError("relaxation and dual objectives differ")
    return LpSolution(
        status=result.status,
        objective=bound,
        x=tuple(z[: m.n]),
        y={key: z[m.n + i] for i, key in enumerate(m.y_keys)},
    )


def round_lp(
    g: Graph,
    bct: BlockCutTree,
    sol: LpSolution,
    *,
    check_feasibility: bool = False,
) -> frozenset[int]:
    """Three rounding steps turning an LP optimum into an SD-set.

    Step 1 rounds every x >= 1/2 up. Step 2 walks cut vertices
    bottom-up: one not yet covered by itself or a full block (a block
    whose neighbours of it are all at 1) is set to 1, paying for it by
    zeroing the cheapest fractional neighbour in each child block.
    Step 3 zeroes the remaining fractionals. Variables that reach 1 are
    never decreased again. Only x is kept: each y of the model is the
    least x over its block neighbourhood, so a block covers v exactly
    when y is 1. With ``check_feasibility``, the model's rows are
    checked at (x, y) after every step.
    """
    if any(xv > 1 for xv in sol.x):
        raise GuaranteeError("relaxation optimum exceeds the box x <= 1")
    x = [Fraction(1) if xv >= HALF else xv for xv in sol.x]
    near = bct.cut_neighbours
    if check_feasibility:
        model = build_sds_ip(g, bct)

        def check(x: list[Fraction], stage: str) -> None:
            y = [min(x[u] for u in near[key]) for key in model.y_keys]
            row = _broken_row(model.rows, x + y)
            if row is not None:
                raise GuaranteeError(f"{stage}: {row.kind} row {row.about} broken")

        check(x, "after first rounding")

    cut_blocks = bct.cut_blocks
    if cut_blocks:
        tree = root_block_tree(bct, ("cut", next(iter(cut_blocks))))
        for v in sorted(cut_blocks, key=lambda v: (-tree[v][0], v)):
            if x[v] == 1 or any(
                all(x[u] == 1 for u in near[(v, b)]) for b in cut_blocks[v]
            ):
                continue
            x[v] = Fraction(1)
            parent = tree[v][1]
            for b in cut_blocks[v]:
                if b == parent:
                    continue
                u = min(near[(v, b)], key=lambda w: (x[w], w))
                if x[u] >= 1:
                    raise GuaranteeError("argmin picked an integral variable")
                x[u] = Fraction(0)
            if check_feasibility:
                check(x, f"after rounding cut vertex {v}")

    out = frozenset(v for v in range(g.n) if x[v] == 1)
    if check_feasibility:
        check([Fraction(v in out) for v in range(g.n)], "after third rounding")
    if not is_sd_set(g, bct, out):
        raise InvalidSdSetError("rounded set fails the domination check")
    return out


def approx2_sds(g: Graph) -> tuple[frozenset[int], Fraction]:
    """LP-rounding approximation; returns the set and the LP lower bound."""
    bct = blocks_and_cut_vertices(g)
    model = build_sds_ip(g, bct)
    sol = solve_lp_simplex(model)
    rounded = round_lp(g, bct, sol)
    if len(rounded) > 2 * sol.objective:
        raise GuaranteeError("rounding exceeded the 2x guarantee")
    return rounded, sol.objective


def approx4_sds_via_vc(g: Graph) -> frozenset[int]:
    """The matching-based vertex cover, which is itself an SD-set."""
    out = matching_2approx_vc(g)
    bct = blocks_and_cut_vertices(g)
    if not is_sd_set(g, bct, out):
        raise InvalidSdSetError("matching cover fails the domination check")
    return out
