"""One-phase primal simplex in exact integer arithmetic, with sparse rows.

Input constraints are all of the form sum(coeffs) >= rhs with rhs <= 0
and nonnegative variables, so the slack basis is feasible and one run
of the primal simplex solves the program; lpapprox passes the dual of
the LP relaxation, which has this shape. At an optimum the objective
row's entries in the slack columns solve the dual program, max rhs . y
subject to A^T y <= objective and y >= 0, and are returned as `duals`.

Pricing is Dantzig's rule: the entering column has the most negative
reduced cost, the smallest index among ties. The objective row has one
denominator, so this compares its integer numerators. The leaving row
has the minimum ratio, the smallest basic index among ties. A pivot
whose leaving row has rhs 0 is degenerate: it moves to another basis of
the same vertex and leaves the objective unchanged, and Dantzig's rule
alone can cycle through such bases. So after DEGENERATE_LIMIT
degenerate pivots in a row, Bland's smallest-index rule picks the
entering column until the next non-degenerate pivot. Every run ends:
a non-degenerate pivot strictly lowers the objective, so no basis comes
back after one, and Bland's rule (Bland 1977) cannot cycle, so each
stretch of degenerate pivots is finite. With DEGENERATE_LIMIT = 0 every
pivot follows Bland's rule. Every run is deterministic.

Each tableau row, and the objective row, is a {column: int} dict holding
only its nonzero numerators, over a positive integer denominator of its
own; the right-hand side rides along under the key one past the last
column. The elimination is fraction-free, after Edmonds and Bareiss, but
with one denominator per row instead of one shared determinant: a pivot
takes the pivot entry as the pivot row's denominator, rewrites each row
with a nonzero in the entering column as (row * p - f * prow) / (d * p),
and divides that row by the gcd of its numerators and denominator. Rows
without an entry in the entering column are not touched, and all
arithmetic is on Python ints. Signs and ratio comparisons need no
division, since denominators are positive and cancel, so the method
takes exactly the pivots of the same simplex over rationals. Results
are returned as Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Mapping, Sequence

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
# degenerate pivots in a row after which Bland's rule prices
DEGENERATE_LIMIT = 50


@dataclass(frozen=True)
class SimplexResult:
    status: str
    objective: Fraction | None
    values: tuple[Fraction, ...] | None
    pivots: int = 0
    duals: tuple[Fraction, ...] | None = None  # one per input row


def _eliminate(row: dict, den: int, enter: int, prow: dict, p: int) -> int:
    """Rewrite row/den as row/den - (row[enter]/den) * prow/p, in place.

    prow/p holds 1 in the entering column, so that entry cancels. The
    row is left in lowest terms and its new denominator is returned.
    """
    f = row[enter]
    if p != 1:
        for j in row:
            row[j] *= p
        den *= p
    for j, b in prow.items():
        if j in row:
            a = row[j] - f * b
            if a:
                row[j] = a
            else:
                del row[j]
        else:
            row[j] = -f * b
    # pair by pair, most rows reach a gcd of 1 within a few entries
    g = den
    for a in row.values():
        g = gcd(g, a)
        if g == 1:
            return den
    for j in row:
        row[j] //= g
    return den // g


def simplex_min(
    num_vars: int,
    objective: Sequence[int],
    rows: Sequence[tuple[Mapping[int, int], int]],
) -> SimplexResult:
    """Minimize objective . z subject to each row holding as >= and z >= 0.

    Every rhs must be <= 0, so that z = 0 is feasible; a row with a
    positive rhs raises ValueError.
    """
    pivots = 0
    slack_start = num_vars
    rhs_col = num_vars + len(rows)

    tableau: list[dict[int, int]] = []
    for i, (coeffs, rhs) in enumerate(rows):
        if rhs > 0:
            raise ValueError(f"row {i} has rhs {rhs} > 0: z = 0 is not feasible")
        row = {j: -a for j, a in coeffs.items() if a}
        row[slack_start + i] = 1
        if rhs:
            row[rhs_col] = -rhs
        tableau.append(row)
    dens = [1] * len(tableau)
    basis = list(range(slack_start, rhs_col))
    # the slack basis costs nothing, so the costs are the reduced costs
    zrow = {j: c for j, c in enumerate(objective) if c}
    zden = 1

    limit = DEGENERATE_LIMIT
    degenerate = 0
    while True:
        # the objective never rises from 0, so the objective row's RHS
        # entry is never negative and never enters
        if degenerate < limit:
            cost, enter = min(zip(zrow.values(), zrow.keys()), default=(0, -1))
            if cost >= 0:
                break
        else:
            enter = min((j for j, a in zrow.items() if a < 0), default=-1)
            if enter < 0:
                break
        # minimum rhs/a over rows with a > 0; a row's denominator cancels
        leave = -1
        best_rhs = best_a = 0
        for r, row in enumerate(tableau):
            a = row.get(enter)
            if a is not None and a > 0:
                rhs = row.get(rhs_col, 0)
                lhs, other = rhs * best_a, best_rhs * a
                if (
                    leave < 0
                    or lhs < other
                    or (lhs == other and basis[r] < basis[leave])
                ):
                    best_rhs, best_a, leave = rhs, a, r
        if leave < 0:
            return SimplexResult(UNBOUNDED, None, None, pivots)
        pivots += 1
        degenerate = degenerate + 1 if best_rhs == 0 else 0
        # dividing the pivot row by its entry p only makes p its
        # denominator; the row stays in lowest terms, as its entries have
        # no common factor: its basic column holds its old denominator
        prow = tableau[leave]
        p = prow[enter]
        dens[leave] = p
        for r, row in enumerate(tableau):
            if r != leave and enter in row:
                dens[r] = _eliminate(row, dens[r], enter, prow, p)
        zden = _eliminate(zrow, zden, enter, prow, p)
        basis[leave] = enter

    values = [Fraction(0)] * num_vars
    for r, j in enumerate(basis):
        if j < num_vars:
            values[j] = Fraction(tableau[r].get(rhs_col, 0), dens[r])
    duals = tuple(Fraction(zrow.get(j, 0), zden) for j in range(slack_start, rhs_col))
    return SimplexResult(
        OPTIMAL, Fraction(-zrow.get(rhs_col, 0), zden), tuple(values), pivots, duals
    )
