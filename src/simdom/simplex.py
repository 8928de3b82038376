"""One-phase primal simplex over exact rationals, with sparse rows.

Input constraints are all of the form sum(coeffs) >= rhs with rhs <= 0
and nonnegative variables, so the slack basis is feasible and one run of
Bland's rule solves the program; lpapprox passes the dual of the LP
relaxation, which has this shape. Bland's smallest-index rule picks both
the entering column and, among tied minimum ratios, the leaving basic
variable, so the method cannot cycle and every run is deterministic. At
an optimum the objective row's entries in the slack columns solve the
dual program, max rhs . y subject to A^T y <= objective and y >= 0, and
are returned as `duals`.

Each tableau row, and the objective row, is a {column: rational} dict
holding only its nonzero entries; the right-hand side rides along under
the key one past the last column. A pivot touches only the nonzeros of
the pivot row, and only in rows with a nonzero in the entering column.
The LP builder's rows are short, so this does far less arithmetic than
a dense tableau while taking the same pivots.

Arithmetic uses gmpy2 rationals when that package is installed and
falls back to fractions.Fraction; results are identical either way and
are returned as Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

try:
    from gmpy2 import mpq as _rat
except ImportError:  # pragma: no cover - environment without gmpy2
    _rat = Fraction

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class SimplexResult:
    status: str
    objective: Fraction | None
    values: tuple[Fraction, ...] | None
    pivots: int = 0
    duals: tuple[Fraction, ...] | None = None  # one per input row


def _to_fraction(q) -> Fraction:
    return Fraction(int(q.numerator), int(q.denominator))


def _subtract_multiple(row: dict, f, prow: dict) -> None:
    """row -= f * prow over the nonzeros of prow; cancelled entries go."""
    nf = -f
    for j, b in prow.items():
        d = nf * b
        a = row.get(j)
        if a is None:
            row[j] = d
        else:
            a += d
            if a:
                row[j] = a
            else:
                del row[j]


def simplex_min(
    num_vars: int,
    objective: Sequence[int],
    rows: Sequence[tuple[Mapping[int, int], int]],
) -> SimplexResult:
    """Minimize objective . z subject to each row holding as >= and z >= 0.

    Every rhs must be <= 0, so that z = 0 is feasible; a row with a
    positive rhs raises ValueError.
    """
    zero = _rat(0)
    one = _rat(1)
    pivots = 0
    slack_start = num_vars
    # every entering scan stops below rhs_col, so the RHS key never enters
    rhs_col = num_vars + len(rows)

    tableau: list[dict] = []
    for i, (coeffs, rhs) in enumerate(rows):
        if rhs > 0:
            raise ValueError(f"row {i} has rhs {rhs} > 0: z = 0 is not feasible")
        row = {j: -_rat(a) for j, a in coeffs.items() if a}
        row[slack_start + i] = one
        if rhs:
            row[rhs_col] = _rat(-rhs)
        tableau.append(row)
    basis = list(range(slack_start, rhs_col))
    # the slack basis costs nothing, so the costs are the reduced costs
    zrow = {j: _rat(c) for j, c in enumerate(objective) if c}

    while True:
        enter = min(
            (j for j, a in zrow.items() if j < rhs_col and a < zero), default=-1
        )
        if enter < 0:
            break
        leave = -1
        best = None
        for r, row in enumerate(tableau):
            a = row.get(enter)
            if a is not None and a > zero:
                ratio = row.get(rhs_col, zero) / a
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[r] < basis[leave])
                ):
                    best = ratio
                    leave = r
        if leave < 0:
            return SimplexResult(UNBOUNDED, None, None, pivots)
        pivots += 1
        prow = tableau[leave]
        piv = prow[enter]
        if piv != one:
            inv = one / piv
            for j, a in prow.items():
                prow[j] = a * inv
        for r, row in enumerate(tableau):
            if r != leave:
                f = row.get(enter)
                if f is not None:
                    _subtract_multiple(row, f, prow)
        _subtract_multiple(zrow, zrow[enter], prow)
        basis[leave] = enter

    values = [Fraction(0)] * num_vars
    for r, j in enumerate(basis):
        if j < num_vars:
            values[j] = _to_fraction(tableau[r].get(rhs_col, zero))
    duals = tuple(
        _to_fraction(zrow.get(j, zero)) for j in range(slack_start, rhs_col)
    )
    return SimplexResult(
        OPTIMAL,
        _to_fraction(-zrow.get(rhs_col, zero)),
        tuple(values),
        pivots,
        duals,
    )
