"""Two-phase primal simplex over exact rationals, with sparse rows.

Input constraints are all of the form sum(coeffs) >= rhs with
nonnegative variables, which is the only shape the LP builder emits.
Bland's smallest-index rule picks both the entering column and, among
tied minimum ratios, the leaving basic variable, so the method cannot
cycle and every run is deterministic.

Each tableau row, and the objective row, is a {column: rational} dict
holding only its nonzero entries; the right-hand side rides along under
the key one past the last column. A pivot touches only the nonzeros of
the pivot row, and only in rows with a nonzero in the entering column.
Rows of the domination model have two or three nonzeros, so this does
far less arithmetic than a dense tableau while taking the same pivots.

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
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class SimplexResult:
    status: str
    objective: Fraction | None
    values: tuple[Fraction, ...] | None
    pivots: int = 0  # pivots of both phases, degenerate artificials included


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
    """Minimize objective . z subject to each row holding as >= and z >= 0."""
    zero = _rat(0)
    one = _rat(1)
    pivots = 0

    # identical rows constrain nothing twice; drop repeats
    seen: set[tuple] = set()
    unique: list[tuple[Mapping[int, int], int]] = []
    for coeffs, rhs in rows:
        key = (tuple(sorted(coeffs.items())), rhs)
        if key not in seen:
            seen.add(key)
            unique.append((coeffs, rhs))

    nrows = len(unique)
    slack_start = num_vars
    art_start = num_vars + nrows
    art_cols = [art_start + i for i, (_, rhs) in enumerate(unique) if rhs > 0]
    ncols = art_start + len(art_cols)
    # every entering scan stops below ncols, so the RHS key never enters
    rhs_col = ncols

    tableau: list[dict] = []
    basis: list[int] = []
    next_art = art_start
    for i, (coeffs, rhs) in enumerate(unique):
        if rhs > 0:
            row = {j: _rat(a) for j, a in coeffs.items() if a}
            row[slack_start + i] = -one
            row[next_art] = one
            row[rhs_col] = _rat(rhs)
            basis.append(next_art)
            next_art += 1
        else:
            row = {j: -_rat(a) for j, a in coeffs.items() if a}
            row[slack_start + i] = one
            if rhs:
                row[rhs_col] = _rat(-rhs)
            basis.append(slack_start + i)
        tableau.append(row)

    def pivot(r: int, c: int, zrow: dict) -> None:
        nonlocal pivots
        pivots += 1
        prow = tableau[r]
        piv = prow[c]
        if piv != one:
            inv = one / piv
            for j, a in prow.items():
                prow[j] = a * inv
        for i, row in enumerate(tableau):
            if i != r:
                f = row.get(c)
                if f is not None:
                    _subtract_multiple(row, f, prow)
        f = zrow.get(c)
        if f is not None:
            _subtract_multiple(zrow, f, prow)
        basis[r] = c

    def bland(zrow: dict, allowed: int) -> str:
        # allowed caps the entering column index (phase 2 excludes
        # artificial columns without rebuilding the tableau)
        while True:
            enter = min(
                (j for j, a in zrow.items() if j < allowed and a < zero),
                default=-1,
            )
            if enter < 0:
                return OPTIMAL
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
                return UNBOUNDED
            pivot(leave, enter, zrow)

    if art_cols:
        zrow = {j: one for j in range(art_start, ncols)}
        for r in range(nrows):
            if basis[r] >= art_start:
                _subtract_multiple(zrow, one, tableau[r])
        status = bland(zrow, ncols)
        assert status == OPTIMAL, "phase 1 objective is bounded by zero"
        if rhs_col in zrow:
            return SimplexResult(INFEASIBLE, None, None, pivots)
        # degenerate artificials still in the basis: pivot them out on
        # any structural or slack column, or drop the redundant row
        for r in range(nrows - 1, -1, -1):
            if basis[r] < art_start:
                continue
            col = min((j for j in tableau[r] if j < art_start), default=None)
            if col is None:
                del tableau[r]
                del basis[r]
                nrows -= 1
            else:
                pivot(r, col, zrow)

    zrow = {}
    for j in range(num_vars):
        if objective[j]:
            zrow[j] = _rat(objective[j])
    for r in range(nrows):
        cb = zrow.get(basis[r])
        if cb is not None:
            _subtract_multiple(zrow, cb, tableau[r])
    status = bland(zrow, art_start)
    if status == UNBOUNDED:
        return SimplexResult(UNBOUNDED, None, None, pivots)

    values = [Fraction(0)] * num_vars
    for r in range(nrows):
        if basis[r] < num_vars:
            values[basis[r]] = _to_fraction(tableau[r].get(rhs_col, zero))
    return SimplexResult(
        OPTIMAL, _to_fraction(-zrow.get(rhs_col, zero)), tuple(values), pivots
    )
