"""The dense-tableau simplex, kept as a test-only reference.

This is `simdom.simplex.simplex_min` as it was before its rows became
sparse, copied line for line, over `fractions.Fraction`. It keeps its
own rational helpers and infeasible status, so it shares no arithmetic
with the integer-row method it checks. Phase 1 prices by Bland's rule.
Phase 2 prices as the sparse method does, by its own code: the most
negative reduced cost enters, the smallest index among ties, and after
``degenerate_limit`` degenerate pivots in a row (ratio 0) Bland's rule
enters until the next non-degenerate pivot; a limit of 0 is pure
Bland. Added to the copy are the pivot counter, so the tests can check
that the sparse method takes the very same pivots and not just reaches
the same optimum, and the optional ``cases`` set, so the tests can
check that their draws reach two branches. The run records
"degenerate-artificial" when phase 1 ends with an artificial variable
basic at zero, and "bland-fallback" when, under a positive limit,
Bland's rule enters a column that Dantzig's rule would not.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from simdom.simplex import OPTIMAL, UNBOUNDED, SimplexResult

# phase 1 reports this status; rows feasible at the origin never reach it
INFEASIBLE = "infeasible"
_rat = Fraction


def _to_fraction(q) -> Fraction:
    return Fraction(int(q.numerator), int(q.denominator))


def dense_simplex_min(
    num_vars: int,
    objective: Sequence[int],
    rows: Sequence[tuple[Mapping[int, int], int]],
    cases: set[str] | None = None,
    *,
    degenerate_limit: int,
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

    tableau: list[list] = []
    basis: list[int] = []
    next_art = art_start
    for i, (coeffs, rhs) in enumerate(unique):
        row = [zero] * (ncols + 1)
        if rhs > 0:
            for j, a in coeffs.items():
                row[j] = _rat(a)
            row[slack_start + i] = -one
            row[next_art] = one
            row[-1] = _rat(rhs)
            basis.append(next_art)
            next_art += 1
        else:
            for j, a in coeffs.items():
                row[j] = -_rat(a)
            row[slack_start + i] = one
            row[-1] = _rat(-rhs)
            basis.append(slack_start + i)
        tableau.append(row)

    def pivot(r: int, c: int, zrow: list) -> None:
        nonlocal pivots
        pivots += 1
        prow = tableau[r]
        piv = prow[c]
        if piv != one:
            inv = one / piv
            tableau[r] = prow = [a * inv for a in prow]
        for i, row in enumerate(tableau):
            if i != r and row[c] != zero:
                f = row[c]
                tableau[i] = [a - f * b for a, b in zip(row, prow)]
        if zrow[c] != zero:
            f = zrow[c]
            zrow[:] = [a - f * b for a, b in zip(zrow, prow)]
        basis[r] = c

    def price(zrow: list, allowed: int, limit: int) -> str:
        # allowed caps the entering column index (phase 2 excludes
        # artificial columns without rebuilding the tableau)
        degenerate = 0
        while True:
            negative = [j for j in range(allowed) if zrow[j] < zero]
            if not negative:
                return OPTIMAL
            # min returns the first, so the smallest index, of equal costs
            dantzig = min(negative, key=lambda j: zrow[j])
            if degenerate < limit:
                enter = dantzig
            else:
                enter = negative[0]
                if limit > 0 and enter != dantzig and cases is not None:
                    cases.add("bland-fallback")
            leave = -1
            best = None
            for r in range(nrows):
                a = tableau[r][enter]
                if a > zero:
                    ratio = tableau[r][-1] / a
                    if (
                        best is None
                        or ratio < best
                        or (ratio == best and basis[r] < basis[leave])
                    ):
                        best = ratio
                        leave = r
            if leave < 0:
                return UNBOUNDED
            degenerate = degenerate + 1 if best == zero else 0
            pivot(leave, enter, zrow)

    if art_cols:
        zrow = [zero] * (ncols + 1)
        for j in range(art_start, ncols):
            zrow[j] = one
        for r in range(nrows):
            if basis[r] >= art_start:
                row = tableau[r]
                zrow = [a - b for a, b in zip(zrow, row)]
        status = price(zrow, ncols, 0)
        assert status == OPTIMAL, "phase 1 objective is bounded by zero"
        if -zrow[-1] != zero:
            return SimplexResult(INFEASIBLE, None, None, pivots)
        # degenerate artificials still in the basis: pivot them out on
        # any structural or slack column, or drop the redundant row
        for r in range(nrows - 1, -1, -1):
            if basis[r] < art_start:
                continue
            if cases is not None:
                cases.add("degenerate-artificial")
            col = next(
                (j for j in range(art_start) if tableau[r][j] != zero), None
            )
            if col is None:
                del tableau[r]
                del basis[r]
                nrows -= 1
            else:
                pivot(r, col, zrow)

    zrow = [zero] * (ncols + 1)
    for j in range(num_vars):
        zrow[j] = _rat(objective[j])
    for r in range(nrows):
        cb = zrow[basis[r]]
        if cb != zero:
            row = tableau[r]
            zrow = [a - cb * b for a, b in zip(zrow, row)]
    status = price(zrow, art_start, degenerate_limit)
    if status == UNBOUNDED:
        return SimplexResult(UNBOUNDED, None, None, pivots)

    values = [Fraction(0)] * num_vars
    for r in range(nrows):
        if basis[r] < num_vars:
            values[basis[r]] = _to_fraction(tableau[r][-1])
    return SimplexResult(OPTIMAL, _to_fraction(-zrow[-1]), tuple(values), pivots)
