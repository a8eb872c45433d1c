"""Dense exact linear algebra over the rationals.

Small systems only.  The solvers clear each row's denominators and run
fraction-free Gauss-Jordan elimination on integers (after Bareiss): only
reading the result off divides, by the pivot.  The reduced row echelon form
is unique, so results do not depend on the row scaling.
``solve_exact`` and ``nullspace`` have no library caller: they stay as entry
points the benchmark's traced run spans, and as test references.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _integer_rows(rows):
    """Each row of ints or Fractions scaled by the lcm of its denominators."""
    out = []
    for row in rows:
        scale = lcm(*(v.denominator for v in row))
        out.append([v.numerator * (scale // v.denominator) for v in row])
    return out


def _reduce(rows, ncols):
    """Reduce integer ``rows`` in place on the first ``ncols`` columns and
    return the pivot columns; row r over its pivot is row r of the reduced
    row echelon form.  Each update is row_k <- (p/g) row_k - (f/g) row_r
    with g = gcd(p, f), then division by the gcd of the new row."""
    pivots = []
    r = 0
    nrows = len(rows)
    for col in range(ncols):
        if r == nrows:
            break
        pivot_row = next((k for k in range(r, nrows) if rows[k][col]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        prow = rows[r]
        p = prow[col]
        for k in range(nrows):
            f = rows[k][col]
            if k != r and f:
                g = gcd(p, f)
                a, b = p // g, f // g
                new = [a * x - b * y for x, y in zip(rows[k], prow)]
                h = gcd(*new)
                if h > 1:
                    new = [x // h for x in new]
                rows[k] = new
        pivots.append(col)
        r += 1
    return pivots


def solve_exact(columns, rhs):
    """Solve ``sum_k x_k * columns[k] == rhs`` exactly.

    ``columns`` is a list of dicts (key -> Fraction) and ``rhs`` a dict of the
    same kind; keys may be any sortable hashables.  Returns the canonical
    solution with free unknowns set to zero, or None if inconsistent.
    """
    keys = sorted(set(rhs).union(*columns) if columns else set(rhs))
    ncols = len(columns)
    rows = _integer_rows(
        [col.get(key, _ZERO) for col in columns] + [rhs.get(key, _ZERO)]
        for key in keys
    )
    pivots = _reduce(rows, ncols)
    if any(row[ncols] for row in rows[len(pivots):]):
        return None
    solution = [_ZERO] * ncols
    for row, col in zip(rows, pivots):
        solution[col] = Fraction(row[ncols], row[col])
    return solution


def nullspace(rows, ncols):
    """A deterministic basis of the right kernel of the given matrix.

    Each basis vector sets one free column to 1 and the other free columns
    to 0; vectors are returned in increasing free-column order.
    """
    work = _integer_rows(rows)
    pivots = _reduce(work, ncols)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for free in free_cols:
        vec = [_ZERO] * ncols
        vec[free] = _ONE
        for row, col in zip(work, pivots):
            vec[col] = Fraction(-row[free], row[col])
        basis.append(vec)
    return basis
