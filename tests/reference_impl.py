"""The original slow paths, kept verbatim as references for the fast ones.

``_ad_monomial`` acts by a monomial one ad-factor at a time through
``_ad_one``, rebuilding a dict per factor; ``preimage`` clears the graded-lex
largest content class one at a time with a full rescan per class; and
``solve_exact`` / ``nullspace`` run classical Gauss-Jordan elimination on
Fraction entries.  ``tests/test_fast_paths.py`` requires the library's
closed-form ad-action, single-pass preimage and fraction-free integer
elimination to return exactly what these return.
"""

from __future__ import annotations

from fractions import Fraction

from metabelian.errors import InternalConsistencyError, MembershipError
from metabelian.lie import BasisCommutator, LieElement
from metabelian.polynomials import Polynomial, grlex_key

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _ad_one(c: BasisCommutator, j: int):
    """Append one ad-factor x_j to a basis commutator.

    When j >= i2 the factor slots into the tail.  Otherwise the Jacobi
    rearrangement [i1, i2, j] = [i1, j, i2] - [i2, j, i1] applies; both
    results are already in basis order because j is the new minimum.
    """
    if j >= c.i2:
        return ((BasisCommutator(c.i1, c.i2, c.tail + (j,)), 1),)
    return (
        (BasisCommutator(c.i1, j, c.tail + (c.i2,)), 1),
        (BasisCommutator(c.i2, j, c.tail + (c.i1,)), -1),
    )


def _ad_monomial(c: BasisCommutator, exponents):
    """Act on a basis commutator by a monomial; returns dict commutator -> coeff.

    Variables are applied in increasing index order: after the first Jacobi
    split the second entry is minimal, so later factors never split again and
    the result has at most two terms.
    """
    current = {c: _ONE}
    for idx, e in enumerate(exponents):
        j = idx + 1
        for _ in range(e):
            nxt = {}
            for cc, coeff in current.items():
                for c2, sign in _ad_one(cc, j):
                    val = nxt.get(c2, _ZERO) + coeff * sign
                    if val == 0:
                        nxt.pop(c2, None)
                    else:
                        nxt[c2] = val
            current = nxt
    return current


def _rref(rows, ncols):
    """Reduce ``rows`` in place to reduced row echelon form on the first
    ``ncols`` columns; returns the list of pivot columns."""
    pivots = []
    r = 0
    for col in range(ncols):
        pivot_row = None
        for k in range(r, len(rows)):
            if rows[k][col] != 0:
                pivot_row = k
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = _ONE / rows[r][col]
        if inv != 1:
            rows[r] = [v * inv for v in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][col] != 0:
                factor = rows[k][col]
                rows[k] = [a - factor * b for a, b in zip(rows[k], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return pivots


def solve_exact(columns, rhs):
    """Solve ``sum_k x_k * columns[k] == rhs`` exactly.

    ``columns`` is a list of dicts (key -> Fraction) and ``rhs`` a dict of the
    same kind; keys may be any sortable hashables.  Returns the canonical
    solution with free unknowns set to zero, or None if inconsistent.
    """
    keys = sorted(set(rhs).union(*columns) if columns else set(rhs))
    ncols = len(columns)
    rows = [
        [col.get(key, _ZERO) for col in columns] + [rhs.get(key, _ZERO)]
        for key in keys
    ]
    pivots = _rref(rows, ncols)
    rank = len(pivots)
    for row in rows[rank:]:
        if row[ncols] != 0:
            return None
    solution = [_ZERO] * ncols
    for r, col in enumerate(pivots):
        solution[col] = rows[r][ncols]
    return solution


def nullspace(rows, ncols):
    """A deterministic basis of the right kernel of the given matrix.

    Each basis vector sets one free column to 1 and the other free columns
    to 0; vectors are returned in increasing free-column order.
    """
    work = [list(row) for row in rows]
    pivots = _rref(work, ncols)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for free in free_cols:
        vec = [_ZERO] * ncols
        vec[free] = _ONE
        for r, col in enumerate(pivots):
            vec[col] = -work[r][free]
        basis.append(vec)
    return basis


def preimage(w: WreathElement) -> LieElement:
    """Invert the embedding; raises MembershipError off the image.

    The v-part dictates the linear part.  The remaining u-part must satisfy
    sum_i x_i p_i = 0; while it is nonzero, the graded-lex largest product
    monomial M = x_i * m is selected, the indices contributing to M have
    coefficients summing to zero, and subtracting multiples of
    embed([x_a, x_b] * M/(x_a x_b)) for the smallest contributing index b
    clears the whole class.  M strictly decreases, so this terminates; the
    recorded commutator terms assemble the canonical preimage.
    """
    n = w.n
    linear = w.vpart
    zero_mono = (0,) * n
    work = []
    for i, p in enumerate(w.upart):
        d = dict(p.terms)
        if linear[i] != 0:
            val = d.get(zero_mono, _ZERO) - linear[i]
            if val == 0:
                d.pop(zero_mono, None)
            else:
                d[zero_mono] = val
        work.append(d)
    residual = Polynomial.zero(n)
    for i, d in enumerate(work):
        residual = residual + Polynomial(n, d) * Polynomial.variable(n, i + 1)
    if not residual.is_zero():
        raise MembershipError(
            f"element is not in the embedded image; residual sum x_i*p_i = {residual}",
            residual,
        )
    acc = {}
    while True:
        best = None
        for i, d in enumerate(work):
            for mono in d:
                content = list(mono)
                content[i] += 1
                content = tuple(content)
                if best is None or grlex_key(content) > grlex_key(best):
                    best = content
        if best is None:
            break
        contributors = []
        for i in range(n):
            if best[i] >= 1:
                sub = list(best)
                sub[i] -= 1
                coeff = work[i].get(tuple(sub), _ZERO)
                if coeff != 0:
                    contributors.append((i, coeff))
        if len(contributors) < 2 or sum(c for _, c in contributors) != 0:
            raise InternalConsistencyError(
                f"monomial class {best} cannot be cleared despite zero residual"
            )
        b = contributors[0][0]
        mono_b = list(best)
        mono_b[b] -= 1
        mono_b = tuple(mono_b)
        for a, coeff in contributors[1:]:
            mono_a = list(best)
            mono_a[a] -= 1
            mono_a = tuple(mono_a)
            m_ab = list(best)
            m_ab[a] -= 1
            m_ab[b] -= 1
            # remove coeff * embed([x_{a+1}, x_{b+1}] * m_ab)
            work[a].pop(mono_a)
            val = work[b].get(mono_b, _ZERO) + coeff
            if val == 0:
                work[b].pop(mono_b, None)
            else:
                work[b][mono_b] = val
            base = BasisCommutator(a + 1, b + 1)
            for c2, value in _ad_monomial(base, m_ab).items():
                cur = acc.get(c2, _ZERO) + coeff * value
                if cur == 0:
                    acc.pop(c2, None)
                else:
                    acc[c2] = cur
    return LieElement(n, linear, acc)

