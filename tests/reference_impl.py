"""The original slow paths, kept verbatim as references for the fast ones.

``_ad_monomial`` acts by a monomial one ad-factor at a time through
``_ad_one``, rebuilding a dict per factor; ``preimage`` clears the graded-lex
largest content class one at a time with a full rescan per class;
``solve_exact`` / ``nullspace`` run classical Gauss-Jordan elimination on
Fraction entries; ``invariant_space_basis`` lists every degree-d basis
commutator and takes the kernel of sigma - 1 over the two generators of S_n
with ``linalg.nullspace``; and ``decompose_invariant`` builds, per degree,
every column eps_j * e^b as wreath coordinates and solves for the embedded
component with ``linalg.solve_exact``.  Both ``linalg`` functions are looked
up at call time so that a test can swap in the Fraction versions above.
``tests/test_fast_paths.py`` requires the library's closed-form ad-action,
single-pass preimage, fraction-free integer elimination, constructive
invariant basis and structured decomposition to return exactly what these
return.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement

from metabelian import linalg
from metabelian.errors import InternalConsistencyError, InvarianceError, MembershipError
from metabelian.invariants import (
    InvariantDecomposition,
    epsilon,
    generator_h,
    invariance_violation,
    solve_weighted_kernel,
    weighted_exponent_vectors,
)
from metabelian.lie import BasisCommutator, LieElement, apply_perm_lie, grade
from metabelian.permutations import sn_generators
from metabelian.polynomials import (
    EDecomposition,
    Polynomial,
    add_terms,
    expand_e_monomial,
    grlex_key,
)
from metabelian.wreath import WreathElement, embed

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


def _basis_commutators(n: int, d: int):
    """All degree-d basis commutators on n variables, in canonical order."""
    out = []
    for i2 in range(1, n + 1):
        for i1 in range(i2 + 1, n + 1):
            for tail in combinations_with_replacement(range(i2, n + 1), d - 2):
                out.append(BasisCommutator(i1, i2, tail))
    out.sort(key=BasisCommutator.sort_key)
    return out


def invariant_space_basis(n: int, d: int):
    """Exact basis of the degree-d invariants, by brute-force linear algebra.

    Lists the degree-d monomial basis of the whole algebra and solves
    sigma(f) = f for the two generators of S_n.
    """
    if d < 1:
        return []
    if d == 1:
        elems = [LieElement.variable(n, k) for k in range(1, n + 1)]

        def coords(e):
            return list(e.linear)

    else:
        basis = _basis_commutators(n, d)
        index = {c: k for k, c in enumerate(basis)}
        elems = [LieElement.from_commutator(n, c) for c in basis]

        def coords(e):
            vec = [_ZERO] * len(basis)
            for c, coeff in e.comm.items():
                vec[index[c]] = coeff
            return vec

    size = len(elems)
    if size == 0:
        return []
    rows = []
    for sigma in sn_generators(n):
        columns = [coords(apply_perm_lie(sigma, e)) for e in elems]
        for r in range(size):
            rows.append([columns[k][r] - (_ONE if k == r else _ZERO) for k in range(size)])
    out = []
    for vec in linalg.nullspace(rows, size):
        total = LieElement.zero(n)
        for k, coeff in enumerate(vec):
            if coeff != 0:
                total = total + elems[k] * coeff
        out.append(total)
    return out


def _wreath_coordinates(w: WreathElement) -> dict:
    coords = {}
    for i, p in enumerate(w.upart):
        for mono, coeff in p.terms.items():
            coords[(i, mono)] = coeff
    return coords


def decompose_invariant(f: LieElement) -> InvariantDecomposition:
    """Decompose an invariant element over the module generators h_ij.

    The linear part must be a multiple of x_1 + ... + x_n and is peeled off.
    Per homogeneous degree d, the embedded component is solved exactly as
    sum_j eps_j * r_j with each r_j an unknown combination of e-monomials of
    weighted degree d - j (deterministic Gauss elimination, unknowns ordered
    by j then graded-lex).  Writing r_j's coefficients against the exponent
    vector a obtained by bumping position j, each fixed a satisfies
    sum_j j * alpha_{a,j} = 0, so the weighted-kernel expansion converts the
    block into h_{j1,jk} terms with e-monomial coefficients.  The result is
    re-verified against the embedding before returning.
    """
    n = f.n
    violation = invariance_violation(f)
    if violation is not None:
        raise InvarianceError(f"element is not invariant: moved by {violation}", violation)
    f1_coeff = f.linear[0]
    if any(v != f1_coeff for v in f.linear):
        raise InternalConsistencyError("invariant element with non-uniform linear part")
    fc = f.commutator_part()
    parts_acc = {}
    for d in fc.degrees():
        wd = embed(grade(fc, d))
        unknowns = []
        for j in range(1, min(n, d) + 1):
            for b in sorted(weighted_exponent_vectors(n, d - j), key=grlex_key):
                unknowns.append((j, b))
        columns = [
            _wreath_coordinates(
                epsilon(n, j).module_mul(expand_e_monomial(n, b))
            )
            for j, b in unknowns
        ]
        solution = linalg.solve_exact(columns, _wreath_coordinates(wd))
        if solution is None:
            raise InternalConsistencyError(
                f"degree-{d} component is outside the span of the eps_j generators"
            )
        alpha = {}
        for (j, b), gamma in zip(unknowns, solution):
            if gamma == 0:
                continue
            a = list(b)
            a[j - 1] += 1
            a = tuple(a)
            vec = alpha.setdefault(a, [_ZERO] * n)
            vec[j - 1] += gamma
        for a, cvec in sorted(alpha.items(), key=lambda kv: grlex_key(kv[0])):
            if all(v == 0 for v in cvec):
                continue
            if sum((k + 1) * v for k, v in enumerate(cvec)) != 0:
                raise InternalConsistencyError(
                    f"block {a} violates the weighted constraint; "
                    "the input cannot come from the commutator ideal"
                )
            j1 = next(k + 1 for k, v in enumerate(cvec) if v != 0)
            for jk, beta in solve_weighted_kernel(cvec).items():
                newexp = list(a)
                newexp[j1 - 1] -= 1
                newexp[jk - 1] -= 1
                if min(newexp) < 0:
                    raise InternalConsistencyError(
                        f"negative e-exponent while splitting block {a}"
                    )
                add_terms(parts_acc.setdefault((j1, jk), {}), ((tuple(newexp), beta),))
    result = InvariantDecomposition(
        n, f1_coeff, {pair: EDecomposition(n, terms) for pair, terms in parts_acc.items()}
    )
    check = WreathElement.zero(n)
    for i, j, q in result.items():
        check = check + generator_h(n, i, j).module_mul(q.expand())
    if check != embed(fc):
        raise InternalConsistencyError("reassembled decomposition does not match the input")
    return result
