"""The original slow paths, kept verbatim as references for the fast ones.

``_ad_monomial`` acts by a monomial one ad-factor at a time through
``_ad_one``, rebuilding a dict per factor; ``bracket`` and ``ad_action`` act
through ``_ad`` term by term and add each image on Fraction coefficients;
``polynomial_product`` multiplies two polynomials on Fraction coefficients;
``group_average`` sums the n! images with a fresh copy of the running total
per permutation and returns x itself when n = 1, and ``apply_perm_lie``
multiplies every coefficient by its sign, and ``invariance_violation`` applies
it for the two generators of S_n; ``epsilon`` lists the
e_{j-1}(variables other than x_i) for every u-index i, ``generator_h`` adds two
whole module products of it as wreath elements, and
``verify_module_relation`` forms the relation on all n u-coordinates through
``_module_sum``; ``preimage`` clears the graded-lex largest content class one
at a time with a full rescan per class;
``solve_exact`` / ``nullspace`` run classical Gauss-Jordan elimination on
Fraction entries; ``invariant_space_basis`` lists every degree-d basis
commutator and takes the kernel of sigma - 1 over the two generators of S_n
with ``linalg.nullspace``; and ``decompose_invariant`` builds, per degree,
every column eps_j * e^b as wreath coordinates and solves for the embedded
component with ``linalg.solve_exact``, after the invariance test above and
before the self-check on all n u-coordinates; ``decompose_in_elementary``
reduces the whole x-expanded polynomial by whole expanded e-monomials (its
leader taken inline, as the removed ``Polynomial.leading_monomial`` did), and
``reconstruct`` evaluates a decomposition through ``sum_of_actions`` on the
Lie forms ``generator_h_lie``; ``lie_from_u1`` reads a Lie form off u_1
swapping and factoring the content once per term and index, ``u1_self_check``
is decompose's old self-check on u_1 with every q_ij expanded in x_1..x_n,
and ``substitute`` is the removed ``Polynomial.substitute``.  Both
``linalg`` functions are looked up at call time so that a test can swap in
the Fraction versions above.  ``decompose_by_peeling`` is decompose's removed
per-call module phase (``module_coordinates`` through ``peel``) with its
self-check ``matches_u1`` in K[x_1, e_1..e_n], ``u1_of`` and
``reconstruct_on_u1`` the removed reconstruction through x-products,
``partition_part`` the removed partition part of an x-expanded e-monomial,
``basis_from_generators`` the removed invariant basis built from the
h_(j1,jk) * e^b by elimination over Lie columns, and ``grade``,
``bracket_wreath``, ``pi_polynomial`` and ``polarized_elementary`` are test
oracles moved out of the library.
``tests/test_fast_paths.py`` requires the library's closed-form ad-action,
integer sums of actions, fraction-free products, sums of products and S_n
average, single-pass preimage, fraction-free integer elimination,
constructive invariant basis, generators and relations built and checked on
u_1, partition-shaped elimination, reconstruction and tails read off u_1,
structured decomposition, its key self-check and verify on orbit keys, and
partition parts built on partitions to return exactly what these return;
``tests/test_orbit_keys.py`` requires the same of the invariant basis on
orbit keys.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import factorial, lcm

from metabelian import linalg
from metabelian.linalg import _integer_rows, _reduce
from metabelian.errors import (
    DimensionError,
    DomainError,
    InternalConsistencyError,
    InvarianceError,
    MembershipError,
    RankError,
)
from metabelian import invariants
from metabelian.invariants import (
    InvariantDecomposition,
    generator_h_lie,
    solve_weighted_kernel,
    sum_of_variables,
    weighted_exponent_vectors,
)
from metabelian.lie import BasisCommutator, LieElement, _ad, _factors, _new, sum_of_actions
from metabelian.permutations import enumerate_sn, sn_generators
from metabelian.polynomials import (
    EDecomposition,
    Polynomial,
    _add_products,
    _integral,
    _reduce_on_partitions,
    _require_ints,
    add_terms,
    elementary_symmetric,
    expand_e_monomial,
    grlex_key,
    sum_of_products,
    symmetry_violation,
    unit_vector,
)
from metabelian.wreath import WreathElement, apply_perm_wreath, embed

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


def bracket(f: LieElement, g: LieElement) -> LieElement:
    """The Lie bracket [f, g], returned in canonical basis form.

    Brackets between two commutator-ideal elements vanish (the algebra is
    metabelian); the remaining pieces reduce to pair brackets of variables
    and single ad-factor applications.
    """
    if f.n != g.n:
        raise DimensionError(f"ranks {f.n} and {g.n} differ")

    def terms():
        for i, a in enumerate(f.linear, 1):
            if a == 0:
                continue
            for j, b in enumerate(g.linear, 1):
                if b == 0 or i == j:
                    continue
                if i > j:
                    yield BasisCommutator(i, j), a * b
                else:
                    yield BasisCommutator(j, i), -a * b
        for c, coeff in f.comm.items():
            for j, b in enumerate(g.linear, 1):
                if b != 0:
                    for c2, sign in _ad(c, (j,)):
                        yield c2, coeff * b * sign
        for c, coeff in g.comm.items():
            for j, a in enumerate(f.linear, 1):
                if a != 0:
                    for c2, sign in _ad(c, (j,)):
                        yield c2, -coeff * a * sign

    return LieElement(f.n, None, add_terms({}, terms()))


def ad_action(f: LieElement, p: Polynomial) -> LieElement:
    """The polynomial-ring module action f * p(ad x_1, ..., ad x_n).

    Defined on the commutator ideal only; ad-factors commute there, so the
    action by a polynomial is well defined monomial by monomial.
    """
    if not f.linear_is_zero():
        raise DomainError("the polynomial action is defined on the commutator ideal only")
    if p.nvars != f.n:
        raise DimensionError(f"polynomial over {p.nvars} variables, rank is {f.n}")
    monomials = [(_factors(mono), beta) for mono, beta in p.terms.items()]
    acc = {}
    for c, gamma in f.comm.items():
        for factors, beta in monomials:
            scale = gamma * beta
            add_terms(acc, ((c2, scale * sign) for c2, sign in _ad(c, factors)))
    return LieElement(f.n, None, acc)


def polynomial_product(p: Polynomial, q: Polynomial) -> Polynomial:
    """p * q with every coefficient product and sum taken on Fraction."""
    p._require_same_ring(q)
    products = (
        (tuple(a + b for a, b in zip(m1, m2)), c1 * c2)
        for m1, c1 in p.terms.items()
        for m2, c2 in q.terms.items()
    )
    return type(p)._wrap(p.nvars, add_terms({}, products))


def epsilon(n: int, j: int) -> WreathElement:
    """The u-linear generator sum_i u_i * e_{j-1}(variables other than x_i)."""
    upart = []
    for i in range(n):
        terms = {}
        others = [k for k in range(n) if k != i]
        for subset in combinations(others, j - 1):
            mono = [0] * n
            for k in subset:
                mono[k] = 1
            terms[tuple(mono)] = _ONE
        upart.append(Polynomial(n, terms))
    return WreathElement(n, tuple(upart))


def _module_sum(n: int, pairs) -> WreathElement:
    """sum_k w_k.module_mul(p_k) over the (w_k, p_k) in ``pairs``, one
    ``sum_of_products`` per u-index; every w_k has zero v-part."""
    return WreathElement(
        n, tuple(sum_of_products(n, [(w.upart[k], p) for w, p in pairs]) for k in range(n))
    )


def verify_module_relation(n: int, i: int, j: int, k: int) -> bool:
    """Check k*h_ij*e_k - j*h_ik*e_j + i*h_jk*e_i = 0 in the wreath product."""
    _require_ints(n, i, j, k)
    if not 1 <= i < j < k <= n:
        raise RankError(f"need 1 <= i < j < k <= n, got ({i}, {j}, {k}) with n = {n}")
    combo = _module_sum(
        n,
        [
            (generator_h(n, i, j), elementary_symmetric(n, k) * k),
            (generator_h(n, i, k), elementary_symmetric(n, j) * -j),
            (generator_h(n, j, k), elementary_symmetric(n, i) * i),
        ],
    )
    return combo.is_zero()


def generator_h(n: int, i: int, j: int) -> WreathElement:
    """The invariant module generator j*eps_i*e_j - i*eps_j*e_i."""
    return (
        epsilon(n, i).module_mul(elementary_symmetric(n, j)) * j
        - epsilon(n, j).module_mul(elementary_symmetric(n, i)) * i
    )


def group_average(x, act, n: int, zero):
    """The average of ``act(sigma, x)`` over all of S_n; x itself when n = 1."""
    if n == 1:
        return x
    total = zero
    for sigma in enumerate_sn(n):
        total = total + act(sigma, x)
    return total * Fraction(1, factorial(n))


def apply_perm_lie(sigma, f: LieElement) -> LieElement:
    """The algebra automorphism induced by x_i -> x_{sigma(i)}, renormalized."""
    if sigma.size != f.n:
        raise DimensionError(f"permutation degree {sigma.size}, rank {f.n}")
    n = f.n
    linear = [_ZERO] * n
    for idx, coeff in enumerate(f.linear):
        linear[sigma(idx + 1) - 1] = coeff
    acc = {}
    for c, gamma in f.comm.items():
        a, b = sigma(c.i1), sigma(c.i2)
        if a < b:
            a, b, gamma = b, a, -gamma
        factors = tuple(sorted(sigma(t) for t in c.tail))
        add_terms(acc, ((c2, gamma * sign) for c2, sign in _ad(BasisCommutator(a, b), factors)))
    return LieElement(n, linear, acc)


def grade(f: LieElement, d: int) -> LieElement:
    """The homogeneous component of total degree d (variables have degree 1)."""
    if d == 1:
        return LieElement(f.n, f.linear)
    if d < 1:
        return LieElement.zero(f.n)
    return LieElement(f.n, None, {c: v for c, v in f.comm.items() if c.degree == d})


def bracket_wreath(w1: WreathElement, w2: WreathElement) -> WreathElement:
    """Bracket in the wreath product; the result always has zero v-part."""
    w1._require_same(w2)
    n = w1.n
    lin1 = Polynomial(n, {unit_vector(n, i): c for i, c in enumerate(w1.vpart) if c != 0})
    lin2 = Polynomial(n, {unit_vector(n, i): c for i, c in enumerate(w2.vpart) if c != 0})
    upart = tuple(
        w1.upart[i] * lin2 - w2.upart[i] * lin1 for i in range(n)
    )
    return WreathElement(n, upart)


def pi_polynomial(w: WreathElement) -> Polynomial:
    """The image of w in the 2n-variable ring K[u_1..u_n, x_1..x_n] modulo u*u.

    u-variables occupy the first n slots, x-variables the last n; the
    v-part is identified with its linear x-polynomial.
    """
    n = w.n
    terms = {}
    for i, p in enumerate(w.upart):
        for mono, coeff in p.terms.items():
            terms[unit_vector(n, i) + mono] = coeff
    for i, coeff in enumerate(w.vpart):
        if coeff != 0:
            terms[unit_vector(2 * n, n + i)] = coeff
    return Polynomial(2 * n, terms)


def polarized_elementary(n: int, p: int, q: int) -> Polynomial:
    """The bidegree-(p, q) polarization of e_{p+q} in the 2n-variable ring.

    Sums u_{i_1}..u_{i_p} x_{j_1}..x_{j_q} over pairwise-distinct indices
    with each group strictly increasing; u-variables occupy the first n
    slots of the ring.
    """
    _require_ints(n, p, q)
    if p < 0 or q < 0 or p + q <= 0 or p + q > n:
        raise DomainError(f"bidegree ({p}, {q}) outside 0 < p+q <= {n}")
    terms = {}
    for usubset in combinations(range(n), p):
        rest = [k for k in range(n) if k not in usubset]
        for xsubset in combinations(rest, q):
            mono = [0] * (2 * n)
            for k in usubset:
                mono[k] = 1
            for k in xsubset:
                mono[n + k] = 1
            terms[tuple(mono)] = _ONE
    return Polynomial(2 * n, terms)


def invariance_violation(f: LieElement):
    """A generator of S_n that moves f, or None if f is invariant: the first
    of (1 2) and (1 2 ... n) whose ``apply_perm_lie`` image differs from f."""
    if f.n == 1:
        return None
    return next((sigma for sigma in sn_generators(f.n) if apply_perm_lie(sigma, f) != f), None)


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


def basis_from_generators(n: int, d: int):
    """Exact basis of the degree-d invariants, built from the generators h_ij.

    For each e-exponent vector a of weighted degree d with support
    j_1 < ... < j_m, the h_{j_1,j_k} * e^(a - delta_{j_1} - delta_{j_k}), k >= 2,
    form a basis: as many as the Hilbert function counts, with distinct
    embedded images eps_j * e^b.  Returned in reduced echelon form with the
    commutators in decreasing order, each row 1 at its pivot, in increasing
    pivot order: the kernel basis of sigma - 1 that sets one free commutator
    to 1 and the others to 0.
    """
    _require_ints(n, d)
    if n < 1:
        raise RankError(f"rank must be positive, got {n}")
    if d < 1:
        return []
    if d == 1:
        return [sum_of_variables(n)]
    span = []
    for a in weighted_exponent_vectors(n, d):
        support = [j for j, v in enumerate(a, 1) if v]
        j1 = support[0]
        for jk in support[1:]:
            b = [v - (j in (j1, jk)) for j, v in enumerate(a, 1)]
            span.append(ad_action(generator_h_lie(n, j1, jk), expand_e_monomial(n, b)).comm)
    columns = sorted(set().union(*span), key=BasisCommutator.sort_key, reverse=True)
    rows = _integer_rows([[comm.get(c, _ZERO) for c in columns] for comm in span])
    pivots = _reduce(rows, len(columns))
    basis = [
        LieElement(n, None, {c: Fraction(v, row[p]) for c, v in zip(columns, row) if v})
        for row, p in zip(rows, pivots)
    ]
    return basis[::-1]


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


def decompose_in_elementary(p: Polynomial) -> EDecomposition:
    """Rewrite a symmetric polynomial as a polynomial in e_1, ..., e_n.

    Classical leading-term reduction: the graded-lex leading exponent of a
    symmetric polynomial is a partition (l_1 >= ... >= l_n), and the product
    e_1^{l_1 - l_2} ... e_n^{l_n} has that same leading monomial with
    coefficient 1, so subtracting strictly lowers the leading term.
    """
    sigma = symmetry_violation(p)
    if sigma is not None:
        raise InvarianceError(f"polynomial is not symmetric: moved by {sigma}", sigma)
    n = p.nvars
    remaining = p
    out = {}
    while not remaining.is_zero():
        lead = max(remaining.terms, key=grlex_key)
        if any(lead[i] < lead[i + 1] for i in range(n - 1)):
            raise InternalConsistencyError(
                f"leading exponent {lead} of a symmetric polynomial is not a partition"
            )
        coeff = remaining.terms[lead]
        evec = tuple(
            lead[i] - (lead[i + 1] if i + 1 < n else 0) for i in range(n)
        )
        out[evec] = coeff
        remaining = remaining - expand_e_monomial(n, evec) * coeff
    return EDecomposition(n, out)


def reconstruct(dec: InvariantDecomposition) -> LieElement:
    """Evaluate the certificate back to a canonical Lie element."""
    n = dec.n
    pairs = [(generator_h_lie(n, i, j).comm, q.expand()) for i, j, q in dec.items()]
    return LieElement._wrap(n, (dec.f1_coeff,) * n, sum_of_actions(n, pairs).comm)


def lie_from_u1(p1: Polynomial) -> LieElement:
    """The commutator-ideal invariant with u_1-coordinate p1, read off: the
    coefficient of [x_a, x_m, tail] (content M, m = min M, a > m) is its
    embedded u_a at M/x_a = (1 a)mono, for the term mono = (1 a)M - delta_1
    of p1, with the content swapped and factored per (term, a)."""
    n = p1.nvars
    comm = {}
    for mono, coeff in p1.terms.items():
        for a in range(2, n + 1):
            content = list(mono)
            content[0], content[a - 1] = mono[a - 1], mono[0]
            m = next((i for i, e in enumerate(content, 1) if e), a)
            if m < a:
                content[m - 1] -= 1
                comm[_new(BasisCommutator, (a, m, _factors(content)))] = coeff
    return LieElement._wrap(n, (_ZERO,) * n, comm)


def u1_of(dec: InvariantDecomposition) -> Polynomial:
    """The u_1-coordinate of the embedded commutator part, sum h_ij * q_ij,
    with every q_ij expanded in x_1..x_n (the removed
    ``InvariantDecomposition._u1``)."""
    n = dec.n
    pairs = [(invariants.generator_h(n, i, j).upart[0], q.expand()) for i, j, q in dec.items()]
    return sum_of_products(n, pairs)


def reconstruct_on_u1(dec: InvariantDecomposition) -> LieElement:
    """The removed ``reconstruct``: the Lie form read off ``u1_of``."""
    return LieElement._wrap(dec.n, (dec.f1_coeff,) * dec.n, invariants._lie_from_u1(u1_of(dec)).comm)


def u1_self_check(dec: InvariantDecomposition, f: LieElement) -> bool:
    """The x-expanded self-check: sum h_ij * q_ij, with every q_ij expanded
    in x_1..x_n, equals u_1 of the embedded commutator part of f."""
    u1 = {mono: c for mono, c in embed(f).upart[0].terms.items() if any(mono)}
    return u1_of(dec).terms == u1


def peel(terms, n: int, low: int = 0):
    """Divide the int map ``terms`` on K[x_1, e_1..e_n] from its top x_1-degree
    k down to ``low`` by e_m(x_2..x_n), m = min(k, n), whose x_1-leading term
    is (-x_1)^m; returns the quotient and the remainder as rows
    {x_1-degree: {e-exponents: int}}."""
    rows = {}
    for mono, v in terms.items():
        if v:
            rows.setdefault(mono[0], {})[mono[1:]] = v
    quotients = {}
    for k in range(max(rows, default=-1), low - 1, -1):
        top = rows.pop(k, None)
        if not top:
            continue
        m = min(k, n)
        q = quotients[k] = top if m % 2 == 0 else {b: -c for b, c in top.items()}
        for mono, v in invariants._e_prime(n, m)[:-1]:
            row = rows.setdefault(k - m + mono[0], {})
            add_terms(row, ((tuple(a + e for a, e in zip(b, mono[1:])), -v * c) for b, c in q.items()))
    return quotients, rows


def module_coordinates(n: int, groups):
    """The (j, b, gamma) with p1 = sum_j e_{j-1}(x_2..x_n) * sum_b gamma * e^b,
    and the image of p1 in K[x_1, e_1..e_n], for the int key values
    ``groups`` {k: {partition on x_2..x_n: value}} of one degree: each group
    reduced on its partitions, one sum of products of the cached e'-monomial
    images by x_1^k, peeled from the top x_1-degree down."""
    pairs = []
    for k, group in groups.items():
        x1k = (k,) + (0,) * n
        coords = _reduce_on_partitions(n - 1, group).items()
        pairs += [(invariants._e_prime_monomial(n, c).terms.items(), ((x1k, v),)) for c, v in coords]
    image = _add_products({}, pairs)
    quotients, _ = peel(image, n)
    return [(k + 1, b, c) for k, row in quotients.items() if k < n for b, c in row.items()], image


def matches_u1(dec: InvariantDecomposition, image, scale: int) -> bool:
    """The removed self-check: whether the commutator part of ``dec`` has
    u_1-coordinate image / scale in K[x_1, e_1..e_n], through the int
    products of u_1(h_ij) and the q_ij and one ``peel`` to x_1-degree < n."""
    n = dec.n
    den = lcm(*(c.denominator for q in dec.parts.values() for c in q.terms.values()))
    residual = {mono: -den * v for mono, v in image.items()}
    for i, j, q in dec.items():
        h = _add_products({}, ((invariants._e_prime(n, i - 1), ((unit_vector(n + 1, j), j),)),
                               (invariants._e_prime(n, j - 1), ((unit_vector(n + 1, i), -i),))))
        scaled = [((0,) + b, c.numerator * (den * scale // c.denominator))
                  for b, c in q.terms.items()]
        _add_products(residual, ((h.items(), scaled),))
    _, remainder = peel(residual, n, n)
    return not any(remainder.values())


def decompose_by_peeling(f: LieElement, seen=None) -> InvariantDecomposition:
    """The removed per-call module phase of ``decompose_invariant``: after the
    same orbit-key pass, each degree's key values are reduced on partitions
    and peeled (``module_coordinates``), split by the weighted kernel and
    checked with ``matches_u1``.  ``seen``, a list, receives the
    (decomposition, image, scale) that the check ran on."""
    n = f.n
    scale, comm = _integral(f.comm)
    values = invariants._key_values(f.linear, comm)
    if values is None:
        violation = invariants._moved_by(embed(f), apply_perm_wreath, n)
        raise InvarianceError(f"element is not invariant: moved by {violation}", violation)
    slices = {}
    for (k, lam), v in values.items():
        group = slices.setdefault(k + sum(lam) + 1, {}).setdefault(k, {})
        group[lam + (0,) * (n - 1 - len(lam))] = v
    image = {}
    parts_acc = {}
    for d in sorted(slices):
        coordinates, image_d = module_coordinates(n, slices[d])
        image.update(image_d)
        alpha = {}
        for j, b, gamma in coordinates:
            a = b[: j - 1] + (b[j - 1] + 1,) + b[j:]
            alpha.setdefault(a, [0] * n)[j - 1] += gamma
        for a, cvec in sorted(alpha.items(), key=lambda kv: grlex_key(kv[0])):
            betas = solve_weighted_kernel(cvec)
            j1 = next(k + 1 for k, v in enumerate(cvec) if v != 0)
            for jk, beta in betas.items():
                newexp = list(a)
                newexp[j1 - 1] -= 1
                newexp[jk - 1] -= 1
                add_terms(parts_acc.setdefault((j1, jk), {}), ((tuple(newexp), beta),))
    result = InvariantDecomposition(n, f.linear[0], {
        pair: EDecomposition._wrap(n, {b: v / scale for b, v in terms.items()})
        for pair, terms in parts_acc.items()})
    if seen is not None:
        seen.append((result, image, scale))
    if not matches_u1(result, image, scale):
        raise InternalConsistencyError("reassembled decomposition does not match the input")
    return result


def partition_part(n: int, evec: tuple):
    """The removed ``_partition_part``: the terms of the x-expanded
    e-monomial at partitions, as (exponent vector, int) pairs."""
    terms = expand_e_monomial(n, evec).terms
    return tuple((m, c.numerator) for m, c in terms.items()
                 if all(a >= b for a, b in zip(m, m[1:])))


def substitute(p: Polynomial, images) -> Polynomial:
    """Substitute x_k -> images[k-1]; all images share one target ring."""
    images = list(images)
    if len(images) != p.nvars:
        raise DimensionError(f"need {p.nvars} substitution images, got {len(images)}")
    target = images[0].nvars
    for img in images:
        if img.nvars != target:
            raise DimensionError("substitution images live in different rings")
    total = Polynomial.zero(target)
    for mono, coeff in p.terms.items():
        term = Polynomial.constant(target, coeff)
        for idx, e in enumerate(mono):
            if e:
                term = term * images[idx] ** e
        total = total + term
    return total
