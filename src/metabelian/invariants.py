"""Symmetric-group invariants of the free metabelian Lie algebra.

The fixed algebra splits as the line spanned by x_1 + ... + x_n plus the
invariant part of the commutator ideal, and the latter is a module over the
symmetric polynomials with finite generating set

    h_ij = j * eps_i * e_j - i * eps_j * e_i,      1 <= i < j <= n,

where eps_q is the u-linear polarization sum_i u_i e_{q-1}(all variables but
x_i) and e_q the elementary symmetric polynomial.  decompose_invariant makes
this constructive: any invariant is rewritten exactly as a scalar multiple of
x_1 + ... + x_n plus a combination of the h_ij with coefficients that are
polynomials in e_1, ..., e_n.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .errors import (
    DomainError,
    InternalConsistencyError,
    InvarianceError,
    KernelError,
    RankError,
)
from .lie import BasisCommutator, LieElement, ad_action, apply_perm_lie, grade
from .linalg import _integer_rows, _reduce
from .permutations import group_average, moving_generator
from .polynomials import (
    EDecomposition,
    Polynomial,
    add_terms,
    as_fraction,
    decompose_in_elementary,
    elementary_symmetric,
    expand_e_monomial,
    grlex_key,
    read_only,
    unit_vector,
)
from .wreath import WreathElement, embed, preimage

_ZERO = Fraction(0)
_ONE = Fraction(1)


def sum_of_variables(n: int) -> LieElement:
    """x_1 + ... + x_n, the unique invariant outside the commutator ideal."""
    return LieElement(n, (_ONE,) * n)


@lru_cache(maxsize=None)
def epsilon(n: int, j: int) -> WreathElement:
    """The u-linear generator sum_i u_i * e_{j-1}(variables other than x_i)."""
    if not 1 <= j <= n:
        raise RankError(f"index {j} outside 1..{n}")
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
    return read_only(WreathElement(n, tuple(upart)))


def polarized_elementary(n: int, p: int, q: int) -> Polynomial:
    """The bidegree-(p, q) polarization of e_{p+q} in the 2n-variable ring.

    Sums u_{i_1}..u_{i_p} x_{j_1}..x_{j_q} over pairwise-distinct indices
    with each group strictly increasing; u-variables occupy the first n
    slots of the ring.
    """
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


@lru_cache(maxsize=None)
def generator_h(n: int, i: int, j: int) -> WreathElement:
    """The invariant module generator j*eps_i*e_j - i*eps_j*e_i."""
    if not 1 <= i < j <= n:
        raise RankError(f"need 1 <= i < j <= n, got ({i}, {j}) with n = {n}")
    return read_only(
        epsilon(n, i).module_mul(elementary_symmetric(n, j)) * j
        - epsilon(n, j).module_mul(elementary_symmetric(n, i)) * i
    )


@lru_cache(maxsize=None)
def generator_h_lie(n: int, i: int, j: int) -> LieElement:
    """generator_h pulled back to canonical Lie basis form."""
    return read_only(preimage(generator_h(n, i, j)))


def invariance_violation(f: LieElement):
    """A generator of S_n that moves f, or None if f is invariant."""
    return moving_generator(f, apply_perm_lie, f.n)


def is_invariant_lie(f: LieElement) -> bool:
    return invariance_violation(f) is None


def reynolds_lie(f: LieElement) -> LieElement:
    """Average over the full symmetric group; projects onto the invariants."""
    return group_average(f, apply_perm_lie, f.n, LieElement.zero(f.n))


def solve_weighted_kernel(c):
    """Express a solution of sum_j j*t_j = 0 over the two-point solutions.

    The two-point solution z(j1, jk) has jk at position j1 and -j1 at
    position jk.  For support j_1 < ... < j_m the coefficients are
    beta_k = -c_{j_k} / j_1, and c = sum_k beta_k * z(j_1, j_k); the map
    {j_k: beta_k} is returned (empty for c = 0).
    """
    c = [as_fraction(v) for v in c]
    weighted = sum((k + 1) * v for k, v in enumerate(c))
    if weighted != 0:
        raise KernelError(f"sum j*t_j = {weighted}, expected 0")
    support = [k + 1 for k, v in enumerate(c) if v != 0]
    if not support:
        return {}
    if len(support) == 1:
        raise InternalConsistencyError(
            "a single nonzero coordinate cannot satisfy the weighted constraint"
        )
    j1 = support[0]
    return {jk: -c[jk - 1] / j1 for jk in support[1:]}


def verify_module_relation(n: int, i: int, j: int, k: int) -> bool:
    """Check k*h_ij*e_k - j*h_ik*e_j + i*h_jk*e_i = 0 in the wreath product."""
    if not 1 <= i < j < k <= n:
        raise RankError(f"need 1 <= i < j < k <= n, got ({i}, {j}, {k}) with n = {n}")
    combo = (
        generator_h(n, i, j).module_mul(elementary_symmetric(n, k)) * k
        - generator_h(n, i, k).module_mul(elementary_symmetric(n, j)) * j
        + generator_h(n, j, k).module_mul(elementary_symmetric(n, i)) * i
    )
    return combo.is_zero()


class InvariantDecomposition:
    """Certificate that an invariant equals f1_coeff*(x_1+...+x_n) plus
    the sum over i < j of the generator h_ij acted on by a symmetric
    polynomial given as an e-monomial combination."""

    __slots__ = ("n", "f1_coeff", "parts")

    def __init__(self, n: int, f1_coeff, parts):
        self.n = n
        self.f1_coeff = as_fraction(f1_coeff)
        clean = {}
        for (i, j), q in parts.items():
            if not 1 <= i < j <= n:
                raise RankError(f"bad generator pair ({i}, {j}) for rank {n}")
            if not q.is_zero():
                clean[(i, j)] = q
        self.parts = clean

    def items(self):
        """(i, j, EDecomposition) triples in lexicographic pair order."""
        return [(i, j, self.parts[(i, j)]) for (i, j) in sorted(self.parts)]

    def reconstruct(self) -> LieElement:
        """Evaluate the certificate back to a canonical Lie element."""
        total = sum_of_variables(self.n) * self.f1_coeff
        for i, j, q in self.items():
            total = total + ad_action(generator_h_lie(self.n, i, j), q.expand())
        return total

    def verify(self, f: LieElement) -> bool:
        return self.reconstruct() == f

    def to_text(self) -> str:
        lines = [f"f1 = {self.f1_coeff}"]
        for i, j, q in self.items():
            lines.append(f"q[{i},{j}] = {q.to_text()}")
        return "\n".join(lines)

    def __repr__(self):
        return self.to_text()


@lru_cache(maxsize=None)
def weighted_exponent_vectors(n: int, m: int):
    """All (b_1, ..., b_n) with nonnegative entries and sum k*b_k = m."""
    if n == 0:
        return ((),) if m == 0 else ()
    out = []
    for last in range(m // n + 1):
        for head in weighted_exponent_vectors(n - 1, m - n * last):
            out.append(head + (last,))
    return tuple(out)


def _e_prime(n: int, m: int) -> Polynomial:
    """e_m(x_2, ..., x_n) = sum_{i <= m} (-x_1)^i * e_{m-i} in K[x_1, e_1..e_n].

    The ring is a Polynomial over n + 1 variables, x_1 first and e_q in slot
    q.  The x_1-leading term is (-x_1)^m.  As x_2..x_n are n - 1 variables,
    _e_prime(n, n) stands for zero: it is the relation
    x_1^n = sum_q (-1)^(q+1) e_q x_1^(n-q).
    """
    return Polynomial(
        n + 1, {(i,) + unit_vector(n + 1, m - i)[1:]: (-1) ** i for i in range(m + 1)}
    )


def _module_coordinates(p1: Polynomial, d: int):
    """The (j, b, gamma) with p1 = sum_j e_{j-1}(x_2..x_n) * sum_b gamma * e^b.

    p1 is the u_1-coordinate of a degree-d invariant, a polynomial of degree
    d - 1 symmetric in x_2..x_n; a term of another degree or a coefficient
    that is not symmetric is outside the span of the eps_j.  Grouped by the
    power of x_1, each coefficient is a polynomial in the e_k(x_2..x_n);
    substituting those in K[x_1, e_1..e_n] and dividing from the top
    x_1-degree k down by e_m(x_2..x_n), m = min(k, n), both reduces x_1^k for
    k >= n and peels off r_{k+1} for k < n.  The Chevalley basis
    1, x_1, ..., x_1^(n-1) of the S_(n-1)-invariants over the symmetric
    polynomials makes the r_j unique.
    """
    n = p1.nvars
    outside = InternalConsistencyError(
        f"degree-{d} component is outside the span of the eps_j generators"
    )
    if any(sum(mono) != d - 1 for mono in p1.terms):
        raise outside
    groups = {}
    for mono, coeff in p1.terms.items():
        groups.setdefault(mono[0], {})[mono[1:]] = coeff
    e_prime = [_e_prime(n, m) for m in range(n + 1)]
    work = Polynomial.zero(n + 1)
    for k, group in groups.items():
        try:
            g = decompose_in_elementary(Polynomial(n - 1, group))
        except InvarianceError:
            raise outside from None
        shift = Polynomial.monomial(n + 1, (k,) + (0,) * n)
        work = work + shift * g.substitute(e_prime[1:n])
    out = []
    for k in range(max((mono[0] for mono in work.terms), default=-1), -1, -1):
        top = {mono[1:]: c for mono, c in work.terms.items() if mono[0] == k}
        if not top:
            continue
        m = min(k, n)
        sign = (-1) ** m
        quotient = Polynomial(n + 1, {(k - m,) + b: sign * c for b, c in top.items()})
        work = work - quotient * e_prime[m]
        if k < n:
            out.extend((k + 1, b, sign * c) for b, c in top.items())
    return out


def decompose_invariant(f: LieElement) -> InvariantDecomposition:
    """Decompose an invariant element over the module generators h_ij.

    The linear part must be a multiple of x_1 + ... + x_n and is peeled off.
    Per homogeneous degree d, the embedded component is sum_j eps_j * r_j
    with each r_j symmetric of weighted degree d - j, so its u_1-coordinate
    is sum_j e_{j-1}(x_2..x_n) * r_j; the r_j are peeled off that coordinate
    in the Chevalley basis 1, x_1, ..., x_1^(n-1) over the symmetric
    polynomials, from the top x_1-degree down (no linear solve).  Writing r_j's
    coefficients against the exponent vector a obtained by bumping position
    j, each fixed a satisfies sum_j j * alpha_{a,j} = 0, so the
    weighted-kernel expansion converts the block into h_{j1,jk} terms with
    e-monomial coefficients.  The result is re-verified against the
    embedding before returning.
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
        alpha = {}
        for j, b, gamma in _module_coordinates(embed(grade(fc, d)).upart[0], d):
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


def invariant_space_basis(n: int, d: int):
    """Exact basis of the degree-d invariants, built from the generators h_ij.

    For each e-exponent vector a of weighted degree d with support
    j_1 < ... < j_m, the h_{j_1,j_k} * e^(a - delta_{j_1} - delta_{j_k}), k >= 2,
    form a basis: as many as the Hilbert function counts, with distinct
    embedded images eps_j * e^b.  Returned in reduced echelon form with the
    commutators in decreasing order, each row 1 at its pivot, in increasing
    pivot order: the kernel basis of sigma - 1 that sets one free commutator
    to 1 and the others to 0.
    """
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
