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

The embedding is injective and S_n-equivariant, so an invariant element
sum_i u_i p_i is fixed by its u_1-coordinate p_1 (p_sigma(1) = sigma * p_1),
which is symmetric in x_2..x_n: invariants are built on u_1, spread, checked
and read back into Lie form off u_1.  Each Lie coefficient of an invariant is
the value of p_1 on one orbit key (k, lambda), x_1^k times the
S_(n-1)-orbit of a partition lambda on x_2..x_n, so invariance is tested in
one pass over the Lie terms.  Decompose and reconstruct are two cached
linear maps on the key values, on ints: a forward column per key gives the
module coordinates, and a back column per h_ij * e^b gives the key values of
its u_1, which check decompose's result and are expanded and read off to
reconstruct it.  The invariant basis is the kernel of the membership rows.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, factorial, lcm
from operator import add

from .errors import (
    DimensionError,
    DomainError,
    InternalConsistencyError,
    InvarianceError,
    KernelError,
    RankError,
)
from .lie import BasisCommutator, LieElement, _factors, _new, apply_perm_lie
from .linalg import nullspace
from .permutations import Permutation, group_average, moving_generator
from .polynomials import (
    EDecomposition,
    Polynomial,
    _add_products,
    _integral,
    _partition_part,
    _partitions,
    _reduce_on_partitions,
    _require_ints,
    add_terms,
    as_fraction,
    elementary_symmetric,
    grlex_key,
    read_only,
    sum_of_products,
    unit_vector,
)
from .wreath import WreathElement, apply_perm_wreath, embed, preimage

_ZERO = Fraction(0)
_ONE = Fraction(1)


def sum_of_variables(n: int) -> LieElement:
    """x_1 + ... + x_n, the unique invariant outside the commutator ideal."""
    _require_ints(n)
    return LieElement(n, (_ONE,) * n)


def _spread(p1: Polynomial) -> WreathElement:
    """The element with u_k = p1 under (1 k) and zero v-part: for p1 symmetric
    in x_2..x_n, the invariant element whose u_1-coordinate is p1."""
    n = p1.nvars
    swaps = (Permutation.transposition(n, 1, k) for k in range(2, n + 1))
    return WreathElement(n, (p1, *(p1.apply_perm(sigma) for sigma in swaps)))


def _lie_from_u1(p1: Polynomial) -> LieElement:
    """The commutator-ideal invariant with u_1-coordinate p1, read off: the
    coefficient of [x_a, x_m, tail] (content M, m = min M, a > m) is its
    embedded u_a at M/x_a = (1 a)mono, for the term mono = (1 a)M - delta_1
    of p1.  Each commutator comes from one term, so nothing is accumulated;
    the contents are sliced from one factor tuple per term."""
    n = p1.nvars
    comm = {}
    for mono, coeff in p1.terms.items():
        rest = _factors(mono)[mono[0]:]
        for a in range(2, n + 1):
            ea = mono[a - 1]
            s = bisect_left(rest, a)
            content = (1,) * ea + rest[:s] + (a,) * mono[0] + rest[s + ea:]
            if content and content[0] < a:
                comm[_new(BasisCommutator, (a, content[0], content[1:]))] = coeff
    return LieElement._wrap(n, (_ZERO,) * n, comm)


# typed caches, so that a float equal to a cached int reaches the check
@lru_cache(maxsize=None, typed=True)
def epsilon(n: int, j: int) -> WreathElement:
    """The u-linear generator sum_i u_i * e_{j-1}(variables other than x_i)."""
    _require_ints(n, j)
    if not 1 <= j <= n:
        raise RankError(f"index {j} outside 1..{n}")
    # e_{j-1}(x_2..x_n) is the part of e_{j-1} free of x_1
    terms = elementary_symmetric(n, j - 1).terms
    p1 = Polynomial._wrap(n, {m: c for m, c in terms.items() if not m[0]})
    return read_only(_spread(p1))


@lru_cache(maxsize=None, typed=True)
def generator_h(n: int, i: int, j: int) -> WreathElement:
    """The invariant module generator j*eps_i*e_j - i*eps_j*e_i."""
    _require_ints(n, i, j)
    if not 1 <= i < j <= n:
        raise RankError(f"need 1 <= i < j <= n, got ({i}, {j}) with n = {n}")
    pairs = [
        (epsilon(n, i).upart[0], elementary_symmetric(n, j) * j),
        (epsilon(n, j).upart[0], elementary_symmetric(n, i) * -i),
    ]
    return read_only(_spread(sum_of_products(n, pairs)))


@lru_cache(maxsize=None, typed=True)
def generator_h_lie(n: int, i: int, j: int) -> LieElement:
    """generator_h pulled back to canonical Lie basis form."""
    return read_only(preimage(generator_h(n, i, j)))


def _orbit_key(c: BasisCommutator):
    """The orbit key (k, lambda) of c = [x_a, x_m, tail] with content M: the
    term (1 a)M - delta_1 of u_1 that c is read off (see ``_lie_from_u1``)
    is x_1^k, k = M_a - 1, times an exponent vector on x_2..x_n with the
    entries of M other than M_a, whose nonzero ones sorted decreasingly are
    the partition lambda."""
    a, m, tail = c
    mult = {m: 1}
    for t in tail:
        mult[t] = mult.get(t, 0) + 1
    k = mult.pop(a, 0)
    return k, tuple(sorted(mult.values(), reverse=True))


@lru_cache(maxsize=None, typed=True)
def _key_count(n: int, lam: tuple) -> int:
    """count(k, lambda): the number of basis commutators with orbit key
    (k, lambda), for any k.  They are the pairs (nu, a) of a distinct
    rearrangement nu of lambda on x_2..x_n, padded with z zeros to L = n - 1
    slots, and an index a >= the first slot f of nu with a nonzero entry, so
    n + 1 - f per nu.  Summed over the r(lambda) orders of the nonzero parts
    and the C(L, z) placements of the zeros, with C(L - s, z - s) of them
    starting with s zeros, this is r(lambda) * (L*C(L, z) - C(L, z - 1))."""
    slots = n - 1
    zeros = slots - len(lam)
    orders = factorial(len(lam))
    for size in set(lam):
        orders //= factorial(lam.count(size))
    return orders * (slots * comb(slots, zeros) - (comb(slots, zeros - 1) if zeros else 0))


@lru_cache(maxsize=None, typed=True)
def _membership_rows(n: int, d: int):
    """The rows of the membership check sum_i x_i * ((1 i) p_1) = 0 in degree
    d, on orbit keys.  The sum is symmetric, so it vanishes when its
    coefficients at the p_n(d) partitions mu of d vanish; the coefficient at
    mu is the sum of p_1 at (1 i)(mu - delta_i) over the i with mu_i > 0, that
    is, the value of the key (mu_i - 1, mu without one mu_i).  Each row lists
    its distinct (key, multiplicity) pairs."""
    rows = []
    for b in weighted_exponent_vectors(n, d):
        # mu with e^b = e_1^(mu_1 - mu_2) ... e_n^mu_n: mu_i = b_i + ... + b_n
        mu = tuple(part for part in accumulate(b[::-1]) if part)[::-1]
        row = []
        for size in set(mu):
            rest = list(mu)
            rest.remove(size)
            row.append(((size - 1, tuple(rest)), mu.count(size)))
        rows.append(tuple(row))
    return tuple(rows)


def _key_values(linear, comm):
    """The orbit-key values of the commutator part ``comm`` of an invariant
    with linear part ``linear``, or None if it is not invariant: the linear
    part must be uniform, and ``comm`` pass three checks in one pass:

    1. agreement: the terms with one key carry one coefficient;
    2. count: a key holds exactly ``_key_count`` terms;
    3. membership: the ``_membership_rows`` of each degree sum to 0.

    Checks 1 and 2 make ``comm`` the read-off of the u_1-coordinate p_1 that
    is symmetric in x_2..x_n with these key values; check 3 puts the spread
    of p_1 in the embedded image, where it is invariant with the read-off as
    its preimage.  Check 3 is needed: [x_2, x_1] at n = 2 passes 1 and 2.
    """
    n = len(linear)
    if any(v != linear[0] for v in linear):
        return None
    values, sizes = {}, {}
    for c, v in comm.items():
        key = _orbit_key(c)
        if values.setdefault(key, v) != v:
            return None
        sizes[key] = sizes.get(key, 0) + 1
    if any(size != _key_count(n, key[1]) for key, size in sizes.items()):
        return None
    for d in {k + sum(lam) + 1 for k, lam in values}:
        for row in _membership_rows(n, d):
            if sum(values.get(key, 0) * mult for key, mult in row):
                return None
    return values


def _moved_by(x, act, n: int):
    """The generator of S_n that moves x, after the orbit-key checks failed."""
    sigma = moving_generator(x, act, n)
    if sigma is None:
        raise InternalConsistencyError("the orbit-key checks reject an element that S_n fixes")
    return sigma


def invariance_violation(f: LieElement):
    """A generator of S_n that moves f, or None if f is invariant.

    f is invariant when its linear part is uniform and its commutator part
    passes the three orbit-key checks of ``_key_values``: agreement, count
    and membership.  The last is needed, since [x_2, x_1] at n = 2 passes
    the other two.  Only when a check fails are the generators (1 2) and
    (1 2 ... n) applied, to name the first that moves f.
    """
    if _key_values(f.linear, f.comm) is not None:
        return None
    return _moved_by(f, apply_perm_lie, f.n)


def is_invariant_lie(f: LieElement) -> bool:
    return invariance_violation(f) is None


def reynolds_lie(f: LieElement) -> LieElement:
    """Average over the full symmetric group; projects onto the invariants."""
    return group_average(f, apply_perm_lie, f.n)


def solve_weighted_kernel(c):
    """Express a solution of sum_j j*t_j = 0 over the two-point solutions.

    The two-point solution z(j1, jk) has jk at position j1 and -j1 at
    position jk.  For support j_1 < ... < j_m the coefficients are
    beta_k = -c_{j_k} / j_1, and c = sum_k beta_k * z(j_1, j_k); the map
    {j_k: beta_k} is returned (empty for c = 0), with Fraction values.  Int
    entries stay ints; any other entry is taken by ``as_fraction``.

    In the Koszul complex of 1*e_1, ..., n*e_n (see ``decompose_invariant``),
    c is the block at one e-monomial e^a of a d_1-cycle, where the cycle
    condition reads sum_j j * c_j = 0, and z(j1, jk) is the block there of
    h_(j1,jk) * e^(a - delta_j1 - delta_jk), a d_2-image.
    So this is the contracting homotopy of that decomposition on one
    e-monomial: it picks the d_2-preimage that uses the lowest index j_1 of
    the support in every pair.
    """
    c = [v if isinstance(v, int) else as_fraction(v) for v in c]
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
    return {jk: Fraction(-c[jk - 1], j1) for jk in support[1:]}


def verify_module_relation(n: int, i: int, j: int, k: int) -> bool:
    """Check k*h_ij*e_k - j*h_ik*e_j + i*h_jk*e_i = 0 in the wreath product."""
    _require_ints(n, i, j, k)
    if not 1 <= i < j < k <= n:
        raise RankError(f"need 1 <= i < j < k <= n, got ({i}, {j}, {k}) with n = {n}")
    pairs = [
        (generator_h(n, i, j).upart[0], elementary_symmetric(n, k) * k),
        (generator_h(n, i, k).upart[0], elementary_symmetric(n, j) * -j),
        (generator_h(n, j, k).upart[0], elementary_symmetric(n, i) * i),
    ]
    # both sides are invariant with zero v-part, so equal u_1 means equal elements
    return sum_of_products(n, pairs).is_zero()


class InvariantDecomposition:
    """Certificate that an invariant equals f1_coeff*(x_1+...+x_n) plus
    the sum over i < j of the generator h_ij acted on by a symmetric
    polynomial given as an e-monomial combination."""

    __slots__ = ("n", "f1_coeff", "parts")

    def __init__(self, n: int, f1_coeff, parts):
        _require_ints(n)
        if n < 1:
            raise RankError(f"rank must be positive, got {n}")
        self.n = n
        self.f1_coeff = as_fraction(f1_coeff)
        clean = {}
        for (i, j), q in parts.items():
            _require_ints(i, j)
            if not 1 <= i < j <= n:
                raise RankError(f"bad generator pair ({i}, {j}) for rank {n}")
            if not isinstance(q, EDecomposition):
                raise DomainError(f"part ({i}, {j}) is not an EDecomposition")
            if q.n != n:
                raise DimensionError(f"part ({i}, {j}) has rank {q.n}, expected {n}")
            if not q.is_zero():
                clean[(i, j)] = q
        self.parts = clean

    def items(self):
        """(i, j, EDecomposition) triples in lexicographic pair order."""
        return [(i, j, self.parts[(i, j)]) for (i, j) in sorted(self.parts)]

    def reconstruct(self) -> LieElement:
        """Evaluate the certificate back to a canonical Lie element: the cached
        back columns of its terms give the orbit-key values of u_1, whose
        expansion into the rearrangements of each key is read off."""
        n, den = self.n, _denominator_of_parts(self)
        values = {key: Fraction(v, den) for key, v in _scaled_key_values(self, den).items()}
        return LieElement._wrap(n, (self.f1_coeff,) * n, _lie_from_u1(_expand_keys(n, values)).comm)

    def verify(self, f: LieElement) -> bool:
        return self.reconstruct() == f

    def to_text(self) -> str:
        lines = [f"f1 = {self.f1_coeff}"]
        for i, j, q in self.items():
            lines.append(f"q[{i},{j}] = {q.to_text()}")
        return "\n".join(lines)

    def __repr__(self):
        return self.to_text()


@lru_cache(maxsize=None, typed=True)
def weighted_exponent_vectors(n: int, m: int):
    """All (b_1, ..., b_n) with nonnegative entries and sum k*b_k = m."""
    _require_ints(n, m)
    if n == 0:
        return ((),) if m == 0 else ()
    out = []
    for last in range(m // n + 1):
        for head in weighted_exponent_vectors(n - 1, m - n * last):
            out.append(head + (last,))
    return tuple(out)


@lru_cache(maxsize=None, typed=True)
def _e_prime(n: int, m: int):
    """e_m(x_2, ..., x_n) = sum_{i <= m} (-x_1)^i * e_{m-i} in K[x_1, e_1..e_n].

    Its (exponent vector, int) terms, x_1 first and e_q in slot q, end with
    the x_1-leading (-x_1)^m.  As x_2..x_n are n - 1 variables, _e_prime(n, n)
    stands for zero: the relation x_1^n = sum_q (-1)^(q+1) e_q x_1^(n-q).
    """
    return tuple(((i,) + unit_vector(n + 1, m - i)[1:], (-1) ** i) for i in range(m + 1))


@lru_cache(maxsize=None, typed=True)
def _e_prime_monomial(n: int, c: tuple) -> Polynomial:
    """The e-monomial of x_2..x_n with exponents c, in K[x_1, e_1..e_n], on ints
    (each term at x_1^s has the sign (-1)^s, so no product cancels)."""
    terms = {(0,) * (n + 1): 1}
    for m, mult in enumerate(c, start=1):
        for _ in range(mult):
            terms = _add_products({}, ((terms.items(), _e_prime(n, m)),))
    return read_only(Polynomial._wrap(n + 1, terms))


def _peel(terms, n: int):
    """Divide the int map ``terms`` on K[x_1, e_1..e_n] from its top x_1-degree
    k down to 0 by e_m(x_2..x_n), m = min(k, n), whose x_1-leading term is
    (-x_1)^m; returns the quotient as rows {x_1-degree: {e-exponents: int}}.
    Each quotient row is a row times +-1: for k >= n it reduces modulo
    e_n(x_2..x_n) = 0, and for k < n it is the coordinate of e_k(x_2..x_n)."""
    rows = {}
    for mono, v in terms.items():
        if v:
            rows.setdefault(mono[0], {})[mono[1:]] = v
    quotients = {}
    for k in range(max(rows, default=-1), -1, -1):
        top = rows.pop(k, None)
        if not top:
            continue
        m = min(k, n)
        q = quotients[k] = top if m % 2 == 0 else {b: -c for b, c in top.items()}
        for mono, v in _e_prime(n, m)[:-1]:
            row = rows.setdefault(k - m + mono[0], {})
            add_terms(row, ((tuple(map(add, b, mono[1:])), -v * c) for b, c in q.items()))
    return quotients


@lru_cache(maxsize=None, typed=True)
def _forward_column(n: int, key: tuple):
    """The weighted-kernel blocks of the unit value at the orbit key
    (k, lambda), as ((a, j), int) pairs: the invariant whose u_1-coordinate is
    p1 = x_1^k * m_lambda(x_2..x_n) embeds as sum_j eps_j * r_j, and
    alpha_(a, j) is the coefficient of e^(a - delta_j) in r_j.

    m_lambda is reduced on its partitions to a polynomial in the
    e_k(x_2..x_n); the sum of their cached monomials in K[x_1, e_1..e_n]
    times x_1^k is p1, and ``_peel`` divides it from the top x_1-degree down:
    p1 = sum_j e_(j-1)(x_2..x_n) * r_j, unique by the Chevalley basis
    1, x_1, ..., x_1^(n-1) of the S_(n-1)-invariants over the symmetric
    polynomials.  So the map from key values to blocks is linear, and this
    column is its image of one key."""
    k, lam = key
    coords = _reduce_on_partitions(n - 1, {lam + (0,) * (n - 1 - len(lam)): 1})
    x1k = (k,) + (0,) * n
    image = _add_products({}, [(_e_prime_monomial(n, c).terms.items(), ((x1k, v),))
                               for c, v in coords.items()])
    # the quotient row at x_1^t holds r_(t+1)
    return tuple(((b[:t] + (b[t] + 1,) + b[t + 1:], t + 1), gamma)
                 for t, row in _peel(image, n).items() if t < n for b, gamma in row.items())


@lru_cache(maxsize=None, typed=True)
def _back_column(n: int, i: int, j: int, b: tuple):
    """The orbit-key values of the u_1-coordinate of h_ij * e^b, as
    (key, int) pairs.

    It is built in K[x_1, e'_1..e'_(n-1)], e'_m = e_m(x_2..x_n) in slot m,
    where e_m = e'_m + x_1 * e'_(m-1) (e'_0 = 1, e'_n = 0) and u_1 of h_ij is
    j * e'_(i-1) * e_j - i * e'_(j-1) * e_i.  The coefficient of x_1^k * e'^c
    times the cached partition part of e'^c on x_2..x_n gives the values at
    the keys (k, lambda); no product in x_1..x_n runs."""

    def mono(s, q):  # x_1^s * e'_q
        return (s,) + unit_vector(n, q)[1:]

    def e(m):
        return tuple((mono(s, m - s), 1) for s in (0, 1) if m - s < n)

    terms = _add_products({}, ((((mono(0, i - 1), j),), e(j)), (((mono(0, j - 1), -i),), e(i))))
    for m, mult in enumerate(b, start=1):
        for _ in range(mult):
            terms = _add_products({}, ((terms.items(), e(m)),))
    values = {}
    for c, v in terms.items():
        if v:
            for lam, w in _partition_part(n - 1, c[1:]):
                key = (c[0], tuple(part for part in lam if part))
                values[key] = values.get(key, 0) + v * w
    return tuple((key, v) for key, v in values.items() if v)


def _denominator_of_parts(dec: InvariantDecomposition) -> int:
    """The lcm of the denominators of the coefficients of all parts of dec."""
    return lcm(*(c.denominator for q in dec.parts.values() for c in q.terms.values()))


def _scaled_key_values(dec: InvariantDecomposition, mult: int):
    """mult times the orbit-key values of the commutator part of ``dec``, as
    ints, for mult a multiple of every denominator of its parts: each term
    c * e^b of q_ij adds c * mult times the cached back column of h_ij * e^b."""
    acc = {}
    for (i, j), q in dec.parts.items():
        for b, c in q.terms.items():
            s = c.numerator * (mult // c.denominator)
            for key, w in _back_column(dec.n, i, j, b):
                acc[key] = acc.get(key, 0) + s * w
    return {key: v for key, v in acc.items() if v}


def _matches_keys(dec: InvariantDecomposition, values, scale: int) -> bool:
    """Whether the commutator part of ``dec`` has the orbit-key values
    values / scale, for the int key values ``values`` of an invariant times
    ``scale``.  The key values fix the u_1-coordinate, which fixes the
    invariant, so this is the literal check that ``dec`` reconstructs it."""
    den = _denominator_of_parts(dec)
    return _scaled_key_values(dec, den * scale) == {key: den * v for key, v in values.items()}


def _rearrangements(lam: tuple, slots: int):
    """The distinct rearrangements of the partition lam padded with zeros to
    ``slots`` entries, in increasing lexicographic order: from the increasing
    arrangement, each step raises the last entry that is below its right
    neighbour to the least larger entry right of it and reverses the rest."""
    nu = [0] * (slots - len(lam)) + list(lam[::-1])
    while True:
        yield tuple(nu)
        t = slots - 2
        while t >= 0 and nu[t] >= nu[t + 1]:
            t -= 1
        if t < 0:
            return
        s = slots - 1
        while nu[s] <= nu[t]:
            s -= 1
        nu[t], nu[s] = nu[s], nu[t]
        nu[t + 1:] = nu[:t:-1]


def _expand_keys(n: int, values) -> Polynomial:
    """The u_1-coordinate, symmetric in x_2..x_n, with orbit-key values
    ``values``: x_1^k times every rearrangement of lambda on x_2..x_n."""
    return Polynomial._wrap(n, {(k,) + nu: v for (k, lam), v in values.items()
                                for nu in _rearrangements(lam, n - 1)})


def decompose_invariant(f: LieElement) -> InvariantDecomposition:
    """Decompose an invariant element over the module generators h_ij.

    The linear part must be a multiple of x_1 + ... + x_n and is peeled off.
    The commutator part times the lcm L of its denominators has int
    coefficients; one pass over it tests invariance with the three orbit-key
    checks of ``_key_values`` (agreement, count and membership, which alone
    rejects [x_2, x_1] at n = 2) and gives the key values of L * u_1.  Only
    when a check fails is the input embedded, to name the generator that
    moves it in the wreath product.

    Per homogeneous degree d, the embedded component is sum_j eps_j * r_j
    with each r_j symmetric of weighted degree d - j.  Writing r_j's
    coefficients against the exponent vector a obtained by bumping position
    j gives the blocks alpha_(a, j), a linear image of the key values: one
    sparse int product with the cached ``_forward_column`` of each key.
    This is the Koszul complex K_2 -> K_1 -> K_0 of the regular sequence
    1*e_1, ..., n*e_n over R = K[e_1..e_n]: K_1 is free on E_1..E_n,
    d_1(E_j) = j * e_j and d_2(E_i ^ E_j) = i*e_i * E_j - j*e_j * E_i.
    sum_j r_j * E_j is a d_1-cycle, since sum_i x_i * e_(j-1)(all but x_i)
    = j * e_j makes sum_j j * e_j * r_j the membership sum
    sum_i x_i * (u_i-coordinate) = 0; at each e^a this says
    sum_j j * alpha_(a, j) = 0.  h_ij is -d_2(E_i ^ E_j), so writing the
    cycle over the h_ij is finding a d_2-preimage, which exactness
    guarantees.  The block loop finds one, an e-monomial at a time, with the
    weighted-kernel expansion (``solve_weighted_kernel``): a K-linear
    contracting homotopy.  The h_(j1,jk) terms it gives are divided by L
    once.  The result is checked before returning: the cached
    ``_back_column`` values of its terms sum to the key values, on ints,
    with no q_ij expanded.
    """
    n = f.n
    scale, comm = _integral(f.comm)
    values = _key_values(f.linear, comm)
    if values is None:
        violation = _moved_by(embed(f), apply_perm_wreath, n)
        raise InvarianceError(f"element is not invariant: moved by {violation}", violation)
    alpha = {}
    for key, v in values.items():
        for (a, j), gamma in _forward_column(n, key):
            alpha.setdefault(a, [0] * n)[j - 1] += v * gamma
    parts_acc = {}
    for a, cvec in sorted(alpha.items(), key=lambda kv: grlex_key(kv[0])):
        if not any(cvec):
            continue
        try:
            betas = solve_weighted_kernel(cvec)
        except KernelError:
            raise InternalConsistencyError(
                f"block {a} violates the weighted constraint; "
                "the input cannot come from the commutator ideal"
            ) from None
        j1 = next(k + 1 for k, v in enumerate(cvec) if v != 0)
        for jk, beta in betas.items():
            newexp = list(a)
            newexp[j1 - 1] -= 1
            newexp[jk - 1] -= 1
            if min(newexp) < 0:
                raise InternalConsistencyError(
                    f"negative e-exponent while splitting block {a}"
                )
            add_terms(parts_acc.setdefault((j1, jk), {}), ((tuple(newexp), beta),))
    result = InvariantDecomposition(n, f.linear[0], {
        pair: EDecomposition._wrap(n, {b: v / scale for b, v in terms.items()})
        for pair, terms in parts_acc.items()})
    if not _matches_keys(result, values, scale):
        raise InternalConsistencyError("reassembled decomposition does not match the input")
    return result


def _partitions_bounded(n: int, m: int) -> int:
    """p_n(m): the number of partitions of m into parts of size at most n."""
    counts = [1] + [0] * m
    for part in range(1, n + 1):
        for total in range(part, m + 1):
            counts[total] += counts[total - part]
    return counts[m]


def hilbert_function(n: int, d: int) -> int:
    """The dimension of the degree-d invariants, len(invariant_space_basis(n, d)).

    A closed form, so it costs nothing next to building the basis: 0 for
    d < 1, 1 for d = 1, and for d >= 2 one basis element per e-monomial e^a
    of weighted degree d and per index of its support but the first, which
    is sum_{j <= min(n, d)} p_n(d - j) - p_n(d) with p_n(m) the number of
    partitions of m into parts of size at most n.

    The same number is the Euler characteristic of the Koszul complex of
    1*e_1, ..., n*e_n over R = K[e_1..e_n], with e_j of weight j: its degree-d
    part K_k has dimension sum_(|S| = k) p_n(d - sum S) over the k-subsets
    S of {1..n}, as p_n(m) is the dimension of R in weight m.  For d >= 2
    the invariants of degree d correspond to the d_1-cycles of degree d
    (see ``decompose_invariant``), and a regular sequence makes the complex
    exact at K_k for k >= 1.  So their dimension is that of the d_2-image,
    sum_(k >= 2) (-1)^k dim K_k.  Its homology at K_0, R/(e_1..e_n) = K,
    sits in weight 0, so in weight d >= 1 the alternating sum over all k
    vanishes, which turns that into dim K_1 - dim K_0 =
    sum_j p_n(d - j) - p_n(d).
    """
    _require_ints(n, d)
    if n < 1:
        raise RankError(f"rank must be positive, got {n}")
    if d < 1:
        return 0
    if d == 1:
        return 1
    return sum(
        _partitions_bounded(n, d - j) for j in range(1, min(n, d) + 1)
    ) - _partitions_bounded(n, d)


def invariant_space_basis(n: int, d: int):
    """Exact basis of the degree-d invariants: the kernel of the membership
    rows on the orbit keys of degree d, read off.

    For d >= 2 an invariant is the read-off of its key values, and key values
    read off to an invariant exactly when they pass the membership rows.  The
    keys are the (k, lambda) with k <= d - 2 and lambda a partition of
    d - 1 - k into at most n - 1 parts; (d - 1, ()) reads off no commutator.
    Returned in reduced echelon form with the commutators in decreasing
    order, each row 1 at its pivot, in increasing pivot order.  A key's value
    is copied to all its commutators, so only its largest one can be a pivot:
    with the keys in decreasing order of that commutator, the echelon form
    over keys is the one over commutators.  ``nullspace`` on the columns in
    reverse order returns it: each vector is 1 at its free column, 0 at the
    others, and nonzero elsewhere only at pivot columns after it in key order.
    """
    _require_ints(n, d)
    if n < 1:
        raise RankError(f"rank must be positive, got {n}")
    if d < 1:
        return []
    if d == 1:
        return [sum_of_variables(n)]
    def lead(key):  # the largest commutator that the key reads off
        return max(map(BasisCommutator.sort_key, _lie_from_u1(_expand_keys(n, {key: 1})).comm))

    keys = sorted(((k, lam) for k in range(d - 1) for lam in _partitions(d - 1 - k, n - 1, d)),
                  key=lead)
    rows = [[row.get(key, 0) for key in keys] for row in map(dict, _membership_rows(n, d))]
    return [_lie_from_u1(_expand_keys(n, {key: v for key, v in zip(keys, vec) if v}))
            for vec in nullspace(rows, len(keys))]
