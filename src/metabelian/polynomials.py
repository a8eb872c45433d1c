"""Sparse multivariate polynomial arithmetic over the rationals.

A polynomial is a finite map from exponent vectors (tuples of length nvars)
to nonzero Fraction coefficients, so every identity in the library is checked
exactly.  The monomial order used for canonical printing and for the
elementary-symmetric reduction is graded lexicographic with x1 > x2 > ... > xn.

``_add_products`` is the one product loop: it sums products of integer
polynomials as Python ints.  ``sum_of_products`` computes sum_k P_k * Q_k on
it fraction-free, over one common denominator taken before any product, and
makes each output coefficient a Fraction once.  ``Polynomial.__mul__`` is its
one-pair case; u_1 of h_ij and the expansion of an e-polynomial run on it
directly, and the cached columns of the invariant decomposition run on the
int loop itself.

Besides ring arithmetic this module provides the elementary symmetric
polynomials, the symmetry test on the two standard generators of S_n, the
group-averaging projector, and the rewriting of a symmetric polynomial as a
polynomial in e_1, ..., e_n (unique, as the e_k are algebraically independent)
by leading-term reduction of its coefficients at partitions alone, on ints;
the coefficients of an e-monomial at partitions are built on partitions
alone too.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm
from operator import add, sub
from types import MappingProxyType

from .errors import DimensionError, InvarianceError, RankError, _require_ints
from .permutations import Permutation, group_average, moving_generator

Rational = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def as_fraction(value) -> Fraction:
    """Coerce an int or Fraction; floats are rejected to keep arithmetic exact."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def unit_vector(length: int, index: int):
    """The exponent vector with a single 1 at the 0-based ``index``."""
    return tuple(1 if k == index else 0 for k in range(length))


def add_terms(acc, pairs):
    """Add (key, coefficient) pairs into ``acc`` in place and return it.

    A key whose coefficients sum to zero is dropped, so ``acc`` stays a
    sparse map with nonzero values only.  A new key takes its coefficient as
    given, without an addition, so sums keep the type of the coefficients.
    """
    for key, coeff in pairs:
        val = acc.get(key)
        val = coeff if val is None else val + coeff
        if val:
            acc[key] = val
        else:
            acc.pop(key, None)
    return acc


def _denominator(terms) -> int:
    """The lcm of the denominators of a map's int or Fraction values (1 if empty)."""
    return lcm(*(c.denominator for c in terms.values()))


def _integral(terms):
    """(L, the map times L as ints) for L the lcm of a map's denominators."""
    scale = _denominator(terms)
    return scale, {k: c.numerator * (scale // c.denominator) for k, c in terms.items()}


def _add_products(acc, pairs):
    """Add sum_k P_k * Q_k into the int map ``acc`` and return it, for P_k and
    Q_k iterables of (exponent vector, int) pairs, Q_k re-iterable; a sum that
    cancels stays as int 0."""
    for p, q in pairs:
        for m1, a in p:
            for m2, b in q:
                key = tuple(map(add, m1, m2))
                acc[key] = acc.get(key, 0) + a * b
    return acc


def sum_of_products(nvars: int, pairs) -> "Polynomial":
    """sum_k P_k * Q_k over the (P_k, Q_k) in ``pairs``, in nvars variables.

    The common denominator D, the lcm over k of lcm(P_k) * lcm(Q_k), is taken
    before any product.  Then, one pair at a time, the integer polynomials
    P_k * D / lcm(Q_k) and Q_k * lcm(Q_k) are multiplied with their products
    summed as ints by exponent vector, and each nonzero sum v becomes one
    Fraction(v, D).  An empty ``pairs`` gives zero.
    """
    pairs = [(p, q, _denominator(p.terms), _denominator(q.terms)) for p, q in pairs]
    for p, q, _, _ in pairs:
        if p.nvars != nvars or q.nvars != nvars:
            raise DimensionError(
                f"polynomials over {p.nvars} and {q.nvars} variables, expected {nvars}"
            )
    den = lcm(*(dp * dq for _, _, dp, dq in pairs))
    acc = {}
    for p, q, _, dq in pairs:
        left = [(m, c.numerator * (den // (dq * c.denominator))) for m, c in p.terms.items()]
        right = [(m, c.numerator * (dq // c.denominator)) for m, c in q.terms.items()]
        _add_products(acc, ((left, right),))
    return Polynomial._wrap(nvars, {m: Fraction(v, den) for m, v in acc.items() if v})


def read_only(value):
    """Give a cached value read-only term maps and return it.

    A Polynomial's ``terms``, a LieElement's ``comm`` and the ``terms`` of
    each u-coefficient of a WreathElement become ``MappingProxyType`` views,
    so a caller cannot change what later calls of the cache return.
    """
    if hasattr(value, "upart"):
        for p in value.upart:
            read_only(p)
    elif hasattr(value, "comm"):
        value.comm = MappingProxyType(value.comm)
    else:
        value.terms = MappingProxyType(value.terms)
    return value


def signed_text(pieces):
    """Render (coefficient, body) pairs as a signed sum such as ``x1 - 1/2*x2``.

    A unit coefficient is left implicit, an empty body prints the bare
    coefficient, and no pieces print ``"0"``.
    """
    out = []
    for coeff, body in pieces:
        mag = -coeff if coeff < 0 else coeff
        if out:
            out.append(" - " if coeff < 0 else " + ")
        elif coeff < 0:
            out.append("-")
        out.append(str(mag) if not body else body if mag == 1 else f"{mag}*{body}")
    return "".join(out) or "0"


def grlex_key(exponents):
    """Sort key realizing graded lex order with x1 > x2 > ... > xn."""
    return (sum(exponents), exponents)


def default_names(nvars: int, prefix: str = "x"):
    return [f"{prefix}{k}" for k in range(1, nvars + 1)]


class Polynomial:
    """Sparse polynomial with exact rational coefficients in nvars variables."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        _require_ints(nvars)
        if nvars < 1:
            raise RankError(f"a polynomial ring needs at least one variable, got {nvars}")
        self.nvars = nvars
        clean = {}
        if terms:
            for mono, coeff in terms.items():
                mono = tuple(mono)
                if len(mono) != nvars:
                    raise DimensionError(
                        f"exponent vector {mono} has length {len(mono)}, expected {nvars}"
                    )
                if any(type(e) is not int or e < 0 for e in mono):
                    raise DimensionError(f"exponents in {mono} must be nonnegative ints")
                coeff = as_fraction(coeff)
                if coeff != 0:
                    clean[mono] = coeff
        self.terms = clean

    @classmethod
    def _wrap(cls, nvars: int, terms) -> "Polynomial":
        """Build from an already clean term dict, skipping validation."""
        out = cls.__new__(cls)
        out.nvars = nvars
        out.terms = terms
        return out

    # constructors

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars)

    @classmethod
    def one(cls, nvars: int) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: _ONE})

    @classmethod
    def constant(cls, nvars: int, value) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: as_fraction(value)})

    @classmethod
    def variable(cls, nvars: int, k: int) -> "Polynomial":
        """The variable x_k (1-based)."""
        _require_ints(nvars, k)
        if not 1 <= k <= nvars:
            raise RankError(f"variable index {k} outside 1..{nvars}")
        return cls(nvars, {unit_vector(nvars, k - 1): _ONE})

    @classmethod
    def monomial(cls, nvars: int, exponents, coeff=1) -> "Polynomial":
        return cls(nvars, {tuple(exponents): as_fraction(coeff)})

    # basic queries

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coefficient(self, exponents) -> Fraction:
        return self.terms.get(tuple(exponents), _ZERO)

    def total_degree(self) -> int:
        """Largest total degree of a term, or -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    # ring operations

    def _require_same_ring(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise DimensionError(
                f"polynomials over {self.nvars} and {other.nvars} variables"
            )

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._require_same_ring(other)
        return type(self)._wrap(self.nvars, add_terms(dict(self.terms), other.terms.items()))

    def __neg__(self) -> "Polynomial":
        return type(self)._wrap(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._require_same_ring(other)
            product = sum_of_products(self.nvars, ((self, other),))
            return type(self)._wrap(self.nvars, product.terms)
        coeff = as_fraction(other)
        if coeff == 0:
            return type(self).zero(self.nvars)
        return type(self)._wrap(self.nvars, {m: c * coeff for m, c in self.terms.items()})

    def __rmul__(self, other):
        return self * other

    def __pow__(self, exponent: int) -> "Polynomial":
        if type(exponent) is not int:
            raise DimensionError(f"powers must be ints, got {exponent!r}")
        if exponent < 0:
            raise DimensionError("negative powers are not polynomials")
        result = type(self).one(self.nvars)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    __hash__ = None

    # the coefficient map that group_average averages

    def _items(self):
        return self.terms.items()

    def _rebuild(self, coeffs) -> "Polynomial":
        """A polynomial in this ring from a clean map in the form of ``_items``."""
        return Polynomial._wrap(self.nvars, coeffs)

    # structural operations

    def apply_perm(self, sigma: Permutation) -> "Polynomial":
        """The ring automorphism induced by x_i -> x_{sigma(i)}."""
        if sigma.size != self.nvars:
            raise DimensionError(
                f"permutation of degree {sigma.size} on {self.nvars} variables"
            )
        img = sigma.images
        out = {}
        for mono, coeff in self.terms.items():
            new = [0] * self.nvars
            for idx, e in enumerate(mono):
                new[img[idx] - 1] = e
            out[tuple(new)] = coeff
        return Polynomial._wrap(self.nvars, out)

    # printing

    def to_text(self, names=None) -> str:
        if names is None:
            names = default_names(self.nvars)
        pieces = []
        for mono in sorted(self.terms, key=grlex_key, reverse=True):
            factors = [f"{names[i]}^{e}" if e > 1 else names[i] for i, e in enumerate(mono) if e]
            pieces.append((self.terms[mono], "*".join(factors)))
        return signed_text(pieces)

    def __repr__(self):
        return self.to_text()


# typed, so that a float equal to a cached int reaches the check
@lru_cache(maxsize=None, typed=True)
def elementary_symmetric(n: int, q: int) -> Polynomial:
    """e_q in n variables: the sum of all squarefree degree-q monomials.

    e_0 = 1, and e_q = 0 for q > n, matching the generating-function
    convention prod(1 + x_i t) = sum e_q t^q.
    """
    _require_ints(n, q)
    if n < 1:
        raise RankError(f"rank must be positive, got {n}")
    if q < 0:
        raise RankError(f"degree must be nonnegative, got {q}")
    if q == 0:
        return read_only(Polynomial.one(n))
    if q > n:
        return read_only(Polynomial.zero(n))
    terms = {}
    for subset in combinations(range(n), q):
        mono = [0] * n
        for i in subset:
            mono[i] = 1
        terms[tuple(mono)] = _ONE
    return read_only(Polynomial(n, terms))


def _permute(sigma: Permutation, p: Polynomial) -> Polynomial:
    return p.apply_perm(sigma)


def symmetry_violation(p: Polynomial):
    """A generator of S_n that moves p, or None if p is symmetric."""
    return moving_generator(p, _permute, p.nvars)


def is_symmetric(p: Polynomial) -> bool:
    """True iff p is fixed by (1 2) and (1 2 ... n), hence by all of S_n."""
    return symmetry_violation(p) is None


def reynolds_poly(p: Polynomial) -> Polynomial:
    """Average p over the full symmetric group; the projector onto symmetrics."""
    return group_average(p, _permute, p.nvars)


def expand_e_monomial(n: int, exponents) -> Polynomial:
    """Expand e_1^{a_1} * ... * e_n^{a_n} into the plain polynomial ring."""
    exponents = tuple(exponents)
    # checked before the cache, which would serve (1.0,) the entry for (1,)
    _require_ints(n, *exponents)
    return _expand_e_monomial(n, exponents)


@lru_cache(maxsize=None, typed=True)
def _expand_e_monomial(n: int, exponents: tuple) -> Polynomial:
    if len(exponents) != n:
        raise DimensionError(f"exponent vector {exponents} has wrong length for rank {n}")
    result = Polynomial.one(n)
    for k, mult in enumerate(exponents, start=1):
        if mult:
            result = result * elementary_symmetric(n, k) ** mult
    return read_only(result)


expand_e_monomial.cache_info = _expand_e_monomial.cache_info


class EDecomposition(Polynomial):
    """A polynomial in the elementary symmetric polynomials e_1, ..., e_n.

    Since the e_k are algebraically independent, the symmetric polynomials
    form the polynomial ring K[e_1, ..., e_n]: the exponent vectors of the
    terms are on (e_1, ..., e_n), and expanding and summing the e-monomials
    recovers the symmetric polynomial it represents.  Ring operations stay in
    this class, and an EDecomposition never equals a plain Polynomial.
    """

    __slots__ = ()

    @property
    def n(self) -> int:
        return self.nvars

    def expand(self) -> Polynomial:
        n = self.n
        return sum_of_products(
            n, [(expand_e_monomial(n, v), Polynomial.constant(n, c)) for v, c in self.terms.items()]
        )

    def to_text(self, names=None) -> str:
        return super().to_text(names or default_names(self.n, prefix="e"))


def _is_partition(exponents) -> bool:
    return all(a >= b for a, b in zip(exponents, exponents[1:]))


def _partitions(m: int, parts: int, top: int):
    """The partitions of m into at most ``parts`` parts of size at most top,
    as decreasing tuples without zeros, in decreasing lexicographic order."""
    if m == 0:
        yield ()
    elif parts:
        for first in range(min(m, top), 0, -1):
            for rest in _partitions(m - first, parts - 1, first):
                yield (first,) + rest


@lru_cache(maxsize=None, typed=True)
def _partition_part(n: int, evec: tuple):
    """The terms of expand_e_monomial(n, evec) at partitions, as a tuple of
    (exponent vector, int) pairs in decreasing lexicographic order, with no
    polynomial expanded: a symmetric p times e_k has at the partition mu the
    sum of p at mu - 1_S over the k-subsets S of the nonzero parts of mu,
    and p at mu - 1_S is p at the partition that sorts it."""
    part, degree = {(): 1}, 0
    for k, mult in enumerate(evec, start=1):
        for _ in range(mult):
            degree += k
            prev, part = part, {}
            for mu in _partitions(degree, n, degree):
                v = 0
                for s in combinations(range(len(mu)), k):
                    lowered = sorted((e - (i in s) for i, e in enumerate(mu)), reverse=True)
                    v += prev.get(tuple(e for e in lowered if e), 0)
                if v:
                    part[mu] = v
    return tuple((mu + (0,) * (n - len(mu)), v) for mu, v in part.items())


def _reduce_on_partitions(n: int, terms):
    """The e-coordinates of the symmetric polynomial in n variables with terms
    ``terms``, by leading-term reduction of its coefficients at partitions; a
    partition part has 1 at its leader, so int coefficients stay ints."""
    remaining = {m: c for m, c in terms.items() if _is_partition(m)}
    out = {}
    while remaining:
        lead = max(remaining, key=grlex_key)
        coeff = remaining[lead]
        evec = tuple(map(sub, lead, lead[1:] + (0,)))
        out[evec] = coeff
        add_terms(remaining, ((m, -c * coeff) for m, c in _partition_part(n, evec)))
    return out


def decompose_in_elementary(p: Polynomial) -> EDecomposition:
    """Rewrite a symmetric polynomial as a polynomial in e_1, ..., e_n.

    Classical leading-term reduction on the coefficients at partitions
    (l_1 >= ... >= l_n), which fix a symmetric polynomial and hold its
    graded-lex leader: e_1^{l_1 - l_2} ... e_n^{l_n} has that leader with
    coefficient 1, so subtracting its cached partition part lowers it.  It
    runs on p times the lcm L of its denominators, divided by L once.
    """
    sigma = symmetry_violation(p)
    if sigma is not None:
        raise InvarianceError(f"polynomial is not symmetric: moved by {sigma}", sigma)
    scale, terms = _integral(p.terms)
    out = _reduce_on_partitions(p.nvars, terms)
    return EDecomposition._wrap(p.nvars, {e: Fraction(v, scale) for e, v in out.items()})
