"""Canonical-form arithmetic in the free metabelian Lie algebra on x_1..x_n.

The commutator ideal has a linear basis of left-normed brackets

    [x_{i1}, x_{i2}, x_{i3}, ..., x_{id}]   with   i1 > i2 <= i3 <= ... <= id,

where [a, b, c] abbreviates [[a, b], c].  The factors past the first two
commute as operators on the commutator ideal, which turns it into a module
over the polynomial ring: acting by a monomial appends its variables as
ad-factors.  Every element is stored as a linear part plus a finite map from
basis commutators to rational coefficients, so equality is literal.

Rewriting into the basis uses four rules: bilinearity, antisymmetry, the
vanishing of brackets between two commutators, and the length-3 Jacobi
rearrangement [a, b, c] = [a, c, b] - [b, c, a], which ``_ad`` applies at most
once per monomial.  ``sum_of_actions``, the twin of ``sum_of_products``, is
the one loop that acts on basis commutators by polynomials and adds up, on
integer numerators over one common denominator: ``ad_action``, the mixed part
of ``bracket`` and the wreath ``preimage`` run on it.

A permutation of the variables only moves basis commutators and flips signs,
so ``apply_perm_lie`` never multiplies coefficients and keeps their type; the
S_n average runs it on an integer-coefficient copy and divides once at the
end.

A basis commutator is an immutable tuple (i1, i2, tail), so dict keys are
hashed and compared in C, and it equals the plain tuple of the same three
entries.  The public constructor validates; ``_ad`` and ``apply_perm_lie``
build their results, which are in basis order by construction, unchecked
with ``tuple.__new__``.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import itemgetter

from .errors import DimensionError, DomainError, RankError
from .polynomials import (
    Polynomial, _denominator, _require_ints, add_terms, as_fraction, signed_text, unit_vector
)

_ZERO = Fraction(0)


class BasisCommutator(tuple):
    """A basis bracket: the tuple (i1, i2, tail) with tail the sorted ad-factors."""

    __slots__ = ()

    def __new__(cls, i1: int, i2: int, tail=()):
        tail = tuple(tail)
        if any(type(i) is not int for i in (i1, i2, *tail)):
            raise DomainError(f"indices ({i1!r}, {i2!r}, {tail!r}) must be ints")
        tail = tuple(sorted(tail))
        if i2 < 1 or i1 <= i2 or (tail and tail[0] < i2):
            raise DomainError(
                f"indices ({i1}, {i2}, {tail}) violate the basis order i1 > i2 <= tail"
            )
        return _new(cls, (i1, i2, tail))

    def __getnewargs__(self):
        return tuple(self)

    i1 = property(itemgetter(0))
    i2 = property(itemgetter(1))
    tail = property(itemgetter(2))

    @property
    def degree(self) -> int:
        return 2 + len(self[2])

    def indices(self):
        """The flattened left-normed index sequence (i1, i2, tail...)."""
        i1, i2, tail = self
        return (i1, i2) + tail

    def sort_key(self):
        i1, i2, tail = self
        return (2 + len(tail), i1, i2, tail)

    def max_index(self) -> int:
        i1, _, tail = self
        return max(i1, tail[-1]) if tail else i1

    def __repr__(self):
        return "[" + ",".join(f"x{i}" for i in self.indices()) + "]"


# builds a BasisCommutator from an (i1, i2, tail) triple without validation
_new = tuple.__new__


def _factors(exponents):
    """The sorted variable indices of a monomial, with multiplicity."""
    return tuple(j for j, e in enumerate(exponents, 1) for _ in range(e))


def _ad(c: BasisCommutator, factors):
    """Act on a basis commutator by the monomial with sorted ``factors``.

    Returns (commutator, +-1) pairs.  When the smallest factor j is at least
    i2 every factor slots into the tail.  Otherwise the Jacobi rearrangement
    [i1, i2, j] = [i1, j, i2] - [i2, j, i1] applies once; j is then the second
    entry and the minimum, so the remaining factors join the tail.  The two
    results are distinct and never cancel.
    """
    i1, i2, tail = c
    if not factors or factors[0] >= i2:
        return ((_new(BasisCommutator, (i1, i2, tuple(sorted(tail + factors)))), 1),)
    j = factors[0]
    rest = tail + factors[1:]
    return (
        (_new(BasisCommutator, (i1, j, tuple(sorted(rest + (i2,))))), 1),
        (_new(BasisCommutator, (i2, j, tuple(sorted(rest + (i1,))))), -1),
    )


class LieElement:
    """An element of the free metabelian Lie algebra in canonical basis form."""

    __slots__ = ("n", "linear", "comm")

    def __init__(self, n: int, linear=None, comm=None):
        _require_ints(n)
        if n < 1:
            raise RankError(f"rank must be positive, got {n}")
        self.n = n
        if linear is None:
            self.linear = (_ZERO,) * n
        else:
            linear = tuple(as_fraction(v) for v in linear)
            if len(linear) != n:
                raise DimensionError(f"linear part has length {len(linear)}, expected {n}")
            self.linear = linear
        clean = {}
        if comm:
            for c, coeff in comm.items():
                if not isinstance(c, BasisCommutator):
                    raise DomainError(f"key {c!r} is not a BasisCommutator")
                if c.max_index() > n:
                    raise RankError(f"commutator {c} uses a variable beyond x{n}")
                coeff = as_fraction(coeff)
                if coeff != 0:
                    clean[c] = coeff
        self.comm = clean

    @classmethod
    def _wrap(cls, n: int, linear, comm) -> "LieElement":
        """Build from an already clean linear tuple and term dict, skipping validation."""
        out = cls.__new__(cls)
        out.n = n
        out.linear = linear
        out.comm = comm
        return out

    @classmethod
    def zero(cls, n: int) -> "LieElement":
        return cls(n)

    @classmethod
    def variable(cls, n: int, k: int) -> "LieElement":
        _require_ints(n, k)
        if not 1 <= k <= n:
            raise RankError(f"variable index {k} outside 1..{n}")
        return cls(n, unit_vector(n, k - 1))

    @classmethod
    def from_commutator(cls, n: int, c: BasisCommutator, coeff=1) -> "LieElement":
        return cls(n, None, {c: as_fraction(coeff)})

    def is_zero(self) -> bool:
        return not self.comm and all(v == 0 for v in self.linear)

    def linear_is_zero(self) -> bool:
        return all(v == 0 for v in self.linear)

    # the coefficient map that group_average averages

    def _items(self):
        """The linear coefficients keyed by 0-based index, then the commutators.

        Zero linear coefficients are listed too, so the S_n average tests no
        coefficient per permutation; its integer copy holds them as int 0.
        """
        return [*enumerate(self.linear), *self.comm.items()]

    def _rebuild(self, coeffs) -> "LieElement":
        """An element of this rank from a clean map in the form of ``_items``."""
        linear = tuple(coeffs.pop(k, _ZERO) for k in range(self.n))
        return LieElement._wrap(self.n, linear, coeffs)

    def commutator_part(self) -> "LieElement":
        return LieElement(self.n, None, self.comm)

    def degrees(self):
        """Sorted list of homogeneous degrees present."""
        out = set()
        if not self.linear_is_zero():
            out.add(1)
        out.update(c.degree for c in self.comm)
        return sorted(out)

    def __add__(self, other: "LieElement") -> "LieElement":
        if self.n != other.n:
            raise DimensionError(f"ranks {self.n} and {other.n} differ")
        return LieElement._wrap(
            self.n,
            tuple(a + b for a, b in zip(self.linear, other.linear)),
            add_terms(dict(self.comm), other.comm.items()),
        )

    def __neg__(self) -> "LieElement":
        return LieElement._wrap(
            self.n,
            tuple(-v for v in self.linear),
            {c: -v for c, v in self.comm.items()},
        )

    def __sub__(self, other: "LieElement") -> "LieElement":
        return self + (-other)

    def __mul__(self, scalar) -> "LieElement":
        scalar = as_fraction(scalar)
        if scalar == 0:
            return LieElement.zero(self.n)
        return LieElement._wrap(
            self.n,
            tuple(v * scalar for v in self.linear),
            {c: v * scalar for c, v in self.comm.items()},
        )

    def __rmul__(self, scalar):
        return self * scalar

    def __eq__(self, other):
        return (
            isinstance(other, LieElement)
            and self.n == other.n
            and self.linear == other.linear
            and self.comm == other.comm
        )

    __hash__ = None

    def to_text(self) -> str:
        pieces = [(coeff, f"x{k}") for k, coeff in enumerate(self.linear, 1) if coeff != 0]
        for c in sorted(self.comm, key=BasisCommutator.sort_key):
            pieces.append((self.comm[c], repr(c)))
        return signed_text(pieces)

    def __repr__(self):
        return self.to_text()


def sum_of_actions(n: int, pairs) -> LieElement:
    """sum_k c_k * p_k(ad x_1, ..., ad x_n) over the (c_k, p_k) in ``pairs``.

    c_k maps basis commutators on x_1..x_n to int or Fraction coefficients
    and p_k is a polynomial in n variables.  As in ``sum_of_products``, the
    common denominator D is taken first, the integer numerator products are
    acted on through ``_ad`` and summed as ints per basis commutator, and
    each nonzero sum v becomes one Fraction(v, D).  Empty ``pairs`` give 0.
    """
    pairs = [(c, p, _denominator(c), _denominator(p.terms)) for c, p in pairs]
    for _, p, _, _ in pairs:
        if p.nvars != n:
            raise DimensionError(f"polynomial over {p.nvars} variables, rank is {n}")
    den = lcm(*(dc * dp for _, _, dc, dp in pairs))
    acc = {}
    for comm, p, dc, dp in pairs:
        scale = den // (dc * dp)
        monomials = [(_factors(m), b.numerator * (dp // b.denominator) * scale)
                     for m, b in p.terms.items()]
        for c, gamma in comm.items():
            a = gamma.numerator * (dc // gamma.denominator)
            for factors, b in monomials:
                for c2, sign in _ad(c, factors):
                    acc[c2] = acc.get(c2, 0) + sign * a * b
    return LieElement._wrap(n, (_ZERO,) * n, {c: Fraction(v, den) for c, v in acc.items() if v})


def bracket(f: LieElement, g: LieElement) -> LieElement:
    """The Lie bracket [f, g], returned in canonical basis form.

    Brackets between two commutator-ideal elements vanish (the algebra is
    metabelian); a commutator part times the other side's linear part is the
    ad-action of that linear polynomial, and two linear parts give pair
    brackets of variables.
    """
    if f.n != g.n:
        raise DimensionError(f"ranks {f.n} and {g.n} differ")
    n = f.n
    pairs = []
    for part, lin, neg in ((f.comm, g.linear, False), (g.comm, f.linear, True)):
        if part and any(lin):
            terms = {unit_vector(n, j): -v if neg else v for j, v in enumerate(lin) if v}
            pairs.append((part, Polynomial._wrap(n, terms)))
    comm = sum_of_actions(n, pairs).comm if pairs else {}
    pair_brackets = (
        (BasisCommutator(i, j), a * b) if i > j else (BasisCommutator(j, i), -a * b)
        for i, a in enumerate(f.linear, 1) if a
        for j, b in enumerate(g.linear, 1) if b and i != j
    )
    return LieElement._wrap(n, (_ZERO,) * n, add_terms(comm, pair_brackets))


def ad_action(f: LieElement, p: Polynomial) -> LieElement:
    """The module action f * p(ad x_1, ..., ad x_n) on the commutator ideal,
    where ad-factors commute: the one-pair case of ``sum_of_actions``."""
    if not f.linear_is_zero():
        raise DomainError("the polynomial action is defined on the commutator ideal only")
    return sum_of_actions(f.n, [(f.comm, p)])


def apply_perm_lie(sigma, f: LieElement) -> LieElement:
    """The algebra automorphism induced by x_i -> x_{sigma(i)}, renormalized.

    Coefficients are only moved and negated, never multiplied, so they keep
    their type: ``group_average`` runs this on an integer-coefficient copy.
    """
    if sigma.size != f.n:
        raise DimensionError(f"permutation degree {sigma.size}, rank {f.n}")
    img = (0, *sigma.images)
    linear = [_ZERO] * f.n
    for idx, coeff in enumerate(f.linear, 1):
        linear[img[idx] - 1] = coeff
    acc = {}
    for (i1, i2, tail), gamma in f.comm.items():
        a, b = img[i1], img[i2]
        if a < b:
            a, b, gamma = b, a, -gamma
        factors = sorted(map(img.__getitem__, tail))
        if not factors or factors[0] >= b:
            key = _new(BasisCommutator, (a, b, tuple(factors)))
            acc[key] = acc.get(key, 0) + gamma
            continue
        # the Jacobi split of _ad, [a, b, j] = [a, j, b] - [b, j, a], kept inline:
        # calling _ad here made reynolds_lie 13-18% slower on the bench decompose inputs
        j = factors[0]
        rest = factors[1:]
        key = _new(BasisCommutator, (a, j, tuple(sorted(rest + [b]))))
        acc[key] = acc.get(key, 0) + gamma
        key = _new(BasisCommutator, (b, j, tuple(sorted(rest + [a]))))
        acc[key] = acc.get(key, 0) - gamma
    return LieElement._wrap(f.n, tuple(linear), {c: v for c, v in acc.items() if v})


# expression trees -----------------------------------------------------------

class LieExpr:
    """Abstract syntax for Lie expressions fed to normal_form."""

    __slots__ = ()


class Var(LieExpr):
    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index

    def __repr__(self):
        return f"x{self.index}"


class Sum(LieExpr):
    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = tuple(parts)

    def __repr__(self):
        return "(" + " + ".join(repr(p) for p in self.parts) + ")" if self.parts else "0"


class Scale(LieExpr):
    __slots__ = ("coeff", "part")

    def __init__(self, coeff, part: LieExpr):
        self.coeff = as_fraction(coeff)
        self.part = part

    def __repr__(self):
        return f"{self.coeff}*{self.part!r}"


class Bracket(LieExpr):
    __slots__ = ("left", "right")

    def __init__(self, left: LieExpr, right: LieExpr):
        self.left = left
        self.right = right

    def __repr__(self):
        return f"[{self.left!r},{self.right!r}]"


class Ad(LieExpr):
    """Postfix application of a polynomial in the ad-operators."""

    __slots__ = ("part", "poly")

    def __init__(self, part: LieExpr, poly: Polynomial):
        self.part = part
        self.poly = poly

    def __repr__(self):
        return f"{self.part!r} ad({self.poly!r})"


def normal_form(expr: LieExpr, n: int) -> LieElement:
    """Evaluate an expression tree to the unique canonical basis form."""
    if isinstance(expr, Var):
        return LieElement.variable(n, expr.index)
    if isinstance(expr, Sum):
        total = LieElement.zero(n)
        for part in expr.parts:
            total = total + normal_form(part, n)
        return total
    if isinstance(expr, Scale):
        return normal_form(expr.part, n) * expr.coeff
    if isinstance(expr, Bracket):
        return bracket(normal_form(expr.left, n), normal_form(expr.right, n))
    if isinstance(expr, Ad):
        return ad_action(normal_form(expr.part, n), expr.poly)
    raise TypeError(f"not a Lie expression node: {type(expr).__name__}")
