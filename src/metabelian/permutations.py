"""Permutations of {1, ..., n} and generating sets of the symmetric group.

``moving_generator`` and ``group_average`` are the one S_n invariance test and
the one S_n average; polynomials and Lie elements pass in their own action.
The average is fraction-free: the element is scaled once to integer
coefficients, its n! images are summed as Python ints into one map, and each
sum is divided once at the end.  ``enumerate_sn`` yields its permutations
through ``Permutation._wrap``, unchecked, since ``itertools.permutations``
only makes valid ones.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import permutations as _all_tuples
from math import factorial, lcm

from .errors import ParseError, RankError, ResourceGuardError, _require_ints

# Full enumeration is used for Reynolds averaging.  At n = 8 its 40320
# permutations take about 0.7 s for a 3-term degree-6 input (Python 3.11 on
# one core of a 2-CPU Xeon VM), and every further n multiplies that by n.
ENUMERATION_CAP = 8


class Permutation:
    """A bijection of {1, ..., n} stored as its tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        if any(type(i) is not int for i in images) or sorted(images) != list(range(1, n + 1)):
            raise RankError(f"not a permutation of 1..{n}: {images}")
        self.images = images

    @classmethod
    def _wrap(cls, images: tuple) -> "Permutation":
        """Build from a tuple already known to be a permutation, skipping validation."""
        out = cls.__new__(cls)
        out.images = images
        return out

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        _require_ints(n)
        return cls(range(1, n + 1))

    @classmethod
    def transposition(cls, n: int, a: int, b: int) -> "Permutation":
        _require_ints(n, a, b)
        if not (1 <= a <= n and 1 <= b <= n):
            raise RankError(f"transposition ({a} {b}) does not fit degree {n}")
        images = list(range(1, n + 1))
        images[a - 1], images[b - 1] = b, a
        return cls(images)

    @classmethod
    def full_cycle(cls, n: int) -> "Permutation":
        """The n-cycle (1 2 ... n), mapping i to i + 1 and n to 1."""
        _require_ints(n)
        return cls(list(range(2, n + 1)) + [1])

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= len(self.images):
            raise RankError(f"point {i} outside 1..{len(self.images)}")
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: (self * other)(i) = self(other(i))."""
        if self.size != other.size:
            raise RankError("cannot compose permutations of different degrees")
        return Permutation(self.images[j - 1] for j in other.images)

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        return Permutation(inv)

    def is_identity(self) -> bool:
        return all(j == i for i, j in enumerate(self.images, start=1))

    def cycles(self):
        """Nontrivial cycles, each starting at its smallest point."""
        seen = set()
        out = []
        for start in range(1, len(self.images) + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            j = self(start)
            while j != start:
                cyc.append(j)
                seen.add(j)
                j = self(j)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(i) for i in c) + ")" for c in cycs)


def sn_generators(n: int):
    """The transposition (1 2) and the n-cycle (1 2 ... n); they generate S_n."""
    if n < 2:
        raise RankError(f"the symmetric group generators need n >= 2, got {n}")
    return [Permutation.transposition(n, 1, 2), Permutation.full_cycle(n)]


def enumerate_sn(n: int):
    """Yield every permutation of {1, ..., n} exactly once (n! of them)."""
    _require_ints(n)
    if n < 1:
        raise RankError(f"degree must be positive, got {n}")
    if n > ENUMERATION_CAP:
        raise ResourceGuardError(
            f"refusing to enumerate S_{n} ({factorial(n)} elements); cap is {ENUMERATION_CAP}"
        )
    yield from map(Permutation._wrap, _all_tuples(range(1, n + 1)))


def moving_generator(x, act, n: int):
    """A generator of S_n that moves x, or None if x is fixed by all of S_n.

    ``act(sigma, x)`` is the image of x under sigma.
    """
    if n == 1:
        return None
    return next((sigma for sigma in sn_generators(n) if act(sigma, x) != x), None)


def group_average(x, act, n: int):
    """The average of ``act(sigma, x)`` over all of S_n, as a new element.

    x lists its coefficients as (key, Fraction) pairs in ``x._items()`` and
    builds an element of its kind from such a map with ``x._rebuild``; the
    action must only move and negate coefficients, so that it maps an
    integer-coefficient copy of x to integer coefficients.  That copy is x
    times the lcm L of its denominators, and each summed coefficient is
    divided once by L * n!.
    """
    scale = lcm(*(c.denominator for _, c in x._items()))
    integral = x._rebuild({k: c.numerator * (scale // c.denominator) for k, c in x._items()})
    acc = {}
    for sigma in enumerate_sn(n):
        for key, v in act(sigma, integral)._items():
            acc[key] = acc.get(key, 0) + v
    den = scale * factorial(n)
    return x._rebuild({k: Fraction(v, den) for k, v in acc.items() if v})


_CYCLE_TOKEN = re.compile(r"\s*(\(|\)|\d+|,)")


def parse_cycles(text: str, n: int) -> Permutation:
    """Parse cycle notation such as ``(1 2)(3 4)`` into a permutation of degree n.

    Cycles are composed right to left, so non-disjoint products follow the
    usual function-composition convention. ``()`` is the identity.
    """
    pos = 0
    cycles = []
    current = None
    while pos < len(text):
        m = _CYCLE_TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r} in cycle notation", pos)
        tok = m.group(1)
        if tok == "(":
            if current is not None:
                raise ParseError("nested '(' in cycle notation", m.start(1))
            current = []
        elif tok == ")":
            if current is None:
                raise ParseError("unmatched ')' in cycle notation", m.start(1))
            cycles.append(current)
            current = None
        elif tok == ",":
            if current is None:
                raise ParseError("',' outside a cycle", m.start(1))
        else:
            if current is None:
                raise ParseError("point outside a cycle", m.start(1))
            point = int(tok)
            if not 1 <= point <= n:
                raise ParseError(f"point {point} outside 1..{n}", m.start(1))
            if point in current:
                raise ParseError(f"point {point} repeated inside a cycle", m.start(1))
            current.append(point)
        pos = m.end()
    if current is not None:
        raise ParseError("unterminated cycle", pos)
    # compose right to left: the rightmost cycle acts first
    result = Permutation.identity(n)
    for cyc in reversed(cycles):
        images = list(range(1, n + 1))
        for k, point in enumerate(cyc):
            images[point - 1] = cyc[(k + 1) % len(cyc)]
        result = Permutation(images) * result
    return result
