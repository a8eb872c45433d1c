"""Seeded random generators, independent oracles and broken orbit-key checks
shared by the tests."""

from fractions import Fraction

from metabelian import (
    Ad,
    BasisCommutator,
    Bracket,
    LieElement,
    Polynomial,
    Scale,
    Sum,
    Var,
    WreathElement,
    invariants,
)
from reference_impl import bracket_wreath


def random_fraction(rng, zero_ok=True):
    num = rng.randint(-6, 6)
    if not zero_ok and num == 0:
        num = 1
    return Fraction(num, rng.randint(1, 4))


def random_polynomial(rng, nvars, max_degree, max_terms=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        degree = rng.randint(0, max_degree)
        mono = [0] * nvars
        for _ in range(degree):
            mono[rng.randrange(nvars)] += 1
        terms[tuple(mono)] = random_fraction(rng)
    return Polynomial(nvars, terms)


def random_commutator(rng, n, degree):
    """A uniform-ish random basis commutator of the given degree >= 2."""
    i2 = rng.randint(1, n - 1)
    i1 = rng.randint(i2 + 1, n)
    tail = sorted(rng.randint(i2, n) for _ in range(degree - 2))
    return BasisCommutator(i1, i2, tail)


def random_lie_element(rng, n, max_degree, comm_terms=4, with_linear=True):
    linear = [random_fraction(rng) if with_linear else 0 for _ in range(n)]
    comm = {}
    for _ in range(comm_terms):
        degree = rng.randint(2, max(2, max_degree))
        c = random_commutator(rng, n, degree)
        comm[c] = comm.get(c, 0) + random_fraction(rng)
    return LieElement(n, linear, comm)


def random_homogeneous_commutator(rng, n, degree, comm_terms=4):
    comm = {}
    for _ in range(comm_terms):
        c = random_commutator(rng, n, degree)
        comm[c] = comm.get(c, 0) + random_fraction(rng, zero_ok=False)
    return LieElement(n, None, comm)


def random_lie_expr(rng, n, max_leaves):
    """A random expression tree with at most max_leaves variable leaves.

    Returns (expr, leaves, commutator_valued); ad-factors are only applied
    to bracket-valued subtrees so evaluation never leaves the module domain.
    """

    def gen(budget):
        if budget <= 1 or rng.random() < 0.3:
            return Var(rng.randint(1, n)), 1, False
        kind = rng.choice(["bracket", "bracket", "sum", "scale", "ad"])
        if kind == "bracket" or (kind == "ad" and budget < 2):
            left, lu, _ = gen(budget // 2)
            right, ru, _ = gen(budget - budget // 2)
            return Bracket(left, right), lu + ru, True
        if kind == "sum":
            left, lu, lc = gen(budget // 2)
            right, ru, rc = gen(budget - budget // 2)
            return Sum([left, right]), lu + ru, lc and rc
        if kind == "scale":
            sub, used, comm = gen(budget)
            return Scale(random_fraction(rng, zero_ok=False), sub), used, comm
        left, lu, _ = gen(budget // 2)
        right, ru, _ = gen(budget - budget // 2)
        poly = random_polynomial(rng, n, max_degree=2, max_terms=3)
        return Ad(Bracket(left, right), poly), lu + ru, True

    expr, used, comm = gen(max_leaves)
    return expr, used, comm


def delta_variable(n, k):
    """The wreath image of x_k built from scratch: u_k + v_k."""
    upart = [Polynomial.zero(n) for _ in range(n)]
    upart[k - 1] = Polynomial.one(n)
    vpart = [Fraction(0)] * n
    vpart[k - 1] = Fraction(1)
    return WreathElement(n, tuple(upart), tuple(vpart))


def eval_in_wreath(expr, n):
    """Evaluate a Lie expression tree inside the wreath product.

    Independent oracle route: it never calls normal_form, bracket, or embed;
    only wreath arithmetic.
    """
    if isinstance(expr, Var):
        return delta_variable(n, expr.index)
    if isinstance(expr, Sum):
        total = WreathElement.zero(n)
        for part in expr.parts:
            total = total + eval_in_wreath(part, n)
        return total
    if isinstance(expr, Scale):
        return eval_in_wreath(expr.part, n) * expr.coeff
    if isinstance(expr, Bracket):
        return bracket_wreath(eval_in_wreath(expr.left, n), eval_in_wreath(expr.right, n))
    if isinstance(expr, Ad):
        return eval_in_wreath(expr.part, n).module_mul(expr.poly)
    raise TypeError(type(expr).__name__)


def z_vector(n, j1, jk):
    """The two-point weighted-kernel solution: jk at slot j1, -j1 at slot jk."""
    vec = [Fraction(0)] * n
    vec[j1 - 1] = Fraction(jk)
    vec[jk - 1] = Fraction(-j1)
    return vec


def _count_off_by_one(monkeypatch):
    count = invariants._key_count
    monkeypatch.setattr(invariants, "_key_count", lambda n, lam: count(n, lam) + 1)


def _first_entry_of_each_row_negated(monkeypatch):
    rows = invariants._membership_rows

    def flipped(n, d):
        return tuple(((row[0][0], -row[0][1]),) + row[1:] for row in rows(n, d))

    monkeypatch.setattr(invariants, "_membership_rows", flipped)


# one orbit-key check broken so that it rejects invariants such as h_12 at
# n = 3, whose row at the partition (2, 1) starts with a nonzero key value
KEY_CHECK_BREAKS = {
    "count": _count_off_by_one,
    "membership": _first_entry_of_each_row_negated,
}
