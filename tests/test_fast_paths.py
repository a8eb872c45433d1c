"""The closed-form ad-action, the integer sums of actions and the bracket on
them, the fraction-free products, sums of products and S_n average, the
single-pass preimage, the fraction-free elimination, the constructive
invariant basis and the structured decomposition must return exactly what
the original slow paths in reference_impl.py return, every commutator built
unchecked must pass the validating constructor, and the library's
act-and-accumulate loops must all run on sum_of_actions."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import reference_impl as ref
from helpers import (
    random_fraction,
    random_homogeneous_commutator,
    random_lie_element,
    random_polynomial,
)
from metabelian import (
    BasisCommutator,
    EDecomposition,
    InvarianceError,
    InvariantDecomposition,
    LieElement,
    MembershipError,
    Permutation,
    Polynomial,
    WreathElement,
    ad_action,
    apply_perm_lie,
    apply_perm_wreath,
    bracket,
    decompose_invariant,
    elementary_symmetric,
    embed,
    epsilon,
    expand_e_monomial,
    generator_h,
    generator_h_lie,
    invariant_space_basis,
    membership_residual,
    preimage,
    reynolds_lie,
    reynolds_poly,
    sn_generators,
    sum_of_variables,
    verify_module_relation,
)
from metabelian import invariants, lie, linalg, polynomials, wreath
from metabelian.invariants import weighted_exponent_vectors
from metabelian.lie import _ad, _factors, sum_of_actions
from metabelian.linalg import nullspace, solve_exact
from metabelian.polynomials import sum_of_products

seeds = st.integers(0, 2**32 - 1)


@st.composite
def commutators_and_monomials(draw):
    """A basis commutator and an exponent vector (entries <= 3) at rank n <= 8."""
    n = draw(st.integers(2, 8))
    i2 = draw(st.integers(1, n - 1))
    i1 = draw(st.integers(i2 + 1, n))
    tail = draw(st.lists(st.integers(i2, n), max_size=3))
    exponents = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return BasisCommutator(i1, i2, tail), exponents


@settings(max_examples=300, deadline=None)
@given(commutators_and_monomials())
def test_closed_form_ad_matches_the_unit_by_unit_reference(case):
    c, exponents = case
    assert dict(_ad(c, _factors(exponents))) == ref._ad_monomial(c, exponents)


# numerators and denominators up to 8 give factors with mixed denominators
rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 8))


@st.composite
def polynomial_factors(draw):
    """Two factors over one ring of rank 1..4, both Polynomial or both
    EDecomposition: random, A + B and A - B (the cross terms cancel), or
    one factor zero or constant, in either order."""
    n = draw(st.integers(1, 4))
    cls = draw(st.sampled_from([Polynomial, EDecomposition]))
    terms = st.dictionaries(st.tuples(*[st.integers(0, 3)] * n), rationals, max_size=5)
    p = cls(n, draw(terms))
    kind = draw(st.sampled_from(["random", "cancel", "zero", "constant"]))
    if kind == "random":
        q = cls(n, draw(terms))
    elif kind == "cancel":
        b = cls(n, draw(terms))
        p, q = p + b, p - b
    elif kind == "zero":
        q = cls.zero(n)
    else:
        q = cls.constant(n, draw(rationals))
    return draw(st.permutations([p, q]))


@settings(max_examples=300, deadline=None)
@given(polynomial_factors())
def test_fraction_free_product_matches_the_reference(factors):
    p, q = factors
    out = p * q
    assert out == ref.polynomial_product(p, q)
    assert type(out) is type(p)
    assert all(type(c) is Fraction for c in out.terms.values())


@st.composite
def product_sums(draw):
    """(n, pairs) over a ring of rank 1..4: up to four random pairs with
    mixed denominators, possibly none, each possibly followed by its
    negation so that the two cancel to zero."""
    n = draw(st.integers(1, 4))
    terms = st.dictionaries(st.tuples(*[st.integers(0, 3)] * n), rationals, max_size=5)
    pairs = []
    for _ in range(draw(st.integers(0, 4))):
        p, q = Polynomial(n, draw(terms)), Polynomial(n, draw(terms))
        pairs.append((p, q))
        if draw(st.booleans()):
            pairs.append((p, -q))
    return n, draw(st.permutations(pairs))


@settings(max_examples=200, deadline=None)
@given(product_sums())
@example((3, []))
def test_sum_of_products_matches_the_reference_products(case):
    n, pairs = case
    out = sum_of_products(n, pairs)
    total = Polynomial.zero(n)
    for p, q in pairs:
        total = total + ref.polynomial_product(p, q)
    assert out == total
    assert all(type(c) is Fraction for c in out.terms.values())


def basis_commutators(n):
    """Basis commutators at rank n >= 2 with up to two ad-factors."""
    return st.integers(1, n - 1).flatmap(
        lambda i2: st.builds(
            BasisCommutator,
            st.integers(i2 + 1, n),
            st.just(i2),
            st.lists(st.integers(i2, n), max_size=2),
        )
    )


@st.composite
def action_sums(draw):
    """(n, pairs) at rank 2..5: up to four pairs of a commutator map, with
    int or mixed-denominator coefficients, and a polynomial, possibly none,
    each possibly followed by its negation so that the two cancel to zero."""
    n = draw(st.integers(2, 5))
    terms = st.dictionaries(st.tuples(*[st.integers(0, 2)] * n), rationals, max_size=4)
    pairs = []
    for _ in range(draw(st.integers(0, 4))):
        coeffs = draw(st.sampled_from([rationals, st.integers(-3, 3)]))
        comm = draw(st.dictionaries(basis_commutators(n), coeffs, max_size=3))
        p = Polynomial(n, draw(terms))
        pairs.append((comm, p))
        if draw(st.booleans()):
            pairs.append((comm, -p))
    return n, draw(st.permutations(pairs))


@settings(max_examples=100, deadline=None)
@given(action_sums())
@example((3, []))
@example((3, [({BasisCommutator(2, 1): 1}, Polynomial.variable(3, 3) * Fraction(1, 2))]))
def test_sum_of_actions_matches_the_reference_ad_actions(case):
    n, pairs = case
    out = sum_of_actions(n, pairs)
    total = LieElement.zero(n)
    for comm, p in pairs:
        total = total + ref.ad_action(LieElement(n, None, comm), p)
    assert out == total
    assert all(type(c) is Fraction for c in fraction_coefficients(out))


@st.composite
def lie_element_pairs(draw):
    """Two elements at rank 2..5 whose linear parts hold zeros as well as
    mixed-denominator coefficients, with up to three commutators each."""
    n = draw(st.integers(2, 5))
    linear = st.lists(st.one_of(st.just(0), rationals), min_size=n, max_size=n)
    comm = st.dictionaries(basis_commutators(n), rationals, max_size=3)
    return [LieElement(n, draw(linear), draw(comm)) for _ in range(2)]


@settings(max_examples=100, deadline=None)
@given(lie_element_pairs())
def test_bracket_matches_the_reference(elements):
    f, g = elements
    out = bracket(f, g)
    assert out == ref.bracket(f, g)
    assert all(type(c) is Fraction for c in fraction_coefficients(out))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_generator_h_matches_the_reference_formula(n):
    for i, j in combinations(range(1, n + 1), 2):
        h = generator_h(n, i, j)
        assert h == ref.generator_h(n, i, j)
        assert all(type(c) is Fraction for p in h.upart for c in p.terms.values())


@pytest.mark.parametrize("n", range(1, 9))
def test_epsilon_matches_the_reference_listing(n):
    for j in range(1, n + 1):
        assert epsilon(n, j) == ref.epsilon(n, j)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_module_relation_on_u1_matches_the_reference(n):
    for i, j, k in combinations(range(1, n + 1), 3):
        assert verify_module_relation(n, i, j, k) is ref.verify_module_relation(n, i, j, k) is True


def test_both_relation_checks_catch_a_scaled_generator(monkeypatch):
    def scaled(generator):
        def h(n, i, j):
            return generator(n, i, j) * (2 if (i, j) == (1, 2) else 1)

        return h

    monkeypatch.setattr(invariants, "generator_h", scaled(invariants.generator_h))
    monkeypatch.setattr(ref, "generator_h", scaled(ref.generator_h))
    assert verify_module_relation(4, 1, 2, 3) is ref.verify_module_relation(4, 1, 2, 3) is False


def e_without_x1(n, k):
    """e_k(x_2, ..., x_n) listed from its subsets, in the ring of n variables."""
    subsets = combinations(range(1, n), k)
    return Polynomial(n, {tuple(int(v in s) for v in range(n)): 1 for s in subsets})


@st.composite
def u1_coordinates(draw):
    """A polynomial symmetric in x_2..x_n, n <= 5: rational multiples of
    x_1^a * e_k(x_2..x_n)."""
    n = draw(st.integers(2, 5))
    p1 = Polynomial.zero(n)
    for _ in range(draw(st.integers(0, 4))):
        a, k = draw(st.integers(0, 3)), draw(st.integers(0, n - 1))
        p1 = p1 + Polynomial.variable(n, 1) ** a * e_without_x1(n, k) * draw(rationals)
    return p1


@settings(max_examples=100, deadline=None)
@given(u1_coordinates())
def test_spread_is_the_invariant_element_with_that_u1(p1):
    w = invariants._spread(p1)
    assert w.upart[0] == p1 and w.vpart_is_zero()
    for sigma in sn_generators(p1.nvars):
        assert apply_perm_wreath(sigma, w) == w


def rational_lie_element(rng, n):
    """Nonzero linear coefficients with denominators up to 5 and, for
    n >= 2, up to three commutators of degree 2..4 with denominators up to 4."""
    linear = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 6), rng.randint(1, 5)) for _ in range(n)]
    comm = random_lie_element(rng, n, 4, comm_terms=3, with_linear=False).comm if n > 1 else {}
    return LieElement(n, linear, comm)


def fraction_coefficients(x):
    if isinstance(x, LieElement):
        return [*x.linear, *x.comm.values()]
    return list(x.terms.values())


@settings(max_examples=40, deadline=None)
@given(seeds, st.integers(1, 5))
def test_integer_reynolds_matches_the_reference_average(seed, n):
    rng = random.Random(seed)
    f = rational_lie_element(rng, n)
    p = random_polynomial(rng, n, max_degree=4)
    f_copy, p_copy = LieElement(n, f.linear, f.comm), Polynomial(n, p.terms)
    rf, rp = reynolds_lie(f), reynolds_poly(p)
    assert rf == ref.group_average(f, ref.apply_perm_lie, n, LieElement.zero(n))
    assert rp == ref.group_average(p, lambda sigma, x: x.apply_perm(sigma), n, Polynomial.zero(n))
    assert (f, p) == (f_copy, p_copy)
    assert all(type(c) is Fraction for c in fraction_coefficients(rf) + fraction_coefficients(rp))


@pytest.mark.parametrize(
    "cached",
    [
        lambda: generator_h_lie(4, 1, 3),
        lambda: generator_h_lie(3, 1, 2),
        lambda: elementary_symmetric(4, 2),
        lambda: expand_e_monomial(3, (1, 0, 1)),
    ],
)
def test_integer_reynolds_leaves_cached_inputs_alone(cached):
    x = cached()
    average = reynolds_lie if isinstance(x, LieElement) else reynolds_poly
    before = x.to_text()
    out = average(x)
    assert out == x
    assert x.to_text() == before == cached().to_text()
    assert all(type(c) is Fraction for c in fraction_coefficients(out))


@settings(max_examples=100, deadline=None)
@given(seeds, st.integers(1, 6))
def test_apply_perm_lie_matches_the_reference(seed, n):
    rng = random.Random(seed)
    f = rational_lie_element(rng, n)
    images = list(range(1, n + 1))
    rng.shuffle(images)
    sigma = Permutation(images)
    out = apply_perm_lie(sigma, f)
    assert out == ref.apply_perm_lie(sigma, f)
    assert all(type(c) is Fraction for c in fraction_coefficients(out))


@settings(max_examples=200, deadline=None)
@given(commutators_and_monomials(), seeds)
def test_unchecked_keys_pass_the_validating_constructor(case, seed):
    """_ad and apply_perm_lie build their keys without validation; every one
    must be a basis commutator that the public constructor rebuilds."""
    c, exponents = case
    n = len(exponents)
    rng = random.Random(seed)
    images = list(range(1, n + 1))
    rng.shuffle(images)
    f = random_lie_element(rng, n, 6, comm_terms=4)
    keys = [c2 for c2, _ in _ad(c, _factors(exponents))]
    keys += apply_perm_lie(Permutation(images), f).comm
    for key in keys:
        assert type(key) is BasisCommutator
        assert BasisCommutator(key.i1, key.i2, key.tail) == key


FRACTION_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__")


def count_fraction_arithmetic(monkeypatch, fn, *args):
    """fn(*args) and the number of Fraction additions, subtractions and
    multiplications it made."""
    counts = Counter()

    def counting(name, orig):
        def counted(a, b):
            counts[name] += 1
            return orig(a, b)

        return counted

    for name in FRACTION_ARITHMETIC:
        monkeypatch.setattr(Fraction, name, counting(name, getattr(Fraction, name)))
    out = fn(*args)
    monkeypatch.undo()
    return out, sum(counts.values())


def test_reynolds_lie_does_no_fraction_arithmetic_per_permutation(monkeypatch):
    """At n = 5 the average adds and multiplies Fractions at most once per
    input and output coefficient (plus n), not once per permutation and
    term; the reference enumeration, counted by the same wrappers, does."""
    n = 5
    f = rational_lie_element(random.Random(5), n)
    f = f + random_homogeneous_commutator(random.Random(6), n, 4, comm_terms=3) * Fraction(2, 7)
    out, fast = count_fraction_arithmetic(monkeypatch, reynolds_lie, f)
    slow_out, slow = count_fraction_arithmetic(
        monkeypatch, ref.group_average, f, ref.apply_perm_lie, n, LieElement.zero(n)
    )
    bound = (n + len(f.comm)) + (n + len(out.comm)) + n
    assert out == slow_out
    assert fast <= bound < slow


def test_ad_action_does_no_fraction_arithmetic_per_term_pair(monkeypatch):
    """One ad_action at n = 5 by a six-term polynomial makes no Fraction
    addition or product per (commutator, monomial) pair, while the
    reference makes several."""
    n = 5
    f = random_homogeneous_commutator(random.Random(7), n, 4, comm_terms=4)
    p = random_polynomial(random.Random(8), n, 3, max_terms=6)
    out, fast = count_fraction_arithmetic(monkeypatch, ad_action, f, p)
    slow_out, slow = count_fraction_arithmetic(monkeypatch, ref.ad_action, f, p)
    assert out == slow_out
    assert fast == 0 < len(f.comm) * len(p.terms) < slow


def test_act_and_accumulate_loops_run_on_sum_of_actions(monkeypatch):
    """ad_action, bracket with a commutator part and preimage each make
    exactly one sum_of_actions call, reconstruct reads off u_1 and makes
    none, and wreath has no private copy of the ad-action rule."""
    n = 4
    h = generator_h_lie(n, 1, 2)
    f = ad_action(h, elementary_symmetric(n, 1)) + generator_h_lie(n, 1, 3) * 2
    dec = decompose_invariant(f)
    assert dec.reconstruct() == f
    assert len(dec.parts) == 2
    calls = []

    def counted(n, pairs):
        calls.append(n)
        return kernel(n, pairs)

    kernel = lie.sum_of_actions
    assert not hasattr(invariants, "sum_of_actions")
    for mod in (lie, wreath):
        monkeypatch.setattr(mod, "sum_of_actions", counted)

    def kernel_calls(fn, *args):
        del calls[:]
        fn(*args)
        return len(calls)

    assert kernel_calls(ad_action, h, elementary_symmetric(n, 2)) == 1
    assert kernel_calls(bracket, h, LieElement.variable(n, 1)) == 1
    assert kernel_calls(bracket, LieElement.variable(n, 2), h) == 1
    assert kernel_calls(preimage, generator_h(n, 1, 3)) == 1
    assert kernel_calls(dec.reconstruct) == 0
    assert not hasattr(wreath, "_ad") and not hasattr(wreath, "_factors")


@settings(max_examples=80, deadline=None)
@given(seeds, st.integers(2, 6), st.integers(2, 6))
def test_preimage_inverts_embed_like_the_reference(seed, n, max_degree):
    f = random_lie_element(random.Random(seed), n, max_degree, comm_terms=6)
    w = embed(f)
    assert preimage(w) == ref.preimage(w) == f


@settings(max_examples=80, deadline=None)
@given(seeds, st.integers(2, 6), st.booleans())
def test_non_members_raise_with_the_membership_residual(seed, n, with_v):
    rng = random.Random(seed)
    upart = [random_polynomial(rng, n, 4) for _ in range(n)]
    vpart = [random_fraction(rng) if with_v else 0 for _ in range(n)]
    w = WreathElement(n, upart, vpart)
    # preimage tests the u-part after the v-part leaves the constant terms
    residual = membership_residual(
        WreathElement(n, [p - Polynomial.constant(n, v) for p, v in zip(upart, vpart)])
    )
    if residual.is_zero():
        assert preimage(w) == ref.preimage(w)
        return
    with pytest.raises(MembershipError) as new:
        preimage(w)
    with pytest.raises(MembershipError) as old:
        ref.preimage(w)
    assert new.value.residual == residual == old.value.residual
    assert str(new.value) == str(old.value)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_generator_h_lie_matches_the_reference_preimage(n):
    for i, j in combinations(range(1, n + 1), 2):
        assert generator_h_lie(n, i, j) == ref.preimage(generator_h(n, i, j))


fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
entries = st.one_of(st.just(Fraction(0)), fractions)


@st.composite
def augmented_matrices(draw):
    """(ncols, rows): rows hold ncols coefficients plus a right-hand side.

    Rows past the drawn ones are combinations of them, so the matrix is
    often rank-deficient; some get a fresh right-hand side, which usually
    makes the system inconsistent.
    """
    ncols = draw(st.integers(0, 6))
    base = draw(st.lists(st.lists(entries, min_size=ncols + 1, max_size=ncols + 1), max_size=5))
    rows = list(base)
    if base:
        for _ in range(draw(st.integers(0, 3))):
            a, b = draw(st.sampled_from(base)), draw(st.sampled_from(base))
            s, t = draw(fractions), draw(fractions)
            row = [s * x + t * y for x, y in zip(a, b)]
            if draw(st.booleans()):
                row[ncols] = draw(fractions)
            rows.append(row)
    return ncols, rows


def as_system(ncols, rows):
    columns = [{k: row[c] for k, row in enumerate(rows) if row[c] != 0} for c in range(ncols)]
    rhs = {k: row[ncols] for k, row in enumerate(rows) if row[ncols] != 0}
    return columns, rhs


@settings(max_examples=200, deadline=None)
@given(augmented_matrices())
def test_solve_exact_matches_the_reference(case):
    columns, rhs = as_system(*case)
    assert solve_exact(columns, rhs) == ref.solve_exact(columns, rhs)


@settings(max_examples=200, deadline=None)
@given(augmented_matrices())
def test_nullspace_matches_the_reference(case):
    ncols, rows = case
    matrix = [row[:ncols] for row in rows]
    assert nullspace(matrix, ncols) == ref.nullspace(matrix, ncols)
    assert matrix == [row[:ncols] for row in rows]


@pytest.mark.parametrize(
    "columns, rhs",
    [
        ([], {}),
        ([], {"a": Fraction(1, 2)}),
        ([{}, {}], {}),
        ([{}], {"a": Fraction(3)}),
        ([{"a": Fraction(2, 3)}, {"a": Fraction(4, 3)}], {"a": Fraction(5, 7)}),
        ([{"a": Fraction(1)}, {"b": Fraction(1)}], {"a": Fraction(1), "c": Fraction(1, 5)}),
    ],
)
def test_solve_exact_edge_cases_match_the_reference(columns, rhs):
    assert solve_exact(columns, rhs) == ref.solve_exact(columns, rhs)


@pytest.mark.parametrize("rows, ncols", [([], 0), ([], 3), ([[], []], 0), ([[0, 0], [0, 0]], 2)])
def test_nullspace_edge_cases_match_the_reference(rows, ncols):
    assert nullspace(rows, ncols) == ref.nullspace(rows, ncols)


@pytest.mark.parametrize("n, d", [(3, 5), (4, 5)])
def test_basis_oracle_matches_the_reference_nullspace(monkeypatch, n, d):
    fast = ref.invariant_space_basis(n, d)
    monkeypatch.setattr(linalg, "nullspace", ref.nullspace)
    assert fast == ref.invariant_space_basis(n, d)


# (1, 1) is left to test_invariant_basis_small_cases: the oracle's S_n
# generators need n >= 2
BASIS_GRID = [
    (n, d)
    for n, dmax in ((1, 4), (2, 7), (3, 6), (4, 6), (5, 5), (6, 4))
    for d in range(1, dmax + 1)
    if (n, d) != (1, 1)
]


@pytest.mark.parametrize("n, d", BASIS_GRID)
def test_constructive_basis_matches_the_reference_oracle(n, d):
    fast = invariant_space_basis(n, d)
    slow = ref.invariant_space_basis(n, d)
    assert fast == slow
    assert [f.to_text() for f in fast] == [f.to_text() for f in slow]


@pytest.mark.parametrize("n, d", [(3, 6), (4, 5), (5, 4)])
def test_decompose_matches_the_reference_solve(monkeypatch, n, d):
    f = reynolds_lie(random_lie_element(random.Random(10 * n + d), n, d, comm_terms=3))
    fast = decompose_invariant(f)
    slow = ref.decompose_invariant(f)
    monkeypatch.setattr(linalg, "solve_exact", ref.solve_exact)
    assert fast.to_text() == slow.to_text() == ref.decompose_invariant(f).to_text()
    assert fast.verify(f)


@st.composite
def generator_combinations(draw, max_n=6, coefficients=fractions):
    """An invariant at rank n in 2..max_n: a rational multiple of
    x_1 + ... + x_n plus multiples of h_ij * e^b in degrees 3..min(n + 1, 6),
    so below, at and above n where the rank allows."""
    n = draw(st.integers(2, max_n))
    f = sum_of_variables(n) * draw(fractions)
    for _ in range(draw(st.integers(1, 4))):
        d = draw(st.integers(3, min(n + 1, 6)))
        i, j = draw(st.sampled_from([p for p in combinations(range(1, n + 1), 2) if sum(p) <= d]))
        b = draw(st.sampled_from(weighted_exponent_vectors(n, d - i - j)))
        f = f + ad_action(generator_h_lie(n, i, j), expand_e_monomial(n, b)) * draw(coefficients)
    return f


@settings(max_examples=30, deadline=None)
@given(generator_combinations())
def test_structured_decompose_matches_the_reference_solve(f):
    fast = decompose_invariant(f)
    assert fast.to_text() == ref.decompose_invariant(f).to_text()
    assert fast.verify(f)


# numerators prime to the denominators, so that the lcm L of the
# commutator part's denominators exceeds 1 unless every term cancels
scaled_fractions = st.builds(
    Fraction, st.sampled_from([-3, -2, -1, 1, 2, 3]), st.sampled_from([5, 7, 11, 7907, 7919])
)


@settings(max_examples=60, deadline=None)
@given(generator_combinations(max_n=5, coefficients=scaled_fractions))
def test_integer_scaled_decompose_matches_the_reference_solve(f):
    assume(polynomials._denominator(f.comm) > 1)
    dec = decompose_invariant(f)
    assert dec.to_text() == ref.decompose_invariant(f).to_text()
    assert ref.u1_self_check(dec, f)


def _self_check_input(n):
    f = sum_of_variables(n) * Fraction(1, 3) + generator_h_lie(n, 1, 2) * Fraction(1, 7919)
    f = f + ad_action(generator_h_lie(n, 1, 3), elementary_symmetric(n, 1) ** 2) * Fraction(-1, 7907)
    return f + ad_action(generator_h_lie(n, 2, 3), elementary_symmetric(n, 2)) * Fraction(2, 5)


def _wrong_decompositions(dec, scale):
    """dec with one term of one part dropped, or one part rescaled by
    1 + 1/(2 * scale)."""
    wrong = []
    for pair, q in dec.parts.items():
        for b in q.terms:
            dropped = EDecomposition(dec.n, {c: v for c, v in q.terms.items() if c != b})
            wrong.append({**dec.parts, pair: dropped})
        wrong.append({**dec.parts, pair: q * (1 + Fraction(1, 2 * scale))})
    assert len(wrong) > 3
    return [InvariantDecomposition(dec.n, dec.f1_coeff, parts) for parts in wrong]


# the reference's check in K[x_1, e_1..e_n], which the property below
# compares the key self-check with
@pytest.mark.parametrize("n", [3, 4, 5])
def test_the_check_in_x1_and_e_rejects_a_dropped_term_and_a_rescaled_part(n):
    f = _self_check_input(n)
    seen = []
    dec = ref.decompose_by_peeling(f, seen)
    [(_, image, scale)] = seen
    assert scale % (7907 * 7919) == 0 and ref.matches_u1(dec, image, scale)
    assert dec.to_text() == decompose_invariant(f).to_text()
    for bad in _wrong_decompositions(dec, scale):
        assert not ref.matches_u1(bad, image, scale)
        assert not ref.u1_self_check(bad, f)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_the_key_self_check_rejects_a_dropped_term_and_a_rescaled_part(monkeypatch, n):
    f = _self_check_input(n)
    seen, check = [], invariants._matches_keys
    monkeypatch.setattr(invariants, "_matches_keys", lambda *args: seen.append(args) or check(*args))
    dec = decompose_invariant(f)
    [(_, values, scale)] = seen
    assert scale % (7907 * 7919) == 0 and check(dec, values, scale)
    assert all(type(v) is int for v in values.values())
    for bad in _wrong_decompositions(dec, scale):
        assert not check(bad, values, scale)
        assert not ref.u1_self_check(bad, f)
        assert not bad.verify(f)


EDGE_INPUTS = {
    "zero": LieElement.zero(4),
    "linear-only": sum_of_variables(4) * Fraction(-5, 3),
    "rank-one": LieElement(1, (Fraction(2, 3),)),
    "large-lcm": generator_h_lie(4, 1, 2) * Fraction(1, 7919)
    + ad_action(generator_h_lie(4, 2, 3), elementary_symmetric(4, 1)) * Fraction(-1, 7907),
    "moved-by-a-swap": generator_h_lie(3, 1, 2) * Fraction(1, 7919)
    + LieElement.from_commutator(3, BasisCommutator(2, 1), Fraction(-1, 7907)),
    "moved-by-the-cycle": generator_h_lie(3, 1, 2) * Fraction(1, 7919)
    + LieElement(3, (Fraction(1, 7907), Fraction(1, 7907), 0)),
}


@pytest.mark.parametrize("f", EDGE_INPUTS.values(), ids=EDGE_INPUTS)
def test_decompose_edge_inputs_like_the_reference(f):
    if invariants.invariance_violation(f) is not None:
        with pytest.raises(InvarianceError) as new:
            decompose_invariant(f)
        with pytest.raises(InvarianceError) as old:
            ref.decompose_invariant(f)
        assert new.value.permutation == old.value.permutation is not None
        assert str(new.value) == str(old.value)
        return
    dec = decompose_invariant(f)
    assert dec.to_text() == ref.decompose_invariant(f).to_text()
    assert dec.verify(f) and ref.u1_self_check(dec, f)


@st.composite
def invariants_and_near_misses(draw):
    """An invariant at n <= 5, as it is or with one term dropped, one
    coefficient rescaled, one basis commutator of its degree shifted in,
    or one linear coefficient shifted; also multiples of [x2, x1] at n = 2."""
    if draw(st.integers(0, 9)) == 0:
        return LieElement.from_commutator(2, BasisCommutator(2, 1), draw(fractions))
    f = draw(generator_combinations(max_n=5))
    n, comm, linear = f.n, dict(f.comm), list(f.linear)
    if not comm:
        return f
    c = draw(st.sampled_from(sorted(comm, key=BasisCommutator.sort_key)))
    change = draw(st.sampled_from(["none", "drop", "rescale", "shift-term", "shift-linear"]))
    if change == "drop":
        del comm[c]
    elif change == "rescale":
        comm[c] *= draw(st.sampled_from([-1, 2, Fraction(1, 2), Fraction(-3, 7)]))
    elif change == "shift-term":
        i2 = draw(st.integers(1, n - 1))
        i1 = draw(st.integers(i2 + 1, n))
        tail = draw(st.lists(st.integers(i2, n), min_size=c.degree - 2, max_size=c.degree - 2))
        shifted = BasisCommutator(i1, i2, tail)
        comm[shifted] = comm.get(shifted, 0) + draw(fractions)
    elif change == "shift-linear":
        linear[draw(st.integers(0, n - 1))] += draw(fractions)
    return LieElement(n, linear, comm)


@settings(max_examples=200, deadline=None)
@given(invariants_and_near_misses())
def test_the_key_test_names_the_generator_the_reference_names(f):
    sigma = ref.invariance_violation(f)
    assert invariants.invariance_violation(f) == sigma
    if sigma is not None:
        with pytest.raises(InvarianceError) as err:
            decompose_invariant(f)
        assert str(err.value) == f"element is not invariant: moved by {sigma}"


@settings(max_examples=150, deadline=None)
@given(invariants_and_near_misses(), st.sampled_from([None, 2, Fraction(1, 3)]))
def test_decompose_and_verify_on_keys_match_the_peeling_reference(f, factor):
    """The cached columns against the removed per-call module phase and its
    self-check, and verify against the reconstruction through x-products;
    ``factor`` rescales one part of the decomposition, which verify must
    then reject like the reference."""
    try:
        old = ref.decompose_by_peeling(f)
    except InvarianceError as err:
        with pytest.raises(InvarianceError) as new:
            decompose_invariant(f)
        assert str(new.value) == str(err)
        return
    dec = decompose_invariant(f)
    assert dec.to_text() == old.to_text()
    if factor is not None and dec.parts:
        pair = min(dec.parts)
        dec = InvariantDecomposition(f.n, dec.f1_coeff, {**dec.parts, pair: dec.parts[pair] * factor})
    out = dec.reconstruct()
    assert out == ref.reconstruct_on_u1(dec)
    assert out.to_text() == ref.reconstruct_on_u1(dec).to_text()
    assert dec.verify(f) is (ref.reconstruct_on_u1(dec) == f) is (factor is None or not dec.parts)


@settings(max_examples=30, deadline=None)
@given(generator_combinations())
def test_reconstruct_read_off_u1_matches_the_reference_actions(f):
    dec = decompose_invariant(f)
    out = dec.reconstruct()
    assert out == ref.reconstruct(dec) == f
    assert out.to_text() == f.to_text()
    assert all(type(c) is Fraction for c in fraction_coefficients(out))


@pytest.mark.parametrize("n", range(2, 7))
def test_read_off_from_u1_gives_every_generator_lie(n):
    for i, j in combinations(range(1, n + 1), 2):
        h = generator_h(n, i, j)
        out = invariants._lie_from_u1(h.upart[0])
        assert out == generator_h_lie(n, i, j) == ref.preimage(h)
        assert out.to_text() == generator_h_lie(n, i, j).to_text()


@settings(max_examples=100, deadline=None)
@given(seeds, st.integers(1, 6))
def test_tails_read_off_u1_match_the_reference(seed, n):
    p1 = random_polynomial(random.Random(seed), n, 5, max_terms=6)
    fast, slow = invariants._lie_from_u1(p1), ref.lie_from_u1(p1)
    assert fast == slow
    assert fast.to_text() == slow.to_text()


def test_verify_rejects_a_decomposition_with_one_part_doubled():
    n = 4
    f = ad_action(generator_h_lie(n, 1, 2), elementary_symmetric(n, 1))
    f = f + generator_h_lie(n, 1, 3) * Fraction(2, 3) + sum_of_variables(n)
    dec = decompose_invariant(f)
    assert dec.verify(f)
    for pair, q in dec.parts.items():
        doubled = InvariantDecomposition(n, dec.f1_coeff, {**dec.parts, pair: q * 2})
        assert not doubled.verify(f)
        assert doubled.reconstruct() == ref.reconstruct(doubled) != f


@pytest.mark.parametrize("n", range(1, 8))
def test_partition_parts_built_on_partitions_match_the_expansion(monkeypatch, n):
    polynomials._partition_part.cache_clear()
    expansions = []
    monkeypatch.setattr(polynomials, "expand_e_monomial", lambda *a: expansions.append(a))
    built = {evec: polynomials._partition_part(n, evec)
             for d in range(9 - n // 2) for evec in weighted_exponent_vectors(n, d)}
    monkeypatch.undo()
    assert expansions == []
    for evec, part in built.items():
        slow = ref.partition_part(n, evec)
        assert dict(part) == dict(slow) and len(part) == len(slow)
        assert [m for m, _ in part] == sorted((m for m, _ in part), reverse=True)


@st.composite
def symmetric_polynomials(draw):
    """reynolds_poly of a random polynomial in n <= 5 variables, degree <= 4."""
    n = draw(st.integers(1, 5))
    p = random_polynomial(random.Random(draw(seeds)), n, 4, max_terms=5)
    return reynolds_poly(p)


@settings(max_examples=100, deadline=None)
@given(symmetric_polynomials())
def test_partition_elimination_matches_the_full_expansion(p):
    fast = polynomials.decompose_in_elementary(p)
    slow = ref.decompose_in_elementary(p)
    assert fast == slow
    assert fast.to_text() == slow.to_text()
    assert fast.expand() == p


@pytest.mark.parametrize("seed", range(6))
def test_partition_elimination_rejects_asymmetric_input_like_the_reference(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    p = random_polynomial(rng, n, 3) + Polynomial.variable(n, rng.randint(1, n))
    p = p + Polynomial.variable(n, 1) ** 2 * Polynomial.variable(n, 2)
    with pytest.raises(InvarianceError) as new:
        polynomials.decompose_in_elementary(p)
    with pytest.raises(InvarianceError) as old:
        ref.decompose_in_elementary(p)
    assert new.value.permutation == old.value.permutation is not None
    assert str(new.value) == str(old.value)
