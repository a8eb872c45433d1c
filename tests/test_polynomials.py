import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_impl as ref
from metabelian import (
    DimensionError,
    EDecomposition,
    InvarianceError,
    LieElement,
    Permutation,
    Polynomial,
    RankError,
    Rational,
    WreathElement,
    decompose_in_elementary,
    elementary_symmetric,
    expand_e_monomial,
    hilbert_function,
    invariant_space_basis,
    is_symmetric,
    reynolds_poly,
    sum_of_variables,
    symmetry_violation,
)
from metabelian.invariants import weighted_exponent_vectors
from metabelian.permutations import enumerate_sn, sn_generators

x = Polynomial.variable


def test_rational_contract():
    # reduced form, positive denominator, canonical zero
    r = Rational(6, -4)
    assert (r.numerator, r.denominator) == (-3, 2)
    assert Rational(0, 7) == Rational(0) and Rational(0).denominator == 1
    assert Rational(1, 3) + Rational(2, 3) == 1


def test_difference_of_squares():
    p = (x(2, 1) + x(2, 2)) * (x(2, 1) - x(2, 2))
    assert p == x(2, 1) ** 2 - x(2, 2) ** 2


def test_additive_identity_and_zero_terms():
    p = 3 * x(3, 1) * x(3, 2) - x(3, 3)
    assert p + Polynomial.zero(3) == p
    assert (p - p).is_zero()
    assert all(c != 0 for c in (p - x(3, 3) * -1 - p).terms.values())


def test_identity_substitution():
    p = Fraction(3, 2) * x(2, 1) ** 2 * x(2, 2) - x(2, 1)
    assert ref.substitute(p, [x(2, 1), x(2, 2)]) == p


def test_substitution_changes_ring():
    p = x(2, 1) * x(2, 2)
    q = ref.substitute(p, [x(3, 1) + x(3, 2), x(3, 3)])
    assert q == (x(3, 1) + x(3, 2)) * x(3, 3)


def test_mismatched_rings_rejected():
    with pytest.raises(DimensionError):
        x(2, 1) + x(3, 1)
    with pytest.raises(DimensionError):
        x(2, 1) * x(3, 1)


@pytest.mark.parametrize("mono", [(1.5, 0), ("1", 0), (True, 0), (1, 2.0), (-1, 0)])
def test_exponents_must_be_nonnegative_ints(mono):
    with pytest.raises(DimensionError):
        Polynomial(2, {mono: 1})
    with pytest.raises(DimensionError):
        Polynomial.monomial(2, mono)


NON_INT_CALLS = {
    "Polynomial(2.0)": (lambda: Polynomial(2.0), RankError),
    "Polynomial(True)": (lambda: Polynomial(True), RankError),
    "Polynomial(2.0, terms)": (lambda: Polynomial(2.0, {(1, 0): 1}), RankError),
    "WreathElement(2.0)": (lambda: WreathElement(2.0), RankError),
    "LieElement(2.5)": (lambda: LieElement(2.5), RankError),
    "elementary_symmetric(3.0, 1)": (lambda: elementary_symmetric(3.0, 1), RankError),
    "elementary_symmetric(3, 1.0)": (lambda: elementary_symmetric(3, 1.0), RankError),
    "invariant_space_basis(3.0, 3)": (lambda: invariant_space_basis(3.0, 3), RankError),
    "hilbert_function(3, 2.5)": (lambda: hilbert_function(3, 2.5), RankError),
    "x1 ** 1.5": (lambda: x(2, 1) ** 1.5, DimensionError),
    "x1 ** 2.0": (lambda: x(2, 1) ** 2.0, DimensionError),
    "expand_e_monomial(3.0, (1, 0, 0))": (lambda: expand_e_monomial(3.0, (1, 0, 0)), RankError),
    "expand_e_monomial(3, (1.0, 0, 0))": (lambda: expand_e_monomial(3, (1.0, 0, 0)), RankError),
    "LieElement.variable(3, 1.0)": (lambda: LieElement.variable(3, 1.0), RankError),
    "Polynomial.variable(3, 1.0)": (lambda: Polynomial.variable(3, 1.0), RankError),
    "sn_generators(3.0)": (lambda: sn_generators(3.0), RankError),
    "enumerate_sn(2.5)": (lambda: next(enumerate_sn(2.5)), RankError),
    "Permutation.identity(2.0)": (lambda: Permutation.identity(2.0), RankError),
    "Permutation.transposition(3, 1, 2.0)": (
        lambda: Permutation.transposition(3, 1, 2.0),
        RankError,
    ),
    "Permutation.full_cycle(3.0)": (lambda: Permutation.full_cycle(3.0), RankError),
    "weighted_exponent_vectors(3.0, 2)": (lambda: weighted_exponent_vectors(3.0, 2), RankError),
    "polarized_elementary(3.0, 1, 1)": (lambda: ref.polarized_elementary(3.0, 1, 1), RankError),
    "sum_of_variables(2.0)": (lambda: sum_of_variables(2.0), RankError),
}


@pytest.mark.parametrize("call, error", NON_INT_CALLS.values(), ids=NON_INT_CALLS)
def test_ranks_degrees_and_powers_must_be_ints(call, error):
    # the int calls fill the caches first: 3.0 must not be served the entry for 3
    elementary_symmetric(3, 1)
    expand_e_monomial(3, (1, 0, 0))
    weighted_exponent_vectors(3, 2)
    with pytest.raises(error):
        call()


def test_elementary_symmetric_small():
    assert elementary_symmetric(2, 1) == x(2, 1) + x(2, 2)
    assert elementary_symmetric(3, 3) == x(3, 1) * x(3, 2) * x(3, 3)
    assert elementary_symmetric(2, 3).is_zero()
    assert elementary_symmetric(4, 0) == Polynomial.one(4)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_elementary_symmetric_term_counts(n):
    for q in range(n + 1):
        e = elementary_symmetric(n, q)
        assert len(e.terms) == comb(n, q)
        assert all(c == 1 for c in e.terms.values())


def test_is_symmetric_examples():
    assert is_symmetric(x(3, 1) + x(3, 2) + x(3, 3))
    assert not is_symmetric(x(2, 1))
    assert is_symmetric(x(2, 1) ** 2 * x(2, 2) + x(2, 1) * x(2, 2) ** 2)


def test_symmetry_violation_names_generator():
    sigma = symmetry_violation(x(2, 1))
    assert sigma == Permutation((2, 1))


def test_decompose_power_sum():
    p = x(2, 1) ** 2 + x(2, 2) ** 2
    dec = decompose_in_elementary(p)
    # oracle: expand e1^2 - 2 e2 independently and compare term by term
    oracle = elementary_symmetric(2, 1) ** 2 - 2 * elementary_symmetric(2, 2)
    assert oracle == p
    assert dec.terms == {(2, 0): Fraction(1), (0, 1): Fraction(-2)}
    assert dec.expand() == p


def test_decompose_already_elementary():
    e2 = elementary_symmetric(3, 2)
    dec = decompose_in_elementary(e2)
    assert dec.terms == {(0, 1, 0): Fraction(1)}


def test_decompose_top_power():
    p = (x(3, 1) * x(3, 2) * x(3, 3)) ** 2
    dec = decompose_in_elementary(p)
    oracle = elementary_symmetric(3, 3) ** 2
    assert oracle == p
    assert dec.terms == {(0, 0, 2): Fraction(1)}


def test_decompose_rejects_asymmetric():
    with pytest.raises(InvarianceError) as err:
        decompose_in_elementary(x(2, 1))
    assert err.value.permutation is not None


def test_reynolds_examples():
    assert reynolds_poly(x(3, 1)) == Fraction(1, 3) * (x(3, 1) + x(3, 2) + x(3, 3))
    e2 = elementary_symmetric(3, 2)
    assert reynolds_poly(e2) == e2
    p = x(2, 1) ** 2 * x(2, 2)
    assert reynolds_poly(p) == Fraction(1, 2) * (p + x(2, 1) * x(2, 2) ** 2)


def test_reynolds_at_rank_one_returns_a_new_polynomial():
    p = Polynomial(1, {(2,): 3})
    r = reynolds_poly(p)
    assert r == p and r is not p
    r.terms[(5,)] = Fraction(1)
    assert p == Polynomial(1, {(2,): 3})


def test_reynolds_idempotent_and_symmetric():
    rng = random.Random(2024)
    from helpers import random_polynomial

    for _ in range(20):
        n = rng.randint(2, 4)
        p = random_polynomial(rng, n, max_degree=5)
        rp = reynolds_poly(p)
        assert is_symmetric(rp)
        assert reynolds_poly(rp) == rp


def test_fundamental_roundtrip_random():
    rng = random.Random(99)
    from helpers import random_polynomial

    for _ in range(25):
        n = rng.randint(2, 5)
        p = reynolds_poly(random_polynomial(rng, n, max_degree=6))
        assert decompose_in_elementary(p).expand() == p


def test_edecomposition_injective_on_expansion():
    rng = random.Random(5)
    from metabelian.invariants import weighted_exponent_vectors

    def random_edec(n, vectors):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            terms[rng.choice(vectors)] = random_fraction_nonzero(rng)
        return EDecomposition(n, terms)

    for _ in range(40):
        n = rng.randint(2, 4)
        vectors = [v for m in range(7) for v in weighted_exponent_vectors(n, m)]
        a = random_edec(n, vectors)
        b = random_edec(n, vectors)
        if a == b:
            assert a.expand() == b.expand()
        else:
            assert a.expand() != b.expand()


def random_fraction_nonzero(rng):
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))


def test_expand_e_monomial_matches_products():
    assert expand_e_monomial(3, (1, 1, 0)) == elementary_symmetric(3, 1) * elementary_symmetric(3, 2)


def test_expand_e_monomial_accepts_lists():
    assert expand_e_monomial(3, [1, 0, 0]) == elementary_symmetric(3, 1)
    assert expand_e_monomial(3, [0, 2, 0]) == expand_e_monomial(3, (0, 2, 0))
    with pytest.raises(DimensionError):
        expand_e_monomial(3, [1, 0])


small_polys = st.builds(
    lambda nvars, entries: Polynomial(
        nvars,
        {
            tuple(min(e, 3) for e in mono[:nvars]): Fraction(num, den)
            for mono, num, den in entries
        },
    ),
    st.shared(st.integers(min_value=1, max_value=4), key="nv"),
    st.lists(
        st.tuples(
            st.lists(st.integers(min_value=0, max_value=3), min_size=4, max_size=4),
            st.integers(min_value=-9, max_value=9),
            st.integers(min_value=1, max_value=9),
        ),
        max_size=4,
    ),
)


@settings(max_examples=60, deadline=None)
@given(st.tuples(small_polys, small_polys, small_polys))
def test_ring_axioms(triple):
    # the shared "nv" key keeps all three polynomials in one ring per example
    p, q, r = triple
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


def test_text_rendering():
    p = Fraction(3, 2) * x(3, 1) ** 2 * x(3, 2) - x(3, 3)
    assert p.to_text() == "3/2*x1^2*x2 - x3"
    assert Polynomial.zero(2).to_text() == "0"
    assert Polynomial.constant(2, Fraction(-1, 2)).to_text() == "-1/2"
    assert (Polynomial.one(2) - x(2, 1)).to_text() == "-x1 + 1"
    assert (x(2, 1) - Polynomial.one(2)).to_text() == "x1 - 1"
    assert Polynomial.constant(2, -1).to_text() == "-1"
    assert EDecomposition(2, {(2, 0): 1, (0, 1): -2}).to_text() == "e1^2 - 2*e2"


def test_edecomposition_ring_operations_stay_in_e():
    a = EDecomposition(2, {(2, 0): 1})
    b = EDecomposition(2, {(0, 1): -2})
    total = a + b
    assert repr(total) == total.to_text() == "e1^2 - 2*e2"
    assert total.n == 2
    for result in (total, -a, a - b, a * b, a * 3, a * 0, a ** 2, a ** 0):
        assert type(result) is EDecomposition
    assert (a - a).is_zero() and (a - a).to_text() == "0"
    # an EDecomposition never equals the plain polynomial with the same terms
    plain = Polynomial(2, {(2, 0): 1})
    assert a != plain and plain != a
    assert a == EDecomposition(2, {(2, 0): 1})
