"""The closed-form ad-action, the single-pass preimage, the fraction-free
elimination, the constructive invariant basis and the structured
decomposition must return exactly what the original slow paths in
reference_impl.py return."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_impl as ref
from helpers import random_fraction, random_lie_element, random_polynomial
from metabelian import (
    BasisCommutator,
    MembershipError,
    Polynomial,
    WreathElement,
    ad_action,
    decompose_invariant,
    embed,
    expand_e_monomial,
    generator_h,
    generator_h_lie,
    invariant_space_basis,
    membership_residual,
    preimage,
    reynolds_lie,
    sum_of_variables,
)
from metabelian import linalg
from metabelian.invariants import weighted_exponent_vectors
from metabelian.lie import _ad, _factors
from metabelian.linalg import nullspace, solve_exact

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
def generator_combinations(draw):
    """An invariant at rank n in 2..6: a rational multiple of x_1 + ... + x_n
    plus rational multiples of h_ij * e^b in degrees 3..min(n + 1, 6), so
    below, at and above n where the rank allows."""
    n = draw(st.integers(2, 6))
    f = sum_of_variables(n) * draw(fractions)
    for _ in range(draw(st.integers(1, 4))):
        d = draw(st.integers(3, min(n + 1, 6)))
        i, j = draw(st.sampled_from([p for p in combinations(range(1, n + 1), 2) if sum(p) <= d]))
        b = draw(st.sampled_from(weighted_exponent_vectors(n, d - i - j)))
        f = f + ad_action(generator_h_lie(n, i, j), expand_e_monomial(n, b)) * draw(fractions)
    return f


@settings(max_examples=30, deadline=None)
@given(generator_combinations())
def test_structured_decompose_matches_the_reference_solve(f):
    fast = decompose_invariant(f)
    assert fast.to_text() == ref.decompose_invariant(f).to_text()
    assert fast.verify(f)
