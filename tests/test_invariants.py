import random
from fractions import Fraction
from itertools import combinations

import pytest

from metabelian import (
    BasisCommutator,
    DomainError,
    EDecomposition,
    InternalConsistencyError,
    InvarianceError,
    KernelError,
    LieElement,
    Permutation,
    Polynomial,
    RankError,
    ad_action,
    apply_perm_wreath,
    bracket,
    decompose_invariant,
    elementary_symmetric,
    embed,
    epsilon,
    expand_e_monomial,
    generator_h,
    generator_h_lie,
    in_commutator_image,
    invariant_space_basis,
    is_invariant_lie,
    is_symmetric,
    normal_form,
    parse_lie_expr,
    polarized_elementary,
    preimage,
    reynolds_lie,
    sn_generators,
    solve_weighted_kernel,
    substitute_u_equals_x,
    sum_of_variables,
    verify_module_relation,
)
from metabelian import invariants, linalg
from metabelian.invariants import weighted_exponent_vectors
from metabelian.linalg import solve_exact
from helpers import (
    U1_PERTURBATIONS,
    perturb_u1,
    random_fraction,
    random_homogeneous_commutator,
    random_lie_element,
    z_vector,
)
from reference_impl import _basis_commutators

xp = Polynomial.variable

GOLDEN_N3 = {
    (1, 2): "[x2,x1,x2-x1] + [x3,x1,x3-x1] + [x3,x2,x3-x2]",
    (1, 3): "[x2,x1,x2-x1,x3] + [x3,x1,x3-x1,x2] + [x3,x2,x3-x2,x1]",
    (2, 3): "[x2,x1,x2-x1,x3,x3] + [x3,x1,x3-x1,x2,x2] + [x3,x2,x3-x2,x1,x1]",
}


def test_epsilon_small():
    e1 = epsilon(2, 1)
    assert e1.upart == (Polynomial.one(2), Polynomial.one(2))
    e2 = epsilon(2, 2)
    assert e2.upart == (xp(2, 2), xp(2, 1))
    with pytest.raises(RankError):
        epsilon(2, 3)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_epsilon_normalization(n):
    for j in range(1, n + 1):
        assert substitute_u_equals_x(epsilon(n, j)) == elementary_symmetric(n, j) * j


def test_polarized_examples():
    assert polarized_elementary(2, 1, 1) == epsilon(2, 2).pi_polynomial()
    e2_block = polarized_elementary(3, 0, 2)
    # pure x-part of the 6-variable ring equals e_2 shifted into the x block
    expected = {}
    for mono, c in elementary_symmetric(3, 2).terms.items():
        expected[(0, 0, 0) + mono] = c
    assert e2_block == Polynomial(6, expected)
    assert polarized_elementary(2, 2, 0) == Polynomial.monomial(4, (1, 1, 0, 0))
    with pytest.raises(DomainError):
        polarized_elementary(2, 0, 0)
    with pytest.raises(DomainError):
        polarized_elementary(2, 2, 1)


def test_polarized_matches_epsilon():
    for n in range(2, 5):
        for q in range(n):
            assert polarized_elementary(n, 1, q) == epsilon(n, q + 1).pi_polynomial()


def test_polarized_invariant_under_diagonal_action():
    for n in (2, 3, 4):
        for sigma in sn_generators(n):
            doubled = Permutation(
                tuple(sigma(i) for i in range(1, n + 1))
                + tuple(n + sigma(i) for i in range(1, n + 1))
            )
            for p in range(n + 1):
                for q in range(n + 1 - p):
                    if p + q == 0:
                        continue
                    pol = polarized_elementary(n, p, q)
                    assert pol.apply_perm(doubled) == pol


def test_generator_h_n2_product_form():
    base = embed(LieElement.from_commutator(2, BasisCommutator(2, 1)))
    product = (-base).module_mul(xp(2, 1) - xp(2, 2))  # (u1x2 - u2x1)(x1 - x2)
    assert generator_h(2, 1, 2) == product


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_generator_h_properties(n):
    for i, j in combinations(range(1, n + 1), 2):
        h = generator_h(n, i, j)
        assert in_commutator_image(h)
        assert substitute_u_equals_x(h).is_zero()
        for sigma in sn_generators(n):
            assert apply_perm_wreath(sigma, h) == h


def test_generator_h_index_errors():
    with pytest.raises(RankError):
        generator_h(3, 2, 2)
    with pytest.raises(RankError):
        generator_h(3, 1, 4)


def test_generator_lie_golden_n2():
    expected = normal_form(parse_lie_expr("[x2,x1,x2] - [x2,x1,x1]", 2), 2)
    assert generator_h_lie(2, 1, 2) == expected


@pytest.mark.parametrize("pair", sorted(GOLDEN_N3))
def test_generator_lie_golden_n3(pair):
    expected = normal_form(parse_lie_expr(GOLDEN_N3[pair], 3), 3)
    assert generator_h_lie(3, *pair) == expected


def test_variant_closed_form_identity():
    # the (2,3) closed form often quoted with ad-factor (x_i+x_j)*x_k is not
    # the generator: it equals h_13 * e_1 - h_23 exactly
    variant = normal_form(
        parse_lie_expr(
            "[x2,x1,x2-x1,x1+x2,x3] + [x3,x1,x3-x1,x1+x3,x2] + [x3,x2,x3-x2,x2+x3,x1]", 3
        ),
        3,
    )
    ident = ad_action(generator_h_lie(3, 1, 3), elementary_symmetric(3, 1)) - generator_h_lie(3, 2, 3)
    assert variant == ident
    dec = decompose_invariant(variant)
    assert dec.parts[(1, 3)].terms == {(1, 0, 0): Fraction(1)}
    assert dec.parts[(2, 3)].terms == {(0, 0, 0): Fraction(-1)}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_generator_lie_embeds_back(n):
    for i, j in combinations(range(1, n + 1), 2):
        assert embed(generator_h_lie(n, i, j)) == generator_h(n, i, j)


def test_is_invariant_examples():
    assert is_invariant_lie(sum_of_variables(4))
    assert not is_invariant_lie(LieElement.from_commutator(2, BasisCommutator(2, 1)))
    for n in (2, 3, 4):
        for i, j in combinations(range(1, n + 1), 2):
            assert is_invariant_lie(generator_h_lie(n, i, j))


def test_reynolds_lie_examples():
    f = sum_of_variables(3)
    assert reynolds_lie(f) == f
    assert reynolds_lie(LieElement.variable(2, 1)) == sum_of_variables(2) * Fraction(1, 2)
    assert reynolds_lie(LieElement.from_commutator(2, BasisCommutator(2, 1))).is_zero()


def test_reynolds_lie_projector():
    rng = random.Random(51)
    for _ in range(15):
        n = rng.randint(2, 4)
        f = random_lie_element(rng, n, max_degree=4)
        rf = reynolds_lie(f)
        assert is_invariant_lie(rf)
        assert reynolds_lie(rf) == rf


def test_weighted_kernel_examples():
    assert solve_weighted_kernel([2, -1]) == {2: Fraction(1)}
    assert solve_weighted_kernel([0, 3, -2]) == {3: Fraction(1)}
    assert solve_weighted_kernel([5, -1, -1]) == {2: Fraction(1), 3: Fraction(1)}
    assert solve_weighted_kernel([0, 0, 0]) == {}
    with pytest.raises(KernelError):
        solve_weighted_kernel([1, 1])


def test_weighted_kernel_reconstruction():
    rng = random.Random(52)
    for _ in range(40):
        n = rng.randint(2, 6)
        raw = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(n)]
        weighted = sum((k + 1) * v for k, v in enumerate(raw))
        raw[-1] -= weighted / n  # project onto the kernel of sum j*t_j
        coeffs = solve_weighted_kernel(raw)
        support = [k + 1 for k, v in enumerate(raw) if v != 0]
        rebuilt = [Fraction(0)] * n
        if support:
            j1 = support[0]
            for jk, beta in coeffs.items():
                rebuilt = [a + beta * b for a, b in zip(rebuilt, z_vector(n, j1, jk))]
        assert rebuilt == raw


@pytest.mark.parametrize("n", [3, 4])
def test_module_relation_all_triples(n):
    for i, j, k in combinations(range(1, n + 1), 3):
        assert verify_module_relation(n, i, j, k)


def test_module_relation_sample_triples():
    assert verify_module_relation(3, 1, 2, 3)
    assert verify_module_relation(4, 1, 2, 4)
    assert verify_module_relation(5, 2, 3, 5)
    with pytest.raises(RankError):
        verify_module_relation(3, 1, 1, 2)


def test_decompose_generator_itself():
    f = generator_h_lie(2, 1, 2)
    dec = decompose_invariant(f)
    assert dec.f1_coeff == 0
    assert set(dec.parts) == {(1, 2)}
    assert dec.parts[(1, 2)].terms == {(0, 0): Fraction(1)}
    assert dec.verify(f)


def test_decompose_linear_invariant():
    for n in (2, 3, 4):
        dec = decompose_invariant(sum_of_variables(n))
        assert dec.f1_coeff == 1
        assert dec.parts == {}
        assert dec.verify(sum_of_variables(n))


def test_decompose_mixed_element():
    f = sum_of_variables(3) * Fraction(-2, 3) + ad_action(
        generator_h_lie(3, 1, 2), expand_e_monomial(3, (1, 1, 0))
    )
    dec = decompose_invariant(f)
    assert dec.f1_coeff == Fraction(-2, 3)
    assert dec.verify(f)


def test_decompose_random_reynolds():
    rng = random.Random(53)
    for _ in range(6):
        n = rng.choice([2, 3])
        d = rng.randint(2, 6)
        f = reynolds_lie(random_homogeneous_commutator(rng, n, d, comm_terms=5))
        dec = decompose_invariant(f)
        assert dec.verify(f)
        for _, _, q in dec.items():
            assert is_symmetric(q.expand())


def test_decompose_rejects_non_invariant():
    with pytest.raises(InvarianceError) as err:
        decompose_invariant(LieElement.from_commutator(2, BasisCommutator(2, 1)))
    assert err.value.permutation is not None


@pytest.mark.parametrize("extra", U1_PERTURBATIONS.values(), ids=U1_PERTURBATIONS)
def test_decompose_outside_the_eps_span_is_an_internal_error(monkeypatch, extra):
    perturb_u1(monkeypatch, extra)
    with pytest.raises(InternalConsistencyError) as err:
        decompose_invariant(generator_h_lie(3, 1, 2))
    assert str(err.value) == "degree-3 component is outside the span of the eps_j generators"


def test_decompose_uses_no_linear_algebra(monkeypatch):
    n, d = 6, 7
    rng = random.Random(67)
    f = sum_of_variables(n) * 2
    for i, j in combinations(range(1, n + 1), 2):
        for b in weighted_exponent_vectors(n, d - i - j):
            term = ad_action(generator_h_lie(n, i, j), expand_e_monomial(n, b))
            f = f + term * random_fraction(rng, zero_ok=False)

    def refuse(*args):
        raise AssertionError("decompose_invariant ran an elimination")

    monkeypatch.setattr(linalg, "solve_exact", refuse)
    monkeypatch.setattr(linalg, "_reduce", refuse)
    monkeypatch.setattr(invariants, "_reduce", refuse)
    assert decompose_invariant(f).verify(f)


def test_invariant_basis_small_cases():
    basis = invariant_space_basis(2, 1)
    assert basis == [sum_of_variables(2)]
    assert invariant_space_basis(2, 2) == []
    deg4 = invariant_space_basis(2, 4)
    assert len(deg4) == 1
    # rank 1: x1 is invariant and there are no commutators
    assert invariant_space_basis(1, 1) == [sum_of_variables(1)]
    for d in range(2, 6):
        assert invariant_space_basis(1, d) == []


def partitions_bounded(n, m):
    """p_n(m): the number of partitions of m into parts of size at most n."""
    counts = [1] + [0] * m
    for part in range(1, n + 1):
        for total in range(part, m + 1):
            counts[total] += counts[total - part]
    return counts[m]


def hilbert_function(n, d):
    """dim of the degree-d invariants: sum_{j<=min(n,d)} p_n(d-j) - p_n(d), 1 at d = 1."""
    if d == 1:
        return 1
    return sum(
        partitions_bounded(n, d - j) for j in range(1, min(n, d) + 1)
    ) - partitions_bounded(n, d)


@pytest.mark.parametrize("n, dmax", [(2, 7), (3, 6), (4, 5), (5, 6), (6, 6), (7, 5)])
def test_invariant_basis_dimension_matches_closed_form(n, dmax):
    for d in range(1, dmax + 1):
        assert len(invariant_space_basis(n, d)) == hilbert_function(n, d)


def test_invariant_basis_elements_decompose():
    for n, dmax in ((2, 6), (3, 5)):
        for d in range(1, dmax + 1):
            for f in invariant_space_basis(n, d):
                assert is_invariant_lie(f)
                dec = decompose_invariant(f)
                assert dec.verify(f)


def test_bracket_with_f1_multiplies_by_e1():
    rng = random.Random(54)
    for _ in range(10):
        n = rng.randint(2, 4)
        pairs = list(combinations(range(1, n + 1), 2))
        i, j = rng.choice(pairs)
        evec = rng.choice(weighted_exponent_vectors(n, rng.randint(0, 3)))
        w = generator_h(n, i, j).module_mul(expand_e_monomial(n, evec))
        g = preimage(w)
        lifted = bracket(g, sum_of_variables(n))
        assert embed(lifted) == w.module_mul(elementary_symmetric(n, 1))


def _wreath_coords(w):
    out = {}
    for i, p in enumerate(w.upart):
        for mono, coeff in p.terms.items():
            out[(i, mono)] = coeff
    return out


@pytest.mark.parametrize("n", [2, 3])
def test_generators_not_redundant_up_to_degree_six(n):
    # evidence-only probe: within total degree <= 6, no generator lies in the
    # span of the others with symmetric polynomial coefficients
    pairs = list(combinations(range(1, n + 1), 2))
    for target_pair in pairs:
        ti, tj = target_pair
        target_degree = ti + tj
        if target_degree > 6:
            continue
        columns = []
        for i, j in pairs:
            if (i, j) == target_pair:
                continue
            shift = target_degree - (i + j)
            if shift < 0:
                continue
            for b in weighted_exponent_vectors(n, shift):
                columns.append(
                    _wreath_coords(
                        generator_h(n, i, j).module_mul(expand_e_monomial(n, b))
                    )
                )
        rhs = _wreath_coords(generator_h(n, ti, tj))
        assert solve_exact(columns, rhs) is None


def test_basis_commutator_enumeration_counts():
    # degree-2 commutators are the pairs i1 > i2
    assert len(_basis_commutators(3, 2)) == 3
    # rank 2: one choice of pair, tails are multisets over {1, 2}
    assert len(_basis_commutators(2, 5)) == 4


CACHED_VALUES = [
    (lambda: elementary_symmetric(3, 1), "x1 + x2 + x3"),
    (
        lambda: expand_e_monomial(3, (1, 1, 0)),
        "x1^2*x2 + x1^2*x3 + x1*x2^2 + 3*x1*x2*x3 + x1*x3^2 + x2^2*x3 + x2*x3^2",
    ),
    (lambda: epsilon(3, 2), "u1*( x2 + x3 ) + u2*( x1 + x3 ) + u3*( x1 + x2 )"),
    (
        lambda: generator_h(3, 1, 2),
        "u1*( x1*x2 + x1*x3 - x2^2 - x3^2 ) + u2*( -x1^2 + x1*x2 + x2*x3 - x3^2 )"
        " + u3*( -x1^2 + x1*x3 - x2^2 + x2*x3 )",
    ),
    (
        lambda: generator_h_lie(3, 1, 2),
        "-[x2,x1,x1] + [x2,x1,x2] - [x3,x1,x1] + [x3,x1,x3] - [x3,x2,x2] + [x3,x2,x3]",
    ),
]


@pytest.mark.parametrize(
    "call, text",
    CACHED_VALUES,
    ids=["elementary_symmetric", "expand_e_monomial", "epsilon", "generator_h", "generator_h_lie"],
)
def test_cached_values_reject_mutation(call, text):
    value = call()
    if hasattr(value, "upart"):
        term_maps = [p.terms for p in value.upart]
    else:
        term_maps = [value.comm if isinstance(value, LieElement) else value.terms]
    for terms in term_maps:
        key = next(iter(terms))
        with pytest.raises(TypeError):
            terms[key] = 0
        with pytest.raises(TypeError):
            del terms[key]
        with pytest.raises(AttributeError):
            terms.clear()
    assert call() is value
    assert value.to_text() == text
    # values built later from the cached ones are unaffected as well
    generator_h.cache_clear()
    generator_h_lie.cache_clear()
    assert generator_h_lie(3, 1, 2).to_text() == CACHED_VALUES[-1][1]
