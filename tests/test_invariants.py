import random
from fractions import Fraction
from itertools import combinations

import pytest

from metabelian import (
    AlgebraError,
    BasisCommutator,
    DimensionError,
    DomainError,
    EDecomposition,
    InternalConsistencyError,
    InvarianceError,
    InvariantDecomposition,
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
    hilbert_function,
    in_commutator_image,
    invariant_space_basis,
    is_invariant_lie,
    is_symmetric,
    normal_form,
    parse_lie_expr,
    preimage,
    reynolds_lie,
    sn_generators,
    solve_weighted_kernel,
    substitute_u_equals_x,
    sum_of_variables,
    verify_module_relation,
)
from metabelian import invariants, linalg, polynomials
from metabelian.invariants import weighted_exponent_vectors
from metabelian.linalg import solve_exact
from helpers import (
    KEY_CHECK_BREAKS,
    random_fraction,
    random_homogeneous_commutator,
    random_lie_element,
    z_vector,
)
from reference_impl import _basis_commutators, pi_polynomial, polarized_elementary

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
    assert polarized_elementary(2, 1, 1) == pi_polynomial(epsilon(2, 2))
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
            assert polarized_elementary(n, 1, q) == pi_polynomial(epsilon(n, q + 1))


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


@pytest.mark.parametrize(
    "call",
    [
        lambda: epsilon(3, 1.5),
        lambda: epsilon(3.0, 1),
        lambda: generator_h(3, 1, 2.5),
        lambda: generator_h(3, True, 2),
        lambda: generator_h_lie(3, 1.0, 2),
        lambda: generator_h_lie(3, 1, 2.0),
        lambda: verify_module_relation(3, 1, 2, 2.5),
        lambda: verify_module_relation(3.0, 1, 2, 3),
    ],
)
def test_generator_indices_must_be_ints(call):
    # the int calls fill the caches first: a float equal to a cached int
    # must not be served the cached value
    epsilon(3, 1), generator_h(3, 1, 2), generator_h_lie(3, 1, 2)
    with pytest.raises(RankError):
        call()


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


def test_reynolds_lie_at_rank_one_returns_a_new_element():
    f = LieElement(1, (Fraction(2, 3),))
    r = reynolds_lie(f)
    assert r == f and r is not f
    r.comm[BasisCommutator(2, 1)] = Fraction(1)
    assert f == LieElement(1, (Fraction(2, 3),))


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
    # int entries give Fraction values, as Fraction entries do
    for c in ([5, -1, -1], [Fraction(5), Fraction(-1), -1]):
        assert all(type(v) is Fraction for v in solve_weighted_kernel(c).values())
    with pytest.raises(KernelError):
        solve_weighted_kernel([1, 1])
    with pytest.raises(TypeError, match="expected an exact rational, got float"):
        solve_weighted_kernel([2, -1.0])


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


@pytest.mark.parametrize(
    "part, error",
    [
        (Polynomial.one(3), DomainError),
        (EDecomposition(4, {(0, 0, 0, 0): 1}), DimensionError),
        (EDecomposition(2, {(1, 0): 1}), DimensionError),
    ],
)
def test_invariant_decomposition_rejects_bad_parts(part, error):
    with pytest.raises(error):
        InvariantDecomposition(3, 0, {(1, 2): part})
    assert issubclass(error, AlgebraError)
    good = InvariantDecomposition(3, 0, {(1, 2): EDecomposition(3, {(0, 0, 0): 1})})
    assert good.reconstruct() == generator_h_lie(3, 1, 2)


@pytest.mark.parametrize("n, parts", [(0, {}), (2.0, {}), (3, {(1.0, 2): None})])
def test_invariant_decomposition_rejects_bad_ranks_and_pairs(n, parts):
    with pytest.raises(RankError):
        InvariantDecomposition(n, 0, parts)


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


@pytest.mark.parametrize("brk", KEY_CHECK_BREAKS.values(), ids=KEY_CHECK_BREAKS)
def test_a_key_check_that_rejects_an_invariant_is_an_internal_error(monkeypatch, brk):
    # a rejected invariant is named by no generator: the two tests disagree
    brk(monkeypatch)
    for call in (decompose_invariant, is_invariant_lie):
        with pytest.raises(InternalConsistencyError) as err:
            call(generator_h_lie(3, 1, 2))
        assert str(err.value) == "the orbit-key checks reject an element that S_n fixes"


def counting(monkeypatch, module, name):
    """Replace module.name by a pass-through that appends to the returned list."""
    calls, fn = [], getattr(module, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_decompose_embeds_nothing_and_tests_invariance_on_orbit_keys(monkeypatch):
    n = 4
    f = sum_of_variables(n) * 2 + generator_h_lie(n, 1, 2)
    f = f + ad_action(generator_h_lie(n, 1, 3), elementary_symmetric(n, 1))
    assert len(f.degrees()) == 3
    calls = [
        counting(monkeypatch, owner, name)
        for owner, name in (
            (invariants, "embed"),
            (invariants, "apply_perm_wreath"),
            (invariants, "apply_perm_lie"),
            (polynomials, "symmetry_violation"),
            (invariants, "_key_values"),
        )
    ]
    assert decompose_invariant(f).verify(f)
    assert [len(c) for c in calls] == [0, 0, 0, 0, 1]


def test_invariance_of_an_invariant_applies_no_permutation(monkeypatch):
    f = reynolds_lie(random_lie_element(random.Random(61), 5, 6, comm_terms=3))
    lie_actions = counting(monkeypatch, invariants, "apply_perm_lie")
    assert is_invariant_lie(f) and invariants.invariance_violation(f) is None
    assert lie_actions == []
    moved = f + LieElement.from_commutator(5, BasisCommutator(3, 1, (2,)))
    assert invariants.invariance_violation(moved) == Permutation.transposition(5, 1, 2)
    assert len(lie_actions) == 1


def test_decompose_substitutes_nothing_cold_or_warm(monkeypatch):
    n = 5
    f = reynolds_lie(random_lie_element(random.Random(57), n, 7, comm_terms=3))
    for cached in (invariants._e_prime_monomial, invariants._forward_column,
                   invariants._back_column, polynomials._partition_part):
        cached.cache_clear()
    # the e'-monomial images and the columns come from the int product loop;
    # the generic substitution is a test reference only
    assert not hasattr(Polynomial, "substitute")
    products = counting(monkeypatch, invariants, "_add_products")
    cold = decompose_invariant(f)
    assert len(cold.parts) > 1 and invariants._e_prime_monomial.cache_info().currsize > 1
    assert products
    products.clear()
    assert decompose_invariant(f).to_text() == cold.to_text()
    assert cold.verify(f)
    assert products == []


def test_a_warm_decompose_expands_no_part_and_embeds_nothing(monkeypatch):
    n = 5
    f = reynolds_lie(random_lie_element(random.Random(59), n, 7, comm_terms=3)) * Fraction(2, 7)
    assert decompose_invariant(f).verify(f)
    calls = [
        counting(monkeypatch, owner, name)
        for owner, name in (
            (polynomials, "expand_e_monomial"),
            (invariants, "expand_e_monomial"),
            (invariants, "embed"),
            (invariants, "apply_perm_lie"),
            (invariants, "apply_perm_wreath"),
            (polynomials, "symmetry_violation"),
        )
    ]
    assert len(decompose_invariant(f).parts) > 1
    assert [len(c) for c in calls] == [0, 0, 0, 0, 0, 0]


def test_a_warm_decompose_runs_no_module_phase(monkeypatch):
    # the module phase is the cached forward and back columns: no reduction
    # on partitions, peeling or product runs once they are built
    f = reynolds_lie(random_lie_element(random.Random(72), 6, 6, comm_terms=3)) * Fraction(5, 3)
    assert decompose_invariant(f).verify(f)
    assert not hasattr(invariants, "_module_coordinates") and not hasattr(invariants, "_matches_u1")
    calls = [
        counting(monkeypatch, owner, name)
        for owner, name in (
            (invariants, "_peel"),
            (invariants, "_add_products"),
            (invariants, "_reduce_on_partitions"),
            (invariants, "_partition_part"),
            (invariants, "_e_prime_monomial"),
            (invariants, "sum_of_products"),
        )
    ]
    forward = counting(monkeypatch, invariants, "_forward_column")
    back = counting(monkeypatch, invariants, "_back_column")
    dec = decompose_invariant(f)
    assert len(dec.parts) > 1
    assert [len(c) for c in calls] == [0] * 6
    assert len(forward) == len(invariants._key_values(f.linear, f.comm))
    assert len(back) == sum(len(q.terms) for q in dec.parts.values())


def test_verify_multiplies_nothing(monkeypatch):
    f = reynolds_lie(random_lie_element(random.Random(73), 5, 7, comm_terms=3)) * Fraction(2, 9)
    dec = decompose_invariant(f)
    calls = [
        counting(monkeypatch, owner, name)
        for owner, name in (
            (polynomials, "sum_of_products"),
            (invariants, "sum_of_products"),
            (invariants, "_add_products"),
            (EDecomposition, "expand"),
            (invariants, "generator_h"),
        )
    ]
    assert dec.verify(f)
    assert [len(c) for c in calls] == [0] * 5


def test_a_cold_generator_h_is_one_sum_of_products(monkeypatch):
    for cached in (generator_h, epsilon, elementary_symmetric):
        cached.cache_clear()
    products = counting(monkeypatch, polynomials, "sum_of_products")
    monkeypatch.setattr(invariants, "sum_of_products", polynomials.sum_of_products)
    generator_h(5, 2, 4)
    assert len(products) == 1


def test_the_self_check_catches_a_wrong_weighted_kernel_split(monkeypatch):
    solve = invariants.solve_weighted_kernel

    def doubled(c):
        betas = solve(c)
        jk = min(betas)
        betas[jk] *= 2
        return betas

    monkeypatch.setattr(invariants, "solve_weighted_kernel", doubled)
    with pytest.raises(InternalConsistencyError) as err:
        decompose_invariant(generator_h_lie(3, 1, 2))
    assert str(err.value) == "reassembled decomposition does not match the input"


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
    for d in range(0, 4):
        with pytest.raises(RankError):
            invariant_space_basis(0, d)


@pytest.mark.parametrize(
    "n, dmax", [(1, 5), (2, 7), (3, 6), (4, 5), (5, 6), (6, 6), (7, 5)]
)
def test_invariant_basis_dimension_matches_closed_form(n, dmax):
    for d in range(0, dmax + 1):
        assert len(invariant_space_basis(n, d)) == hilbert_function(n, d)


def test_hilbert_function_values():
    assert [hilbert_function(4, d) for d in range(1, 7)] == [1, 0, 1, 2, 5, 7]
    assert [hilbert_function(1, d) for d in range(-1, 4)] == [0, 0, 1, 0, 0]
    # one basis element per e-monomial and per index of its support but the first
    for n, d in ((8, 10), (7, 9), (3, 12)):
        assert hilbert_function(n, d) == sum(
            sum(1 for v in a if v) - 1 for a in weighted_exponent_vectors(n, d)
        )
    with pytest.raises(RankError):
        hilbert_function(0, 3)


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
    # e_1(x2, x3) * e_2(x2, x3) in K[x_1, e_1, e_2, e_3], printed as x1..x4
    (
        lambda: invariants._e_prime_monomial(3, (1, 1)),
        "-x1^3 + 2*x1^2*x2 - x1*x2^2 - x1*x3 + x2*x3",
    ),
    # u1 = x1*(x2 + x3) = e_2 - e_2(x2, x3), so r_1 = e_2 and r_3 = -1: the
    # blocks ((a, j), alpha) at a = e_1 e_2 and a = e_3
    (lambda: invariants._forward_column(3, (1, (1,))), "((((0, 0, 1), 3), -1), (((1, 1, 0), 1), 1))"),
    # u1 of h_12 at n = 3 is x1*x2 + x1*x3 - x2^2 - x3^2: keys (1, (1,)), (0, (2,))
    (lambda: invariants._back_column(3, 1, 2, (0, 0, 0)), "(((1, (1,)), 1), ((0, (2,)), -1))"),
]


def _leaves(value):
    if isinstance(value, tuple):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


@pytest.mark.parametrize(
    "call, text",
    CACHED_VALUES,
    ids=[
        "elementary_symmetric",
        "expand_e_monomial",
        "epsilon",
        "generator_h",
        "generator_h_lie",
        "_e_prime_monomial",
        "_forward_column",
        "_back_column",
    ],
)
def test_cached_values_reject_mutation(call, text):
    value = call()
    if type(value) is tuple:
        # only tuples and ints, so a caller can change nothing in the cache
        assert all(type(leaf) is int for leaf in _leaves(value))
        with pytest.raises(TypeError):
            value[0] = value[-1]
        assert call() is value and repr(value) == text
        return
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
    assert generator_h_lie(3, 1, 2).to_text() == CACHED_VALUES[4][1]


def test_cached_partition_parts_are_tuples_of_int_terms():
    part = polynomials._partition_part(3, (1, 1, 0))
    assert part == (((2, 1, 0), 1), ((1, 1, 1), 3))
    assert type(part) is tuple and all(type(t) is tuple and type(t[1]) is int for t in part)
    assert polynomials._partition_part(3, (1, 1, 0)) is part
