import random
from fractions import Fraction

import pytest

from metabelian import (
    BasisCommutator,
    LieElement,
    MembershipError,
    Permutation,
    Polynomial,
    WreathElement,
    apply_perm_lie,
    apply_perm_wreath,
    bracket,
    embed,
    in_commutator_image,
    membership_residual,
    preimage,
    parse_lie_expr,
    normal_form,
    substitute_u_equals_x,
)
from helpers import delta_variable, random_lie_element
from reference_impl import bracket_wreath, pi_polynomial

xp = Polynomial.variable


def u_times(n, k, poly):
    upart = [Polynomial.zero(n) for _ in range(n)]
    upart[k - 1] = poly
    return WreathElement(n, tuple(upart))


def v_only(n, k, coeff=1):
    vpart = [Fraction(0)] * n
    vpart[k - 1] = Fraction(coeff)
    return WreathElement(n, vpart=tuple(vpart))


def test_bracket_u_with_v():
    w = bracket_wreath(u_times(2, 1, Polynomial.one(2)), v_only(2, 2))
    assert w == u_times(2, 1, xp(2, 2))


def test_bracket_u_with_u_and_v_with_v():
    a = u_times(2, 1, xp(2, 1) + xp(2, 2))
    b = u_times(2, 2, xp(2, 1) ** 2)
    assert bracket_wreath(a, b).is_zero()
    assert bracket_wreath(v_only(2, 1), v_only(2, 2)).is_zero()


def test_embed_variable():
    assert embed(LieElement.variable(2, 1)) == delta_variable(2, 1)


def test_embed_pair_bracket():
    f = LieElement.from_commutator(2, BasisCommutator(2, 1))
    assert embed(f) == u_times(2, 2, xp(2, 1)) - u_times(2, 1, xp(2, 2))


def test_embed_with_ad_factor():
    f = LieElement.from_commutator(3, BasisCommutator(2, 1, (3,)))
    direct = embed(f)
    # oracle: bracket the embedded pieces instead
    base = embed(LieElement.from_commutator(3, BasisCommutator(2, 1)))
    via_bracket = bracket_wreath(base, delta_variable(3, 3))
    assert direct == via_bracket


def test_embed_is_homomorphism():
    rng = random.Random(41)
    for _ in range(30):
        n = rng.randint(2, 4)
        f = random_lie_element(rng, n, max_degree=5)
        g = random_lie_element(rng, n, max_degree=5)
        assert embed(bracket(f, g)) == bracket_wreath(embed(f), embed(g))


def test_membership_criterion():
    good = u_times(2, 1, xp(2, 2)) - u_times(2, 2, xp(2, 1))
    assert in_commutator_image(good)
    assert not in_commutator_image(u_times(2, 1, Polynomial.one(2)))
    assert not in_commutator_image(v_only(2, 1))


def test_membership_matches_linear_part():
    rng = random.Random(42)
    for _ in range(20):
        n = rng.randint(2, 4)
        f = random_lie_element(rng, n, max_degree=4)
        assert in_commutator_image(embed(f)) == f.linear_is_zero()
        assert substitute_u_equals_x(embed(f.commutator_part())).is_zero()


def test_substitute_examples():
    f = LieElement.from_commutator(2, BasisCommutator(2, 1))
    assert substitute_u_equals_x(embed(f)).is_zero()
    assert substitute_u_equals_x(u_times(2, 1, Polynomial.one(2))) == xp(2, 1)


def test_preimage_pair():
    w = u_times(2, 2, xp(2, 1)) - u_times(2, 1, xp(2, 2))
    assert preimage(w) == LieElement.from_commutator(2, BasisCommutator(2, 1))


def test_preimage_product_form():
    # (u1 x2 - u2 x1)(x1 - x2)  ->  [x2,x1,x2] - [x2,x1,x1]
    w = (u_times(2, 1, xp(2, 2)) - u_times(2, 2, xp(2, 1))).module_mul(xp(2, 1) - xp(2, 2))
    expected = normal_form(parse_lie_expr("[x2,x1,x2] - [x2,x1,x1]", 2), 2)
    assert preimage(w) == expected


def test_preimage_with_linear_part():
    assert preimage(delta_variable(2, 1)) == LieElement.variable(2, 1)


def test_preimage_round_trips():
    rng = random.Random(43)
    for _ in range(30):
        n = rng.randint(2, 4)
        f = random_lie_element(rng, n, max_degree=5)
        assert preimage(embed(f)) == f
        w = embed(f)
        assert embed(preimage(w)) == w


def test_preimage_rejects_non_members():
    with pytest.raises(MembershipError) as err:
        preimage(u_times(2, 1, Polynomial.one(2)))
    assert err.value.residual == xp(2, 1)
    assert membership_residual(u_times(2, 1, Polynomial.one(2))) == xp(2, 1)


def test_apply_perm_wreath_examples():
    swap = Permutation((2, 1))
    assert apply_perm_wreath(swap, u_times(2, 1, xp(2, 2))) == u_times(2, 2, xp(2, 1))
    ident = Permutation.identity(2)
    w = u_times(2, 1, xp(2, 2)) + v_only(2, 2, 3)
    assert apply_perm_wreath(ident, w) == w


def test_apply_perm_wreath_equivariance():
    rng = random.Random(44)
    for _ in range(20):
        n = rng.randint(2, 4)
        f = random_lie_element(rng, n, max_degree=4)
        images = list(range(1, n + 1))
        rng.shuffle(images)
        sigma = Permutation(images)
        assert apply_perm_wreath(sigma, embed(f)) == embed(apply_perm_lie(sigma, f))


def test_module_mul_requires_zero_vpart():
    from metabelian import DomainError

    with pytest.raises(DomainError):
        v_only(2, 1).module_mul(xp(2, 1))


def test_pi_polynomial_blocks():
    w = u_times(2, 1, xp(2, 2)) + v_only(2, 2, Fraction(1, 2))
    pi = pi_polynomial(w)
    # u1*x2 sits at exponent (1,0,0,1); v2 becomes x2 at (0,0,0,1)
    assert pi.coefficient((1, 0, 0, 1)) == 1
    assert pi.coefficient((0, 0, 0, 1)) == Fraction(1, 2)
    assert pi.total_degree() == 2


def test_wreath_text_round_trip():
    from metabelian import parse_wreath

    w = u_times(2, 1, xp(2, 1) * xp(2, 2) - xp(2, 2) ** 2) - 2 * v_only(2, 2) + v_only(2, 1)
    text = w.to_text()
    assert parse_wreath(text, 2) == w
    assert parse_wreath("0", 2).is_zero()
    w = u_times(2, 2, xp(2, 1)) - 2 * v_only(2, 1)
    assert w.to_text() == "u2*( x1 ) - 2*v1"
    assert (-v_only(2, 2)).to_text() == "-v2"
    assert WreathElement.zero(2).to_text() == "0"
    assert parse_wreath(w.to_text(), 2) == w
