import copy
import pickle
import random
from fractions import Fraction

import pytest

from metabelian import (
    Ad,
    BasisCommutator,
    Bracket,
    DimensionError,
    DomainError,
    LieElement,
    Permutation,
    Polynomial,
    RankError,
    Var,
    ad_action,
    apply_perm_lie,
    bracket,
    embed,
    normal_form,
    parse_lie_expr,
    preimage,
)
from helpers import eval_in_wreath, random_lie_element, random_lie_expr
from reference_impl import grade

xvar = LieElement.variable


def comm(n, *indices, tail=()):
    i1, i2 = indices
    return LieElement.from_commutator(n, BasisCommutator(i1, i2, tail))


def test_self_bracket_vanishes():
    assert normal_form(Bracket(Var(1), Var(1)), 2).is_zero()


def test_metabelian_identity():
    expr = Bracket(Bracket(Var(2), Var(1)), Bracket(Var(3), Var(1)))
    assert normal_form(expr, 3).is_zero()
    assert bracket(comm(3, 2, 1), comm(3, 3, 1)).is_zero()


def test_triple_reorders_to_basis():
    # [x3, x2, x1] = [x3, x1] ad x2 - [x2, x1] ad x3
    got = normal_form(parse_lie_expr("[x3,x2,x1]", 3), 3)
    expected = comm(3, 3, 1, tail=(2,)) - comm(3, 2, 1, tail=(3,))
    assert got == expected
    # oracle: the wreath-route evaluation agrees
    assert embed(got) == eval_in_wreath(parse_lie_expr("[x3,x2,x1]", 3), 3)


def test_bracket_orientation():
    assert bracket(xvar(2, 1), xvar(2, 2)) == -comm(2, 2, 1)
    assert bracket(comm(3, 2, 1), xvar(3, 3)) == comm(3, 2, 1, tail=(3,))


def test_bracket_rank_mismatch():
    with pytest.raises(DimensionError):
        bracket(xvar(2, 1), xvar(3, 1))


def test_ad_action_examples():
    f = comm(2, 2, 1)
    assert ad_action(f, Polynomial.one(2)) == f
    p = Polynomial.variable(2, 1) * Polynomial.variable(2, 2)
    assert ad_action(f, p) == comm(2, 2, 1, tail=(1, 2))
    q = Polynomial.variable(2, 1) + Polynomial.variable(2, 2)
    assert ad_action(f, q) == comm(2, 2, 1, tail=(1,)) + comm(2, 2, 1, tail=(2,))


def test_ad_action_rejects_linear_part():
    with pytest.raises(DomainError):
        ad_action(xvar(2, 1), Polynomial.one(2))


def test_ad_action_is_module_action():
    rng = random.Random(11)
    from helpers import random_polynomial

    for _ in range(25):
        n = rng.randint(2, 4)
        f = random_lie_element(rng, n, max_degree=4, with_linear=False)
        p = random_polynomial(rng, n, max_degree=2, max_terms=3)
        q = random_polynomial(rng, n, max_degree=2, max_terms=3)
        combined = ad_action(f, p * q)
        assert combined == ad_action(ad_action(f, p), q)
        assert combined == ad_action(ad_action(f, q), p)


def test_apply_perm_examples():
    swap = Permutation((2, 1))
    f = xvar(2, 1) + xvar(2, 2)
    assert apply_perm_lie(swap, f) == f
    assert apply_perm_lie(swap, comm(2, 2, 1)) == -comm(2, 2, 1)


def test_apply_perm_renormalizes():
    cycle = Permutation((2, 3, 1))
    f = comm(3, 2, 1, tail=(3,))
    got = apply_perm_lie(cycle, f)
    # relabeling gives [x3, x2] ad x1, whose normal form splits via Jacobi
    assert got == normal_form(parse_lie_expr("[x3,x2,x1]", 3), 3)


def test_apply_perm_equivariant_with_embedding():
    rng = random.Random(21)
    from metabelian import apply_perm_wreath

    for _ in range(25):
        n = rng.randint(2, 4)
        f = random_lie_element(rng, n, max_degree=4)
        images = list(range(1, n + 1))
        rng.shuffle(images)
        sigma = Permutation(images)
        assert embed(apply_perm_lie(sigma, f)) == apply_perm_wreath(sigma, embed(f))


def test_bracket_equivariance():
    rng = random.Random(22)
    for _ in range(20):
        n = rng.randint(2, 4)
        f = random_lie_element(rng, n, max_degree=3)
        g = random_lie_element(rng, n, max_degree=3)
        images = list(range(1, n + 1))
        rng.shuffle(images)
        sigma = Permutation(images)
        assert apply_perm_lie(sigma, bracket(f, g)) == bracket(
            apply_perm_lie(sigma, f), apply_perm_lie(sigma, g)
        )


def test_grade():
    f = xvar(3, 1) + comm(3, 2, 1)
    assert grade(f, 1) == xvar(3, 1)
    g = comm(3, 2, 1, tail=(3,))
    assert grade(g, 3) == g
    assert grade(comm(3, 2, 1), 5).is_zero()
    total = random_lie_element(random.Random(0), 3, max_degree=5)
    assert sum((grade(total, d) for d in total.degrees()), LieElement.zero(3)) == total


def test_jacobi_identity():
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(2, 4)
        a = random_lie_element(rng, n, max_degree=3, comm_terms=2)
        b = random_lie_element(rng, n, max_degree=3, comm_terms=2)
        c = random_lie_element(rng, n, max_degree=3, comm_terms=2)
        lhs = bracket(bracket(a, b), c)
        rhs = bracket(bracket(a, c), b) + bracket(a, bracket(b, c))
        assert lhs == rhs


def test_bracket_antisymmetry_bilinearity():
    rng = random.Random(32)
    for _ in range(30):
        n = rng.randint(2, 4)
        a = random_lie_element(rng, n, max_degree=3)
        b = random_lie_element(rng, n, max_degree=3)
        c = random_lie_element(rng, n, max_degree=3)
        assert bracket(a, b) == -bracket(b, a)
        assert bracket(a + c, b) == bracket(a, b) + bracket(c, b)
        s = Fraction(3, 7)
        assert bracket(a * s, b) == bracket(a, b) * s


def test_normal_form_idempotent():
    rng = random.Random(33)
    for _ in range(20):
        n = rng.randint(2, 4)
        f = random_lie_element(rng, n, max_degree=5)
        # rebuild f's basis expansion as an expression tree and renormalize
        parts = []
        for k, coeff in enumerate(f.linear, start=1):
            if coeff:
                parts.append((coeff, Var(k)))
        for c, coeff in f.comm.items():
            node = Bracket(Var(c.i1), Var(c.i2))
            mono = [0] * n
            for t in c.tail:
                mono[t - 1] += 1
            if c.tail:
                node = Ad(node, Polynomial.monomial(n, mono))
            parts.append((coeff, node))
        from metabelian import Scale, Sum

        expr = Sum([Scale(coeff, node) for coeff, node in parts])
        assert normal_form(expr, n) == f


def test_normal_form_rank_error():
    with pytest.raises(RankError):
        normal_form(Var(5), 3)


def test_oracle_equivalence_sample():
    rng = random.Random(34)
    for _ in range(60):
        n = rng.randint(2, 4)
        expr, used, _ = random_lie_expr(rng, n, max_leaves=8)
        assert used <= 8
        direct = normal_form(expr, n)
        via_wreath = preimage(eval_in_wreath(expr, n))
        assert direct == via_wreath


def test_basis_commutator_validation():
    with pytest.raises(DomainError):
        BasisCommutator(1, 1)
    with pytest.raises(DomainError):
        BasisCommutator(3, 2, (1,))
    c = BasisCommutator(3, 1, (2, 1))
    assert c.tail == (1, 2)
    assert c.degree == 4


@pytest.mark.parametrize(
    "indices", [(2.0, 1.0, (1.5,)), (3, 1, (2.0,)), ("3", "1", ()), (2, True, ())]
)
def test_basis_commutator_rejects_non_int_indices(indices):
    with pytest.raises(DomainError):
        BasisCommutator(*indices)


def test_basis_commutator_is_immutable_while_it_is_a_key():
    c = BasisCommutator(3, 1, (2,))
    f = LieElement.from_commutator(3, c)
    for attr in ("i1", "i2", "tail"):
        with pytest.raises(AttributeError):
            setattr(c, attr, 9)
    assert f.comm[BasisCommutator(3, 1, (2,))] == 1
    assert c.indices() == (3, 1, 2)
    for copied in (copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
        assert type(copied) is BasisCommutator and copied == c


def test_lie_element_rejects_plain_tuple_keys():
    assert BasisCommutator(2, 1) == (2, 1, ())
    with pytest.raises(DomainError):
        LieElement(2, None, {(2, 1, ()): 1})


def test_basis_commutator_hashes_and_compares_in_c():
    """A Python-level __hash__ or __eq__ would put a function call back on
    every dict operation of the S_n average."""
    assert BasisCommutator.__hash__ is tuple.__hash__
    assert BasisCommutator.__eq__ is tuple.__eq__
    assert hash(BasisCommutator(3, 1, (1, 2))) == hash((3, 1, (1, 2)))


def test_to_text_round_trip():
    f = 2 * xvar(3, 1) - comm(3, 2, 1) + Fraction(1, 2) * comm(3, 3, 1, tail=(2, 2))
    text = f.to_text()
    assert text == "2*x1 - [x2,x1] + 1/2*[x3,x1,x2,x2]"
    assert normal_form(parse_lie_expr(text, 3), 3) == f
    assert (-xvar(2, 1)).to_text() == "-x1"
    assert LieElement.zero(3).to_text() == "0"
    g = Fraction(-1, 2) * comm(3, 2, 1) + comm(3, 3, 1)
    assert g.to_text() == "-1/2*[x2,x1] + [x3,x1]"
    assert normal_form(parse_lie_expr(g.to_text(), 3), 3) == g
