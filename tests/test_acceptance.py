"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All arithmetic is exact, so every comparison is literal equality; the only
tolerances are the per-criterion wall-clock budgets.  Run with

    pytest tests/test_acceptance.py -v -s

Criterion 2 is expected to fail on its third fixture: the traditional
closed form for the rank-3 generator pair (2, 3) circulates with the
ad-factor (x_i + x_j) * x_k, which is provably not the generator
3*eps_2*e_3 - 2*eps_3*e_2 (it equals h_13*e_1 - h_23; the consistent factor
is x_k^2).  The fixture is asserted as stated rather than corrected;
tests/test_invariants.py pins the true identity of that expression.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

from metabelian import (
    BasisCommutator,
    LieElement,
    ad_action,
    bracket,
    decompose_in_elementary,
    decompose_invariant,
    elementary_symmetric,
    embed,
    epsilon,
    generator_h_lie,
    invariant_space_basis,
    is_symmetric,
    normal_form,
    parse_lie_expr,
    preimage,
    reynolds_lie,
    reynolds_poly,
    solve_weighted_kernel,
    substitute_u_equals_x,
    verify_module_relation,
)
from metabelian.linalg import solve_exact
from reference_impl import bracket_wreath
from helpers import (
    eval_in_wreath,
    random_homogeneous_commutator,
    random_lie_element,
    random_lie_expr,
    random_polynomial,
    z_vector,
)


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE FAIL: criterion {number} ({description}) [{elapsed:.2f} s]")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} took {elapsed:.2f} s, budget {budget_seconds} s"
    )
    print(f"ACCEPTANCE PASS: criterion {number} ({description}) [{elapsed:.2f} s]")


def test_criterion_01_golden_rank2():
    with criterion(1, "rank-2 generator equals its displayed closed form", 1.0):
        expected = normal_form(parse_lie_expr("[x2,x1,x2] - [x2,x1,x1]", 2), 2)
        assert generator_h_lie(2, 1, 2) == expected


GOLDEN_N3_AS_STATED = {
    (1, 2): "[x2,x1,x2-x1] + [x3,x1,x3-x1] + [x3,x2,x3-x2]",
    (1, 3): "[x2,x1,x2-x1,x3] + [x3,x1,x3-x1,x2] + [x3,x2,x3-x2,x1]",
    (2, 3): "[x2,x1,x2-x1,x1+x2,x3] + [x3,x1,x3-x1,x1+x3,x2] + [x3,x2,x3-x2,x2+x3,x1]",
}


def test_criterion_02_golden_rank3():
    with criterion(2, "rank-3 generators equal the three displayed closed forms", 5.0):
        for (i, j), text in sorted(GOLDEN_N3_AS_STATED.items()):
            expected = normal_form(parse_lie_expr(text, 3), 3)
            assert generator_h_lie(3, i, j) == expected, (
                f"generator ({i},{j}) differs from the displayed closed form; "
                "the displayed (2,3) expression equals h_13*e_1 - h_23, "
                "see tests/test_invariants.py::test_variant_closed_form_identity"
            )


def test_criterion_03_module_relations():
    with criterion(3, "three-index relation holds for all triples, n in {3,4,5}", 10.0):
        for n in (3, 4, 5):
            for i, j, k in combinations(range(1, n + 1), 3):
                assert verify_module_relation(n, i, j, k)


def test_criterion_04_embedding_laws():
    with criterion(4, "homomorphism and round trip on 200 random pairs", 30.0):
        rng = random.Random(1004)
        for _ in range(200):
            n = rng.randint(2, 4)
            f = random_lie_element(rng, n, max_degree=5)
            g = random_lie_element(rng, n, max_degree=5)
            assert embed(bracket(f, g)) == bracket_wreath(embed(f), embed(g))
            assert preimage(embed(f)) == f


def test_criterion_05_rewriting_oracle():
    with criterion(5, "normal form agrees with the wreath route on 500 trees", 60.0):
        rng = random.Random(1005)
        for _ in range(500):
            n = rng.randint(2, 4)
            expr, used, _ = random_lie_expr(rng, n, max_leaves=8)
            assert used <= 8
            assert normal_form(expr, n) == preimage(eval_in_wreath(expr, n))


def test_criterion_06_decomposition_soundness():
    with criterion(6, "decompose 24 averaged elements per rank, exact rebuild", 120.0):
        rng = random.Random(1006)
        for n in (2, 3, 4):
            for d in range(2, 8):
                for _ in range(4):
                    f = reynolds_lie(random_homogeneous_commutator(rng, n, d, comm_terms=5))
                    dec = decompose_invariant(f)
                    rebuilt = dec.reconstruct()
                    assert rebuilt == f
                    for _, _, q in dec.items():
                        assert is_symmetric(q.expand())


def test_criterion_07_rank2_dimension_oracle():
    with criterion(7, "rank-2 invariant dimensions match the pair count", 60.0):
        base = LieElement.from_commutator(2, BasisCommutator(2, 1))
        from metabelian import Polynomial

        for d in range(3, 11):
            basis = invariant_space_basis(2, d)
            pairs = [(a, b) for a in range(d - 1) for b in range(d - 1) if a < b and a + b == d - 2]
            assert len(basis) == len(pairs)
            spanning = []
            for a, b in pairs:
                p = Polynomial.monomial(2, (a, b)) - Polynomial.monomial(2, (b, a))
                spanning.append(ad_action(base, p))
            columns = [
                {c.sort_key(): coeff for c, coeff in w.comm.items()} for w in spanning
            ]
            for f in basis:
                rhs = {c.sort_key(): coeff for c, coeff in f.comm.items()}
                assert solve_exact(columns, rhs) is not None


def test_criterion_08_epsilon_normalization():
    with criterion(8, "substituting u=x in eps_j gives j*e_j for n up to 6", 1.0):
        for n in range(2, 7):
            for j in range(1, n + 1):
                assert substitute_u_equals_x(epsilon(n, j)) == elementary_symmetric(n, j) * j


def test_criterion_09_fundamental_theorem_round_trip():
    with criterion(9, "expand(decompose(p)) = p for 100 random symmetric p", 60.0):
        rng = random.Random(1009)
        for _ in range(100):
            n = rng.randint(2, 4)
            p = reynolds_poly(random_polynomial(rng, n, max_degree=8))
            assert decompose_in_elementary(p).expand() == p


def test_criterion_10_weighted_kernel():
    with criterion(10, "weighted-kernel expansion reconstructs 100 vectors", 1.0):
        rng = random.Random(1010)
        for _ in range(100):
            n = rng.randint(2, 6)
            raw = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
            weighted = sum((k + 1) * v for k, v in enumerate(raw))
            raw[-1] -= weighted / n
            coeffs = solve_weighted_kernel(raw)
            support = [k + 1 for k, v in enumerate(raw) if v != 0]
            rebuilt = [Fraction(0)] * n
            if support:
                j1 = support[0]
                for jk, beta in coeffs.items():
                    rebuilt = [x + beta * y for x, y in zip(rebuilt, z_vector(n, j1, jk))]
            assert rebuilt == raw
