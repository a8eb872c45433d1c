"""The orbit-key invariance test, pinned to closed forms and to the reference.

An invariant of the commutator ideal is fixed by its u_1-coordinate p_1,
which is symmetric in x_2..x_n, and each of its Lie coefficients is the value
of p_1 on one orbit key (k, lambda): x_1^k times the S_(n-1)-orbit of the
partition lambda on x_2..x_n.  The chain tested here:

1. count(k, lambda), the number of basis commutators per key, equals a
   brute-force count over all basis commutators, and the read-off of each
   key's orbit sum;
2. the membership rows on the p_n(d) partitions of d are independent, so
   their kernel on the keys of degree d has dimension
   sum_k p_(n-1)(d - 1 - k) - p_n(d), which is hilbert_function(n, d);
3. hilbert_function(n, d) is the Euler characteristic
   sum_(k >= 2) (-1)^k sum_(|S| = k) p_n(d - sum S) of the Koszul complex of
   e_1, ..., e_n (S runs over subsets of {1..n}), with no h_ij in sight;
4. each of the three checks (agreement, count, membership) and the linear
   part is the one to reject some input, with the reference's generator and
   error text through decompose_invariant, is_invariant_lie and the CLI;
5. the new caches hold tuples and ints only, so no caller can change a later
   decompose through them;
6. the paper's theorem: the h_(j1,jk) * e^b over the Hilbert index set (one
   per e-monomial e^a of weighted degree d and per index of its support but
   the first) have orbit-key values that pass every membership row, with
   rank hilbert_function(n, d), so they span the membership kernel of step 2;
7. invariant_space_basis, that kernel read off in reduced echelon form,
   equals the basis built from the h_ij by elimination over Lie columns.
"""

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import permutations

import pytest

import reference_impl as ref
from metabelian import (
    BasisCommutator,
    InvarianceError,
    LieElement,
    Polynomial,
    ad_action,
    decompose_invariant,
    elementary_symmetric,
    generator_h_lie,
    hilbert_function,
    invariant_space_basis,
    is_invariant_lie,
    sum_of_variables,
)
from metabelian import invariants
from metabelian.cli import main


def partitions(d, most, top=None):
    """Partitions of d into at most ``most`` parts, decreasing tuples."""
    top = d if top is None else top
    if d == 0:
        return [()]
    if most == 0:
        return []
    return [(first,) + rest for first in range(min(d, top), 0, -1)
            for rest in partitions(d - first, most - 1, first)]


@cache
def p(n, m):
    """p_n(m), the number of partitions of m into at most n parts: those with
    fewer than n parts, and those with n, less 1 in each part."""
    if m < 0:
        return 0
    if n == 0 or m == 0:
        return int(m == 0)
    return p(n - 1, m) + p(n, m - n)


def key_by_definition(c, n):
    """The key of the u_1 term (1 a)M - delta_1 that c = [x_a, x_m, tail],
    with content M, is read off, built literally."""
    content = [0] * n
    for i in c.indices():
        content[i - 1] += 1
    mono = list(content)
    mono[0], mono[c.i1 - 1] = content[c.i1 - 1] - 1, content[0]
    return mono[0], tuple(sorted((e for e in mono[1:] if e), reverse=True))


def keys_of_degree(n, d):
    return [(k, lam) for k in range(d) for lam in partitions(d - 1 - k, n - 1)]


@pytest.mark.parametrize("n", range(2, 7))
def test_key_counts_match_a_brute_force_count(n):
    for d in range(2, 8):
        commutators = ref._basis_commutators(n, d)
        assert [invariants._orbit_key(c) for c in commutators] == [
            key_by_definition(c, n) for c in commutators
        ]
        sizes = Counter(key_by_definition(c, n) for c in commutators)
        keys = keys_of_degree(n, d)
        assert set(sizes) <= set(keys)
        for k, lam in keys:
            assert invariants._key_count(n, lam) == sizes[(k, lam)]


@pytest.mark.parametrize("n", range(2, 6))
def test_the_read_off_of_an_orbit_sum_has_count_terms_of_its_key(n):
    for d in range(2, 7):
        for k, lam in keys_of_degree(n, d):
            padded = lam + (0,) * (n - 1 - len(lam))
            orbit = {(k,) + nu: Fraction(1) for nu in set(permutations(padded))}
            comm = invariants._lie_from_u1(Polynomial(n, orbit)).comm
            assert len(comm) == invariants._key_count(n, lam)
            assert {invariants._orbit_key(c) for c in comm} <= {(k, lam)}


def sparse_rank(rows):
    """The rank of a list of {column: int} rows, by elimination on Fractions."""
    pivots = {}
    for row in rows:
        row = {c: Fraction(v) for c, v in row.items() if v}
        while row:
            col = min(row)
            if col not in pivots:
                pivots[col] = row
                break
            pivot = pivots[col]
            factor = row[col] / pivot[col]
            for c, v in pivot.items():
                new = row.get(c, 0) - factor * v
                if new:
                    row[c] = new
                else:
                    row.pop(c, None)
    return len(pivots)


def test_membership_kernel_dimension_is_the_hilbert_function():
    for n in range(2, 13):
        for d in range(2, 15):
            index = {key: i for i, key in enumerate(keys_of_degree(n, d))}
            rows = []
            for row in invariants._membership_rows(n, d):
                vec = Counter()
                for key, mult in row:
                    vec[index[key]] += mult
                rows.append(vec)
            assert len(rows) == p(n, d)
            assert sparse_rank(rows) == len(rows)
            kernel = sum(p(n - 1, d - 1 - k) for k in range(d)) - p(n, d)
            assert len(index) - len(rows) == kernel == hilbert_function(n, d), (n, d)


def test_hilbert_function_is_the_koszul_euler_characteristic():
    for n in range(2, 13):
        # subsets[k][s]: the subsets S of {1..n} with |S| = k and sum S = s
        subsets = [Counter() for _ in range(n + 1)]
        subsets[0][0] = 1
        for j in range(1, n + 1):
            for k in range(j, 0, -1):
                for s, count in list(subsets[k - 1].items()):
                    subsets[k][s + j] += count
        # p_n(m) also counts the partitions of m into parts of size at most
        # n, the dimension of K[e_1..e_n] in weighted degree m
        for d in range(2, 31):
            euler = sum(
                (-1) ** k * count * p(n, d - s)
                for k in range(2, n + 1)
                for s, count in subsets[k].items()
            )
            assert euler == hilbert_function(n, d), (n, d)


def check_results(f):
    """(agreement, count, membership) of the commutator part of f, each
    computed on its own."""
    values, sizes, agreement = {}, Counter(), True
    for c, v in f.comm.items():
        key = invariants._orbit_key(c)
        agreement &= values.setdefault(key, v) == v
        sizes[key] += 1
    count = all(invariants._key_count(f.n, key[1]) == size for key, size in sizes.items())
    membership = all(
        sum(values.get(key, 0) * mult for key, mult in row) == 0
        for d in {k + sum(lam) + 1 for k, lam in values}
        for row in invariants._membership_rows(f.n, d)
    )
    return agreement, count, membership


def _h(n):
    return generator_h_lie(n, 1, 2) + ad_action(generator_h_lie(n, 1, 3), elementary_symmetric(n, 1))


def _dropped(f):
    comm = dict(f.comm)
    del comm[min(comm, key=BasisCommutator.sort_key)]
    return LieElement(f.n, f.linear, comm)


def _changed(f):
    comm = dict(f.comm)
    c = max(comm, key=BasisCommutator.sort_key)
    comm[c] *= 3
    return LieElement(f.n, f.linear, comm)


# each input with the checks it passes: (agreement, count, membership), and
# whether its linear part is uniform
NEGATIVE_INPUTS = {
    "x2-x1-at-n2": (LieElement.from_commutator(2, BasisCommutator(2, 1)), (True, True, False), True),
    "one-term-dropped": (_dropped(_h(4)), (True, False, True), True),
    "one-coefficient-changed": (_changed(_h(4)), (False, True, True), True),
    "non-uniform-linear-part": (
        _h(3) + sum_of_variables(3) + LieElement(3, (0, 0, Fraction(1, 2))), (True, True, True), False
    ),
}


def cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("f, passed, uniform", NEGATIVE_INPUTS.values(), ids=NEGATIVE_INPUTS)
def test_each_check_rejects_its_input_like_the_reference(capsys, f, passed, uniform):
    assert check_results(f) == passed
    assert (len(set(f.linear)) == 1) is uniform
    sigma = ref.invariance_violation(f)
    assert sigma is not None
    assert invariants.invariance_violation(f) == sigma and not is_invariant_lie(f)
    with pytest.raises(InvarianceError) as new:
        decompose_invariant(f)
    with pytest.raises(InvarianceError) as old:
        ref.decompose_invariant(f)
    assert type(new.value) is type(old.value)
    assert str(new.value) == str(old.value) == f"element is not invariant: moved by {sigma}"
    assert new.value.permutation == old.value.permutation == sigma
    n, text = str(f.n), f.to_text()
    assert cli(capsys, "decompose", "--n", n, text) == (2, "", f"error: {old.value}\n")
    assert cli(capsys, "is-invariant", "--n", n, text) == (0, f"false, violated by {sigma}\n", "")


def test_the_negative_inputs_are_one_change_away_from_invariants():
    assert is_invariant_lie(_h(4)) and is_invariant_lie(_h(3) + sum_of_variables(3))
    assert check_results(_h(4)) == (True, True, True)


def test_key_caches_hold_tuples_so_no_caller_can_change_a_later_decompose():
    f = _h(4) * Fraction(2, 3) + sum_of_variables(4)
    before = decompose_invariant(f).to_text()
    caches = (invariants._e_prime, invariants._key_count, invariants._membership_rows,
              invariants._forward_column, invariants._back_column)
    assert all(cached.cache_parameters()["typed"] for cached in caches)
    values = [invariants._e_prime(4, 2), invariants._key_count(4, (2, 1)),
              invariants._membership_rows(4, 4)]
    assert type(values[1]) is int
    for value in values[::2]:
        assert type(value) is tuple
        hash(value)  # a list or dict anywhere inside would raise TypeError
        with pytest.raises(TypeError):
            value[0] = value[-1]
    assert decompose_invariant(f).to_text() == before == ref.decompose_invariant(f).to_text()
    assert invariants._e_prime(4, 2) is values[0]


def hilbert_index_set(n, d):
    """(j1, jk, b): h_(j1,jk) * e^b for each e-monomial e^a of weighted degree
    d with support j1 < ... < jm, k >= 2, and b = a - delta_j1 - delta_jk."""
    for a in invariants.weighted_exponent_vectors(n, d):
        support = [j for j, v in enumerate(a, 1) if v]
        for jk in support[1:]:
            yield support[0], jk, tuple(v - (j in (support[0], jk)) for j, v in enumerate(a, 1))


@pytest.mark.parametrize("n", range(2, 8))
def test_the_generators_span_the_membership_kernel(n):
    for d in range(2, 10):
        vectors = [dict(invariants._back_column(n, j1, jk, b))
                   for j1, jk, b in hilbert_index_set(n, d)]
        for vec in vectors:
            for row in invariants._membership_rows(n, d):
                assert sum(vec.get(key, 0) * mult for key, mult in row) == 0, (n, d, row)
        assert sparse_rank(vectors) == len(vectors) == hilbert_function(n, d), (n, d)


@pytest.mark.parametrize("n, d", [(n, d) for n in range(1, 7) for d in range(1, 9)])
def test_the_key_kernel_basis_matches_the_basis_built_from_the_generators(n, d):
    fast, slow = invariant_space_basis(n, d), ref.basis_from_generators(n, d)
    assert fast == slow
    assert [f.to_text() for f in fast] == [f.to_text() for f in slow]
