import pytest

from metabelian import (
    ParseError,
    Permutation,
    RankError,
    ResourceGuardError,
    enumerate_sn,
    parse_cycles,
    sn_generators,
)


def test_generators_small():
    assert [g.images for g in sn_generators(2)] == [(2, 1), (2, 1)]
    assert [g.images for g in sn_generators(3)] == [(2, 1, 3), (2, 3, 1)]
    with pytest.raises(RankError):
        sn_generators(1)


@pytest.mark.parametrize("images", [[2.7, 1.2], ["2", "1"], [2.0, 1.0], [True, 2]])
def test_permutation_rejects_non_int_images(images):
    with pytest.raises(RankError):
        Permutation(images)


def test_transposition_is_involution():
    t = Permutation.transposition(4, 1, 2)
    assert (t * t).is_identity()


def test_compose_and_inverse():
    a = Permutation((2, 3, 1, 4))
    b = Permutation((1, 2, 4, 3))
    assert (a * b).images == tuple(a(b(i)) for i in range(1, 5))
    assert (a * a.inverse()).is_identity()
    assert (a.inverse() * a).is_identity()


def test_compose_associative():
    import random

    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(2, 6)
        perms = [list(range(1, n + 1)) for _ in range(3)]
        for p in perms:
            rng.shuffle(p)
        a, b, c = (Permutation(p) for p in perms)
        assert (a * b) * c == a * (b * c)


@pytest.mark.parametrize("n,count", [(1, 1), (3, 6), (4, 24)])
def test_enumeration_counts(n, count):
    perms = list(enumerate_sn(n))
    assert len(perms) == count
    assert len(set(perms)) == count


def test_enumeration_guard():
    with pytest.raises(ResourceGuardError):
        list(enumerate_sn(9))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_generators_generate_full_group(n):
    from math import factorial

    gens = sn_generators(n)
    seen = {Permutation.identity(n)}
    frontier = [Permutation.identity(n)]
    while frontier:
        new = []
        for p in frontier:
            for g in gens:
                q = g * p
                if q not in seen:
                    seen.add(q)
                    new.append(q)
        frontier = new
    assert len(seen) == factorial(n)


def test_parse_cycles():
    assert parse_cycles("(1 2)", 3) == Permutation((2, 1, 3))
    assert parse_cycles("(1 2)(3 4)", 4) == Permutation((2, 1, 4, 3))
    assert parse_cycles("(1 2 3)", 3) == Permutation((2, 3, 1))
    assert parse_cycles("()", 3).is_identity()
    assert parse_cycles("", 3).is_identity()


def test_parse_cycles_errors():
    with pytest.raises(ParseError):
        parse_cycles("(1 5)", 3)
    with pytest.raises(ParseError):
        parse_cycles("(1 2", 3)
    with pytest.raises(ParseError):
        parse_cycles("(1 1)", 3)


def test_cycle_notation_repr():
    assert repr(Permutation((2, 1, 3))) == "(1 2)"
    assert repr(Permutation.identity(3)) == "()"
    assert repr(Permutation((2, 1, 4, 3))) == "(1 2)(3 4)"
