from fractions import Fraction

import pytest

from metabelian import (
    ParseError,
    Polynomial,
    normal_form,
    parse_lie_expr,
    parse_polynomial,
    parse_wreath,
)

xp = Polynomial.variable


def test_polynomial_grammar():
    p = parse_polynomial("3/2*x1^2*x2 - x3", 3)
    assert p == Fraction(3, 2) * xp(3, 1) ** 2 * xp(3, 2) - xp(3, 3)
    assert parse_polynomial("0", 2).is_zero()
    assert parse_polynomial("-x1 + 2", 2) == Polynomial.constant(2, 2) - xp(2, 1)
    assert parse_polynomial("x1*x1", 2) == xp(2, 1) ** 2


def test_polynomial_whitespace_insensitive():
    assert parse_polynomial("x1+x2", 2) == parse_polynomial(" x1 + x2 ", 2)


def test_polynomial_print_parse_round_trip():
    import random

    from helpers import random_polynomial

    rng = random.Random(61)
    for _ in range(30):
        n = rng.randint(1, 4)
        p = random_polynomial(rng, n, max_degree=5)
        assert parse_polynomial(p.to_text(), n) == p


def test_polynomial_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x1 + x9", 3)
    assert err.value.pos == 5
    with pytest.raises(ParseError):
        parse_polynomial("x1 + ", 3)
    with pytest.raises(ParseError):
        parse_polynomial("3 3", 3)
    with pytest.raises(ParseError):
        parse_polynomial("1/0", 3)
    with pytest.raises(ParseError):
        parse_polynomial("x1 $ x2", 3)


def test_lie_grammar():
    e = parse_lie_expr("[x2,x1,x2] - [x2,x1,x1]", 2)
    f = normal_form(e, 2)
    assert f.to_text() == "-[x2,x1,x1] + [x2,x1,x2]"
    zero = normal_form(parse_lie_expr("0", 2), 2)
    assert zero.is_zero()


def test_lie_grammar_scalars_and_ad():
    f = normal_form(parse_lie_expr("1/2*[x2,x1] ad(x1 + x2)", 2), 2)
    g = normal_form(parse_lie_expr("1/2*[x2,x1,x1] + 1/2*[x2,x1,x2]", 2), 2)
    assert f == g
    h = normal_form(parse_lie_expr("2*(x1 + x2) - x2", 2), 2)
    assert h.to_text() == "2*x1 + x2"


def test_lie_grammar_nested_sums_in_brackets():
    f = normal_form(parse_lie_expr("[x2,x1,x2-x1]", 2), 2)
    g = normal_form(parse_lie_expr("[x2,x1,x2] - [x2,x1,x1]", 2), 2)
    assert f == g


def test_lie_grammar_errors():
    with pytest.raises(ParseError):
        parse_lie_expr("[x1]", 2)
    with pytest.raises(ParseError):
        parse_lie_expr("3", 2)  # nonzero constant
    with pytest.raises(ParseError):
        parse_lie_expr("[x1,x2", 2)
    with pytest.raises(ParseError):
        parse_lie_expr("x3", 2)
    with pytest.raises(ParseError):
        parse_lie_expr("[x1,x2] extra", 2)


def test_lie_print_parse_round_trip():
    import random

    from helpers import random_lie_element

    rng = random.Random(62)
    for _ in range(30):
        n = rng.randint(2, 4)
        f = random_lie_element(rng, n, max_degree=5)
        assert normal_form(parse_lie_expr(f.to_text(), n), n) == f


def test_wreath_grammar():
    w = parse_wreath("u1*( x2 ) - u2*( x1 ) + 2*v1 - v2", 2)
    assert w.upart[0] == xp(2, 2)
    assert w.upart[1] == -xp(2, 1)
    assert w.vpart == (Fraction(2), Fraction(-1))


def test_wreath_errors():
    with pytest.raises(ParseError):
        parse_wreath("u1*x2", 2)  # missing parentheses
    with pytest.raises(ParseError):
        parse_wreath("u3*( x1 )", 2)
    with pytest.raises(ParseError):
        parse_wreath("x1 + x2", 2)


@pytest.mark.parametrize(
    "parse, text, message, pos",
    [
        # a sign with no term after it, at the start or after a sign
        (parse_polynomial, "--x1", "expected a polynomial term", 1),
        (parse_lie_expr, "--x1", "expected x<k>, '[' or '('", 1),
        (parse_wreath, "--v1", "expected u<k> or v<k>", 1),
        (parse_polynomial, "+x1 - -x2", "expected a polynomial term", 6),
        (parse_lie_expr, "-[x2,x1] + +x1", "expected x<k>, '[' or '('", 11),
        # a dangling + or - at the end
        (parse_polynomial, "x1 +", "expected a polynomial term", 4),
        (parse_polynomial, "-", "expected a polynomial term", 1),
        (parse_lie_expr, "[x2,x1] -", "expected x<k>, '[' or '('", 9),
        (parse_wreath, "u1*( x2 ) -", "expected u<k> or v<k>", 11),
        # junk after a term, at the top level and nested
        (parse_polynomial, "2*x1 3", "trailing input after polynomial", 5),
        (parse_lie_expr, "[x2,x1] x1", "trailing input after expression", 8),
        (parse_lie_expr, "[x2,x1 x1]", "expected ']'", 7),
        (parse_lie_expr, "[x2,x1] ad(x1 x2)", "expected ')'", 14),
        (parse_wreath, "v1 v2", "expected '+', '-' or end of input", 3),
        (parse_wreath, "u1*( x2 ) x1", "expected '+', '-' or end of input", 10),
        (parse_wreath, "u1*( x2 x1 )", "expected ')'", 8),
        # the wreath grammar's bare 0 only stands alone
        (parse_wreath, "0 + v1", "expected '*'", 2),
        (parse_wreath, "-0", "expected '*'", 2),
    ],
)
def test_signed_sum_errors_are_pinned(parse, text, message, pos):
    with pytest.raises(ParseError) as err:
        parse(text, 2)
    assert str(err.value) == f"{message} (at position {pos})"
    assert err.value.pos == pos


def test_wreath_bare_zero():
    for text in ("0", " 0 ", "00"):
        assert parse_wreath(text, 2).is_zero()
    assert parse_wreath("+v1 - 0*v2", 2).vpart == (Fraction(1), Fraction(0))
