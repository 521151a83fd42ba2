import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motivic_power.axioms import random_polynomial
from motivic_power.expressions import (
    ParseError,
    _tokenize,
    expression_size,
    parse_polynomial,
    parse_series,
)
from motivic_power.rings import INTEGERS, Polynomial, RingDescriptor
from motivic_power.series import Series

from conftest import reference_tokenize

UV = RingDescriptor(("u", "v"))
LAURENT_L = RingDescriptor(("L",), laurent=True)


class TestParsing:
    def test_simple_sum(self):
        assert parse_polynomial("1+u*v", UV) == \
            Polynomial(UV, {(0, 0): 1, (1, 1): 1})

    def test_laurent_negative_exponent(self):
        assert parse_polynomial("L^-1", LAURENT_L) == \
            Polynomial.monomial(LAURENT_L, (-1,))
        assert parse_polynomial("L^(-2)", LAURENT_L) == \
            Polynomial.monomial(LAURENT_L, (-2,))

    def test_unknown_variable(self):
        with pytest.raises(ParseError, match="unknown variable 'w'"):
            parse_polynomial("1+w", UV)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_polynomial("1 +\n  w", UV)
        assert err.value.line == 2
        assert err.value.column == 3

    def test_power_of_a_variable_is_one_monomial(self):
        # built directly, without squarings, and priced as one term
        ring = RingDescriptor(("u", "v"), laurent=True)
        e = 10 ** 40
        assert parse_polynomial("u^%d*(v)^-3" % e, ring) == \
            Polynomial.monomial(ring, (e, -3))
        size = expression_size("u^%d" % e, ring)
        assert size.terms == 1 and size.box == ((e, e), (0, 0))

    def test_negative_exponent_needs_laurent(self):
        with pytest.raises(ParseError, match="Laurent"):
            parse_polynomial("u^-1", UV)

    def test_negative_exponent_only_on_variables(self):
        with pytest.raises(ParseError, match="variables"):
            parse_polynomial("(1+u)^-1", UV)

    def test_parenthesized_powers(self):
        assert parse_polynomial("(1+u)^2", UV) == \
            Polynomial(UV, {(0, 0): 1, (1, 0): 2, (2, 0): 1})

    def test_integer_arithmetic(self):
        assert parse_polynomial("2^3 - (4-1)*5", INTEGERS) == \
            Polynomial.constant(INTEGERS, -7)

    def test_unary_minus(self):
        assert parse_polynomial("-u^2 + 1", UV) == \
            Polynomial(UV, {(2, 0): -1, (0, 0): 1})

    def test_long_sum_is_one_term_map(self, monkeypatch):
        # x^0 + ... + x^(n-1) is built in one pass, not one polynomial
        # sum (a copy of the running total) per summand
        ring = RingDescriptor(("x",))
        n = 20000
        src = "+".join("x^%d" % k for k in range(n))
        monkeypatch.setattr(Polynomial, "__add__", lambda *args: pytest.fail(
            "a sum added polynomials one by one"))
        assert parse_polynomial(src, ring) == \
            Polynomial(ring, {(k,): 1 for k in range(n)})
        # signs, repeats and cancellation to zero coefficients
        assert parse_polynomial("x - 2*x^2 + x^2 - x + 3 + x^2", ring) == \
            Polynomial.constant(ring, 3)
        assert parse_polynomial("-1 + 1", INTEGERS) == \
            Polynomial.zero(INTEGERS)

    def test_syntax_errors(self):
        for bad in ("1+", "u v", "(1+u", "*3", "u^", "u^^2", "1..2"):
            with pytest.raises(ParseError):
                parse_polynomial(bad, UV)


def tokens_or_error(tokenize, src):
    """The tokens as (kind, text, line, column), or the ParseError's
    message and position."""
    try:
        return [(t.kind, t.text, t.line, t.column) for t in tokenize(src)]
    except ParseError as err:
        return str(err), err.line, err.column


# ASCII and Unicode digits, letters and other word characters, every kind
# of whitespace and line break, the operators and characters no token takes
SOURCE_CHARS = st.one_of(
    st.sampled_from(list("0123456789+-*^()_uvxL \t\n\r\x0b\x0c\x1c\x85"
                         "\xa0\u2028\u3000.,$=\x00")),
    st.sampled_from(list("\u00e9\u00df\u03bb\u0416\u4e2d\u00b2\u00bd"
                         "\u0663\u0966\u2167\U0001d465\u0301\u02b0")),
    st.characters())


class TestTokenizer:
    @settings(max_examples=500, deadline=None)
    @given(st.one_of(st.text(SOURCE_CHARS, max_size=40), st.text()))
    def test_matches_the_character_walk(self, src):
        assert tokens_or_error(_tokenize, src) == \
            tokens_or_error(reference_tokenize, src)

    @pytest.mark.parametrize("src", [
        "", "\n", " \n\n  x", "x1_y2 + 3*y^-2\n(1)", "\u00e9t\u00e9^2",
        "12ab", "_a", "x\u00b2", "\u00b2x", "\u0663", "x\u0663+1",
        "1 +\n\r\n 2 $", "\u2028x\u0085y", "a\tb\x0bc",
    ])
    def test_edge_sources(self, src):
        assert tokens_or_error(_tokenize, src) == \
            tokens_or_error(reference_tokenize, src)

    def test_positions_and_errors(self):
        assert tokens_or_error(_tokenize, "u +\n  12*v\n") == [
            ("name", "u", 1, 1), ("+", "+", 1, 3), ("int", "12", 2, 3),
            ("*", "*", 2, 5), ("name", "v", 2, 6), ("end", "", 3, 1)]
        assert tokens_or_error(_tokenize, "u\n +\u00b2") == (
            "unexpected character '\u00b2' (line 2, column 3)", 2, 3)


class TestRoundTrips:
    def test_parse_after_print_is_identity(self):
        rng = random.Random(3)
        for ring in (INTEGERS, LAURENT_L, UV):
            for _ in range(25):
                p = random_polynomial(rng, ring, max_degree=3, coeff_bound=9)
                assert parse_polynomial(str(p), ring) == p

    def test_print_after_parse_normalizes_whitespace(self):
        messy = "  1 +   u * v\n - 2*u^2 "
        p = parse_polynomial(messy, UV)
        assert str(p) == "-2*u^2 + u*v + 1"
        assert parse_polynomial(str(p), UV) == p


class TestSeriesParsing:
    def test_basic(self):
        S = parse_series("1+t", INTEGERS, 3)
        assert S == Series(INTEGERS, 3, [1, 1, 0, 0])

    def test_polynomial_coefficients(self):
        S = parse_series("1 + u*v*t + (u+v)*t^2", UV, 2)
        assert S.coefficient(1) == Polynomial(UV, {(1, 1): 1})
        assert S.coefficient(2) == Polynomial(UV, {(1, 0): 1, (0, 1): 1})

    def test_truncation_drops_high_terms(self):
        S = parse_series("1 + t^9", INTEGERS, 4)
        assert S == Series.one(INTEGERS, 4)

    def test_negative_series_power_rejected(self):
        with pytest.raises(ValueError, match="negative powers"):
            parse_series("1+t^-1", LAURENT_L, 3)

    def test_series_variable_clash(self):
        ring = RingDescriptor(("t",))
        with pytest.raises(ValueError, match="clashes"):
            parse_series("1+t", ring, 2)


class TestExpressionSize:
    @pytest.mark.parametrize("src", [
        "0", "7", "-12345678901234567890", "x", "x^-3*y", "(x+2*y-1)^5",
        "(1+2*x)^13*(3-y)^4 - x*y + 5", "(x^2-x^-1)^3*(x+y)^2",
        "+".join(["x"] * 50),
        "(x-1)*(x+1) - x^2", "((1+x)^2)^3 + (y^2)^0",
    ])
    def test_bounds_hold_for_the_evaluated_polynomial(self, src):
        ring = RingDescriptor(("x", "y"), laurent=True)
        p = parse_polynomial(src, ring)
        size = expression_size(src, ring)
        assert len(p.terms) <= size.terms
        assert sum(abs(c) for c in p.terms.values()) <= 2 ** size.bits * (1 + 1e-9)
        for exps in p.terms:
            assert all(lo <= e <= hi for e, (lo, hi) in zip(exps, size.box))

    def test_huge_powers_are_sized_without_evaluating(self):
        ring = RingDescriptor(("x",))
        size = expression_size("(1+2*x)^1000000", ring)
        assert size.box == ((0, 1000000),)
        assert size.terms == 1000001
        assert size.bits == pytest.approx(1000000 * math.log2(3))

    def test_product_work_counts_the_terms_it_creates(self):
        # the same term pairs, one term more: (x+1)*(y+1) has four terms,
        # (x+1)*(x+1) at most three
        from motivic_power.expressions import _TERM_WORK
        ring = RingDescriptor(("x", "y"))
        wide = expression_size("(x+1)*(y+1)", ring).work
        narrow = expression_size("(x+1)*(x+1)", ring).work
        assert wide > narrow
        assert wide - narrow == pytest.approx(_TERM_WORK)

    def test_power_work_counts_the_squarings(self):
        ring = RingDescriptor(("x",))
        # x^8 is three squarings and one product with the start value
        squared = expression_size("(1+x)^2", ring).work
        assert expression_size("(1+x)^8", ring).work > 3 * squared
