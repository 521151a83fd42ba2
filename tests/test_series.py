import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motivic_power.power import MONOMIAL_KERNEL, factor
from motivic_power.rings import INTEGERS, Polynomial, RingMismatchError
from motivic_power.series import Series

from conftest import (
    ALL_RINGS,
    LAURENT_L,
    UV,
    UVW,
    dict_inverse,
    dict_series_product,
    polynomials,
)


def series_over(ring, order=5, **kw):
    return st.lists(polynomials(ring, **kw), min_size=order + 1,
                    max_size=order + 1).map(
        lambda cs: Series(ring, order, cs))


def unital_over(ring, order=5, **kw):
    return st.lists(polynomials(ring, **kw), min_size=order, max_size=order).map(
        lambda cs: Series(ring, order, [Polynomial.one(ring)] + cs))


class TestConstruction:
    def test_length_must_match_order(self):
        with pytest.raises(ValueError):
            Series(INTEGERS, 3, [1, 2])

    def test_coefficients_must_share_ring(self):
        with pytest.raises(RingMismatchError):
            Series(UV, 1, [Polynomial.one(UV), Polynomial.one(INTEGERS)])

    def test_int_coercion(self):
        S = Series(INTEGERS, 2, [1, 2, 3])
        assert S.coefficient(2) == Polynomial.constant(INTEGERS, 3)

    def test_coefficient_out_of_range(self):
        S = Series(INTEGERS, 2, [1, 0, 0])
        with pytest.raises(ValueError):
            S.coefficient(3)


class TestMultiplication:
    def test_telescoping(self):
        geo = Series(INTEGERS, 5, [1] * 6)
        one_minus_t = Series(INTEGERS, 5, [1, -1, 0, 0, 0, 0])
        assert geo * one_minus_t == Series.one(INTEGERS, 5)

    def test_difference_of_squares(self):
        a = Series(INTEGERS, 2, [1, 1, 0])
        b = Series(INTEGERS, 2, [1, -1, 0])
        assert a * b == Series(INTEGERS, 2, [1, 0, -1])

    def test_uv_square(self):
        uv = Polynomial(UV, {(1, 1): 1})
        A = Series(UV, 2, [Polynomial.one(UV), uv, Polynomial.zero(UV)])
        sq = A * A
        assert sq.coefficient(1) == 2 * uv
        assert sq.coefficient(2) == uv * uv

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            Series.one(INTEGERS, 3) * Series.one(INTEGERS, 4)

    @settings(max_examples=25, deadline=None)
    @given(series_over(UV, 4), series_over(UV, 4), series_over(UV, 4))
    def test_associative_commutative(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([LAURENT_L, UVW]).flatmap(
        lambda ring: st.tuples(series_over(ring, 5), series_over(ring, 5))))
    def test_fast_path_matches_exact(self, pair):
        a, b = pair
        assert a * b == dict_series_product(a, b)

    def test_powers_square_only_what_they_use(self, monkeypatch):
        # binary powering: popcount(n) + bitlen(n) - 2 products for n >= 1
        u, v = Polynomial(UV, {(1, 0): 1}), Polynomial(UV, {(0, 1): 1})
        A = Series(UV, 12, [1] + [k * u - v ** (k % 3) for k in range(1, 13)])
        powers = [Series.one(UV, 12)]
        for _ in range(9):
            powers.append(powers[-1] * A)
        calls = []
        real = Series.__mul__

        def counted(self, other):
            calls.append(other)
            return real(self, other)
        monkeypatch.setattr(Series, "__mul__", counted)
        for n, want in enumerate(powers):
            calls.clear()
            assert A ** n == want
            assert len(calls) == (n.bit_count() + n.bit_length() - 2 if n else 0)

    def test_huge_coefficients_stay_exact(self):
        big = 10 ** 40
        a = Series(INTEGERS, 2, [1, big, big])
        b = Series(INTEGERS, 2, [1, big, 0])
        prod = a * b
        assert prod.coefficient(2) == Polynomial.constant(INTEGERS, big * big + big)


class TestInverse:
    def test_geometric(self):
        one_minus_t = Series(INTEGERS, 3, [1, -1, 0, 0])
        assert one_minus_t.inverse() == Series(INTEGERS, 3, [1, 1, 1, 1])

    def test_identity(self):
        assert Series.one(INTEGERS, 4).inverse() == Series.one(INTEGERS, 4)

    def test_laurent_geometric(self):
        L = Polynomial.variable(LAURENT_L, "L")
        A = Series(LAURENT_L, 2, [Polynomial.one(LAURENT_L), L,
                                  Polynomial.zero(LAURENT_L)])
        assert A.inverse() == Series(LAURENT_L, 2,
                                     [Polynomial.one(LAURENT_L), -L, L * L])

    def test_requires_unital(self):
        with pytest.raises(ValueError):
            Series(INTEGERS, 2, [2, 0, 0]).inverse()

    @settings(max_examples=25, deadline=None)
    @given(unital_over(UV, 5))
    def test_two_sided(self, A):
        inv = A.inverse()
        one = Series.one(UV, 5)
        assert A * inv == one
        assert inv * A == one

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([INTEGERS, LAURENT_L, UV, UVW]).flatmap(
        lambda ring: unital_over(ring, 5, coeff_bound=2 ** 70)))
    def test_matches_dict_reference(self, A):
        assert A.inverse() == dict_inverse(A)


class TestRescaleTruncate:
    def test_rescale_examples(self):
        A = Series(INTEGERS, 4, [1, 1, 0, 0, 0])
        assert A.rescale(2) == Series(INTEGERS, 4, [1, 0, 1, 0, 0])
        B = Series(INTEGERS, 4, [1, 1, 1, 0, 0])
        assert B.rescale(3) == Series(INTEGERS, 4, [1, 0, 0, 1, 0])
        assert Series.one(INTEGERS, 4).rescale(7) == Series.one(INTEGERS, 4)

    def test_rescale_rejects_zero(self):
        with pytest.raises(ValueError):
            Series.one(INTEGERS, 3).rescale(0)

    def test_truncate(self):
        A = Series(INTEGERS, 4, [1, 2, 3, 4, 5])
        assert A.truncate(2) == Series(INTEGERS, 2, [1, 2, 3])
        assert A.truncate(4) is A

    def test_extension_is_an_error(self):
        with pytest.raises(ValueError):
            Series.one(INTEGERS, 3).truncate(5)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(ALL_RINGS).flatmap(lambda r: unital_over(r, 6)),
           st.integers(0, 6))
    def test_truncation_keeps_a_factorization(self, A, order):
        factor(A)
        low = A.truncate(order)
        fresh = Series(A.ring, order, low.coefficients)
        assert not fresh._factor_cache
        assert low._factor_cache == {MONOMIAL_KERNEL: factor(fresh)}
        assert copy.copy(low)._factor_cache == {}
        assert not Series(A.ring, 6, A.coefficients).truncate(order)._factor_cache


class TestSerialization:
    def test_json_round_trip(self):
        L = Polynomial.variable(LAURENT_L, "L")
        A = Series(LAURENT_L, 2, [Polynomial.one(LAURENT_L), L, L * L - 1])
        assert Series.from_json(A.to_json()) == A

    def test_str(self):
        L = Polynomial.variable(LAURENT_L, "L")
        A = Series(LAURENT_L, 3, [Polynomial.one(LAURENT_L), -L,
                                  L + 1, Polynomial.zero(LAURENT_L)])
        assert str(A) == "1 - L*t + (L + 1)*t^2"
