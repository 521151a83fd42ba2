"""Differential tests of the fold at the public entry points.

Every solve folds its ring into one variable and unfolds its results at
the end (``gridops.Fold``).  These tests reach it only through
``base_series``, ``factor``, ``assemble``, ``pow_series``, ``Series``
products and ``Series.inverse``, and compare each result with ``==`` to
a plain dict reference: ``_monomial_base_exact`` for kernel series,
``dict_series_product`` and ``dict_inverse`` for series arithmetic, and
the Euler product multiplied out in dicts for factor, assemble and pow.
Inputs aim at the fold's edges: negative exponents on every axis in two
and three variables, exponents exactly at the top of a solve's window,
exponents m with negative entries, non-unital factors, orders 0 and 1,
and values on both sides of 2^62.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from motivic_power.power import (
    EulerProduct,
    _monomial_base_exact,
    assemble,
    base_series,
    factor,
    pow_series,
)
from motivic_power.rings import Polynomial, RingDescriptor
from motivic_power.series import Series

from conftest import UV, UVW, dict_inverse, dict_series_product

LAURENT_UV = RingDescriptor(("u", "v"), laurent=True)
LAURENT_UVW = RingDescriptor(("u", "v", "w"), laurent=True)
RINGS = [UV, UVW, LAURENT_UV, LAURENT_UVW]

values = st.one_of(
    st.integers(-4, 4),
    st.builds(lambda d, sign: sign * (2 ** 62 + d), st.integers(-2, 2),
              st.sampled_from([1, -1])),
).filter(bool)


def polynomials(ring, size=3):
    lo = -3 if ring.laurent else 0
    exps = st.tuples(*[st.integers(lo, 3)] * ring.nvars)
    return st.dictionaries(exps, values, max_size=size).map(
        lambda terms: Polynomial(ring, terms))


def series(ring, order, unital=True):
    head = st.just(Polynomial.one(ring)) if unital else polynomials(ring)
    return st.tuples(head, st.lists(polynomials(ring), min_size=order,
                                    max_size=order)).map(
        lambda hc: Series(ring, order, [hc[0]] + hc[1]))


def dict_assemble(ring, order, exponents):
    """prod_i (1-t^i)^(-b_i), one block at a time, in dict arithmetic."""
    result = Series.one(ring, order)
    zero = Polynomial.zero(ring)
    for i, b in enumerate(exponents, start=1):
        inner = _monomial_base_exact(b, order // i).coefficients
        block = [zero] * (order + 1)
        for j, c in enumerate(inner):
            block[j * i] = c
        result = dict_series_product(result, Series(ring, order, block))
    return result


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_folded_solves_match_dict_references(data):
    ring = data.draw(st.sampled_from(RINGS))
    order = data.draw(st.integers(0, 4))
    a = data.draw(polynomials(ring))
    assert base_series(a, order) == _monomial_base_exact(a, order)
    A = data.draw(series(ring, order))
    exponents = factor(A).exponents
    assert dict_assemble(ring, order, exponents) == A
    m = data.draw(polynomials(ring, size=2))
    want = dict_assemble(ring, order, [b * m for b in exponents])
    assert pow_series(A, m) == want
    E = [data.draw(polynomials(ring, size=2)) for _ in range(order)]
    assert assemble(EulerProduct(ring, order, E)) == \
        dict_assemble(ring, order, E)
    B, C = (data.draw(series(ring, order, unital=False)) for _ in range(2))
    assert B * C == dict_series_product(B, C)
    assert A.inverse() == dict_inverse(A)


def test_results_at_the_top_of_the_window():
    # a = u^3 v^-2 w^3 + u^-1 v^-3 w^-2 + 2: f_N of (1-t)^(-a) holds
    # a's extreme monomials to the N-th power, exactly at N*[o, h] on every
    # axis; so does the inverse of 1 + x t, x = -u^2 v^-3 w^2, and the
    # power (1 + x t)^m with m = u^-1 w
    order = 6
    R = LAURENT_UVW
    a = Polynomial(R, {(3, -2, 3): 1, (-1, -3, -2): 1, (0, 0, 0): 2})
    got = base_series(a, order)
    assert got == _monomial_base_exact(a, order)
    assert (3 * order, -2 * order, 3 * order) in got.coefficient(order).terms
    assert (-order, -3 * order, -2 * order) in got.coefficient(order).terms
    x = Polynomial(R, {(2, -3, 2): -1})
    A = Series(R, order, [1, x] + [0] * (order - 1))
    assert A.inverse() == dict_inverse(A)
    assert A.inverse().coefficient(order).terms == {
        (2 * order, -3 * order, 2 * order): 1}
    m = Polynomial(R, {(-1, 0, 1): 1})
    assert pow_series(A, m) == dict_assemble(
        R, order, [b * m for b in factor(A).exponents])
