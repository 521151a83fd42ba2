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

The fold then divides every index by g, the gcd of its inputs' indices
(``Fold.gcd``), so a second group of inputs lies on lattices: exponents
that are multiples of g in one variable, the diagonal (k, k) and the
parity lattice a + b even in two, and indices whose product with g
leaves int64.  Polynomial products join the checks there, against the
dict product.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motivic_power.gridops import Fold, _accumulate_product
from motivic_power.hilbert import VarietyClass, hodge_deligne_series
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

X_RING = RingDescriptor(("x",))
LAURENT_X = RingDescriptor(("x",), laurent=True)
LAURENT_UV = RingDescriptor(("u", "v"), laurent=True)
LAURENT_UVW = RingDescriptor(("u", "v", "w"), laurent=True)
RINGS = [UV, UVW, LAURENT_UV, LAURENT_UVW]

values = st.one_of(
    st.integers(-4, 4),
    st.builds(lambda d, sign: sign * (2 ** 62 + d), st.integers(-2, 2),
              st.sampled_from([1, -1])),
).filter(bool)


def box(ring):
    """Exponent vectors of small entries, negative ones if Laurent."""
    lo = -3 if ring.laurent else 0
    return st.tuples(*[st.integers(lo, 3)] * ring.nvars)


def polynomials(ring, size=3, exps=None):
    exps = box(ring) if exps is None else exps
    return st.dictionaries(exps, values, max_size=size).map(
        lambda terms: Polynomial(ring, terms))


def series(ring, order, unital=True, exps=None):
    head = (st.just(Polynomial.one(ring)) if unital
            else polynomials(ring, exps=exps))
    return st.tuples(head, st.lists(polynomials(ring, exps=exps),
                                    min_size=order, max_size=order)).map(
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


def check_solves(data, ring, exps=None):
    """Every folded solve on drawn inputs, with exponents from ``exps``,
    against its dict reference."""
    order = data.draw(st.integers(0, 4))
    a = data.draw(polynomials(ring, exps=exps))
    assert base_series(a, order) == _monomial_base_exact(a, order)
    A = data.draw(series(ring, order, exps=exps))
    exponents = factor(A).exponents
    assert dict_assemble(ring, order, exponents) == A
    m = data.draw(polynomials(ring, size=2, exps=exps))
    want = dict_assemble(ring, order, [b * m for b in exponents])
    assert pow_series(A, m) == want
    E = [data.draw(polynomials(ring, size=2, exps=exps)) for _ in range(order)]
    assert assemble(EulerProduct(ring, order, E)) == \
        dict_assemble(ring, order, E)
    B, C = (data.draw(series(ring, order, unital=False, exps=exps))
            for _ in range(2))
    assert B * C == dict_series_product(B, C)
    assert A.inverse() == dict_inverse(A)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_folded_solves_match_dict_references(data):
    check_solves(data, data.draw(st.sampled_from(RINGS)))


def far_multiples(g):
    """Indices k with k * g past 2^62 and past int64, each times g."""
    return [g * (2 ** 62 // g + 1), g * (2 ** 63 // g + 1)]


def multiples(ring, g, far, top):
    """Exponents (g k,) for small k, and with ``far`` the far multiples
    of g (and their negatives over Z[x^(+-)])."""
    lo = -3 if ring.laurent else 0
    ks = st.integers(lo, top).map(lambda k: g * k)
    if far:
        extremes = far_multiples(g)
        if ring.laurent:
            extremes += [-e for e in extremes]
        ks = st.one_of(ks, st.sampled_from(extremes))
    return ks.map(lambda e: (e,))


def diagonal(ring, far, top):
    """Exponents (k, k), with ``far`` also at k = +-2^31."""
    lo = -3 if ring.laurent else 0
    ks = st.integers(lo, top)
    if far:
        ks = st.one_of(ks, st.sampled_from(
            [2 ** 31, -2 ** 31] if ring.laurent else [2 ** 31]))
    return ks.map(lambda k: (k, k))


def parity(ring, far, top):
    """Exponents (a, b) with a + b even, with ``far`` also at 2^31 on
    either axis."""
    lo = -3 if ring.laurent else 0
    ks = st.integers(lo, top)
    if far:
        ks = st.one_of(ks, st.just(2 ** 31))
    return st.tuples(ks, ks).map(lambda e: (e[0], e[1] + (e[0] + e[1]) % 2))


def check_products(data, ring, exps):
    """Products of polynomials of 25 to 30 terms, enough for a line to
    be admitted, against the dict product."""
    p, q = (data.draw(st.dictionaries(exps, values, min_size=25, max_size=30)
                      .map(lambda terms: Polynomial(ring, terms)))
            for _ in range(2))
    acc = {}
    _accumulate_product(acc, p.terms, q.terms)
    assert (p * q).terms == {e: c for e, c in acc.items() if c}
    return p, q


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_one_variable_lattices_match_dict_references(data):
    ring = data.draw(st.sampled_from([X_RING, LAURENT_X]))
    g = data.draw(st.integers(2, 7))
    far = data.draw(st.booleans())
    check_solves(data, ring, multiples(ring, g, far, 3))
    p, q = check_products(data, ring, multiples(ring, g, far, 40))
    assert Fold.product(1, 0, [p.terms], [q.terms]).gcd % g == 0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_two_variable_lattices_match_dict_references(data):
    ring = data.draw(st.sampled_from([UV, LAURENT_UV]))
    shape = data.draw(st.sampled_from([diagonal, parity]))
    far = data.draw(st.booleans())
    check_solves(data, ring, shape(ring, far, 3))
    check_products(data, ring, shape(ring, far, 40 if shape is diagonal
                                     else 8))


def test_indices_past_int64_after_multiplying_back():
    # x^(g k) with k * g past int64 while k fits: the decode multiplies
    # by g on Python integers
    for g in (2, 3, 7):
        e = far_multiples(g)[1]
        a = Polynomial(X_RING, {(e,): 1, (g,): 2})
        fold = Fold.graded(1, 3, [a.terms])
        assert fold.gcd == g
        assert fold.slot(a.terms).stats[3] == e // g
        assert base_series(a, 3) == _monomial_base_exact(a, 3)
        assert fold.polynomials(X_RING, [fold.slot(a.terms)]) == [a]


def test_a_gcd_past_int64():
    # u^k v^k with k = 2^31 folds to z^(k (S + 1)), S = 2k + 1 the
    # window's width at order 2, so g is past 2^62 and the constant 1
    # is the only int64 index of the solve
    k = 2 ** 31
    x = Polynomial(UV, {(k, k): 1})
    A = Series(UV, 2, [1, x, 0])
    assert Fold.graded(2, 2, [x.terms, {}]).gcd >= 2 ** 62
    assert A.inverse() == dict_inverse(A)
    assert dict_assemble(UV, 2, factor(A).exponents) == A
    a = x + 1
    assert base_series(a, 2) == _monomial_base_exact(a, 2)


def hodge_class(q, pg, h11):
    """e(X) of a surface with h^{1,0} = q, h^{2,0} = p_g, h^{1,1} = h11."""
    u, v = (Polynomial.variable(UV, name) for name in "uv")
    return (1 - q * (u + v) + pg * (u ** 2 + v ** 2) + h11 * u * v
            - q * (u ** 2 * v + u * v ** 2) + u ** 2 * v ** 2)


@pytest.mark.parametrize("diamond,g", [
    ((0, 0, 1), 82), ((0, 1, 20), 2), ((2, 1, 4), 1), ((0, 0, 7), 82)],
    ids=["P2", "K3", "abelian", "q=0"])
def test_hodge_series_fold_onto_their_lattice(monkeypatch, diamond, g):
    # at order 40 the window of v is 0..80, so u^a v^b -> z^(81 a + b):
    # a Hodge-Tate class (a polynomial in uv) lands on multiples of 82,
    # an even one (a + b even) on multiples of 2
    folds = []
    real = Fold.graded.__func__

    def recorded(cls, nvars, *args):
        fold = real(cls, nvars, *args)
        if nvars == 2:
            folds.append(fold)
        return fold
    monkeypatch.setattr(Fold, "graded", classmethod(recorded))
    hodge_deligne_series(VarietyClass(hodge_class(*diamond), 2), 40)
    assert [fold.gcd for fold in folds] == [g]


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
