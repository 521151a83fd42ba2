"""The crossing between term maps and slots, against per-term references.

``Fold.slot`` encodes a term map in one numpy pass, ``gridops._unpack``
reads packed digits in bulk into one flat list of rows, and
``Fold.polynomials`` decodes a solve's rows or slots in one pass.  Each
is compared here with one-term-at-a-time code (``conftest.reference_slot``,
``conftest.reference_unpack`` and ``conftest.reference_polynomials``):
the same slot, with the same stats and the same choice of a line, the
same digits and the same polynomials.  Inputs aim at the edges: the
window's corners, Laurent offsets, coefficients on both sides of 2^62
and of int64, indices past int64, wide sparse windows and empty maps.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motivic_power.gridops import Fold, Rows, Slot, _one_term, _rows, _unpack
from motivic_power.rings import INTEGERS, Polynomial, RingDescriptor
from motivic_power.series import Series

from conftest import (
    dict_series_product,
    reference_polynomials,
    reference_slot,
    reference_unpack,
    row_maps,
)

RINGS = {n: RingDescriptor("uvw"[:n], laurent=True) for n in (1, 2, 3)}
RINGS[0] = INTEGERS

COEFFICIENTS = [2 ** 62 - 1, -(2 ** 62 - 1), 2 ** 62, -(2 ** 62), -(2 ** 63),
                2 ** 63 - 1, 10 ** 30, -(10 ** 30), 1, -1]

# windows of the axes after the first: small, the spans of u^5000*v^5000
# and x^500*y^500*z^500, Laurent offsets, and one whose strides leave int64
WINDOWS = [(0, 3), (-3, 2), (-1, 0), (0, 10000), (0, 1000),
           (-2 ** 40, 2 ** 40)]

# ranges of the first axis: small, Laurent, one exponent, and indices on
# either side of 2^62 and past -2^64
FIRST_AXES = [(0, 6), (-4, 3), (5000, 5000), (2 ** 62 - 3, 2 ** 62 + 3),
              (-2 ** 64, -2 ** 64 + 2)]


@st.composite
def folded_terms(draw):
    """A fold and a term map whose exponents lie in its window."""
    nvars = draw(st.integers(1, 3))
    window = [draw(st.sampled_from(WINDOWS)) for _ in range(nvars - 1)]
    low = tuple(lo for lo, _ in window)
    high = tuple(hi for _, hi in window)
    first = draw(st.sampled_from(FIRST_AXES))
    axes = [st.integers(*first)] + [
        st.one_of(st.sampled_from([lo, hi]), st.integers(lo, hi))
        for lo, hi in window]
    coefficient = st.one_of(st.sampled_from(COEFFICIENTS),
                            st.integers(-9, 9)).filter(bool)
    terms = draw(st.dictionaries(st.tuples(*axes), coefficient,
                                 max_size=draw(st.sampled_from([0, 3, 40]))))
    return Fold(nvars, low, high), nvars, terms


@settings(max_examples=300, deadline=None)
@given(folded_terms())
def test_slot_round_trip_matches_the_per_term_reference(case):
    fold, nvars, terms = case
    got = fold.slot(terms)
    want = reference_slot(fold, terms)
    assert got.stats == want.stats
    assert got.lined == want.lined
    assert got.to_terms() == want.to_terms()
    if got.lined:
        assert (got.line() == want.line()).all()
    ring = RINGS[nvars]
    assert fold.polynomials(ring, [got]) == [Polynomial(ring, terms)]


def test_empty_and_integer_slots_round_trip():
    assert Fold(2, (0,), (3,)).slot({}).stats == (0, 0, 0, 0)
    z = RingDescriptor()
    for c in (0, 5, -(2 ** 63), 10 ** 30):
        terms = {(): c} if c else {}
        fold = Fold(0)
        got = fold.slot(terms)
        want = reference_slot(fold, terms)
        assert (got.stats, got.lined) == (want.stats, want.lined)
        assert fold.polynomials(z, [got]) == [Polynomial(z, terms)]


def test_decode_shares_one_tuple_per_exponent_vector():
    fold = Fold(2, (-2,), (2,))
    a = fold.slot({(1, -2): 3, (0, 2): 1, (4, 0): -2})
    b = fold.slot({(1, -2): 5, (4, 0): 7})
    pa, pb = fold.polynomials(RINGS[2], [a, b, a.to_terms()])[:2]
    keys = {k: k for k in pa.terms}
    assert all(keys[k] is k for k in pb.terms)


@st.composite
def folded_rows(draw):
    """A fold over Z (no variables) to three variables, and a solve's
    results under it: term maps in z, slots (lines or term maps), zero
    slots and lines whose every cell is 0."""
    nvars = draw(st.integers(0, 3))
    window = [draw(st.sampled_from(WINDOWS)) for _ in range(nvars - 1)]
    fold = Fold(nvars, tuple(lo for lo, _ in window),
                tuple(hi for _, hi in window))
    axes = [st.integers(*draw(st.sampled_from(FIRST_AXES)))][:nvars] + [
        st.one_of(st.sampled_from([lo, hi]), st.integers(lo, hi))
        for lo, hi in window]
    # small coefficients let dense enough slots be int64 lines
    coefficient = st.one_of(st.sampled_from(COEFFICIENTS),
                            st.integers(-9, 9)).filter(bool)
    small = st.integers(-9, 9).filter(bool)
    size = draw(st.sampled_from([0, 3, 40]))
    xs = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["slot", "terms", "zero", "zero line"]))
        if kind == "zero":
            xs.append(_one_term(0))
        elif kind == "zero line":
            xs.append(Slot(arr=np.zeros(draw(st.integers(1, 5)),
                                        dtype=np.int64),
                           lo=draw(st.integers(-5, 5))))
        else:
            terms = draw(st.dictionaries(
                st.tuples(*axes), draw(st.sampled_from([coefficient, small])),
                min_size=size // 2, max_size=size))
            slot = fold.slot(terms)
            xs.append(slot if kind == "slot" else dict(slot.to_terms()))
    return fold, nvars, xs


@settings(max_examples=300, deadline=None)
@given(folded_rows())
def test_decode_matches_the_per_polynomial_reference(case):
    fold, nvars, xs = case
    ring = RINGS[nvars]
    got = fold.polynomials(ring, xs)  # before to_terms() caches term maps
    want = reference_polynomials(fold, ring, xs)
    assert got == want
    # one exponent tuple per vector across all the results
    seen = {}
    assert all(seen.setdefault(e, e) is e for p in got for e in p.terms)
    # the same rows with every index a Python integer decode alike
    ks, cs, cuts = _rows(xs)
    assert fold.polynomials(ring, Rows(ks.astype(object), cs, cuts)) == want
    # and so do unpacked rows: one per term at its own origin, each
    # between two rows of zero digits
    terms = [(k, c) for x in xs
             for k, c in (x if isinstance(x, dict) else x.to_terms()).items()]
    width = max([64] + [(abs(c).bit_length() + 8) // 8 * 8 for _, c in terms])
    rows = [(0, 3, -1)] + [r for k, c in terms for r in ((c, 1, k), (0, 2, k))]
    want = reference_polynomials(fold, ring, [{}] + [
        m for k, c in terms for m in ({k: c}, {})])
    assert fold.polynomials(ring, _unpack(rows, width)) == want


@pytest.mark.parametrize("first", [0, -7, 2 ** 62, -(2 ** 64)])
@pytest.mark.parametrize("nvars", [2, 3])
def test_decode_of_lines_next_to_term_maps(nvars, first):
    # dense blocks from the first-axis exponent ``first`` on, Laurent lows
    # after it, as int64 lines, next to a term map past int64 and a line
    # that is all zero
    low, high = (-3,) * (nvars - 1), (4,) * (nvars - 1)
    fold = Fold(nvars, low, high)
    ring = RINGS[nvars]

    def block(shift, coef):
        return {(first + shift + a,) + (b,) * (nvars - 1): coef(a, b)
                for a in range(4) for b in range(-3, 5) if (a + b) % 3}

    lines = [fold.slot(block(s, lambda a, b: s * 10 + a - b + 20))
             for s in (0, 1, 3)]
    assert all(x.terms is None for x in lines)
    wide = fold.slot(block(2, lambda a, b: 2 ** 70 + a * b))
    assert not wide.lined
    zero = Slot(arr=np.zeros(5, dtype=np.int64), lo=-2)
    xs = [lines[0], wide, zero, lines[1], lines[2]]
    got = fold.polynomials(ring, xs)
    assert got == reference_polynomials(fold, ring, xs)
    assert got[1] == Polynomial(ring, block(2, lambda a, b: 2 ** 70 + a * b))
    assert got[2] == Polynomial.zero(ring)


@pytest.mark.parametrize("nvars", [0, 1, 2, 3])
def test_decode_of_no_rows_and_of_zero_rows(nvars):
    fold = Fold(nvars, (-3,) * (nvars - 1), (2,) * (nvars - 1))
    ring = RINGS[nvars]
    assert fold.polynomials(ring, []) == []
    assert fold.polynomials(ring, _unpack([], 64)) == []
    zero = Polynomial.zero(ring)
    assert fold.polynomials(ring, _unpack([(0, 4, -2), (0, 0, 0)], 64)) \
        == [zero, zero]
    assert fold.polynomials(ring, [_one_term(0), {}, Slot(
        arr=np.zeros(3, dtype=np.int64), lo=-1)]) == [zero] * 3


WIDTHS = [8, 16, 40, 56, 64, 72, 80, 88, 96, 104, 112, 120, 128, 200]

EDGE_DIGITS = [2 ** 63 - 1, -(2 ** 63 - 1), -(2 ** 63), 2 ** 63, 2 ** 64,
               -(2 ** 64), 2 ** 64 - 1, -(2 ** 64) + 1, 1, -1, 0]


def digits_of(width):
    half = 1 << (width - 1)
    edges = [d for d in EDGE_DIGITS + [half - 1, -half] if -half <= d < half]
    return st.one_of(st.sampled_from(edges), st.integers(-half, half - 1))


def packed(rows, width):
    """(value, digits, origin) of signed digit rows at this width."""
    return [(sum(d << (width * k) for k, d in enumerate(ds)), len(ds), origin)
            for ds, origin in rows]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_unpack_matches_the_per_digit_reference(data):
    width = data.draw(st.sampled_from(WIDTHS))
    row = st.tuples(st.lists(digits_of(width), min_size=1, max_size=12),
                    st.integers(-40, 40))
    rows = packed(data.draw(st.lists(row, max_size=8)), width)
    assert row_maps(_unpack(rows, width)) == [
        reference_unpack(v, n, width, origin) for v, n, origin in rows]


@pytest.mark.parametrize("width", WIDTHS)
def test_unpack_reads_every_edge_digit(width):
    half = 1 << (width - 1)
    edges = [d for d in EDGE_DIGITS + [half - 1, -half] if -half <= d < half]
    rows = packed([(edges, -7), ([0, 0, 0], 3), (edges[::-1], 0), ([0], -1),
                   ([5] * 40, 2 ** 62), (edges, -(2 ** 64))], width)
    flat = _unpack(rows, width)
    assert flat.ks.dtype == object  # the origins 2^62 and -2^64
    got = row_maps(flat)
    assert got == [reference_unpack(v, n, width, origin)
                   for v, n, origin in rows]
    assert got[0] == {k - 7: d for k, d in enumerate(edges) if d}
    assert got[1] == {} and got[3] == {}
    assert row_maps(_unpack([], width)) == []
    flat = _unpack(rows[:4], width)
    assert flat.ks.dtype == np.int64
    assert row_maps(flat) == got[:4]


@pytest.mark.parametrize("base", [2 ** 63 + 5, 10 ** 20, -(2 ** 63) - 300])
@pytest.mark.parametrize("ring", [RingDescriptor(("x",), laurent=True),
                                  RingDescriptor(("x", "y"), laurent=True)],
                         ids=["x", "xy"])
def test_indices_past_int64_on_every_route(base, ring):
    # 500 dense terms of 64 bits from x^base: the product with a 3-term
    # series runs on int64 limbs, the square packs, and a copy spread 2^70
    # apart takes dicts; every index leaves int64
    def poly(n, step, coef):
        rest = ring.nvars - 1
        return Polynomial(ring, {(base + k * step,) + (k % 3,) * rest: coef(k)
                                 for k in range(n)})
    p = poly(500, 1, lambda k: 3 ** 40 + k)
    q = poly(3, 2, lambda k: 5 + k)
    wide = poly(20, 2 ** 70, lambda k: 2 ** 70 + k)
    for a, b in [(p, q), (p, p), (wide, p), (wide, wide)]:
        A = Series(ring, 2, [1, a, b])
        assert A * A == dict_series_product(A, A)
