"""Differential tests of the packed-integer route against dict arithmetic.

Every result is compared with ``==`` against a plain dict reference:
``_accumulate_product`` for sums of products, ``_monomial_base_exact``
for the kernel series, ``dict_series_product`` for series products, and
``_factor_peeling`` / ``_assemble_blocks`` (run with dict series
products and inverses) for factor and assemble.  Inputs aim at the
places an exact route can go wrong: coefficients on both sides of
+-2^62 and around +-2^200, mixed signs, negative Laurent offsets in one
to three variables, zero and constant slots, sparse Frobenius-spread
operands, digit widths that grow in the middle of a solve, and inexact
divisions.
"""

from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import motivic_power as mp
from motivic_power import gridops
from motivic_power.gridops import (
    Slot,
    SlotAccumulator,
    _packed_sum,
    slot_linear,
    slot_product,
)
from motivic_power.power import (
    Kernel,
    _assemble_blocks,
    _factor_peeling,
    _monomial_base,
    _monomial_base_exact,
)
from motivic_power.rings import (
    INTEGERS,
    Polynomial,
    RingDescriptor,
    _accumulate_product,
)
from motivic_power.series import Series

from conftest import LAURENT_L, UV, UVW, dict_inverse, dict_series_product

LAURENT_UV = RingDescriptor(("u", "v"), laurent=True)
LAURENT_UVW = RingDescriptor(("u", "v", "w"), laurent=True)
RINGS = [INTEGERS, LAURENT_L, UV, LAURENT_UV]
# three variables have no line layout: their slots are term maps
EVERY_RING = RINGS + [UVW, LAURENT_UVW]
EDGES = [2 ** 62, 2 ** 200]

DICT_KERNEL = Kernel("dict", _monomial_base_exact)

coefficients = st.one_of(
    st.integers(-5, 5),
    st.builds(lambda edge, d, sign: sign * (edge + d),
              st.sampled_from(EDGES), st.integers(-3, 3), st.sampled_from([1, -1])),
    st.integers(-2 ** 90, 2 ** 90),
).filter(bool)


def term_maps(ring, max_size=6, degree=4):
    lo = -degree if ring.laurent else 0
    exps = st.tuples(*[st.integers(lo, degree)] * ring.nvars)
    return st.dictionaries(exps, coefficients, max_size=max_size)


def dict_sum(pairs, nvars):
    acc = {}
    for ta, tb in pairs:
        _accumulate_product(acc, ta, tb, nvars)
    return {e: c for e, c in acc.items() if c}


@contextmanager
def dict_series_products():
    """Run Series products and inverses in plain dicts, for the references."""
    saved = Series.__mul__, Series.inverse
    Series.__mul__, Series.inverse = dict_series_product, dict_inverse
    try:
        yield
    finally:
        Series.__mul__, Series.inverse = saved


@contextmanager
def packed_sums():
    """Count the sums that run on packed integers while the block runs."""
    calls = []
    real = gridops._packed_sum

    def counted(pairs, scaled, nvars, bound):
        calls.append(bound)
        return real(pairs, scaled, nvars, bound)

    gridops._packed_sum = counted
    try:
        yield calls
    finally:
        gridops._packed_sum = real


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_sum_of_products_matches_dict(data):
    ring = data.draw(st.sampled_from(EVERY_RING))
    nvars = ring.nvars
    pairs = data.draw(st.lists(st.tuples(term_maps(ring), term_maps(ring)),
                               min_size=1, max_size=4))
    want = dict_sum(pairs, nvars)
    slots = [(Slot.wrap(ta, nvars), Slot.wrap(tb, nvars)) for ta, tb in pairs]
    acc = SlotAccumulator(nvars)
    for a, b in slots:
        acc.add_pair(a, b)
    assert acc.result().to_terms() == want
    # the packed route itself, whatever the size of the values; sums over
    # Z and in three variables never pack, checked through the accumulator
    live = [(a, b) for a, b in slots if not a.is_zero and not b.is_zero]
    if live and 0 < nvars <= 2:
        assert _packed_sum(live, [], nvars, acc.bound) == want
    if nvars > 2:
        assert all(a.arr is None and b.arr is None for a, b in slots)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_exact_conv_of_grids_matches_dict(data):
    ring = data.draw(st.sampled_from(RINGS))
    small = st.integers(-(2 ** 62) + 1, 2 ** 62 - 1)
    lo = -3 if ring.laurent else 0
    exps = st.tuples(*[st.integers(lo, 3)] * ring.nvars)
    ta, tb = (data.draw(st.dictionaries(exps, small.filter(bool), max_size=5))
              for _ in range(2))
    a, b = Slot.wrap(ta, ring.nvars), Slot.wrap(tb, ring.nvars)
    want = dict_sum([(ta, tb)], ring.nvars)
    if a.is_zero or b.is_zero:
        assert want == {}
    elif not ring.nvars:
        # a slot in no variables is a term map, multiplied as integers
        assert a.terms is not None and b.terms is not None
        assert slot_product(a, b, 0).to_terms() == want
    else:
        assert a.arr is not None and b.arr is not None
        (na, ma, _, _), (nb, mb, _, _) = a.stats, b.stats
        assert _packed_sum([(a, b)], [], ring.nvars, min(na, nb) * ma * mb) == want


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_frobenius_spread_operand_matches_dict(data):
    ring = data.draw(st.sampled_from([LAURENT_L, UV, LAURENT_UV]))
    nvars = ring.nvars
    j = data.draw(st.integers(2, 7))
    ta = data.draw(term_maps(ring, max_size=3))
    tb = data.draw(term_maps(ring, max_size=8))
    spread = {tuple(x * j for x in e): c for e, c in ta.items()}
    want = dict_sum([(spread, tb)], nvars)
    a = Slot.wrap(ta, nvars).scale_exponents(j)
    b = Slot.wrap(tb, nvars)
    assert slot_product(a, b, nvars).to_terms() == want
    if not a.is_zero and not b.is_zero:
        na, ma, _, _ = a.stats
        nb, mb, _, _ = b.stats
        assert _packed_sum([(a, b)], [], nvars, min(na, nb) * ma * mb) == want


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_slot_linear_matches_dict(data):
    # values on both sides of 2^62 put some slots on int64 lines and send
    # others, or a sum whose exact bound passes 2^62, to packed integers
    ring = data.draw(st.sampled_from(EVERY_RING))
    nvars = ring.nvars
    near = st.builds(lambda base, d, sign: sign * (base + d),
                     st.sampled_from([2 ** 62 - 4, 2 ** 62]),
                     st.integers(0, 3), st.sampled_from([1, -1]))
    values = st.one_of(st.integers(-5, 5), near,
                       st.integers(-(2 ** 61), 2 ** 61)).filter(bool)
    lo = -2 if ring.laurent else 0
    exps = st.tuples(*[st.integers(lo, 2)] * nvars)
    scalars = st.one_of(st.integers(-3, 3), st.sampled_from([2 ** 40, -(2 ** 40)]))
    pieces = data.draw(st.lists(
        st.tuples(scalars, st.dictionaries(exps, values, max_size=5)),
        max_size=5))
    want = {}
    for k, terms in pieces:
        for e, c in terms.items():
            want[e] = want.get(e, 0) + k * c
    want = {e: c for e, c in want.items() if c}
    combo = slot_linear([(k, Slot.wrap(t, nvars)) for k, t in pieces], nvars)
    assert combo.to_terms() == want
    if not 0 < nvars <= 2:
        assert combo.arr is None


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pairs_and_scaled_slots_match_dict(data):
    # products and scaled slots in one accumulator; a sum of scaled slots
    # alone can pass 2^62 with every slot on int64 lines, and must then
    # leave the int64 route: the exact bound B alone picks it
    ring = data.draw(st.sampled_from(EVERY_RING))
    nvars = ring.nvars
    near = st.builds(lambda base, d, sign: sign * (base + d),
                     st.sampled_from([2 ** 62 - 4, 2 ** 62, 2 ** 200]),
                     st.integers(0, 3), st.sampled_from([1, -1]))
    values = st.one_of(st.integers(-5, 5), near).filter(bool)
    lo = -2 if ring.laurent else 0
    maps = st.dictionaries(st.tuples(*[st.integers(lo, 2)] * nvars), values,
                           max_size=4)
    scaled_only = data.draw(st.booleans())
    pairs = [] if scaled_only else data.draw(
        st.lists(st.tuples(maps, maps), max_size=3))
    scaled = data.draw(st.lists(st.tuples(st.integers(-3, 3), maps),
                                min_size=1, max_size=4))
    want = dict_sum(pairs, nvars)
    for k, terms in scaled:
        for e, c in terms.items():
            want[e] = want.get(e, 0) + k * c
    acc = SlotAccumulator(nvars)
    for ta, tb in pairs:
        acc.add_pair(Slot.wrap(ta, nvars), Slot.wrap(tb, nvars))
    for k, terms in scaled:
        acc.add(k, Slot.wrap(terms, nvars))
    want = {e: c for e, c in want.items() if c}
    with packed_sums() as packed:
        got = acc.result()
    assert got.to_terms() == want
    operands = [s for pair in acc.pairs for s in pair]
    operands += [s for _, s in acc.scaled]
    on_lines = (acc.bound < 2 ** 62
                and all(s.arr is not None for s in operands))
    assert len(packed) == (bool(operands) and 0 < nvars <= 2 and not on_lines)
    if got.arr is not None:
        assert all(abs(c) < 2 ** 62 for c in got.to_terms().values())
    if acc.bound and 0 < nvars <= 2:
        # the packed route itself, whatever the size of the values
        assert _packed_sum(acc.pairs, acc.scaled, nvars, acc.bound) == want


@pytest.mark.parametrize("top,route", [(2 ** 31, "packed"),
                                       (2 ** 31 - 1, "lines")])
def test_exact_bound_alone_picks_the_route(top, route):
    # B = 2 * 2^30 * top: at top = 2^31 it reaches 2^62 although no
    # coefficient passes 2^61, and the sum must still pack
    ta, tb = {(0,): 2 ** 30, (1,): 2 ** 30}, {(0,): top, (5,): 1}
    acc = SlotAccumulator(1)
    acc.add_pair(Slot.wrap(ta, 1), Slot.wrap(tb, 1))
    with packed_sums() as packed:
        got = acc.result()
    assert got.to_terms() == dict_sum([(ta, tb)], 1)
    assert max(got.to_terms().values()) <= 2 ** 61
    assert len(packed) == (route == "packed")


def test_sparse_operand_is_applied_term_by_term():
    for ring in (LAURENT_L, UV, LAURENT_UV):
        nvars = ring.nvars
        e = (-1 if ring.laurent else 1,) * nvars

        def at(k):
            return tuple(k * x for x in e)

        ta = {at(k): c for k, c in enumerate([2 ** 200 + 1, -3, -1, 1])}
        tb = {at(k): c for k, c in enumerate([5, -(2 ** 63), 7, -1, 2 ** 62])}
        a = Slot.wrap(ta, nvars).scale_exponents(5)
        b = Slot.wrap(tb, nvars)
        spread = {tuple(x * 5 for x in k): c for k, c in ta.items()}
        assert slot_product(a, b, nvars).to_terms() == dict_sum([(spread, tb)], nvars)
        assert a._spread is not None and a._packed is None


def test_zero_and_constant_slots():
    for nvars in (0, 1, 2, 3):
        zero = Slot.zero(nvars)
        big = Slot.wrap({(0,) * nvars: -(2 ** 200) - 1}, nvars)
        assert slot_product(zero, big, nvars).is_zero
        assert slot_product(big, zero, nvars).is_zero
        assert SlotAccumulator(nvars).result().is_zero
    acc = SlotAccumulator(0)
    values = [(2 ** 62, 2 ** 62 - 1), (-(2 ** 200), 3), (7, 0), (1, -1)]
    for x, y in values:
        acc.add_pair(Slot.wrap({(): x} if x else {}, 0),
                     Slot.wrap({(): y} if y else {}, 0))
    assert acc.result().to_terms() == {(): sum(x * y for x, y in values)}


def test_digit_width_grows_mid_solve():
    # the coefficients of (1 - u t)^(-a) grow by about 40 bits a step, so
    # the packed digit width grows and the earlier slots are repacked
    for ring in (LAURENT_L, LAURENT_UV):
        nvars = ring.nvars
        a = Polynomial(ring, {(1,) * nvars: 2 ** 40, (-1,) * nvars: 3,
                              (0,) * nvars: -7})
        assert _monomial_base(a, 9) == _monomial_base_exact(a, 9)
    s = Slot.wrap({(0,): 2 ** 70, (2,): -5}, 1)
    small = Slot.wrap({(0,): 3, (1,): 1, (2,): 1}, 1)
    huge = Slot.wrap({(0,): 2 ** 300, (1,): -1, (2,): 1}, 1)
    first = slot_product(s, small, 1).to_terms()
    width = s._packed[0]
    second = slot_product(s, huge, 1).to_terms()
    assert s._packed[0] > width
    ts = s.to_terms()
    assert first == dict_sum([(ts, small.to_terms())], 1)
    assert second == dict_sum([(ts, huge.to_terms())], 1)


def test_inexact_division_raises():
    # integral exponents always divide exactly, so the step sum
    # 2 f_2 = g_1 f_1 (with g_1 = f_1 and g_2 = 0) is built and divided here
    for nvars in (0, 1, 2, 3):
        odd = Slot.wrap({(0,) * nvars: 2 ** 100 + 1}, nvars)
        with pytest.raises(ArithmeticError):
            slot_product(odd, odd, nvars).divide_exact(2)
        even = Slot.wrap({(0,) * nvars: 2 ** 100}, nvars)
        f2 = slot_product(even, even, nvars).divide_exact(2)
        assert f2.to_terms() == {(0,) * nvars: 2 ** 199}


def unital_series(ring, order):
    return st.lists(term_maps(ring, max_size=3, degree=2),
                    min_size=order, max_size=order).map(
        lambda cs: Series(ring, order, [Polynomial.one(ring)]
                          + [Polynomial(ring, c) for c in cs]))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_recurrences_match_dict_references(data):
    ring = data.draw(st.sampled_from(EVERY_RING))
    order = data.draw(st.integers(1, 4))
    a = Polynomial(ring, data.draw(term_maps(ring, max_size=3, degree=2)))
    assert _monomial_base(a, order) == _monomial_base_exact(a, order)
    A = data.draw(unital_series(ring, order))
    B = data.draw(unital_series(ring, order))
    assert A * B == dict_series_product(A, B)
    assert A.inverse() == dict_inverse(A)
    exps = data.draw(st.lists(term_maps(ring, max_size=2, degree=2),
                              min_size=order, max_size=order))
    exps = [Polynomial(ring, e) for e in exps]
    with dict_series_products():
        factored = _factor_peeling(A, DICT_KERNEL)
        assembled = _assemble_blocks(ring, order, exps, DICT_KERNEL)
    assert mp.log_map(A) == factored
    assert mp.exp_map(exps, ring=ring) == assembled


def goettsche_motivic(cls, order):
    """Term maps of prod_k Z_X(L^(k-1) t^k), multiplied out on plain ints.

    ``cls`` lists the (exponent, multiplicity) pairs of an effective class
    in L, so Z_X(t) = prod over them of (1 - L^e t)^(-multiplicity), and
    every coefficient is positive: each polynomial in L is one integer
    with a digit per power of L, wide enough that digits never carry.
    """
    count = sum(m for _, m in cls)
    euler = [1] + [0] * order
    for k in range(1, order + 1):
        for _ in range(count):
            for n in range(k, order + 1):
                euler[n] += euler[n - k]
    width = max(euler).bit_length() + 1
    f = [1] + [0] * order
    for k in range(1, order + 1):
        for e, m in cls:
            shift = (e + k - 1) * width
            for _ in range(m):
                for n in range(k, order + 1):
                    f[n] += f[n - k] << shift
    mask = (1 << width) - 1
    out = []
    for value in f:
        terms, e = {}, 0
        while value:
            if value & mask:
                terms[(e,)] = value & mask
            value >>= width
            e += 1
        out.append(terms)
    return out


def test_global_series_past_the_int64_crossing():
    # [X] = L^2 + 3L + 1: from about n = 80 on, the exact bounds of the
    # recurrence sums reach 2^62 and the sums run on packed integers
    order = 90
    L = Polynomial.variable(mp.MOTIVIC_RING, "L")
    X = mp.VarietyClass(L ** 2 + 3 * L + 1, 2)
    local = mp.local_series(2, order)
    with packed_sums() as packed:
        series = mp.global_series(X, local, order)
    want = goettsche_motivic([(0, 1), (1, 3), (2, 1)], order)
    assert [c.terms for c in series.coefficients] == want
    assert packed and min(packed) >= 2 ** 62
