"""Differential tests of the big-value routes, int64 limbs and packed
integers, against dict arithmetic.

Every result is compared with ``==`` against a plain dict reference:
``conftest.int_product`` for sums of products, ``_monomial_base_exact``
for the kernel series, ``dict_series_product`` for series products, and
``_factor_peeling`` / ``_assemble_blocks`` (run with dict series
products and inverses) for factor and assemble.  Inputs aim at the
places an exact route can go wrong: coefficients on both sides of
+-2^62 and around +-2^200, mixed signs, negative Laurent offsets in one
to three variables, zero and constant slots, sparse Frobenius-spread
operands, digit widths that grow in the middle of a solve, and inexact
divisions.  Inputs in several variables are folded into one
(``conftest.fold``) before they reach slots.
"""

import random
from contextlib import contextmanager
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import motivic_power as mp
from motivic_power import gridops, power
from motivic_power.gridops import (
    Slot,
    SlotAccumulator,
    _corners,
    _limb_plan,
    _line_steps,
    _lined,
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

from conftest import (
    LAURENT_L,
    UV,
    UVW,
    dict_inverse,
    dict_series_product,
    fold,
    int_product,
)

LAURENT_UV = RingDescriptor(("u", "v"), laurent=True)
LAURENT_UVW = RingDescriptor(("u", "v", "w"), laurent=True)
RINGS = [INTEGERS, LAURENT_L, UV, LAURENT_UV]
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


def dict_sum(pairs):
    acc = {}
    for ta, tb in pairs:
        _accumulate_product(acc, ta, tb)
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
def recording(name, record):
    """Record ``record(*args)`` for every call of ``gridops.<name>`` made
    while the block runs."""
    calls = []
    real = getattr(gridops, name)

    def recorded(*args):
        calls.append(record(*args))
        return real(*args)

    setattr(gridops, name, recorded)
    try:
        yield calls
    finally:
        setattr(gridops, name, real)


def packed_sums():
    """The exact bound of every sum that runs on packed integers."""
    return recording("_packed_sum", lambda pairs, bound: bound)


def limb_sums():
    """The limb plan (W, count) of every sum that runs on int64 limbs."""
    return recording("_limb_sum", lambda *args: args[-2:])


def convolutions():
    """The operand lengths of every int64 convolution."""
    return recording("_conv_arrays", lambda a, b: (a.shape[0], b.shape[0]))


def line_sum_bounds():
    """The exact bound of every int64 line sum (the limb route makes one
    per nonzero limb), from its pairs as ``_by_terms`` gives them."""
    def bound(steps, lo, hi):
        return sum(min(a.stats[0], b.stats[0]) * a.stats[1] * b.stats[1]
                   for a, b, *_ in steps)
    return recording("_sum_lines", bound)


def big_route(acc):
    """The route of a lined sum whose exact bound reaches 2^62: int64
    limbs when the limb plan finds a width and count, else packed."""
    lo, hi = _corners(acc.pairs)
    plan = _limb_plan(acc.pairs, hi - lo + 1)
    return "packed" if plan is None else "limbs"


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_sum_of_products_matches_dict(data):
    ring = data.draw(st.sampled_from(EVERY_RING))
    pairs = data.draw(st.lists(st.tuples(term_maps(ring), term_maps(ring)),
                               min_size=1, max_size=4))
    pairs = [(fold(ta, ring.nvars), fold(tb, ring.nvars)) for ta, tb in pairs]
    want = int_product(*pairs)
    slots = [(Slot.wrap(ta), Slot.wrap(tb)) for ta, tb in pairs]
    acc = SlotAccumulator()
    for a, b in slots:
        acc.add_pair(a, b)
    assert acc.result().to_terms() == want
    # the packed route itself, whatever the size of the values
    live = [(a, b) for a, b in slots if not a.is_zero and not b.is_zero]
    if live:
        assert _packed_sum(live, acc.bound) == want
    # an array exactly when the terms are small and dense enough for one
    for s in (s for pair in slots for s in pair if not s.is_zero):
        nnz, top, lo, hi = s.stats
        assert s.lined == (top < 2 ** 62 and _lined(nnz, hi - lo + 1))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_exact_conv_of_grids_matches_dict(data):
    ring = data.draw(st.sampled_from(RINGS))
    small = st.integers(-(2 ** 62) + 1, 2 ** 62 - 1)
    lo = -3 if ring.laurent else 0
    exps = st.tuples(*[st.integers(lo, 3)] * ring.nvars)
    ta, tb = (fold(data.draw(st.dictionaries(exps, small.filter(bool),
                                             max_size=5)), ring.nvars)
              for _ in range(2))
    a, b = Slot.wrap(ta), Slot.wrap(tb)
    want = int_product((ta, tb))
    if a.is_zero or b.is_zero:
        assert want == {}
    else:
        assert a.lined and b.lined
        (na, ma, _, _), (nb, mb, _, _) = a.stats, b.stats
        assert _packed_sum([(a, b)], min(na, nb) * ma * mb) == want


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_frobenius_spread_operand_matches_dict(data):
    ring = data.draw(st.sampled_from([LAURENT_L, UV, LAURENT_UV]))
    nvars = ring.nvars
    j = data.draw(st.integers(2, 7))
    ta = fold(data.draw(term_maps(ring, max_size=3)), nvars)
    tb = fold(data.draw(term_maps(ring, max_size=8)), nvars)
    spread = {e * j: c for e, c in ta.items()}
    want = int_product((spread, tb))
    a = Slot.wrap(ta).scale_exponents(j)
    b = Slot.wrap(tb)
    assert slot_product(a, b).to_terms() == want
    if not a.is_zero and not b.is_zero:
        na, ma, _, _ = a.stats
        nb, mb, _, _ = b.stats
        assert _packed_sum([(a, b)], min(na, nb) * ma * mb) == want


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_frobenius_spread_pairs_on_lines_match_dict(data):
    # g(u^j, v^j) against a wider operand: with small values the exact
    # bound stays below 2^62 and the int64 route applies the spread
    # operand term by term or convolves, by the cost rule; values near
    # 2^30 and 2^31 put the bound on both sides of 2^62
    ring = data.draw(st.sampled_from([LAURENT_L, UV, LAURENT_UV]))
    nvars = ring.nvars
    near = st.builds(lambda base, d, sign: sign * (base + d),
                     st.sampled_from([2 ** 30, 2 ** 31]), st.integers(0, 3),
                     st.sampled_from([1, -1]))
    values = st.one_of(st.integers(-5, 5), near).filter(bool)

    def maps(degree, size):
        lo = -degree if ring.laurent else 0
        exps = st.tuples(*[st.integers(lo, degree)] * nvars)
        return st.dictionaries(exps, values, max_size=size)

    wide = 60 if nvars == 1 else 8
    pairs = []
    for _ in range(data.draw(st.integers(1, 3))):
        j = data.draw(st.integers(2, 8))
        ta, tb = data.draw(maps(4, 3)), data.draw(maps(wide, 12))
        ta, tb = fold(ta, nvars), fold(tb, nvars)
        spread = {e * j: c for e, c in ta.items()}
        pairs.append((spread, tb, Slot.wrap(ta).scale_exponents(j),
                      Slot.wrap(tb)))
    acc = SlotAccumulator()
    for _, _, a, b in pairs:
        acc.add_pair(a, b)
    with packed_sums() as packed, limb_sums() as limbs:
        got = acc.result().to_terms()
    assert got == int_product(*[(ta, tb) for ta, tb, _, _ in pairs])
    # a sum too sparse for a line is a dict sum, whatever its bound; a
    # lined one past 2^62 runs on limbs or packs, by the limb plan
    if acc.pairs:
        lo = min(a.stats[2] + b.stats[2] for a, b in acc.pairs)
        hi = max(a.stats[3] + b.stats[3] for a, b in acc.pairs)
        lined = _line_steps(acc.pairs, acc.products, hi - lo + 1) is not None
        big = lined and acc.bound >= 2 ** 62
        assert len(limbs) == (big and big_route(acc) == "limbs")
        assert len(packed) == (big and big_route(acc) == "packed")


def test_spread_operand_on_a_folded_line_is_not_convolved():
    # step 30 of a Hodge-Deligne solve, folded by u -> z^81, v -> z: g =
    # 6 b(u^5, v^5) with b the K3 exponent (uv)^5 e(K3), against a dense
    # 40x40 coefficient; g's five terms lie 2,000 cells apart
    e = {(0, 0): 1, (2, 0): 1, (0, 2): 1, (1, 1): 20, (2, 2): 1}
    tb = {(x + 5, y + 5): 6 * c for (x, y), c in e.items()}
    tf = {(x, y): (x * 7 + y) % 11 - 5 or 1 for x in range(40) for y in range(40)}
    g = Slot.wrap(fold(tb, 2, 40)).scale_exponents(5)
    with convolutions() as convolved, packed_sums() as packed:
        got = slot_product(g, Slot.wrap(fold(tf, 2, 40))).to_terms()
    spread = {(5 * x, 5 * y): c for (x, y), c in tb.items()}
    assert got == fold(dict_sum([(spread, tf)]), 2, 40)
    assert convolved == [] and packed == []


def test_short_one_variable_pair_is_convolved():
    # step 120 of a Hilbert solve, [X] = L^2 + 3L + 1: g_40 = sum over
    # i | 40 of i b_i(L^(40/i)), b_i = L^(i-1) [X], against f_80
    g = {}
    for i in (1, 2, 4, 5, 8, 10, 20, 40):
        j = 40 // i
        for e, c in ((i + 1, 1), (i, 3), (i - 1, 1)):
            g[e * j] = g.get(e * j, 0) + i * c
    tf = {k: 1 + k % 5 for k in range(161)}
    with convolutions() as convolved:
        got = slot_product(Slot.wrap(g), Slot.wrap(tf)).to_terms()
    assert got == int_product((g, tf))
    assert convolved == [(81, 161)]


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
    pieces = [(k, fold(terms, nvars)) for k, terms in pieces]
    want = {}
    for k, terms in pieces:
        for e, c in terms.items():
            want[e] = want.get(e, 0) + k * c
    want = {e: c for e, c in want.items() if c}
    combo = slot_linear([(k, Slot.wrap(t)) for k, t in pieces])
    assert combo.to_terms() == want


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
    pairs = [(fold(ta, nvars), fold(tb, nvars)) for ta, tb in pairs]
    scaled = [(k, fold(terms, nvars)) for k, terms in scaled]
    want = int_product(*pairs)
    for k, terms in scaled:
        for e, c in terms.items():
            want[e] = want.get(e, 0) + k * c
    acc = SlotAccumulator()
    for ta, tb in pairs:
        acc.add_pair(Slot.wrap(ta), Slot.wrap(tb))
    for k, terms in scaled:
        acc.add(k, Slot.wrap(terms))
    want = {e: c for e, c in want.items() if c}
    with packed_sums() as packed, limb_sums() as limbs:
        got = acc.result()
    assert got.to_terms() == want
    # a scaled slot k*s is the pair of the one-term slot k and s
    ends = [a.stats[2] + b.stats[2] for a, b in acc.pairs]
    ends += [a.stats[3] + b.stats[3] for a, b in acc.pairs]
    lined = bool(acc.pairs) and _line_steps(
        acc.pairs, acc.products, max(ends) - min(ends) + 1) is not None
    big = lined and acc.bound >= 2 ** 62
    assert len(limbs) == (big and big_route(acc) == "limbs")
    assert len(packed) == (big and big_route(acc) == "packed")
    if got.lined:
        assert all(abs(c) < 2 ** 62 for c in got.to_terms().values())
    if acc.bound:
        # the packed route itself, whatever the size of the values
        assert _packed_sum(acc.pairs, acc.bound) == want


# per route, the scaled sums that take it: (term count of each slot, bit
# lengths of its values, bit lengths of the multipliers).  Few terms
# make a dict sum; 30-60 dense cells a line, an int64 one while every
# |k| * max|s| is small, else packed (shorter than _LIMB_CELLS); 400 or
# more cells with one side past 2^62 and the other below 2^21, limbs
SCALED_ROUTES = {
    "_sum_terms": ((1, 4), (1, 70), (0, 70)),
    "_sum_lines": ((30, 60), (1, 20), (1, 10)),
    "_limb_sum": ((400, 440), (1, 20), (63, 130)),
    "_packed_sum": ((30, 60), (1, 20), (63, 300)),
}


@pytest.mark.parametrize("route", sorted(SCALED_ROUTES))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_scaled_slots_match_dict_on_every_route(route, data):
    # sums of scaled slots k*s alone, as slot_linear and the recurrences'
    # n f_n make them, with k of either sign; the first entry's k is the
    # wide side on the limb and packed routes (|k| > max|s|, past 2^62),
    # later entries there may have it the other way round
    (least, most), value_bits, k_bits = SCALED_ROUTES[route]
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))

    def value(bits, sign=0):
        """A value of this bit length and sign, of a random sign if 0."""
        if not bits:
            return 0
        sign = sign or rng.choice((1, -1))
        return sign * ((1 << (bits - 1)) + rng.getrandbits(bits - 1))

    entries = []
    for i in range(data.draw(st.integers(1, 3))):
        cells = data.draw(st.integers(least, most))
        bits, kbits = value_bits, k_bits
        if route in ("_limb_sum", "_packed_sum") and i and data.draw(
                st.booleans()):
            bits, kbits = k_bits, value_bits  # the wide side is s
        top = data.draw(st.integers(*bits))
        lo = data.draw(st.integers(-20, 20))
        terms = {lo + j: value(rng.randint(1, top)) for j in range(cells)}
        terms[lo] = value(top)
        k = value(data.draw(st.integers(*kbits)),
                  data.draw(st.sampled_from([1, -1])))
        entries.append((k, Slot.wrap(terms)))
    want = {}
    for k, s in entries:
        for e, c in s.to_terms().items():
            want[e] = want.get(e, 0) + k * c
    want = {e: c for e, c in want.items() if c}
    acc = SlotAccumulator()
    for k, s in entries:
        acc.add(k, s)
    with recording(route, lambda *args: True) as taken, \
            line_sum_bounds() as passes:
        got = acc.result()
    assert got.to_terms() == want
    # k = 0 enters nothing, on its own or not
    assert len(acc.pairs) == sum(1 for k, _ in entries if k)
    assert len(taken) == bool(acc.pairs)
    assert slot_linear(entries).to_terms() == want
    if route == "_limb_sum":
        # the narrow side of k*s is whichever of k and s is smaller
        narrow = sum(min(abs(k), s.stats[1]) for k, s in entries)
        lo, hi = _corners(acc.pairs)
        assert _limb_plan(acc.pairs, hi - lo + 1)[0] == \
            61 - narrow.bit_length()
        assert abs(entries[0][0]) > entries[0][1].stats[1]
        assert passes and all(bound < 2 ** 61 for bound in passes)
    if route == "_packed_sum":
        assert abs(entries[0][0]) >= 2 ** 62


@pytest.mark.parametrize("top,extra,route", [(2 ** 31, 20, "packed"),
                                             (2 ** 31 - 1, 20, "lines"),
                                             (2 ** 31, 200, "limbs")])
def test_exact_bound_alone_picks_the_route(top, extra, route):
    # B = 2 * 2^30 * top: at top = 2^31 it reaches 2^62 although no
    # coefficient passes 2^61, and the sum must still leave the int64
    # line: for two limbs of 29 bits (N = 2 * 2^30) when its line spans
    # _LIMB_CELLS or more, else for a packing; tb's extra terms make the
    # sum dense enough for a line, over 45 or 405 cells
    ta = {0: 2 ** 30, 1: 2 ** 30}
    tb = {0: top, **{2 * k + 5: 1 for k in range(extra)}}
    acc = SlotAccumulator()
    acc.add_pair(Slot.wrap(ta), Slot.wrap(tb))
    with packed_sums() as packed, limb_sums() as limbs:
        got = acc.result()
    assert got.to_terms() == int_product((ta, tb))
    assert max(got.to_terms().values()) <= 2 ** 61
    assert len(packed) == (route == "packed")
    assert limbs == ([(29, 2)] if route == "limbs" else [])


@pytest.mark.parametrize("route", ["packed", "int64"])
def test_sparse_operand_is_applied_term_by_term(route):
    for ring in (LAURENT_L, UV, LAURENT_UV):
        nvars = ring.nvars
        e = (-1 if ring.laurent else 1,) * nvars

        def at(k):
            return tuple(k * x for x in e)

        if route == "packed":
            # 4 x 20 term products pay for a line; in two variables 4 x 5
            # would not: four slice-adds over tb cost more than 20 products
            ta = {at(k): c for k, c in enumerate([2 ** 200 + 1, -3, -1, 1])}
            tb = {at(k): c for k, c in
                  enumerate([5, -(2 ** 63), 7, -1, 2 ** 62] * 4)}
        else:
            # the denser operand long enough for slice-adds to beat a
            # convolution: 2,000 cells of line in one variable, 20x20 in two
            ta = {at(k): c for k, c in enumerate([2 ** 30 + 1, -3, -1, 1])}
            side = range(2000) if nvars == 1 else range(20)
            tb = {tuple(s * x for s, x in zip(k, e)): sum(k) % 9 - 4 or 2 ** 20
                  for k in product(side, repeat=nvars)}
        ta, tb = fold(ta, nvars, 20), fold(tb, nvars, 20)
        a = Slot.wrap(ta).scale_exponents(5)
        b = Slot.wrap(tb)
        spread = {k * 5: c for k, c in ta.items()}
        with convolutions() as convolved, packed_sums() as packed, \
                recording("_pack", lambda slot, width: slot) as packs:
            got = slot_product(a, b).to_terms()
        assert got == int_product((spread, tb))
        assert a._spread is not None and all(s is not a for s in packs)
        assert convolved == [] and len(packed) == (route == "packed")


def test_zero_and_constant_slots():
    for nvars in (0, 1, 2, 3):
        zero = gridops._one_term(0)
        big = Slot.wrap(fold({(0,) * nvars: -(2 ** 200) - 1}, nvars))
        assert slot_product(zero, big).is_zero
        assert slot_product(big, zero).is_zero
        assert SlotAccumulator().result().is_zero
    acc = SlotAccumulator()
    values = [(2 ** 62, 2 ** 62 - 1), (-(2 ** 200), 3), (7, 0), (1, -1)]
    for x, y in values:
        acc.add_pair(Slot.wrap(fold({(): x} if x else {}, 0)),
                     Slot.wrap(fold({(): y} if y else {}, 0)))
    assert acc.result().to_terms() == fold({(): sum(x * y for x, y in values)},
                                           0)


def test_digit_width_grows_mid_solve():
    # the coefficients of (1 - u t)^(-a) grow by about 40 bits a step, so
    # the packed digit width grows and the earlier slots are repacked
    for ring in (LAURENT_L, LAURENT_UV):
        nvars = ring.nvars
        a = Polynomial(ring, {(1,) * nvars: 2 ** 40, (-1,) * nvars: 3,
                              (0,) * nvars: -7})
        assert _monomial_base(a, 9) == _monomial_base_exact(a, 9)
    # twenty terms a side make the products dense enough to pack
    s = Slot.wrap({0: 2 ** 70, 2: -5})
    small = Slot.wrap({k: 1 + k % 3 for k in range(20)})
    huge = Slot.wrap({0: 2 ** 300, **{k: (-1) ** k for k in range(1, 20)}})
    with recording("_pack", lambda slot, width: (slot, width)) as packs:
        first = slot_product(s, small).to_terms()
        second = slot_product(s, huge).to_terms()
    widths = [width for slot, width in packs if slot is s]
    assert len(widths) == 2 and widths[1] > widths[0]
    ts = s.to_terms()
    assert first == int_product((ts, small.to_terms()))
    assert second == int_product((ts, huge.to_terms()))


def test_inexact_division_raises():
    # integral exponents always divide exactly, so the step sum
    # 2 f_2 = g_1 f_1 (with g_1 = f_1 and g_2 = 0) is built and divided here
    for nvars in (0, 1, 2, 3):
        odd = Slot.wrap(fold({(0,) * nvars: 2 ** 100 + 1}, nvars))
        with pytest.raises(ArithmeticError):
            slot_product(odd, odd).divide_exact(2)
        even = Slot.wrap(fold({(0,) * nvars: 2 ** 100}, nvars))
        f2 = slot_product(even, even).divide_exact(2)
        assert f2.to_terms() == fold({(0,) * nvars: 2 ** 199}, nvars)


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


def goettsche_motivic(cls, order, step=1):
    """Term maps of prod_k Z_X(L^(k-1) t^k), multiplied out on plain ints.

    ``cls`` lists the (exponent, multiplicity) pairs of an effective class
    in L, so Z_X(t) = prod over them of (1 - L^e t)^(-multiplicity), and
    every coefficient is positive: each polynomial in L is one integer
    with a digit per power of L, wide enough that digits never carry.
    With ``step`` s the twist L^(k-1) is L^(s(k-1)) instead, which is the
    image of (uv)^(k-1) under the fold u^a v^b -> L^(a(s-1) + b).
    """
    count = sum(m for _, m in cls)
    euler = [1] + [0] * order
    for k in range(1, order + 1):
        for _ in range(count):
            for n in range(k, order + 1):
                euler[n] += euler[n - k]
    w = (max(euler).bit_length() + 8) // 8
    width = 8 * w
    f = [1] + [0] * order
    for k in range(1, order + 1):
        for e, m in cls:
            shift = (e + step * (k - 1)) * width
            for _ in range(m):
                for n in range(k, order + 1):
                    f[n] += f[n - k] << shift
    out = []
    for value in f:
        data = value.to_bytes((value.bit_length() + width - 1) // width * w,
                              "little")
        digits = (int.from_bytes(data[i:i + w], "little")
                  for i in range(0, len(data), w))
        out.append({(e,): c for e, c in enumerate(digits) if c})
    return out


def test_global_series_past_the_int64_crossing(monkeypatch):
    # [X] = L^2 + 3L + 1: from about n = 80 on, the exact bounds of the
    # recurrence sums reach 2^62 and the sums run on packed integers.
    # Routed, this series multiplies out (rows/rec 0.34); the recurrence
    # is held here so that its sums run.
    monkeypatch.setattr(power, "_multiplies_out", lambda b, order: False)
    order = 90
    L = Polynomial.variable(mp.MOTIVIC_RING, "L")
    X = mp.VarietyClass(L ** 2 + 3 * L + 1, 2)
    local = mp.local_series(2, order)
    with packed_sums() as packed:
        series = mp.global_series(X, local, order)
    want = goettsche_motivic([(0, 1), (1, 3), (2, 1)], order)
    assert [c.terms for c in series.coefficients] == want
    assert packed and min(packed) >= 2 ** 62


# -- the limb route ----------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(st.data())
def test_limb_route_matches_dict(data):
    # narrow sides of 1 to 45 bits set the limb width W = 61 - bitlen(N);
    # the widest wide value is then given (count - 1) * W + r bits for a
    # drawn count of 1 to _MAX_LIMBS + 1, so that W sits just above or
    # just below the width that the limb count allows; wide values run
    # from 2^61 to ~2^190, both signs, as arrays (below 2^62) and term
    # maps, and are multiples of 2^W (limb 0 all zero) or 2^(b-1) + d
    # (middle limbs zero) or arbitrary
    ring = data.draw(st.sampled_from([LAURENT_L, UV, LAURENT_UV, UVW]))
    nvars = ring.nvars
    sign = st.sampled_from([1, -1])
    low = -4 if ring.laurent else 0
    exps = st.tuples(*[st.integers(low, 4)] * nvars)
    if nvars == 1:
        exps = st.tuples(st.integers(-300, 300) if ring.laurent
                         else st.integers(0, 600))
    top = data.draw(st.integers(0, 45))

    def narrow_map():
        # no narrow value passes 2^top, so the wide side stays the wider
        small = min(3, 1 << top)
        values = st.one_of(st.integers(-small, small),
                           st.builds(lambda s, d: s * ((1 << top) - d), sign,
                                     st.integers(0, 1)),
                           st.integers(-(1 << top), 1 << top)).filter(bool)
        return fold(data.draw(st.dictionaries(exps, values, min_size=1,
                                              max_size=4)), nvars, 20)

    npairs = data.draw(st.integers(0, 3))
    nscaled = data.draw(st.integers(0 if npairs else 1, 2))
    narrows = [narrow_map() for _ in range(npairs)]
    ks = [data.draw(st.builds(lambda s, d: s * ((1 << top) - d), sign,
                              st.integers(0, 1)).filter(bool))
          for _ in range(nscaled)]
    sizes = [data.draw(st.integers(1, 24)) for _ in range(npairs + nscaled)]
    # N from the narrow sides and the wide sides' term counts
    n = sum(min(len(t), size) * max(map(abs, t.values()))
            for t, size in zip(narrows, sizes)) + sum(map(abs, ks))
    width = 61 - n.bit_length()
    count = data.draw(st.integers(1, gridops._MAX_LIMBS + 1))
    bits = (count - 1) * width + data.draw(st.sampled_from(
        [1, width, max(1, width - 1)]) | st.integers(1, width))
    bits = max(bits, top + 1)  # the wide side stays the wider one
    shape = data.draw(st.sampled_from(["any", "zero-low", "gap"]))

    def wide_value(biggest):
        least = min(width + 1, bits) if shape == "zero-low" else 1
        b = bits if biggest else data.draw(st.integers(least, bits))
        if shape == "zero-low" and b > width:
            v = data.draw(st.integers(1 << (b - width - 1),
                                      (1 << (b - width)) - 1)) << width
        elif shape == "gap":
            v = (1 << (b - 1)) + data.draw(st.integers(0, 3))
        else:
            v = data.draw(st.sampled_from([(1 << b) - 1, 1 << (b - 1)])
                          | st.integers(1 << (b - 1), (1 << b) - 1))
        return data.draw(sign) * v

    wides = []
    for size in sizes:
        keys = data.draw(st.lists(exps, min_size=size, max_size=size,
                                  unique=True))
        wides.append(fold({k: wide_value(i == 0) for i, k in enumerate(keys)},
                          nvars, 20))
    pairs = [(Slot.wrap(ta), Slot.wrap(tb)) for ta, tb in zip(narrows, wides)]
    scaled = [(k, Slot.wrap(t)) for k, t in zip(ks, wides[npairs:])]
    # a scaled slot k*s enters the routes as the pair (k, s), k narrow
    entries = pairs + [(gridops._one_term(k), s) for k, s in scaled]
    want = int_product(*zip(narrows, wides))
    for k, t in zip(ks, wides[npairs:]):
        for e, c in t.items():
            want[e] = want.get(e, 0) + k * c
    want = {e: c for e, c in want.items() if c}
    lo, hi = _corners(entries)
    plan = _limb_plan(entries, gridops._LIMB_CELLS)
    used = -(-max(s.stats[1] for s in [b for _, b in pairs]
                  + [s for _, s in scaled]).bit_length() // width)
    assert plan == ((width, used) if used <= gridops._MAX_LIMBS else None)
    # the limb sum itself at the plan's width, whatever the count
    with line_sum_bounds() as passes:
        got = gridops._limb_sum(entries, lo, hi, width, used)
    assert got.to_terms() == want
    assert passes and all(bound < 2 ** 61 for bound in passes)
    for s in [b for _, b in pairs] + [s for _, s in scaled]:
        limbs = [x.to_terms() for x in s.limbs(width, used)]
        assert all(abs(c) < 2 ** width for x in limbs for c in x.values())
        assert {e: sum(x.get(e, 0) << (width * j) for j, x in enumerate(limbs))
                for e in s.to_terms()} == s.to_terms()
    # and through the accumulator, on the route that the rule picks
    acc = SlotAccumulator()
    for a, b in pairs:
        acc.add_pair(a, b)
    for k, s in scaled:
        acc.add(k, s)
    with packed_sums() as packed, limb_sums() as limbs, \
            line_sum_bounds() as passes:
        assert acc.result().to_terms() == want
    if limbs:
        assert all(bound < 2 ** 61 for bound in passes)
    big = (acc.bound >= 2 ** 62 and _line_steps(
        acc.pairs, acc.products, hi - lo + 1) is not None)
    assert len(limbs) == (big and big_route(acc) == "limbs")
    assert len(packed) == (big and big_route(acc) == "packed")


def test_limb_plan_takes_the_smaller_side_as_narrow():
    # the narrow side is the operand with the smaller max |c|, in either
    # position: N = 1 gives W = 60, and one limb covers the other's 2
    a, b = Slot.wrap({0: 2}), Slot.wrap({0: 1})
    cells = gridops._LIMB_CELLS
    assert _limb_plan([(a, b)], cells) == (60, 1)
    assert _limb_plan([(b, a)], cells) == (60, 1)


def test_limb_sum_of_cancelling_pairs_is_zero():
    # (a, w) and (-a, w) over a dense line past 2^62: every limb pass
    # sums to zero, so the limb route returns the zero slot
    cells = gridops._LIMB_CELLS + 10
    w = {k: (2 ** 70 + 7 * k) * (-1) ** k for k in range(cells)}
    a = {0: 3, 1: -1}
    neg = {e: -c for e, c in a.items()}
    acc = SlotAccumulator()
    acc.add_pair(Slot.wrap(a), Slot.wrap(w))
    acc.add_pair(Slot.wrap(neg), Slot.wrap(w))
    assert acc.bound >= 2 ** 62 and big_route(acc) == "limbs"
    with limb_sums() as limbs, packed_sums() as packed:
        got = acc.result()
    assert len(limbs) == 1 and packed == []
    assert got.is_zero and got.to_terms() == {}
    assert got.to_terms() == int_product((a, w), (neg, w)) == {}


def test_k3_hodge_deligne_series_never_packs(monkeypatch):
    # the K3 diamond (q = 0, p_g = 1, h11 = 20) at order 40: its big
    # recurrence sums, with f up to 71 bits against g of 18-19, all run on
    # int64 limbs; the reference folds u^a v^b -> L^(81a + b).  Routed,
    # the series multiplies out (rows/rec 0.54); the recurrence is held
    # here so that its sums run.
    monkeypatch.setattr(power, "_multiplies_out", lambda b, order: False)
    u, v = (Polynomial.variable(UV, x) for x in ("u", "v"))
    e = 1 + u ** 2 + v ** 2 + 20 * u * v + u ** 2 * v ** 2
    with packed_sums() as packed, limb_sums() as limbs:
        series = mp.hodge_deligne_series(mp.VarietyClass(e, 2), 40)
    assert packed == [] and limbs
    want = goettsche_motivic([(0, 1), (2, 1), (82, 20), (162, 1), (164, 1)],
                             40, step=82)
    assert [c.terms for c in series.coefficients] == [
        {divmod(k, 81): c for (k,), c in terms.items()} for terms in want]


def test_dense_wide_pair_still_packs():
    # both sides of 90-100 bits: no limb width leaves the narrow side's
    # products below 2^61, so the sum packs
    ta = {k: 2 ** 100 + k for k in range(300)}
    tb = {k: -(2 ** 90) - 3 * k for k in range(300)}
    with packed_sums() as packed, limb_sums() as limbs:
        got = slot_product(Slot.wrap(ta), Slot.wrap(tb)).to_terms()
    assert got == int_product((ta, tb))
    assert len(packed) == 1 and limbs == []
