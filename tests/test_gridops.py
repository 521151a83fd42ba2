"""Edge coverage for the int64 grid layer: every fast route must agree
with plain dict arithmetic, including sign mixes, Laurent offsets and
values far beyond int64.  Inputs in several variables are folded into
one (``conftest.fold``) before they reach slots."""

import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motivic_power import gridops
from motivic_power.gridops import (
    Fold,
    Slot,
    SlotAccumulator,
    _one_term,
    _packed_sum,
    slot_linear,
    slot_product,
)
from motivic_power.hilbert import kapranov_zeta
from motivic_power.power import _monomial_base_exact
from motivic_power.rings import (
    INTEGERS,
    Polynomial,
    RingDescriptor,
    _accumulate_product,
)

from conftest import ALL_RINGS, LAURENT_L, fold, int_product


def exact_conv_terms(a, b):
    """Product of two array slots on the packed route, of any magnitude."""
    if a.is_zero or b.is_zero:
        return {}
    assert a.lined and b.lined
    (na, ma, _, _), (nb, mb, _, _) = a.stats, b.stats
    return _packed_sum([(a, b)], min(na, nb) * ma * mb)


def random_terms(rng, ring, bound, degree=3):
    lo = -degree if ring.laurent else 0
    terms = {}
    for _ in range(rng.randint(0, 6)):
        exps = tuple(rng.randint(lo, degree) for _ in range(ring.nvars))
        c = rng.randint(-bound, bound)
        if c:
            terms[exps] = c
    return terms


@pytest.mark.parametrize("bound", [5, 10 ** 9, 10 ** 30])
def test_exact_conv_matches_dict_product(bound):
    rng = random.Random(bound)
    for ring in ALL_RINGS:
        for _ in range(20):
            ta = fold(random_terms(rng, ring, min(bound, 2 ** 61)), ring.nvars)
            tb = fold(random_terms(rng, ring, min(bound, 2 ** 61)), ring.nvars)
            want = int_product((ta, tb))
            sa, sb = Slot.wrap(ta), Slot.wrap(tb)
            if bound <= 2 ** 61:
                assert exact_conv_terms(sa, sb) == want
            assert slot_product(sa, sb).to_terms() == want


def test_big_values_take_the_terms_route():
    big = fold({(0, 0): 2 ** 100, (1, 1): -(2 ** 80)}, 2)
    slot = Slot.wrap(big)
    assert not slot.lined and slot.terms == big
    small = Slot.wrap(fold({(1, 0): 3}, 2))
    product = slot_product(slot, small)
    assert product.to_terms() == fold({(1, 0): 3 * 2 ** 100,
                                       (2, 1): -3 * 2 ** 80}, 2)


def test_slot_scale_exponents():
    for terms in ({1: 2, -2: 5}, {1: 2 ** 90}):
        slot = Slot.wrap(terms)
        scaled = slot.scale_exponents(3)
        assert scaled.to_terms() == {e * 3: c for e, c in terms.items()}


def test_slot_divide_exact_and_error():
    slot = Slot.wrap(fold({(0, 0): 6, (1, 2): -9}, 2))
    assert slot.divide_exact(3).to_terms() == fold({(0, 0): 2, (1, 2): -3}, 2)
    with pytest.raises(ArithmeticError):
        slot.divide_exact(4)
    big = Slot.wrap(fold({(0, 0): 3 * 2 ** 100}, 2))
    assert big.divide_exact(3).to_terms() == fold({(0, 0): 2 ** 100}, 2)
    with pytest.raises(ArithmeticError):
        big.divide_exact(7)


def test_slot_linear_mixes_lanes():
    small = Slot.wrap({0: 1, 2: -4})
    big = Slot.wrap({0: 2 ** 70})
    combo = slot_linear([(3, small), (2, big), (0, big)])
    assert combo.to_terms() == {0: 3 + 2 ** 71, 2: -12}


def test_accumulator_matches_dict_reference():
    rng = random.Random(99)
    for ring in ALL_RINGS:
        pairs = []
        reference = {}
        for _ in range(5):
            ta = fold(random_terms(rng, ring, 50), ring.nvars)
            tb = fold(random_terms(rng, ring, 50), ring.nvars)
            pairs.append((Slot.wrap(ta), Slot.wrap(tb)))
            for e, c in int_product((ta, tb)).items():
                reference[e] = reference.get(e, 0) + c
        acc = SlotAccumulator()
        for sa, sb in pairs:
            acc.add_pair(sa, sb)
        reference = {e: c for e, c in reference.items() if c}
        assert acc.result().to_terms() == reference


@contextmanager
def routes():
    """Record the route of every sum read while the block runs."""
    seen = []
    saved = {}
    for name in ("_sum_terms", "_sum_lines", "_packed_sum"):
        real = saved[name] = getattr(gridops, name)

        def recorded(*args, _real=real, _name=name):
            seen.append(_name)
            return _real(*args)

        setattr(gridops, name, recorded)
    try:
        yield seen
    finally:
        for name, real in saved.items():
            setattr(gridops, name, real)


def test_sparse_wide_slots_are_term_maps():
    # u^5000 v^5000 + 1 and x^500 y^500 z^500 + 1, folded as base_series
    # folds them at order 2: two terms 5*10^7 or more indices apart stay
    # a term map, and their sums are dict sums
    for exps, window in (((5000, 5000), 10000), ((500, 500, 500), 1000)):
        nvars = len(exps)
        ta = fold({(0,) * nvars: 1, exps: 1}, nvars, window)
        a = Slot.wrap(ta)
        assert not a.lined and a.terms == ta
        with routes() as seen:
            square = slot_product(a, a)
            spread = slot_linear([(1, a), (2, a.scale_exponents(2))])
        assert seen == ["_sum_terms", "_sum_terms"]
        assert not square.lined
        assert square.terms == int_product((ta, ta))
        k = max(ta)
        assert spread.terms == {0: 3, k: 1, 2 * k: 2}
    # dense enough for a line by the term-product rule (9e4 products over
    # 1.7e7 cells), but longer than any line may be: a dict sum
    rng = random.Random(11)
    ta = {28500 * i: rng.randint(-9, 9) or 1 for i in range(300)}
    tb = {28500 * i + 1: rng.randint(-9, 9) or 1 for i in range(300)}
    a, b = Slot.wrap(ta), Slot.wrap(tb)
    span = 2 * 28500 * 299 + 1
    assert span + gridops._SLICE_CELLS <= gridops._TERM_CELLS * 300 * 300
    assert span > gridops._MAX_LINE
    with routes() as seen:
        got = slot_product(a, b)
    assert seen == ["_sum_terms"]
    assert not got.lined and got.terms == int_product((ta, tb))


def test_sparse_wide_zeta_takes_no_line(monkeypatch):
    # sum_(i<300) x^(8000 i): step 2 of its zeta series sums 9e4 term
    # products, which _lined admits to a line of 4.8e6 cells; priced by
    # the work of 300 slice-adds of a 2.4e6-cell line, it sums in dicts
    p = Polynomial(RingDescriptor(("x",)), {(8000 * i,): 1 for i in range(300)})
    want = _monomial_base_exact(p, 2)

    def refuse(*args):
        raise AssertionError("a sparse wide sum took a line")
    monkeypatch.setattr(gridops, "_sum_lines", refuse)
    assert kapranov_zeta(p, 2) == want


def test_dense_sum_of_as_many_term_products_runs_on_a_line():
    dense = {i: i % 7 - 3 or 1 for i in range(300)}
    with routes() as seen:
        got = slot_product(Slot.wrap(dense), Slot.wrap(dense))
    assert seen == ["_sum_lines"]
    assert got.to_terms() == int_product((dense, dense))


def test_dense_dict_sums_keep_their_line():
    # a sum too small to pay for a line is summed in dicts, but its dense
    # result builds its line once for the later sums that read it on one
    a = Slot.wrap({0: 1, 1: 2, 2: 1})
    with routes() as seen:
        square = slot_product(a, a)
    assert seen == ["_sum_terms"]
    assert square.lined and square.line().tolist() == [1, 4, 6, 4, 1]
    assert square.line() is square.line()


def test_dense_three_variable_sum_runs_on_lines():
    # a dense Z[u,v,w] box folds to one line, and its sums stay on it
    rng = random.Random(5)
    box = [(x, y, z) for x in range(4) for y in range(4) for z in range(4)]
    ta = fold({e: rng.randint(1, 9) for e in box}, 3, 6)
    tb = fold({e: rng.randint(-9, -1) for e in box}, 3, 6)
    a, b = Slot.wrap(ta), Slot.wrap(tb)
    assert a.lined and b.lined
    acc = SlotAccumulator()
    acc.add_pair(a, b)
    acc.add(3, a)
    with routes() as seen:
        got = acc.result()
    want = int_product((ta, tb))
    for e, c in ta.items():
        want[e] = want.get(e, 0) + 3 * c
    assert seen == ["_sum_lines"]
    assert got.lined
    assert got.to_terms() == {e: c for e, c in want.items() if c}


def test_grid_round_trip_with_laurent_offsets():
    p = Polynomial(LAURENT_L, {(-3,): 7, (2,): -1})
    slot = Fold(1).slot(p._terms)
    assert slot.lined and slot.stats[2:] == (-3, 2)
    assert slot.to_terms() == {-3: 7, 2: -1}
    assert slot.to_polynomial(LAURENT_L) == p


def test_one_cell_sums_are_dict_sums():
    # over Z every exponent folds to 0: small values make one-cell arrays,
    # huge ones term maps, and every sum of them is summed as integers
    for terms in ({(): 5}, {(): -(2 ** 61)}, {(): 2 ** 62}):
        slot = Slot.wrap(fold(terms, 0))
        assert slot.lined == (abs(terms[()]) < 2 ** 62)
    acc = SlotAccumulator()
    acc.add_pair(Slot.wrap(fold({(): 3}, 0)), Slot.wrap(fold({(): -4}, 0)))
    acc.add_pair(Slot.wrap(fold({(): 2 ** 62}, 0)), Slot.wrap(fold({(): 2}, 0)))
    with routes() as seen:
        product = acc.result()
        combo = slot_linear([(2, Slot.wrap(fold({(): 3}, 0))),
                             (1, Slot.wrap(fold({(): -6}, 0)))])
    assert seen == ["_sum_terms", "_sum_terms"]
    assert not product.lined and product.terms == {0: 2 ** 63 - 12}
    assert not combo.lined and combo.is_zero


def test_zero_and_unit_slots():
    for ring in ALL_RINGS:
        assert _one_term(0).is_zero
        one = _one_term(1)
        assert one.to_terms() == fold({(0,) * ring.nvars: 1}, ring.nvars)


def test_scaled_slots_share_one_term_slots():
    # k*s enters as the pair (k, s), and every k*s with the same k, in any
    # accumulator, has the same one-term slot k
    a, b = Slot.wrap({0: 1, 2: -4}), Slot.wrap({1: 5})
    acc = SlotAccumulator()
    acc.add(3, a)
    acc.add(3, b)
    acc.add(-3, a)
    acc.add(0, b)
    (k1, s1), (k2, s2), (k3, s3) = acc.pairs
    assert (s1, s2, s3) == (a, b, a)
    assert k1 is k2 and k3 is not k1
    assert k1.to_terms() == {0: 3} and k3.to_terms() == {0: -3}
    other = SlotAccumulator()
    other.add(3, b)
    assert other.pairs[0][0] is k1
    assert acc.result().to_terms() == {1: 15}


# -- the slot format: int indices and int ends on every route ---------------

def slot_format(fold, ring, slot, want):
    """Check that ``slot`` speaks one variable: int keys and int ends,
    the ends the exact hull of a term map or the range of a line, and that
    it decodes to the polynomial ``want``."""
    nnz, _, lo, hi = slot.stats
    assert type(lo) is int and type(hi) is int
    if slot.lined:
        assert slot.line().shape[0] == hi - lo + 1
    else:
        terms = slot.terms
        assert (lo, hi) == ((min(terms), max(terms)) if terms else (0, 0))
    terms = slot.to_terms()
    assert all(type(k) is int for k in terms) and len(terms) == nnz
    assert fold.polynomials(ring, [slot]) == [want]


LAURENT_UV = RingDescriptor(("u", "v"), laurent=True)
LAURENT_UVW = RingDescriptor(("u", "v", "w"), laurent=True)

# (ring, step of the first axis' exponents, offset of the first axis):
# Z, Z[L] with g = 1 and g = 5, Z[u,v], three variables, and indices past
# int64 in one and two variables
FORMAT_CASES = {
    "Z": (INTEGERS, 1, 0),
    "L": (LAURENT_L, 1, 0),
    "L^5": (LAURENT_L, 5, 0),
    "uv": (LAURENT_UV, 1, 0),
    "uvw": (LAURENT_UVW, 1, 0),
    "L past int64": (LAURENT_L, 1, 2 ** 63),
    "uv past int64": (LAURENT_UV, 1, -(2 ** 64)),
}
FORMAT_REACH = 12  # the window of the axes after the first: -12..12


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(FORMAT_CASES)), st.data())
def test_every_slot_speaks_one_variable(case, data):
    ring, step, offset = FORMAT_CASES[case]
    nvars = ring.nvars
    exps = st.tuples(*[st.integers(-3, 3)] * nvars).map(
        lambda e: e and (offset + step * e[0],) + e[1:])
    small = st.integers(-2 ** 10, 2 ** 10).filter(bool)
    wide = st.one_of(st.integers(-9, 9), st.sampled_from(
        [2 ** 62 - 1, -(2 ** 62), 2 ** 100 + 1, -(2 ** 150)]),
        st.integers(-2 ** 150, 2 ** 150)).filter(bool)
    pairs = data.draw(st.lists(st.tuples(
        st.dictionaries(exps, small, max_size=6),
        st.dictionaries(exps, data.draw(st.sampled_from([small, wide])),
                        max_size=12)), min_size=1, max_size=2))
    edge = (FORMAT_REACH,) * (nvars - 1)
    fold = Fold(nvars, tuple(-x for x in edge), edge,
                [t for pair in pairs for t in pair])
    if any(e[0] for pair in pairs for t in pair for e in t if e):
        assert fold.gcd % step == 0

    def poly(terms):
        return Polynomial(ring, terms)

    slots = []
    for ta, tb in pairs:
        a, b = fold.slot(ta), fold.slot(tb)
        slot_format(fold, ring, a, poly(ta))
        slot_format(fold, ring, b, poly(tb))
        slots.append((a, b))
    # every route on the same sum, against its dict reference
    acc = {}
    for ta, tb in pairs:
        _accumulate_product(acc, ta, tb)
    want = poly(acc)
    live = [(a, b) for a, b in slots if not a.is_zero and not b.is_zero]
    slot_format(fold, ring, gridops._sum_terms(live), want)
    if live:
        lo, hi = gridops._corners(live)
        bound = sum(min(a.stats[0], b.stats[0]) * a.stats[1] * b.stats[1]
                    for a, b in live)
        if bound < 2 ** 62:
            steps = [gridops._by_terms(a, b, True) for a, b in live]
            slot_format(fold, ring, gridops._sum_lines(steps, lo, hi), want)
        slot_format(fold, ring, Slot.wrap(_packed_sum(live, bound)), want)
        plan = gridops._limb_plan(live, gridops._LIMB_CELLS)
        if plan is not None:
            slot_format(fold, ring, gridops._limb_sum(live, lo, hi, *plan),
                        want)
            # the limbs of each wide side, against its terms' limbs
            width, count = plan
            mask = (1 << width) - 1
            for (ta, tb), (a, b) in zip(pairs, slots):
                wide_terms, wide_slot = (tb, b) if b.stats[1] >= a.stats[1] \
                    else (ta, a)
                for j, limb in enumerate(wide_slot.limbs(width, count)):
                    slot_format(fold, ring, limb, poly({
                        e: (abs(c) >> (width * j) & mask) * (1 if c > 0 else -1)
                        for e, c in wide_terms.items()}))
    # the Frobenius y -> y^j and an exact division
    j = data.draw(st.integers(2, 3))
    for ta, tb in pairs:
        for terms, s in ((ta, fold.slot(ta)), (tb, fold.slot(tb))):
            slot_format(fold, ring, s.scale_exponents(j), poly(
                {tuple(x * j for x in e): c for e, c in terms.items()}))
            slot_format(fold, ring, fold.slot(
                {e: 3 * c for e, c in terms.items()}).divide_exact(3),
                poly(terms))
