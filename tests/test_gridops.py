"""Edge coverage for the int64 grid layer: every fast route must agree
with plain dict arithmetic, including sign mixes, Laurent offsets and
values far beyond int64."""

import random

import pytest

from motivic_power.gridops import (
    Slot,
    SlotAccumulator,
    _packed_sum,
    slot_linear,
    slot_product,
)
from motivic_power.rings import Polynomial, _accumulate_product

from conftest import ALL_RINGS, LAURENT_L


def dict_product(pa, pb, nvars):
    acc = {}
    _accumulate_product(acc, pa, pb, nvars)
    return {e: c for e, c in acc.items() if c}


def exact_conv_terms(a, b, nvars):
    """Product of two array slots on the packed route, of any magnitude."""
    if a.is_zero or b.is_zero:
        return {}
    assert a.arr is not None and b.arr is not None
    (na, ma, _, _), (nb, mb, _, _) = a.stats, b.stats
    return _packed_sum([(a, b)], [], nvars, min(na, nb) * ma * mb)


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
            ta = random_terms(rng, ring, min(bound, 2 ** 61))
            tb = random_terms(rng, ring, min(bound, 2 ** 61))
            want = dict_product(ta, tb, ring.nvars)
            sa, sb = Slot.wrap(ta, ring.nvars), Slot.wrap(tb, ring.nvars)
            if bound <= 2 ** 61 and ring.nvars:
                # slots in no variables are term maps: Z never packs
                assert exact_conv_terms(sa, sb, ring.nvars) == want
            assert slot_product(sa, sb, ring.nvars).to_terms() == want


def test_big_values_take_the_terms_route():
    big = {(0, 0): 2 ** 100, (1, 1): -(2 ** 80)}
    slot = Slot.wrap(big, 2)
    assert slot.arr is None and slot.terms == big
    small = Slot.wrap({(1, 0): 3}, 2)
    product = slot_product(slot, small, 2)
    assert product.to_terms() == {(1, 0): 3 * 2 ** 100, (2, 1): -3 * 2 ** 80}


def test_slot_scale_exponents():
    for terms in ({(1,): 2, (-2,): 5}, {(1,): 2 ** 90}):
        slot = Slot.wrap(terms, 1)
        scaled = slot.scale_exponents(3)
        assert scaled.to_terms() == {(e[0] * 3,): c for e, c in terms.items()}


def test_slot_divide_exact_and_error():
    slot = Slot.wrap({(0, 0): 6, (1, 2): -9}, 2)
    assert slot.divide_exact(3).to_terms() == {(0, 0): 2, (1, 2): -3}
    with pytest.raises(ArithmeticError):
        slot.divide_exact(4)
    big = Slot.wrap({(0, 0): 3 * 2 ** 100}, 2)
    assert big.divide_exact(3).to_terms() == {(0, 0): 2 ** 100}
    with pytest.raises(ArithmeticError):
        big.divide_exact(7)


def test_slot_linear_mixes_lanes():
    small = Slot.wrap({(0,): 1, (2,): -4}, 1)
    big = Slot.wrap({(0,): 2 ** 70}, 1)
    combo = slot_linear([(3, small), (2, big), (0, big)], 1)
    assert combo.to_terms() == {(0,): 3 + 2 ** 71, (2,): -12}


def test_accumulator_matches_dict_reference():
    rng = random.Random(99)
    for ring in ALL_RINGS:
        pairs = []
        reference = {}
        for _ in range(5):
            ta = random_terms(rng, ring, 50)
            tb = random_terms(rng, ring, 50)
            pairs.append((Slot.wrap(ta, ring.nvars), Slot.wrap(tb, ring.nvars)))
            for e, c in dict_product(ta, tb, ring.nvars).items():
                reference[e] = reference.get(e, 0) + c
        acc = SlotAccumulator(ring.nvars)
        for sa, sb in pairs:
            acc.add_pair(sa, sb)
        reference = {e: c for e, c in reference.items() if c}
        assert acc.result().to_terms() == reference


def test_three_variable_slots_are_term_maps():
    # no line layout in three variables: every slot is a term map, of
    # small and huge values alike, and sums of products are dict sums
    ta = {(0, 0, 0): 1, (1, 0, 2): -3, (0, 1, 1): 2 ** 61}
    tb = {(0, 0, 1): 5, (2, 1, 0): -(2 ** 62) - 1}
    a, b = Slot.wrap(ta, 3), Slot.wrap(tb, 3)
    assert a.arr is None and a.terms == ta
    assert b.arr is None and b.terms == tb
    assert Slot.one(3).terms == {(0, 0, 0): 1}
    acc = SlotAccumulator(3)
    acc.add_pair(a, b)
    acc.add_pair(b, b)
    product = acc.result()
    want = dict_product(ta, tb, 3)
    for e, c in dict_product(tb, tb, 3).items():
        want[e] = want.get(e, 0) + c
    assert product.arr is None
    assert product.terms == {e: c for e, c in want.items() if c}
    spread = a.scale_exponents(2)
    assert spread.arr is None
    assert spread.terms == {tuple(2 * x for x in e): c for e, c in ta.items()}
    combo = slot_linear([(2, a), (-1, Slot.wrap({(1, 0, 2): -6}, 3))], 3)
    assert combo.arr is None
    assert combo.terms == {(0, 0, 0): 2, (0, 1, 1): 2 ** 62}


def test_grid_round_trip_with_laurent_offsets():
    p = Polynomial(LAURENT_L, {(-3,): 7, (2,): -1})
    slot = Slot.wrap(p._terms, 1)
    assert slot.arr is not None and slot.stats[2:] == ((-3,), (2,))
    assert slot.to_terms() == p.terms
    assert slot.to_polynomial(LAURENT_L) == p


def test_slots_in_no_variables_are_term_maps():
    for terms in ({}, {(): 5}, {(): -(2 ** 61)}, {(): 2 ** 62}):
        slot = Slot.wrap(terms, 0)
        assert slot.arr is None and slot.terms == terms
    one = Slot.one(0)
    assert one.arr is None and one.terms == {(): 1}
    acc = SlotAccumulator(0)
    acc.add_pair(Slot.wrap({(): 3}, 0), Slot.wrap({(): -4}, 0))
    product = acc.result()
    assert product.arr is None and product.terms == {(): -12}
    combo = slot_linear([(2, Slot.wrap({(): 3}, 0)), (1, Slot.wrap({(): -6}, 0))],
                        0)
    assert combo.arr is None and combo.is_zero


def test_zero_and_unit_slots():
    for ring in ALL_RINGS:
        assert Slot.zero(ring.nvars).is_zero
        one = Slot.one(ring.nvars)
        assert one.to_terms() == {(0,) * ring.nvars: 1}
