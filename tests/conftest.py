from operator import mul

import numpy as np
import pytest
from hypothesis import strategies as st

from motivic_power.expressions import ParseError, Token
from motivic_power.gridops import Fold, Slot
from motivic_power.rings import (
    INTEGERS,
    Polynomial,
    RingDescriptor,
    _accumulate_product,
)
from motivic_power.series import Series

LAURENT_L = RingDescriptor(("L",), laurent=True)
UV = RingDescriptor(("u", "v"))
UVW = RingDescriptor(("u", "v", "w"))

ALL_RINGS = [INTEGERS, LAURENT_L, UV]


def dict_series_product(A, B):
    """A * B summed in plain dicts: the series-product reference."""
    ring = A.ring
    nvars = ring.nvars
    a = A.coefficients
    b = B.coefficients
    out = []
    for k in range(A.order + 1):
        acc = {}
        for i in range(k + 1):
            p = a[i]
            q = b[k - i]
            if p._terms and q._terms:
                _accumulate_product(acc, p._terms, q._terms, nvars)
        out.append(Polynomial._raw(ring, {e: c for e, c in acc.items() if c}))
    return Series._raw(ring, A.order, out)


def dict_inverse(A):
    """A^(-1) by inv_k = -sum_j a_j inv_(k-j) in plain dicts: the reference."""
    ring = A.ring
    a = A.coefficients
    inv = [Polynomial.one(ring)]
    for k in range(1, A.order + 1):
        acc = {}
        for j in range(1, k + 1):
            if a[j]._terms and inv[k - j]._terms:
                _accumulate_product(acc, a[j]._terms, inv[k - j]._terms,
                                    ring.nvars)
        inv.append(Polynomial._raw(ring, {e: -c for e, c in acc.items() if c}))
    return Series._raw(ring, A.order, inv)


def exponent_vectors(ring, max_degree=2):
    lo = -max_degree if ring.laurent else 0
    pool = [()]
    for _ in range(ring.nvars):
        pool = [e + (x,) for e in pool for x in range(lo, max_degree + 1)]
    return [e for e in pool if sum(abs(x) for x in e) <= max_degree]


def polynomials(ring, max_degree=2, coeff_bound=4):
    """Hypothesis strategy for sparse polynomials over ``ring``."""
    vectors = exponent_vectors(ring, max_degree)
    coeff = st.integers(min_value=-coeff_bound, max_value=coeff_bound)
    return st.dictionaries(st.sampled_from(vectors), coeff, max_size=4).map(
        lambda terms: Polynomial(ring, terms)
    )


@pytest.fixture(params=ALL_RINGS, ids=["Z", "Z[L~]", "Z[u,v]"])
def ring(request):
    return request.param


def fold(terms, nvars, reach=8):
    """``terms`` in one variable, as a solve folds them (Kronecker
    substitution), with the window [-reach, reach] on every axis after
    the first.  Products and sums commute with the fold, so a dict
    reference computed on folded inputs is the fold of the reference."""
    edge = (reach,) * (nvars - 1)
    return Fold(nvars, tuple(-x for x in edge), edge).slot(terms).to_terms()


def reference_slot(fold, terms):
    """The fold's slot of ``terms`` built one term at a time, as the fold
    did before its numpy pass: each index a Python sum of exponents times
    strides, a term map of 1-tuples, and :meth:`Slot.wrap`'s scan for the
    stats and the choice of a line."""
    if fold.strides == (1,):
        return Slot.wrap(terms)
    return Slot.wrap({(sum(map(mul, e, fold.strides)),): c
                      for e, c in terms.items()})


def reference_unpack(value, digits, width, origin):
    """Packed signed width-bit digits back to a term map whose first digit
    is the index ``origin``, one ``int.from_bytes`` per nonzero digit: the
    per-digit reference of ``gridops._unpack``."""
    w = width >> 3
    half = 1 << (width - 1)
    biased = value + int.from_bytes(half.to_bytes(w, "little") * digits,
                                    "little")
    data = biased.to_bytes(digits * w, "little")
    rows = np.frombuffer(data, dtype=np.uint8).reshape(digits, w)
    nonzero = np.flatnonzero((rows[:, -1] != 0x80)
                             | rows[:, :-1].any(axis=1)).tolist()
    from_bytes = int.from_bytes
    return {(origin + k,): from_bytes(data[k * w:(k + 1) * w], "little") - half
            for k in nonzero}


def row_maps(rows):
    """The term map of each row of a flat ``gridops.Rows``, keyed by
    1-tuples of its indices: the per-row form that ``gridops._unpack`` and
    ``power._euler_product`` returned before they went flat.  Checks on
    the way that the three parts agree, that no row repeats an index and
    that every coefficient is a Python integer."""
    ks, cs, cuts = rows
    assert ks.dtype in (np.int64, object)
    assert ks.shape == (len(cs),) and cuts[0] == 0 and cuts[-1] == len(cs)
    assert all(type(c) is int for c in cs)
    maps = [dict(zip(zip(ks[a:b].tolist()), cs[a:b]))
            for a, b in zip(cuts, cuts[1:])]
    assert [len(m) for m in maps] == [b - a for a, b in zip(cuts, cuts[1:])]
    return maps


def reference_vector(fold, k):
    """The exponent vector of the index ``k`` in the fold's window, one
    Python divmod per axis: the per-term reference of the decode."""
    if not fold.strides:
        return ()
    lows = (0,) + fold._low
    rest = k - sum(map(mul, fold._low, fold.strides[1:]))
    exps = []
    for s, lo in zip(fold.strides, lows):
        digit, rest = divmod(rest, s)
        exps.append(digit + lo)
    return tuple(exps)


def reference_polynomials(fold, ring, xs):
    """``Fold.polynomials`` one polynomial and one term at a time, as the
    decode's per-polynomial reference: each term map (of a slot, or given
    as one) decoded by :func:`reference_vector`."""
    out = []
    for x in xs:
        terms = x if isinstance(x, dict) else x.to_terms()
        out.append(Polynomial(ring, {reference_vector(fold, k): c
                                     for (k,), c in terms.items()}))
    return out


def reference_tokenize(src):
    """The character-by-character tokenizer that ``expressions._tokenize``
    replaced: the reference for its tokens and its errors."""
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(src):
        ch = src[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < len(src) and "0" <= src[j] <= "9":
                j += 1
            tokens.append(Token("int", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(src) and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(Token("name", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in "+-*^()":
            tokens.append(Token(ch, ch, line, col))
            col += 1
            i += 1
            continue
        raise ParseError("unexpected character %r" % ch, line, col)
    tokens.append(Token("end", "", line, col))
    return tokens
