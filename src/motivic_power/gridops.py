"""Exact sums of polynomial products and scaled polynomials, on one line.

The series pipelines spend their time in sums such as
``sum_m g_m f_(n-m) - n f_n`` in the log-derivative recurrences and
``sum_i a_i b_(k-i)`` in series products.  Each solve folds its ring
into one variable once (:class:`Fold`): a Kronecker substitution into z,
then z^g -> y, g the gcd of the indices of the solve's inputs, which is
1 for generic inputs, 2 for the even classes such as K3's e(X) and 82
for a polynomial in uv at order 40.  Every polynomial of the solve is a
:class:`Slot` in y: a dense int64 array when
it is dense enough for one (:func:`_lined`) and its coefficients are
below 2**62 in magnitude, a term map otherwise.  :class:`SlotAccumulator`
holds each sum as one list of pairs a*b; a scaled slot k*s is the pair
of a shared one-term slot k and s, priced and summed like any other.
It computes the sum on one of four exact routes, chosen from its
density and the bound B = sum over pairs of min(nnz(a), nnz(b)) *
max|a| * max|b| (|k| * max|s| for a scaled slot), which no coefficient
of the sum can exceed in magnitude:

* **term maps** when the sum's term products, at ``_TERM_CELLS`` cells
  each, cost less than the work of its line (:func:`_line_steps`), as
  always over Z, where every sum is one cell wide, or when the line
  would be longer than the cap ``_MAX_LINE``: dict sums.
* **int64 lines** when B < 2**62.  A pair whose sparser operand a has
  nnz_a terms over len_a cells is applied term by term, as shifted
  scalar multiples of the other operand's line, when
  nnz_a * (len_b + C) <= len_a * len_b + (len_a + len_b + C), else
  convolved; C = ``_SLICE_CELLS`` is the cost of one numpy slice-add
  before its first element, in convolution cells.
* **int64 limbs** when B >= 2**62 and :func:`_limb_plan` finds a plan:
  with N the share of B from each product's narrow side (the operand
  with the smaller max |c|, for a scaled slot k or s, whichever is
  smaller), every wide operand is split into signed limbs of
  W = 61 - bitlen(N) bits (``Slot.limbs``), so that each limb's sum is
  an int64 line sum below 2**61, and the sums T_j are recombined once
  as sum_j T_j 2^(W j).  A sum needing more than ``_MAX_LIMBS`` limbs,
  or whose line is shorter than ``_LIMB_CELLS``, packs instead.
* **packed integers** otherwise: y -> 2^W makes each slot one Python
  integer, W the bit length of B plus a sign bit, and the sum is added
  as integers and unpacked once; a pair whose sparser operand fills at
  most a third of its packed span is applied term by term.

Between dict polynomials and slots the fold crosses in numpy passes, not
one Python step per term: :meth:`Fold.slot` encodes a term map in one.
Back from y, a solve's results are first one flat list of terms
(:class:`Rows`): :func:`_unpack` reads packed digits into it in bulk,
and :func:`_rows` concatenates slots into it.  :meth:`Fold.polynomials`
then decodes the distinct indices of the whole list once and builds each
polynomial from its slice, with one exponent tuple per vector.  A
product of two polynomials (``Polynomial.__mul__``) comes here when its
term counts say a line may pay (:func:`_product_lined`), and its sum is
then priced and routed like any other; it multiplies in dicts
(:func:`_accumulate_product`) otherwise.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import accumulate, chain, compress, repeat
from math import gcd, prod
from operator import add, itemgetter, mul
from typing import (TYPE_CHECKING, Dict, List, NamedTuple, Optional,
                    Sequence, Tuple, Union)

import numpy as np

if TYPE_CHECKING:
    from .rings import Polynomial, RingDescriptor

# Array values and int64 line sums stay below this, half the int64 ceiling.
_INT64_LIMIT = 2 ** 62

# A packed digit holds at least one int64 (arrays pack eight bytes at a time).
_MIN_WIDTH = 64

# The cost of one numpy slice-add into an int64 line, in cells of
# np.convolve: on a 2-vCPU x86-64 VM with numpy 2.4, a scaled slice-add
# costs 2-3 us before its first element and ~1 ns per element after it,
# and np.convolve ~1 ns per multiply-add.
_SLICE_CELLS = 2000

# The cost of one term product of a dict sum, in the same cells: on that
# VM with Python 3.11, multiplying two terms and adding the product into
# a dict took 180-210 ns per pair (10 to 100 terms a side), against
# 1.0-1.1 ns per np.convolve multiply-add.
_TERM_CELLS = 200

# The longest line any route allocates (128 MB as int64).  On that VM an
# int64 sum over 2**24 cells took 0.44 s and 384 MB of peak RSS, and the
# limb route's recombination of two dense limb sums 5.6 s and 1.8 GB (at
# 2**22 cells: 0.10 s and 96 MB, 1.4 s and 610 MB).
_MAX_LINE = 2 ** 24

Exps = Tuple[int, ...]
Terms = Dict[Exps, int]


def _lined(nnz: int, span: int, ops: int = 0) -> bool:
    """Whether a line of ``span`` cells and ``ops`` numpy calls (one per
    pair of a sum, none for a slot) costs no more than
    ``nnz`` term products (of a sum) or terms (of a slot) in Python, and
    is at most ``_MAX_LINE`` cells long, however dense."""
    return span <= _MAX_LINE and span + ops * _SLICE_CELLS <= _TERM_CELLS * nnz


# The fold's crossing for one polynomial product (its window, two encodes
# and one decode), in numpy calls of _SLICE_CELLS.  On the VM above, dense
# products of n x n terms in Z[x] and Z[u,v] (coefficients of 4 and of 100
# bits) took as long in dicts as through the fold at 250-600 term products
# (dict / fold: 0.5 at 144, 1.0 at 256, 2.4 at 576, 1.9 at 1,296); with 40
# calls the rule switches at ~420.
_PRODUCT_CROSSING = 40


def _product_lined(na: int, nb: int) -> bool:
    """Whether a product of polynomials of ``na`` and ``nb`` terms may pay
    on a line, from the term counts alone: the :func:`_lined` rule for its
    na * nb term products over the shortest line it can have (na + nb - 1
    cells), with one numpy call for the pair and the fold's crossing."""
    return _lined(na * nb, na + nb - 1, 1 + _PRODUCT_CROSSING)


# -- the dict product -----------------------------------------------------

def _accumulate_product(acc: Dict[Exps, int], pterms, qterms, nvars: int):
    """Add the expanded product of two term maps into ``acc``.

    The dict product: ``Polynomial.__mul__`` (products too small for a
    line), the term-map route of :class:`SlotAccumulator` (sums cheaper in
    dicts), the reference recurrence ``power._monomial_base_exact``
    and the tests' references run through here.  The exponent addition
    is unrolled for zero, one and two variables (Z, Z[L] and Z[u,v]).
    """
    if len(pterms) > len(qterms):
        pterms, qterms = qterms, pterms
    get = acc.get
    if nvars == 0:
        c = pterms.get((), 0) * qterms.get((), 0)
        if c:
            acc[()] = get((), 0) + c
    elif nvars == 1:
        for (x1,), c1 in pterms.items():
            for (y1,), c2 in qterms.items():
                e = (x1 + y1,)
                acc[e] = get(e, 0) + c1 * c2
    elif nvars == 2:
        for (x1, x2), c1 in pterms.items():
            for (y1, y2), c2 in qterms.items():
                e = (x1 + y1, x2 + y2)
                acc[e] = get(e, 0) + c1 * c2
    else:
        for e1, c1 in pterms.items():
            for e2, c2 in qterms.items():
                e = tuple(map(add, e1, e2))
                acc[e] = get(e, 0) + c1 * c2


# -- the fold: one variable per solve --------------------------------------

def _ends(xs: Sequence[Terms], axis: int) -> List[Optional[Tuple[int, int]]]:
    """The least and greatest exponent on ``axis`` of each term map."""
    values = [list(map(itemgetter(axis), x)) for x in xs]
    return [(min(v), max(v)) if v else None for v in values]


def _index_gcd(inputs: Sequence[Terms], strides: Exps) -> int:
    """The gcd of the indices e . strides of the term maps' exponents e,
    or 1 when they are all 0; the scan stops at the first gcd of 1."""
    g = 0
    if strides:
        for terms in inputs:
            for e in terms:
                g = gcd(g, sum(map(mul, e, strides)))
                if g == 1:
                    return 1
    return g or 1


class Fold:
    """The map u^a v^b ... w^c -> y^(k/g) of one solve, a ring
    homomorphism, and its inverse on a window: the Kronecker map to z^k,
    k = a S_u + b S_v + ... + c, then z^g -> y.

    The strides are mixed-radix over the window ``low``..``high`` of the
    axes after the first (the last axis has stride 1), so the Kronecker
    map is one-to-one on the window whatever the first axis' range.
    ``gcd`` is g, the gcd of the indices k of the solve's ``inputs``
    (1 when there are none or all are 0), found once: the scan stops at
    the first g = 1, so generic inputs pay a few terms.  Every term a
    solve forms lies in the lattice its inputs span (products, sums,
    the Frobenius z -> z^j, exact division and the Euler product's
    shifts keep it there), so its index is a multiple of g, and z^g -> y
    is one-to-one on the window too.  It leaves y dense where z is
    spread: at order 40, a polynomial in uv (P^2, the diamonds with q =
    p_g = 0) folds with g = 82 and K3's even e(X) with g = 2.  In one
    variable with g = 1 the fold is the identity; over Z it sends () to
    0.

    Both directions cross between term maps and slots in numpy passes,
    not one Python step per term: one per polynomial to encode
    (:meth:`slot`), one per solve to decode (:meth:`polynomials`, from
    one flat :class:`Rows` of all the solve's terms).
    Indices are int64 while they provably fit, Python integers (object
    arrays) otherwise.
    """

    __slots__ = ("strides", "gcd", "_low", "_offset", "_reach", "_steps")

    def __init__(self, nvars: int, low: Exps = (), high: Exps = (),
                 inputs: Sequence[Terms] = ()):
        widths = [hi - lo + 1 for lo, hi in zip(low, high)]
        self.strides = tuple(prod(widths[i:]) for i in range(nvars))
        self._low = tuple(low)
        self._offset = sum(map(mul, low, self.strides[1:]))
        # the most an index's axes after the first add to its magnitude
        self._reach = sum(max(-lo, hi) * s for lo, hi, s in zip(
            low, high, self.strides[1:]))
        self._steps = np.array(self.strides, dtype=np.int64 if max(
            self.strides[:1] + (self._reach,)) < _INT64_LIMIT else object)
        self.gcd = _index_gcd(inputs, self.strides)

    @classmethod
    def graded(cls, nvars: int, order: int, xs: Sequence[Terms],
               times: Terms = None) -> "Fold":
        """The fold of a recurrence whose inputs x_1..x_N are ``xs``, or
        the products x_i * m with ``times`` = m (ends add); g is taken
        from the indices of ``xs`` and ``times``.

        Per axis, o = min(0, min_i floor(lo(x_i)/i)) and h = max(0, max_i
        ceil(hi(x_i)/i)) put every x_i in i*[o, h], so every f_n, g_n and
        b_n (or inverse coefficient) in n*[o, h], and all in [N*o, N*h].
        """
        low, high = [], []
        for axis in range(1, nvars):
            lo_m, hi_m = _ends([times or {}], axis)[0] or (0, 0)
            ends = [(i, e) for i, e in enumerate(_ends(xs, axis), 1) if e]
            low.append(order * min([0] + [(e[0] + lo_m) // i
                                          for i, e in ends]))
            high.append(order * max([0] + [-(-(e[1] + hi_m) // i)
                                           for i, e in ends]))
        return cls(nvars, low, high, [*xs, times or {}])

    @classmethod
    def product(cls, nvars: int, order: int, xs: Sequence[Terms],
                ys: Sequence[Terms]) -> "Fold":
        """The fold of the product of two series with coefficients ``xs``
        and ``ys``, truncated at ``order``: per axis, the window runs from
        the least lo(x_i) + lo(y_j) to the greatest hi(x_i) + hi(y_j) over
        i + j <= N; g is taken from the indices of ``xs`` and ``ys``."""
        low, high = [], []
        for axis in range(1, nvars):
            ends_y = _ends(ys, axis)
            sums = [(a[0] + b[0], a[1] + b[1])
                    for i, a in enumerate(_ends(xs, axis)) if a
                    for b in ends_y[:order - i + 1] if b] or [(0, 0)]
            low.append(min(sums)[0])
            high.append(max(e[1] for e in sums))
        return cls(nvars, low, high, [*xs, *ys])

    def slot(self, terms: Terms) -> "Slot":
        """The slot of the term map's image in y, whose exponents must lie
        in the window.

        In one variable the slot wraps the term map itself when g = 1,
        else a copy with every index divided by g (over Z, () becomes the
        index 0).  In more, one pass reads the exponents into a matrix
        and the coefficients into an array (``np.fromiter``; object dtype
        past int64), takes the indices as the matrix times the strides,
        divided by g, and builds an int64 line
        when it is dense enough (:func:`_lined`) and every |c| < 2**62,
        else a term map: the slot and stats :meth:`Slot.wrap` gives.
        """
        nvars, g = len(self.strides), self.gcd
        if nvars < 2:
            if g != 1:
                terms = {(k // g,): c for (k,), c in terms.items()}
            return Slot.wrap(terms if nvars else
                             {(0,): c for c in terms.values()})
        n = len(terms)
        if not n:
            return Slot.zero()
        exps = _ints(lambda: chain.from_iterable(terms), n * nvars)
        exps = exps.reshape(n, nvars)
        ks = exps @ self._steps
        cs = _ints(terms.values, n)
        # one max and one min give the ends of the indices, of the
        # coefficients and of the first axis, which with the window's
        # reach bounds every partial sum of an index: past int64, the
        # indices are redone on Python integers
        ends = np.concatenate((ks, cs, exps[:, 0])).reshape(3, n)
        hi, c_hi, e_hi = np.maximum.reduce(ends, axis=1).tolist()
        lo, c_lo, e_lo = np.minimum.reduce(ends, axis=1).tolist()
        if ks.dtype != object and (max(e_hi, -e_lo) * self.strides[0]
                                   + self._reach >= _INT64_LIMIT):
            ks = exps.astype(object) @ self._steps.astype(object)
            lo, hi = ks.min(), ks.max()
        if g != 1:
            if g >= _INT64_LIMIT:  # then only 0 is a multiple in int64
                ks = ks.astype(object)
            ks //= g
            lo, hi = lo // g, hi // g
        top = max(c_hi, -c_lo)
        stats = (n, top, (lo,), (hi,))
        if top < _INT64_LIMIT and _lined(n, hi - lo + 1):
            line = np.zeros(hi - lo + 1, dtype=np.int64)
            line[(ks - lo).astype(np.int64, copy=False)] = cs
            return Slot(arr=line, lo=lo, stats=stats)
        return Slot(terms=dict(zip(zip(ks.tolist()), terms.values())),
                    stats=stats)

    def _vectors(self, ks: np.ndarray) -> np.ndarray:
        """The exponent vectors in the window with the ascending indices
        ``ks`` in y, as an object array of tuples: each index times g,
        on Python integers where that would leave int64, then read off
        in the mixed radix of the strides."""
        n = ks.shape[0]
        if not self.strides or not n:  # over Z every vector is ()
            return np.fromiter(repeat((), n), dtype=object, count=n)
        rest, g = ks, self.gcd
        if rest.dtype != object and max(
                self.strides[0], abs(self._offset),
                max(int(ks[-1]), -int(ks[0]), 1) * g) >= _INT64_LIMIT:
            rest = rest.astype(object)  # Python integers, any size
        if g != 1:
            rest = rest * g
        if self._offset:
            rest = rest - self._offset
        lows = (0,) + self._low
        columns = []
        for s, lo in zip(self.strides[:-1], lows):
            digit, rest = rest // s, rest % s
            columns.append((digit + lo if lo else digit).tolist())
        columns.append((rest + lows[-1] if lows[-1] else rest).tolist())
        return np.fromiter(zip(*columns), dtype=object, count=n)

    def polynomials(self, ring: RingDescriptor,
                    xs: Union["Rows", Sequence[Union["Slot", Terms]]]
                    ) -> List[Polynomial]:
        """The polynomials whose images in y are the rows ``xs`` (from
        :func:`_unpack`) or the slots or term maps ``xs``, whose exponents
        must lie in the window.

        Slots and term maps are first read into rows (:func:`_rows`).
        The distinct indices of all the rows are then decoded once
        (``np.unique`` and :meth:`_vectors`), so that the polynomials
        share one exponent tuple per vector, and each polynomial is one
        ``dict(zip(...))`` over its slice of the terms."""
        from .rings import Polynomial  # rings multiplies through this module
        ks, cs, cuts = xs if isinstance(xs, Rows) else _rows(xs)
        distinct, at = np.unique(ks, return_inverse=True)
        keys = self._vectors(distinct)[at].tolist()
        return [Polynomial._raw(ring, dict(zip(keys[a:b], cs[a:b])))
                for a, b in zip(cuts, cuts[1:])]


class Rows(NamedTuple):
    """The terms of several polynomials in y, flat: row j's indices are
    ``ks[cuts[j]:cuts[j + 1]]`` and its coefficients the same slice of
    ``cs``.  ``ks`` is an int64 array, or an object array of Python
    integers past int64; ``cs`` is a list of Python integers."""

    ks: np.ndarray
    cs: List[int]
    cuts: List[int]


def _rows(xs: Sequence[Union["Slot", Terms]]) -> Rows:
    """The nonzero terms of the slots or term maps ``xs`` as rows: each
    array slot's in a few numpy calls, each term map's read with
    ``np.fromiter``, all joined by one concatenation."""
    ks, cs, cuts = [], [], [0]
    for x in xs:
        terms = x if isinstance(x, dict) else x.terms
        if terms is None:
            line = x.line()
            at = np.flatnonzero(line)
            ks.append(_shifted(at, x.stats[2][0]))
            cs.append(line[at])
        else:
            n = len(terms)
            ks.append(_ints(partial(chain.from_iterable, terms), n))
            cs.append(_ints(terms.values, n))
        cuts.append(cuts[-1] + ks[-1].shape[0])
    if not ks:
        return Rows(np.zeros(0, dtype=np.int64), [], cuts)
    return Rows(np.concatenate(ks), np.concatenate(cs).tolist(), cuts)


def _shifted(offsets: np.ndarray, lo: int) -> np.ndarray:
    """lo + offsets, for int64 offsets in [0, 2**62): int64 while |lo| <
    2**62, else Python integers."""
    if -_INT64_LIMIT < lo < _INT64_LIMIT:
        return offsets + lo
    return offsets.astype(object) + lo


def _ints(values, count: int) -> np.ndarray:
    """The ``count`` integers that ``values()`` yields, as an int64 array,
    or as an object array of Python integers when one leaves int64."""
    try:
        return np.fromiter(values(), dtype=np.int64, count=count)
    except OverflowError:
        return np.fromiter(values(), dtype=object, count=count)


# -- int64 route: convolutions of lines ----------------------------------

def _conv_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two int64 lines; the caller's bound keeps it below 2**62."""
    return np.convolve(a, b)


# Nothing calls this float64 bound any more: it stays, like _conv_limbs
# below, only so that perfbench/tracer.py still resolves it by name.
def _abs_bound_max(a: np.ndarray, b: np.ndarray) -> float:
    """Float64 upper bound on the largest sum of |products| in a*b."""
    worst = float(np.convolve(np.abs(a).astype(np.float64),
                              np.abs(b).astype(np.float64)).max())
    return worst * (1.0 + 1e-9) + 1.0


def _add_line(total: np.ndarray, at: int, line: np.ndarray, c: int):
    """total[at:] += c * line, without a scaled copy when c is 1 or -1."""
    cells = total[at:at + line.shape[0]]
    if c == 1:
        cells += line
    elif c == -1:
        cells -= line
    else:
        cells += line * c


def _by_terms(a: "Slot", b: "Slot", lines: bool):
    """The pair as (sparser, denser) operand, its product's low end, and
    whether to apply the sparser operand a term by term, with that way's
    cost on int64 ``lines``: nnz_a * (len_b + C) term by term, or len_a *
    len_b + len_a + len_b + C convolved and added, whichever is less (C =
    ``_SLICE_CELLS``).  Packed, a goes term by term when 3 * nnz_a <=
    len_a, unpriced (0)."""
    if b.stats[0] < a.stats[0]:
        a, b = b, a
    nnz_a, _, (lo_a,), (hi_a,) = a.stats
    _, _, (lo_b,), (hi_b,) = b.stats
    len_a, len_b = hi_a - lo_a + 1, hi_b - lo_b + 1
    if not lines:
        return a, b, lo_a + lo_b, 3 * nnz_a <= len_a, 0
    by_terms = nnz_a * (len_b + _SLICE_CELLS)
    convolved = len_a * len_b + len_a + len_b + _SLICE_CELLS
    return a, b, lo_a + lo_b, by_terms <= convolved, min(by_terms, convolved)


def _line_steps(pairs, products: int, span: int):
    """The pairs as :func:`_by_terms` gives them on lines, or None when
    the sum's ``products`` term products, at ``_TERM_CELLS`` each, cost
    less in dicts than its line: the ``span`` and each pair's cost.
    :func:`_lined` bounds that from below (each pair costs a slice-add or
    more), so it runs first."""
    if not _lined(products, span, len(pairs)):
        return None
    steps = [_by_terms(a, b, True) for a, b in pairs]
    cells = span + sum(map(itemgetter(4), steps))
    return steps if cells <= _TERM_CELLS * products else None


def _sum_lines(steps, lo: int, hi: int) -> "Slot":
    """Exact sum on one int64 line over the indices lo..hi of the pairs,
    as :func:`_by_terms` gives them on lines (``steps``).  Each pair is
    convolved, or its sparser operand applied term by term as shifted
    multiples of the other line.  The caller's exact bound must be below
    2**62, so no partial sum can overflow."""
    total = np.zeros(hi - lo + 1, dtype=np.int64)
    for a, b, at, by_terms, _ in steps:
        at -= lo
        line = b.line()
        if by_terms:
            for k, c in a.spread():
                _add_line(total, at + k, line, c)
        else:
            _add_line(total, at, _conv_arrays(a.line(), line), 1)
    return Slot(arr=total, lo=lo)


# -- limb route: the wide side in int64 limbs, each limb on a line ---------

# When the limb route pays, against packed integers; it serves the big sums of
# axioms-small (116-156 Slot.limbs splits per round at seed 5, no cache hits)
# and factor of big-coefficient series (K3's order-60 Hodge series: 1,479
# Slot.limbs calls, 1,211 cache hits).  Timed on a 2-vCPU x86-64 VM with numpy
# 2.4 and Python 3.11, both routes on the same sums, limbs forced to more than
# the plan's count by narrowing W (limb time / packed time, cold caches):
# * the K3 diamond's 14 big steps at order 40 (4,400-6,600 cells, 27-40
#   pairs, 2 limbs by the plan) and axioms-small's 16 big sums (2,800-
#   3,700 cells): 0.24-0.51 at 2 limbs, 0.41-0.64 at 3, 0.38-0.96 at 4,
#   0.55-1.13 at 6, 0.87-1.71 at 10;
# * the scaled sums of zeta --class "(1+2*x)^800" (a 1,263-bit wide side,
#   22 limbs of 60 bits): 1.5-2.3;
# * 1, 4 or 10 pairs of 70-bit lines (2 limbs) against 3-term operands
#   applied term by term: 1.4-1.9 at ~100 cells, 1.3-1.4 at ~200,
#   1.0-1.1 at ~400, 0.85-0.9 at ~800, 0.75-0.85 from 1,500; against
#   convolved operands of a quarter as many terms: 1.4-1.5 at ~100,
#   1.0-1.1 at ~200, 0.7-0.9 at ~400, 0.35-0.6 from 800.
# The most limbs, and the fewest cells of the sum's line.
_MAX_LIMBS = 4
_LIMB_CELLS = 400


def _limb_plan(pairs, cells: int) -> Optional[Tuple[int, int]]:
    """The limb width W and limb count of the limb route for a sum over
    ``cells`` indices, or None when it should pack.

    The narrow side of a pair is its operand with the smaller max |c|:
    for a scaled slot k*s, whichever of |k| and max|s| is smaller.  With N = sum over pairs of min(nnz_a, nnz_b) * max|narrow|,
    limbs of W = 61 - bitlen(N) bits keep every limb sum below
    N * 2^W < 2^61; the count covers the widest wide side.
    """
    if cells < _LIMB_CELLS:
        return None
    narrow = wide = 0
    for a, b in pairs:
        na, ma, _, _ = a.stats
        nb, mb, _, _ = b.stats
        if mb < ma:
            ma, mb = mb, ma
        narrow += (na if na < nb else nb) * ma
        if mb > wide:
            wide = mb
    width = 61 - narrow.bit_length()
    if width < 1:
        return None
    count = -(-wide.bit_length() // width)
    return (width, count) if count <= _MAX_LIMBS else None


def _split(slot: "Slot", width: int, count: int) -> List["Slot"]:
    """The slot as signed limbs s_0..s_(count-1), s = sum_j s_j 2^(width j)
    with every |s_j| < 2^width and s_j of the sign of s: lines when the
    slot is dense enough for one (:func:`_lined`), else term maps."""
    mask = (1 << width) - 1
    nnz, _, (lo,), (hi,) = slot.stats
    dense = slot.lined or _lined(nnz, hi - lo + 1)
    at = None
    if slot.lined:  # int64 magnitudes: numpy shifts past 63 bits give 0
        line = slot.line()
        mag, neg = np.abs(line), line < 0
    else:
        ks, cs = slot.items()
        mag = np.array(list(map(abs, cs)), dtype=object)
        neg = np.array(cs, dtype=object) < 0
        if dense:  # offsets within a line: int64 whatever the indices
            at = (_ints(ks.__iter__, nnz) - lo).astype(np.int64, copy=False)
    out = []
    for j in range(count):
        limb = ((mag >> (width * j)) & mask).astype(np.int64)
        np.negative(limb, out=limb, where=neg)
        if dense:
            if at is not None:
                line = np.zeros(hi - lo + 1, dtype=np.int64)
                line[at] = limb
                limb = line
            out.append(Slot(arr=limb, lo=lo))
        else:
            nz = limb != 0
            out.append(Slot(terms=dict(zip(zip(compress(ks, nz.tolist())),
                                           limb[nz].tolist()))))
    return out


def _limb_sum(pairs, lo: int, hi: int, width: int, count: int) -> "Slot":
    """Exact sum of the pair products on the limb plan (W, count) of
    :func:`_limb_plan`: one :func:`_sum_lines` pass T_j per limb j of the
    wide sides, recombined once as sum_j T_j 2^(W j)."""
    narrow = [(a, b.limbs(width, count)) if a.stats[1] <= b.stats[1]
              else (b, a.limbs(width, count)) for a, b in pairs]
    total = 0
    for j in range(count):
        part = _sum_lines([_by_terms(a, w[j], True) for a, w in narrow
                           if not w[j].is_zero], lo, hi)
        if part.is_zero:
            continue
        part = part.arr.astype(object)
        if j:
            part <<= width * j
        total += part  # in place once an array: one object array less
    if type(total) is int:
        return Slot.zero()
    nz = np.flatnonzero(total)
    return Slot.wrap(dict(zip(zip(_shifted(nz, lo).tolist()),
                              total[nz].tolist())))


# -- term-map route: dict sums -------------------------------------------

def _sum_terms(pairs) -> "Slot":
    """Exact sum of the pair products, term by term, wrapped
    (:meth:`Slot.wrap`) so a dense one keeps its line once built."""
    acc: Terms = {}
    for a, b in pairs:
        _accumulate_product(acc, a.to_terms(), b.to_terms(), 1)
    return Slot.wrap({e: c for e, c in acc.items() if c})


# -- packed route: Kronecker substitution into Python integers -------------

def _pack(slot: "Slot", width: int) -> int:
    """The slot as sum c * 2^(width * (k - lo)), signed digits."""
    w = width >> 3
    if slot.arr is not None:
        flat = slot.arr
        buf = np.zeros((flat.shape[0], w), dtype=np.uint8)
        buf[:, :8] = np.maximum(flat, 0).astype("<u8").view(np.uint8) \
            .reshape(-1, 8)
        pos = int.from_bytes(buf.tobytes(), "little")
        buf[:, :8] = np.maximum(-flat, 0).astype("<u8").view(np.uint8) \
            .reshape(-1, 8)
        return pos - int.from_bytes(buf.tobytes(), "little")
    _, _, (lo,), (hi,) = slot.stats
    size = (hi - lo + 1) * w
    pos = bytearray(size)
    neg = bytearray(size)
    for (k,), c in slot.terms.items():
        k = (k - lo) * w
        if c > 0:
            pos[k:k + w] = c.to_bytes(w, "little")
        else:
            neg[k:k + w] = (-c).to_bytes(w, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _unpack(rows: Sequence[Tuple[int, int, int]], width: int) -> Rows:
    """Inverse of packing: for each row (value, digits, origin), the
    nonzero signed width-bit digits of ``value``, digit k at the index
    ``origin + k``, all rows' terms in one :class:`Rows` (its indices
    int64 while they fit, else Python integers), with no term map built.

    Adding 2^(width-1) to every digit makes them all nonnegative without
    carries, so the digits of all rows can be read off one byte buffer.
    The low eight bytes of a biased digit are those of the digit's two's
    complement, and the digit fits int64 exactly when the bytes above
    them are the bias's sign extension: 00..00 80 for a digit >= 0,
    ff..ff 7f for a negative one.  Those digits are read in bulk as
    64-bit words (narrower digits are zero-padded to one word and
    sign-extended); only the others go through ``int.from_bytes``.
    """
    w = width >> 3
    half = 1 << (width - 1)
    bias = half.to_bytes(w, "little")
    data = b"".join((value + int.from_bytes(bias * digits, "little"))
                    .to_bytes(digits * w, "little")
                    for value, digits, _ in rows)
    cells = np.frombuffer(data, dtype=np.uint8).reshape(-1, w)
    if w <= 8:
        words = np.zeros((cells.shape[0], 8), dtype=np.uint8)
        words[:, :w] = cells
        shift = 64 - width
        words = (words.view("<u8")[:, 0] ^ np.uint64(half)) << np.uint64(shift)
        values = words.view(np.int64) >> shift
        keep = values != 0
        wide = np.zeros(0, dtype=np.intp)
    else:
        values = np.ascontiguousarray(cells[:, :8]).view("<i8")[:, 0]
        ext = np.where(values < 0, 0xFF, 0).astype(np.uint8)
        outside = (cells[:, -1] != ext ^ 0x80) | \
            (cells[:, 8:-1] != ext[:, None]).any(axis=1)
        keep = outside | (values != 0)
        wide = np.flatnonzero(outside[keep])
    at = np.flatnonzero(keep)
    cs = values[at].tolist()
    if wide.shape[0]:
        from_bytes = int.from_bytes
        for j, k in zip(wide.tolist(), at[wide].tolist()):
            cs[j] = from_bytes(data[k * w:(k + 1) * w], "little") - half
    sizes = [digits for _, digits, _ in rows]
    starts = list(accumulate(sizes, initial=0))
    # digit k of a row is the index origin + k - start
    shifts = [origin - start for (_, _, origin), start in zip(rows, starts)]
    fits = max(map(abs, shifts), default=0) + starts[-1] < _INT64_LIMIT
    shifts = np.array(shifts, dtype=np.int64 if fits else object)
    ks = np.repeat(shifts, sizes)[at] + at
    return Rows(ks, cs, np.searchsorted(at, starts).tolist())


def _packed_sum(pairs, bound: int) -> Terms:
    """Exact sum of the pair products on packed integers.

    ``bound`` must be the exact bound B of the sum; the digit width is
    its bit length plus a sign bit, in whole bytes.  Each pair is either
    one integer multiply or, by :func:`_by_terms`, applied term by term.
    """
    origin, top = _corners(pairs)
    width = max(_MIN_WIDTH, (bound.bit_length() + 1 + 7) // 8 * 8)
    acc = 0
    for a, b in pairs:
        a, b, at, by_terms, _ = _by_terms(a, b, False)
        at -= origin
        if by_terms:
            packed = _pack(b, width)
            for k, c in a.spread():
                if c == 1:
                    acc += packed << (width * (k + at))
                elif c == -1:
                    acc -= packed << (width * (k + at))
                else:
                    acc += (packed * c) << (width * (k + at))
        else:
            acc += (_pack(a, width) * _pack(b, width)) << (width * at)
    ks, cs, _ = _unpack([(acc, top - origin + 1, origin)], width)
    return dict(zip(zip(ks.tolist()), cs))


# The packed route keeps the name of the limb route it replaced, so that
# tools wrapping the exact big-value route by name (perfbench's tracer)
# still find it.
_conv_limbs = _packed_sum


def _corners(pairs) -> Tuple[int, int]:
    """Lowest and highest index of a sum of products."""
    ends = [(a.stats[2][0] + b.stats[2][0], a.stats[3][0] + b.stats[3][0])
            for a, b in pairs]
    return min(e[0] for e in ends), max(e[1] for e in ends)


# -- slots: an int64 array when it fits, a term map when it does not -------

class Slot:
    """One polynomial in y travelling through a solver pipeline.

    ``arr`` is a dense int64 array, every value below 2**62 in magnitude,
    indexed by exponent minus the low end (zeros allowed), or None for a
    term-map slot; ``lined`` says which, and a slot wrapped from terms
    builds its array on first use.  ``terms`` is the term map: a term-map
    slot's own, of any magnitude and density, or an array slot's once
    read.
    ``stats`` is (nnz, max |coefficient|, low end, high end), where the
    ends, one-tuples like the exponents, bound the exponents: the array's
    range, or the term map's exact hull.
    """

    __slots__ = ("lined", "terms", "stats", "_arr", "_limbs", "_spread")

    def __init__(self, terms: Optional[Terms] = None,
                 arr: Optional[np.ndarray] = None, lo: int = 0,
                 stats: Optional[tuple] = None):
        self._arr = arr
        self.lined = arr is not None
        self.terms = terms
        if stats is not None:  # found by the caller's own pass
            self.stats = stats
        elif arr is not None:
            nnz = int(np.count_nonzero(arr))
            top = int(max(arr.max(), -arr.min())) if nnz else 0
            self.stats = (nnz, top, (lo,), (lo + arr.shape[0] - 1,))
        elif terms:
            self.stats = (len(terms), max(map(abs, terms.values())),
                          min(terms), max(terms))
        else:
            self.stats = (0, 0, (0,), (0,))
        self._limbs = None
        self._spread = None

    @classmethod
    def wrap(cls, terms: Terms) -> "Slot":
        """The slot of a term map (shared, not copied): an int64 array when
        the terms are dense enough for a line (:func:`_lined`) and every
        coefficient is below 2**62, else a term map."""
        slot = cls(terms=terms)
        nnz, top, (lo,), (hi,) = slot.stats
        slot.lined = nnz > 0 and top < _INT64_LIMIT and _lined(nnz, hi - lo + 1)
        return slot

    @classmethod
    def zero(cls) -> "Slot":
        return cls(terms={})

    @classmethod
    def one(cls) -> "Slot":
        return cls.wrap({(0,): 1})

    @property
    def is_zero(self) -> bool:
        return self.stats[0] == 0

    @property
    def arr(self) -> Optional[np.ndarray]:
        return self.line() if self.lined else None

    def line(self) -> np.ndarray:
        """The slot's values over its range as an int64 line (kept for an
        array slot)."""
        if self._arr is not None:
            return self._arr
        nnz, _, (lo,), (hi,) = self.stats
        line = np.zeros(hi - lo + 1, dtype=np.int64)
        terms = self.terms
        at = _ints(lambda: chain.from_iterable(terms), nnz) - lo
        line[at.astype(np.int64, copy=False)] = np.fromiter(
            terms.values(), dtype=np.int64, count=nnz)
        if self.lined:
            self._arr = line
        return line

    def limbs(self, width: int, count: int) -> List["Slot"]:
        """The slot as ``count`` signed limbs of ``width`` bits (cached)."""
        p = self._limbs
        if p is None or p[0] != (width, count):
            p = self._limbs = ((width, count), _split(self, width, count))
        return p[1]

    def spread(self) -> List[Tuple[int, int]]:
        """(index past the low end, coefficient) of every term (cached)."""
        if self._spread is None:
            ks, cs = self.items()
            lo = self.stats[2][0]
            self._spread = list(zip([k - lo for k in ks], cs))
        return self._spread

    def items(self) -> Tuple[List[int], List[int]]:
        """The indices and coefficients of the nonzero terms."""
        if self.terms is not None:
            terms = self.terms
            return list(chain.from_iterable(terms)), list(terms.values())
        nz = np.flatnonzero(self.arr)
        return _shifted(nz, self.stats[2][0]).tolist(), self.arr[nz].tolist()

    def to_terms(self) -> Terms:
        """The term map (shared, not copied; read once from an array)."""
        if self.terms is None:
            ks, cs = self.items()
            self.terms = dict(zip(zip(ks), cs))
        return self.terms

    def to_polynomial(self, ring: RingDescriptor) -> Polynomial:
        """The slot as a polynomial of a ring in one variable."""
        from .rings import Polynomial
        return Polynomial._raw(ring, self.to_terms())

    def scale_exponents(self, j: int) -> "Slot":
        """The slot at y -> y^j: every exponent times j.  The spread
        values stay an array only while they are dense enough for one."""
        nnz, top, (lo,), (hi,) = self.stats
        if j == 1 or self.is_zero or lo == hi == 0:
            return self  # a constant has only the exponent 0
        stats = (nnz, top, (lo * j,), (hi * j,))
        if self.arr is not None and _lined(nnz, (hi - lo) * j + 1):
            out = np.zeros((hi - lo) * j + 1, dtype=np.int64)
            out[::j] = self.arr
            return Slot(arr=out, lo=lo * j, stats=stats)
        return Slot(terms={(k * j,): c for (k,), c in self.to_terms().items()},
                    stats=stats)

    def divide_exact(self, n: int) -> "Slot":
        if n == 1 or self.is_zero:
            return self
        arr = self.arr
        if ((arr % n).any() if arr is not None
                else any(c % n for c in self.terms.values())):
            raise ArithmeticError("expected an exact division by %d" % n)
        nnz, top, lo, hi = self.stats
        stats = (nnz, abs(top // n), lo, hi)
        if arr is not None:
            return Slot(arr=arr // n, lo=lo[0], stats=stats)
        return Slot(terms={e: c // n for e, c in self.terms.items()},
                    stats=stats)


@lru_cache(maxsize=None)
def _one_term(k: int) -> Slot:
    """The constant slot k, shared by every scaled entry k*s: the
    multipliers are step indices, so there are few of them."""
    return Slot.wrap({(0,): k} if k else {})


class SlotAccumulator:
    """Sum of products of slot pairs, computed on one route when read
    (see the module docstring): term maps, an int64 line, int64 limbs of
    the wide sides, or packed integers.

    ``add_pair(a, b)`` records a*b, unless a or b is zero, and adds only
    its share of the exact bound B and of the count of term products.
    ``add(k, s)`` records k*s as the pair of the shared constant slot k
    (:func:`_one_term`) and s.
    """

    def __init__(self):
        self.pairs: List[Tuple[Slot, Slot]] = []
        self.bound = 0
        self.products = 0

    def add_pair(self, a: Slot, b: Slot):
        if a.is_zero or b.is_zero:
            return
        na, ma, _, _ = a.stats
        nb, mb, _, _ = b.stats
        self.bound += (na if na < nb else nb) * ma * mb
        self.products += na * nb
        self.pairs.append((a, b))

    def add(self, k: int, s: Slot):
        self.add_pair(_one_term(k), s)

    def result(self) -> Slot:
        pairs = self.pairs
        if not pairs:
            return Slot.zero()
        lo, hi = _corners(pairs)
        steps = _line_steps(pairs, self.products, hi - lo + 1)
        if steps is None:
            return _sum_terms(pairs)
        if self.bound < _INT64_LIMIT:
            return _sum_lines(steps, lo, hi)
        plan = _limb_plan(pairs, hi - lo + 1)
        if plan is not None:
            return _limb_sum(pairs, lo, hi, *plan)
        return Slot.wrap(_packed_sum(pairs, self.bound))


def slot_product(a: Slot, b: Slot) -> Slot:
    acc = SlotAccumulator()
    acc.add_pair(a, b)
    return acc.result()


def slot_linear(pieces: List[Tuple[int, Slot]]) -> Slot:
    """Integer linear combination sum k*s of slots, on the accumulator."""
    acc = SlotAccumulator()
    for k, s in pieces:
        acc.add(k, s)
    return acc.result()
