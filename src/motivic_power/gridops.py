"""Exact sums of polynomial products and scaled polynomials, on one line.

The series pipelines spend their time in sums such as
``sum_m g_m f_(n-m) - n f_n`` in the log-derivative recurrences and
``sum_i a_i b_(k-i)`` in series products.  Each solve folds its ring
into one variable z once (:class:`Fold`, a Kronecker substitution), so
every polynomial of it is a :class:`Slot` in z: a dense int64 array when
it is dense enough for one (:func:`_lined`) and its coefficients are
below 2**62 in magnitude, a term map otherwise.  :class:`SlotAccumulator`
computes each sum on one of three exact routes, chosen from its density
and the bound B = sum over pairs of min(nnz(a), nnz(b)) * max|a| * max|b|
plus sum over scaled slots of |k| * max|s|, which no coefficient of the
sum can exceed in magnitude:

* **term maps** when :func:`_lined` finds the sum too sparse for a line
  (always over Z, where every sum is one cell wide): dict sums.
* **int64 lines** when B < 2**62.  A pair whose sparser operand a has
  nnz_a terms over len_a cells is applied term by term, as shifted
  scalar multiples of the other operand's line, when
  nnz_a * (len_b + C) <= len_a * len_b + (len_a + len_b + C), else
  convolved; C = ``_SLICE_CELLS`` is the cost of one numpy slice-add
  before its first element, in convolution cells.
* **packed integers** otherwise: z -> 2^W makes each slot one Python
  integer, W the bit length of B plus a sign bit, and the sum is added
  as integers and unpacked once; a pair whose sparser operand fills at
  most a third of its packed span is applied term by term.
"""

from __future__ import annotations

from itertools import repeat
from math import prod
from operator import add, itemgetter, mul
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .rings import Polynomial, RingDescriptor, _accumulate_product

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

Exps = Tuple[int, ...]
Terms = Dict[Exps, int]


def _lined(nnz: int, span: int, ops: int = 0) -> bool:
    """Whether a line of ``span`` cells and ``ops`` numpy calls (one per
    pair or scaled slot of a sum, none for a slot) costs no more than
    ``nnz`` term products (of a sum) or terms (of a slot) in Python."""
    return span + ops * _SLICE_CELLS <= _TERM_CELLS * nnz


# -- the fold: one variable per solve --------------------------------------

def _ends(xs: Sequence[Terms], axis: int) -> List[Optional[Tuple[int, int]]]:
    """The least and greatest exponent on ``axis`` of each term map."""
    values = [list(map(itemgetter(axis), x)) for x in xs]
    return [(min(v), max(v)) if v else None for v in values]


class Fold:
    """The Kronecker map u^a v^b ... w^c -> z^(a S_u + b S_v + ... + c) of
    one solve, a ring homomorphism, and its inverse on a window.

    The strides are mixed-radix over the window ``low``..``high`` of the
    axes after the first (the last axis has stride 1), so the map is
    one-to-one on the window whatever the first axis' range.  In one
    variable it is the identity; over Z it sends () to 0.
    """

    __slots__ = ("strides", "_low", "_offset", "_exps")

    def __init__(self, nvars: int, low: Exps = (), high: Exps = ()):
        widths = [hi - lo + 1 for lo, hi in zip(low, high)]
        self.strides = tuple(prod(widths[i:]) for i in range(nvars))
        self._low = tuple(low)
        self._offset = sum(map(mul, low, self.strides[1:]))
        self._exps: Dict[int, Exps] = {}  # one tuple per decoded vector

    @classmethod
    def graded(cls, nvars: int, order: int, xs: Sequence[Terms],
               times: Terms = None) -> "Fold":
        """The fold of a recurrence whose inputs x_1..x_N are ``xs``, or
        the products x_i * m with ``times`` = m (ends add).

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
        return cls(nvars, low, high)

    @classmethod
    def product(cls, nvars: int, order: int, xs: Sequence[Terms],
                ys: Sequence[Terms]) -> "Fold":
        """The fold of the product of two series with coefficients ``xs``
        and ``ys``, truncated at ``order``: per axis, the window runs from
        the least lo(x_i) + lo(y_j) to the greatest hi(x_i) + hi(y_j) over
        i + j <= N."""
        low, high = [], []
        for axis in range(1, nvars):
            ends_y = _ends(ys, axis)
            sums = [(a[0] + b[0], a[1] + b[1])
                    for i, a in enumerate(_ends(xs, axis)) if a
                    for b in ends_y[:order - i + 1] if b] or [(0, 0)]
            low.append(min(sums)[0])
            high.append(max(e[1] for e in sums))
        return cls(nvars, low, high)

    def _indices(self, terms: Terms) -> List[int]:
        """The index of every exponent vector of ``terms``, in order."""
        columns = list(zip(*terms))  # none over Z: every index is 0
        index = columns.pop() if columns else repeat(0, len(terms))
        for column, s in zip(columns, self.strides):
            index = map(add, index, map(mul, column, repeat(s)))
        return list(index)

    def slot(self, terms: Terms) -> "Slot":
        """The slot of the term map's image in z."""
        if self.strides == (1,):
            return Slot.wrap(terms)
        return Slot.wrap(dict(zip(zip(self._indices(terms)), terms.values())))

    def _vectors(self, ks: List[int]) -> List[Exps]:
        """The exponent vectors in the window with the indices ``ks``."""
        strides = self.strides
        if not strides:
            return [()] * len(ks)
        rest = np.array(ks)
        if rest.dtype == object or max(strides[0], abs(self._offset),
                                       rest.max(), -rest.min()) >= _INT64_LIMIT:
            rest = np.array(ks, dtype=object)  # Python integers, any size
        rest = rest - self._offset
        columns = []
        for s, lo in zip(strides, (0,) + self._low):
            digit = rest // s
            rest -= digit * s
            columns.append((digit + lo).tolist())
        return list(zip(*columns))

    def polynomial(self, ring: RingDescriptor,
                   x: Union["Slot", Terms]) -> Polynomial:
        """The polynomial whose image in z is the slot or term map ``x``,
        whose exponents must lie in the window."""
        is_map = isinstance(x, dict)
        if self.strides == (1,):
            return Polynomial._raw(ring, x if is_map else x.to_terms())
        ks, cs = ([k for k, in x], list(x.values())) if is_map else x.items()
        exps = self._exps
        new = list(set(ks).difference(exps))
        if new:
            exps.update(zip(new, self._vectors(new)))
        return Polynomial._raw(ring, dict(zip(map(exps.__getitem__, ks), cs)))


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
    """The pair as (sparser, denser) operand, the index of its product's
    low end, and whether to apply the sparser operand term by term: by
    the slice-add rule on int64 ``lines``, else when 3 * nnz_a <= len_a.
    """
    sa, sb = a.stats, b.stats
    if sb[0] < sa[0]:
        a, b, sa, sb = b, a, sb, sa
    lo_a, lo_b = sa[2][0], sb[2][0]
    len_a = sa[3][0] - lo_a + 1
    if not lines:
        return a, b, lo_a + lo_b, 3 * sa[0] <= len_a
    len_b = sb[3][0] - lo_b + 1
    return a, b, lo_a + lo_b, (sa[0] * (len_b + _SLICE_CELLS)
                               <= len_a * len_b + len_a + len_b + _SLICE_CELLS)


def _sum_lines(pairs, scaled, lo: int, hi: int) -> "Slot":
    """Exact sum of the pair products and scaled slots on one int64 line
    over the indices lo..hi.

    The caller's exact bound must be below 2**62, so no partial sum can
    overflow.  Each pair is either convolved or, by :func:`_by_terms`,
    applied term by term as shifted scalar multiples of its denser line.
    """
    total = np.zeros(hi - lo + 1, dtype=np.int64)
    for a, b in pairs:
        a, b, at, by_terms = _by_terms(a, b, True)
        at -= lo
        line = b.line()
        if by_terms:
            for k, c in a.spread():
                _add_line(total, at + k, line, c)
        else:
            _add_line(total, at, _conv_arrays(a.line(), line), 1)
    for k, s in scaled:
        _add_line(total, s.stats[2][0] - lo, s.line(), k)
    return Slot(arr=total, lo=lo)


# -- term-map route: dict sums -------------------------------------------

def _sum_terms(pairs, scaled) -> "Slot":
    """Exact sum of the pair products and scaled slots, term by term."""
    acc: Terms = {}
    for a, b in pairs:
        _accumulate_product(acc, a.to_terms(), b.to_terms(), 1)
    for k, s in scaled:
        _accumulate_product(acc, {(0,): k}, s.to_terms(), 1)
    return Slot(terms={e: c for e, c in acc.items() if c})


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


def _unpack(value: int, digits: int, width: int, origin: int) -> Terms:
    """Inverse of packing: signed width-bit digits back to a term map
    whose first digit is the index ``origin``.  Adding 2^(width-1) to
    every digit makes them all positive without carries, so the digits
    can be read off the bytes directly."""
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


def _packed_sum(pairs, scaled, bound: int) -> Terms:
    """Exact sum of the pair products and scaled slots on packed integers.

    ``bound`` must be the exact bound B of the sum; the digit width is
    its bit length plus a sign bit, in whole bytes.  Each pair is either
    one integer multiply or, by :func:`_by_terms`, applied term by term.
    """
    origin, top = _corners(pairs, scaled)
    width = max(_MIN_WIDTH, (bound.bit_length() + 1 + 7) // 8 * 8)
    acc = 0
    for a, b in pairs:
        a, b, at, by_terms = _by_terms(a, b, False)
        at -= origin
        if by_terms:
            packed = b.packed(width)
            for k, c in a.spread():
                if c == 1:
                    acc += packed << (width * (k + at))
                elif c == -1:
                    acc -= packed << (width * (k + at))
                else:
                    acc += (packed * c) << (width * (k + at))
        else:
            acc += (a.packed(width) * b.packed(width)) << (width * at)
    for k, s in scaled:
        acc += (s.packed(width) * k) << (width * (s.stats[2][0] - origin))
    return _unpack(acc, top - origin + 1, width, origin)


# The packed route keeps the name of the limb route it replaced, so that
# tools wrapping the exact big-value route by name (perfbench's tracer)
# still find it.
_conv_limbs = _packed_sum


def _corners(pairs, scaled) -> Tuple[int, int]:
    """Lowest and highest index of a sum of products and scaled slots."""
    ends = [(a.stats[2][0] + b.stats[2][0], a.stats[3][0] + b.stats[3][0])
            for a, b in pairs] + [(s.stats[2][0], s.stats[3][0]) for _, s in scaled]
    return min(e[0] for e in ends), max(e[1] for e in ends)


# -- slots: an int64 array when it fits, a term map when it does not -------

class Slot:
    """One polynomial in z travelling through a solver pipeline.

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

    __slots__ = ("lined", "terms", "stats", "_arr", "_packed", "_spread")

    def __init__(self, terms: Optional[Terms] = None,
                 arr: Optional[np.ndarray] = None, lo: int = 0):
        self._arr = arr
        self.lined = arr is not None
        self.terms = terms
        if arr is not None:
            nnz = int(np.count_nonzero(arr))
            top = int(max(arr.max(), -arr.min())) if nnz else 0
            self.stats = (nnz, top, (lo,), (lo + arr.shape[0] - 1,))
        elif terms:
            self.stats = (len(terms), max(map(abs, terms.values())),
                          min(terms), max(terms))
        else:
            self.stats = (0, 0, (0,), (0,))
        self._packed = None
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
        _, _, (lo,), (hi,) = self.stats
        line = np.zeros(hi - lo + 1, dtype=np.int64)
        line[[k - lo for k, in self.terms]] = list(self.terms.values())
        if self.lined:
            self._arr = line
        return line

    def packed(self, width: int) -> int:
        """The slot as one integer at this digit width (cached)."""
        p = self._packed
        if p is None or p[0] != width:
            p = self._packed = (width, _pack(self, width))
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
            return [k for k, in self.terms], list(self.terms.values())
        nz = np.flatnonzero(self.arr)
        return (nz + self.stats[2][0]).tolist(), self.arr[nz].tolist()

    def to_terms(self) -> Terms:
        """The term map (shared, not copied; read once from an array)."""
        if self.terms is None:
            ks, cs = self.items()
            self.terms = dict(zip(zip(ks), cs))
        return self.terms

    def to_polynomial(self, ring: RingDescriptor) -> Polynomial:
        """The slot as a polynomial of a ring in one variable."""
        return Polynomial._raw(ring, self.to_terms())

    def scale_exponents(self, j: int) -> "Slot":
        """The slot at z -> z^j: every exponent times j.  The spread
        values stay an array only while they are dense enough for one."""
        nnz, _, (lo,), (hi,) = self.stats
        if j == 1 or self.is_zero or lo == hi == 0:
            return self  # a constant has only the exponent 0
        if self.arr is not None and _lined(nnz, (hi - lo) * j + 1):
            out = np.zeros((hi - lo) * j + 1, dtype=np.int64)
            out[::j] = self.arr
            return Slot(arr=out, lo=lo * j)
        return Slot(terms={(k * j,): c for (k,), c in self.to_terms().items()})

    def divide_exact(self, n: int) -> "Slot":
        if n == 1 or self.is_zero:
            return self
        arr = self.arr
        if ((arr % n).any() if arr is not None
                else any(c % n for c in self.terms.values())):
            raise ArithmeticError("expected an exact division by %d" % n)
        if arr is not None:
            return Slot(arr=arr // n, lo=self.stats[2][0])
        return Slot(terms={e: c // n for e, c in self.terms.items()})


class SlotAccumulator:
    """Sum of products of slot pairs and of scaled slots, computed on one
    route when read (see the module docstring).

    ``add_pair(a, b)`` records a*b and ``add(k, s)`` records k*s; each
    only adds its share of the exact bound B and of the count of term
    products.  Scaled slots are never convolved.
    """

    def __init__(self):
        self.pairs: List[Tuple[Slot, Slot]] = []
        self.scaled: List[Tuple[int, Slot]] = []
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
        if k and not s.is_zero:
            self.bound += abs(k) * s.stats[1]
            self.products += s.stats[0]
            self.scaled.append((k, s))

    def result(self) -> Slot:
        pairs, scaled = self.pairs, self.scaled
        if not pairs and not scaled:
            return Slot.zero()
        lo, hi = _corners(pairs, scaled)
        if not _lined(self.products, hi - lo + 1, len(pairs) + len(scaled)):
            return _sum_terms(pairs, scaled)
        if self.bound < _INT64_LIMIT:
            return _sum_lines(pairs, scaled, lo, hi)
        return Slot.wrap(_packed_sum(pairs, scaled, self.bound))


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
