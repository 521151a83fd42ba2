"""Exact sums of polynomial products and scaled polynomials.

The series pipelines spend their time in sums such as
``sum_m g_m f_(n-m) - n f_n`` in the log-derivative recurrences and
``sum_i a_i b_(k-i)`` in series products: integer combinations of
products of two polynomials and of polynomials scaled by an integer.
Every polynomial of such a pipeline is a :class:`Slot`: in one or two
variables, a dense int64 array when all its coefficients are below 2**62
in magnitude, and a term map otherwise.  :class:`SlotAccumulator`
collects the products and scaled slots of one sum and computes the whole
sum on one of three exact routes, chosen from two exact facts, the
number of variables and the integer bound

    B = sum over pairs of min(nnz(a), nnz(b)) * max|a| * max|b|
      + sum over scaled slots of |k| * max|s|,

which no coefficient of the sum can exceed in magnitude:

* **term maps** in no variables or in three or more: dict sums of
  term-by-term products.
* **int64 lines** when every operand is an array and B < 2**62.
  x -> z^S, y -> z lays every array of the sum on one line, with the
  stride S taken from the exponent box of the sum, and everything is
  added into one line.  Each scaled slot is one scaled line.  A pair
  whose sparser operand a has nnz_a terms over len_a cells of line (len
  counted at S) is applied term by term, as nnz_a shifted scalar
  multiples of the other operand's line, when

      nnz_a * (len_b + C) <= len_a * len_b + (len_a + len_b + C),

  the slice-adds against one C-level convolution and the slice-add of
  its product; any other pair is convolved.  C = ``_SLICE_CELLS`` is the
  cost of one numpy slice-add before its first element, counted in
  convolution cells.
* **packed integers** otherwise (Kronecker substitution): the same
  x -> z^S, y -> z followed by z -> 2^W turns each polynomial into one
  Python integer.  The digit width W comes from B plus a sign bit.  The
  products of all pairs and the scaled slots are added as integers and
  the sum is unpacked once.  A pair whose sparser operand fills at most
  a third of its packed span is applied as shifted scalar multiples of
  the other operand instead of a full multiply.

Both routes thus apply an operand with few terms (a Frobenius-spread
g_m = sum i b_i(u^(m/i)), say) term by term; :func:`_by_terms` holds
both rules.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

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

Exps = Tuple[int, ...]
Terms = Dict[Exps, int]


def _hull(exps: Sequence[Exps], nvars: int) -> Tuple[Exps, Exps]:
    return (tuple(min(e[i] for e in exps) for i in range(nvars)),
            tuple(max(e[i] for e in exps) for i in range(nvars)))


# -- lines: x -> z^stride, y -> z, shared by both routes ------------------
#
# With the stride taken from the exponent box of the whole sum, every
# product and the sum itself become one-variable and collision-free.

def _lin(exps: Exps, stride: int) -> int:
    """Digit index of an exponent vector under x -> z^stride, y -> z."""
    if len(exps) == 2:
        return exps[0] * stride + exps[1]
    return exps[0]


def _flatten(arr: np.ndarray, stride: int) -> np.ndarray:
    rows, cols = arr.shape
    if cols == stride:
        return arr.reshape(-1)
    flat = np.zeros(rows * stride, dtype=arr.dtype)
    flat.reshape(rows, stride)[:, :cols] = arr
    return flat[: (rows - 1) * stride + cols]


def _line(slot: "Slot", stride: int) -> np.ndarray:
    """The array slot's values in digit order at this stride."""
    arr = slot.arr
    return _flatten(arr, stride) if arr.ndim == 2 else arr


def _stride(lo: Exps, hi: Exps) -> int:
    """Smallest collision-free stride for exponents in the box lo..hi."""
    return hi[1] - lo[1] + 1 if len(lo) == 2 else 0


def _by_terms(a: "Slot", b: "Slot", stride: int, lines: bool):
    """The pair as (sparser, denser) operand, the digit index of its
    product's low corner, and whether to apply the sparser operand term
    by term.

    With ``len`` the cells an operand spans at ``stride``: on int64
    ``lines`` when nnz_a slice-adds of len_b cells cost no more than the
    convolution's len_a * len_b cells plus the one slice-add of its
    product; on packed integers when the sparser operand fills at most a
    third of its span (3 * nnz_a <= len_a).
    """
    sa, sb = a.stats, b.stats
    if sb[0] < sa[0]:
        a, b, sa, sb = b, a, sb, sa
    lo_a, lo_b = _lin(sa[2], stride), _lin(sb[2], stride)
    len_a = _lin(sa[3], stride) - lo_a + 1
    if not lines:
        return a, b, lo_a + lo_b, 3 * sa[0] <= len_a
    len_b = _lin(sb[3], stride) - lo_b + 1
    return a, b, lo_a + lo_b, (sa[0] * (len_b + _SLICE_CELLS)
                               <= len_a * len_b + len_a + len_b + _SLICE_CELLS)


def _corners(pairs, scaled, nvars: int) -> Tuple[Exps, Exps]:
    """Low and high corners bounding the exponents of a sum of products
    and scaled slots (each scaled slot counts as a product with 1)."""
    stats = [(a.stats, b.stats) for a, b in pairs]
    if scaled:
        one = (1, 1, (0,) * nvars, (0,) * nvars)
        stats += [(s.stats, one) for _, s in scaled]
    return (tuple(min(sa[2][i] + sb[2][i] for sa, sb in stats)
                  for i in range(nvars)),
            tuple(max(sa[3][i] + sb[3][i] for sa, sb in stats)
                  for i in range(nvars)))


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


def _sum_lines(pairs, scaled, nvars: int) -> "Slot":
    """Exact sum of the pair products and scaled slots on one int64 line.

    The caller's exact bound must be below 2**62, so no partial sum can
    overflow.  Each pair is either convolved or, by :func:`_by_terms`,
    applied term by term as shifted scalar multiples of its denser line.
    """
    lo, hi = _corners(pairs, scaled, nvars)
    stride = _stride(lo, hi)
    base = _lin(lo, stride)
    total = np.zeros(_lin(hi, stride) - base + 1, dtype=np.int64)
    for a, b in pairs:
        a, b, at, by_terms = _by_terms(a, b, stride, True)
        at -= base
        line = _line(b, stride)
        if by_terms:
            for k, c in a.spread(stride):
                _add_line(total, at + k, line, c)
        else:
            _add_line(total, at, _conv_arrays(_line(a, stride), line), 1)
    for k, s in scaled:
        _add_line(total, _lin(s.stats[2], stride) - base, _line(s, stride), k)
    return Slot.dense(lo, total.reshape(-1, stride) if nvars == 2 else total)


# -- packed route: Kronecker substitution into Python integers -------------

def _pack(slot: "Slot", width: int, stride: int) -> int:
    """The slot as sum c * 2^(width * (lin(e) - lin(lo))), signed digits."""
    w = width >> 3
    if slot.arr is not None:
        flat = _line(slot, stride)
        buf = np.zeros((flat.shape[0], w), dtype=np.uint8)
        buf[:, :8] = np.maximum(flat, 0).astype("<u8").view(np.uint8) \
            .reshape(-1, 8)
        pos = int.from_bytes(buf.tobytes(), "little")
        buf[:, :8] = np.maximum(-flat, 0).astype("<u8").view(np.uint8) \
            .reshape(-1, 8)
        return pos - int.from_bytes(buf.tobytes(), "little")
    _, _, lo, hi = slot.stats
    base = _lin(lo, stride)
    size = (_lin(hi, stride) - base + 1) * w
    pos = bytearray(size)
    neg = bytearray(size)
    for e, c in slot.terms.items():
        k = (_lin(e, stride) - base) * w
        if c > 0:
            pos[k:k + w] = c.to_bytes(w, "little")
        else:
            neg[k:k + w] = (-c).to_bytes(w, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _unpack(value: int, digits: int, width: int, origin: Exps,
            stride: int) -> Terms:
    """Inverse of packing: signed width-bit digits back to a term map.

    Adding 2^(width-1) to every digit makes them all positive without
    carries (each digit is below 2^(width-1) in magnitude), so the
    digits can be read off the bytes directly.
    """
    w = width >> 3
    half = 1 << (width - 1)
    biased = value + int.from_bytes(half.to_bytes(w, "little") * digits,
                                    "little")
    data = biased.to_bytes(digits * w, "little")
    rows = np.frombuffer(data, dtype=np.uint8).reshape(digits, w)
    nonzero = np.flatnonzero((rows[:, -1] != 0x80)
                             | rows[:, :-1].any(axis=1)).tolist()
    from_bytes = int.from_bytes
    if len(origin) == 2:
        o0, o1 = origin
        return {(o0 + k // stride, o1 + k % stride):
                from_bytes(data[k * w:(k + 1) * w], "little") - half
                for k in nonzero}
    o0 = origin[0]
    return {(o0 + k,): from_bytes(data[k * w:(k + 1) * w], "little") - half
            for k in nonzero}


def _packed_sum(pairs, scaled, nvars: int, bound: int) -> Terms:
    """Exact sum of the pair products and scaled slots on packed integers.

    ``bound`` must be the exact bound B of the sum; the digit width is
    its bit length plus a sign bit, in whole bytes.  Each pair is either
    one integer multiply or, by :func:`_by_terms`, applied term by term.
    """
    origin, top = _corners(pairs, scaled, nvars)
    stride = _stride(origin, top)
    width = max(_MIN_WIDTH, (bound.bit_length() + 1 + 7) // 8 * 8)
    base = _lin(origin, stride)
    acc = 0
    for a, b in pairs:
        a, b, at, by_terms = _by_terms(a, b, stride, False)
        at -= base
        if by_terms:
            packed = b.packed(width, stride)
            for k, c in a.spread(stride):
                if c == 1:
                    acc += packed << (width * (k + at))
                elif c == -1:
                    acc -= packed << (width * (k + at))
                else:
                    acc += (packed * c) << (width * (k + at))
        else:
            acc += (a.packed(width, stride) * b.packed(width, stride)) \
                << (width * at)
    for k, s in scaled:
        acc += (s.packed(width, stride) * k) \
            << (width * (_lin(s.stats[2], stride) - base))
    return _unpack(acc, _lin(top, stride) - base + 1, width, origin, stride)


# The packed route keeps the name of the limb route it replaced, so that
# tools wrapping the exact big-value route by name (perfbench's tracer)
# still find it.
_conv_limbs = _packed_sum


# -- slots: an int64 array when it fits, a term map when it does not -------

# (low corner, width, one exponent tuple per cell of a box in row-major order)
ExponentTable = Tuple[Exps, int, List[Exps]]


def exponent_table(slots: Sequence["Slot"]) -> Optional[ExponentTable]:
    """One exponent tuple per cell of the union box of two-variable slots,
    or None when the slots hold fewer terms than the box has cells, so a
    table never holds more tuples than the polynomials would."""
    live = [s.stats for s in slots if not s.is_zero]
    if not live:
        return None
    lo = tuple(min(st[2][i] for st in live) for i in (0, 1))
    hi = tuple(max(st[3][i] for st in live) for i in (0, 1))
    width = hi[1] - lo[1] + 1
    if sum(st[0] for st in live) < (hi[0] - lo[0] + 1) * width:
        return None
    return lo, width, list(product(range(lo[0], hi[0] + 1),
                                   range(lo[1], hi[1] + 1)))


class Slot:
    """One polynomial travelling through a solver pipeline.

    Exactly one of ``arr`` and ``terms`` is set.  ``arr`` is a dense
    int64 array, every value below 2**62 in magnitude, indexed by
    exponent minus the low corner (zeros allowed).  ``terms`` is a term
    map of any magnitude; a slot in no variables, or in more than two, is
    always one.  ``stats`` is (nnz, max |coefficient|, low corner, high
    corner), where the corners bound the exponents: the array's box, or
    the term map's exact hull.
    """

    __slots__ = ("nvars", "arr", "terms", "stats", "_packed", "_spread")

    def __init__(self, nvars: int, terms: Optional[Terms] = None,
                 arr: Optional[np.ndarray] = None, lo: Exps = ()):
        self.nvars = nvars
        self.arr = arr
        self.terms = terms
        if arr is not None:
            nnz = int(np.count_nonzero(arr))
            top = int(max(arr.max(), -arr.min())) if nnz else 0
            self.stats = (nnz, top, lo,
                          tuple(o + n - 1 for o, n in zip(lo, arr.shape)))
        elif terms:
            self.stats = (len(terms), max(abs(c) for c in terms.values()),
                          *(_hull(list(terms), nvars) if nvars else ((), ())))
        else:
            self.stats = (0, 0, (0,) * nvars, (0,) * nvars)
        self._packed = None
        self._spread = None

    @classmethod
    def dense(cls, lo: Exps, arr: np.ndarray) -> "Slot":
        """Array slot whose index 0 holds the exponent ``lo``."""
        return cls(len(lo), arr=arr, lo=lo)

    @classmethod
    def wrap(cls, terms: Terms, nvars: int) -> "Slot":
        """An int64 array when there are one or two variables and every
        coefficient is below 2**62, else a term map."""
        if not terms or not 0 < nvars <= 2:
            return cls(nvars, terms=dict(terms))
        for c in terms.values():
            if c >= _INT64_LIMIT or -c >= _INT64_LIMIT:
                return cls(nvars, terms=dict(terms))
        axes = list(zip(*terms))
        lo = tuple(map(min, axes))
        arr = np.zeros(tuple(max(x) - o + 1 for x, o in zip(axes, lo)),
                       dtype=np.int64)
        arr[tuple(np.subtract(x, o) for x, o in zip(axes, lo))] = \
            list(terms.values())
        return cls.dense(lo, arr)

    @classmethod
    def zero(cls, nvars: int) -> "Slot":
        return cls(nvars, terms={})

    @classmethod
    def one(cls, nvars: int) -> "Slot":
        return cls.wrap({(0,) * nvars: 1}, nvars)

    @property
    def is_zero(self) -> bool:
        return self.stats[0] == 0

    def packed(self, width: int, stride: int) -> int:
        """The slot as one integer at this digit width and stride (cached)."""
        p = self._packed
        if p is None or p[0] != width or p[1] != stride:
            p = self._packed = (width, stride, _pack(self, width, stride))
        return p[2]

    def spread(self, stride: int) -> List[Tuple[int, int]]:
        """(digit index past the low corner, coefficient) of every term at
        this stride (cached)."""
        s = self._spread
        if s is None or s[0] != stride:
            if self.arr is not None:
                arr = self.arr
                nz = np.flatnonzero(arr)
                values = arr.ravel()[nz].tolist()
                if arr.ndim == 2:  # row-major index -> index on the line
                    rows, cols = np.divmod(nz, arr.shape[1])
                    nz = rows * stride + cols
                terms = list(zip(nz.tolist(), values))
            else:
                base = _lin(self.stats[2], stride)
                terms = [(_lin(e, stride) - base, c)
                         for e, c in self.terms.items()]
            s = self._spread = (stride, terms)
        return s[1]

    def to_terms(self) -> Terms:
        """The term map (shared, not copied, for a term-map slot)."""
        if self.terms is not None:
            return self.terms
        arr, lo = self.arr, self.stats[2]
        nz = np.nonzero(arr)
        keys = zip(*[(x + o).tolist() for x, o in zip(nz, lo)])
        return dict(zip(keys, arr[nz].tolist()))

    def to_polynomial(self, ring: RingDescriptor,
                      table: Optional[ExponentTable] = None) -> Polynomial:
        """The slot as a polynomial; with a ``table`` (two variables only),
        its exponent tuples are the table's."""
        if table is not None:
            (o0, o1), width, keys = table
            if self.arr is not None:
                arr = self.arr
                rows, cols = np.nonzero(arr)
                values = arr[rows, cols].tolist()
                r0, c0 = self.stats[2]
                cells = ((rows + (r0 - o0)) * width
                         + (cols + (c0 - o1))).tolist()
            else:
                values = list(self.terms.values())
                cells = [(e0 - o0) * width + e1 - o1 for e0, e1 in self.terms]
            return Polynomial._raw(ring, dict(zip(map(keys.__getitem__, cells),
                                                  values)))
        if self.arr is not None:
            return Polynomial._raw(ring, self.to_terms())
        return Polynomial._raw(ring, dict(self.terms))

    def scale_exponents(self, j: int) -> "Slot":
        """The slot at u -> u^j: every exponent vector times j."""
        _, _, lo, hi = self.stats
        if j == 1 or self.is_zero or not any(lo + hi):
            return self  # a constant has only the exponent 0
        if self.arr is not None:
            arr = self.arr
            out = np.zeros(tuple((n - 1) * j + 1 for n in arr.shape),
                           dtype=np.int64)
            out[(slice(None, None, j),) * arr.ndim] = arr
            return Slot.dense(tuple(o * j for o in lo), out)
        return Slot(self.nvars, terms={
            tuple(e * j for e in exps): c for exps, c in self.terms.items()
        })

    def divide_exact(self, n: int) -> "Slot":
        if n == 1 or self.is_zero:
            return self
        if self.arr is not None:
            if (self.arr % n).any():
                raise ArithmeticError("expected an exact division by %d" % n)
            return Slot.dense(self.stats[2], self.arr // n)
        out = {}
        for e, c in self.terms.items():
            q, r = divmod(c, n)
            if r:
                raise ArithmeticError("expected an exact division by %d" % n)
            out[e] = q
        return Slot(self.nvars, terms=out)


class SlotAccumulator:
    """Sum of products of slot pairs and of scaled slots, computed on one
    route when read.

    ``add_pair(a, b)`` records a*b and ``add(k, s)`` records k*s; each
    only adds its share of the exact bound B.  ``result`` sums term maps
    (no variables, or three or more) term by term into one dict, runs
    the whole sum on int64 lines when every operand is an array and
    B < 2**62, and on packed integers otherwise.  Scaled slots are added
    as scaled lines, shifted integers or scaled terms, never convolved.
    """

    def __init__(self, nvars: int):
        self.nvars = nvars
        self.pairs: List[Tuple[Slot, Slot]] = []
        self.scaled: List[Tuple[int, Slot]] = []
        self.bound = 0

    def add_pair(self, a: Slot, b: Slot):
        if a.is_zero or b.is_zero:
            return
        na, ma, _, _ = a.stats
        nb, mb, _, _ = b.stats
        self.bound += (na if na < nb else nb) * ma * mb
        self.pairs.append((a, b))

    def add(self, k: int, s: Slot):
        if k and not s.is_zero:
            self.bound += abs(k) * s.stats[1]
            self.scaled.append((k, s))

    def result(self) -> Slot:
        pairs, scaled, nvars = self.pairs, self.scaled, self.nvars
        if not pairs and not scaled:
            return Slot.zero(nvars)
        if not 0 < nvars <= 2:
            acc: Terms = {}
            for a, b in pairs:
                _accumulate_product(acc, a.terms, b.terms, nvars)
            for k, s in scaled:
                _accumulate_product(acc, {(0,) * nvars: k}, s.terms, nvars)
            return Slot(nvars, terms={e: c for e, c in acc.items() if c})
        if (self.bound < _INT64_LIMIT
                and all(a.arr is not None and b.arr is not None
                        for a, b in pairs)
                and all(s.arr is not None for _, s in scaled)):
            return _sum_lines(pairs, scaled, nvars)
        return Slot.wrap(_packed_sum(pairs, scaled, nvars, self.bound), nvars)


def slot_product(a: Slot, b: Slot, nvars: int) -> Slot:
    acc = SlotAccumulator(nvars)
    acc.add_pair(a, b)
    return acc.result()


def slot_linear(pieces: List[Tuple[int, Slot]], nvars: int) -> Slot:
    """Integer linear combination sum k*s of slots, on the accumulator."""
    acc = SlotAccumulator(nvars)
    for k, s in pieces:
        acc.add(k, s)
    return acc.result()
