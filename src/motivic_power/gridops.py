"""Exact sums of polynomial products and scaled polynomials.

The series pipelines spend their time in sums such as
``sum_m g_m f_(n-m) - n f_n`` in the log-derivative recurrences and
``sum_i a_i b_(k-i)`` in series products: integer combinations of
products of two polynomials and of polynomials scaled by an integer.
Every polynomial of such a pipeline is a :class:`Slot`: in one or two
variables, a dense int64 array when all its coefficients are below 2**62
in magnitude, and a term map otherwise.  :class:`SlotAccumulator`
collects the products and scaled slots of one sum and computes the whole
sum by one of two exact routes, chosen once from the exact integer bound

    B = sum over pairs of min(nnz(a), nnz(b)) * max|a| * max|b|
      + sum over scaled slots of |k| * max|s|,

which no coefficient of the sum can exceed in magnitude:

* **int64 arrays** when every operand is an array and the sum is
  certified below 2**62: by B itself, or failing that by float64
  convolutions of absolute values, padded far beyond their own rounding
  slop, added to the exact share of the scaled slots.  x -> z^S, y -> z
  lays every array of the sum on one line, with the stride S taken from
  the exponent box of the sum, so each product is one C-level
  convolution and each scaled slot one scaled line, added into one line.
* **packed integers** otherwise (Kronecker substitution): the same
  x -> z^S, y -> z followed by z -> 2^W turns each polynomial into one
  Python integer.  The digit width W comes from B plus a sign bit, an
  exact integer.  The products of all pairs and the scaled slots are
  added as integers and the sum is unpacked once.  An operand with few
  terms (a Frobenius-spread g_m, say) is applied as shifted scalar
  multiples of the other operand instead of a full multiply.

The line layout covers at most two variables.  A slot in no variables
is always a term map ``{(): c}``, and sums of such constants are plain
Python integer sums.  A slot in three or more variables is always a term
map too, and their sums are dict sums of term-by-term products.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .rings import Polynomial, RingDescriptor, _accumulate_product

# Certified values stay below 2**62.  The float bounds compared against
# this are deliberate over-estimates padded by (1 + 1e-9), which dwarfs
# the float64 rounding slop of the estimates themselves, so the
# remaining 2x headroom to the int64 ceiling is genuine.
_LIMIT = float(2 ** 62)
_LIMIT_INT = 2 ** 62

# A packed digit holds at least one int64 (arrays pack eight bytes at a time).
_MIN_WIDTH = 64

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


# -- int64 route: certified convolutions -----------------------------------

def _conv_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two int64 lines; the caller has certified its values."""
    return np.convolve(a, b)


def _abs_bound_max(a: np.ndarray, b: np.ndarray) -> float:
    """Float64 upper bound on the largest sum of |products| in a*b."""
    worst = float(np.convolve(np.abs(a).astype(np.float64),
                              np.abs(b).astype(np.float64)).max())
    return worst * (1.0 + 1e-9) + 1.0


def _float_certified(lines, share: int) -> bool:
    """Do ``share``, the exact bound of the scaled slots, and the float64
    bounds of all line pairs sum below the int64 limit?

    The exact bound works from maxima alone; this one convolves the
    absolute values, so it also certifies sums whose large coefficients
    never meet.  It gives up as soon as the running total fails.
    """
    total = float(share) * (1.0 + 1e-9)
    for _, a, b in lines:
        if total >= _LIMIT:
            return False
        total += _abs_bound_max(a, b)
    return total < _LIMIT


def _sum_lines(lo: Exps, hi: Exps, stride: int, placed) -> "Slot":
    """Array slot over the box lo..hi of a sum of int64 lines.

    ``placed`` yields (digit index of the line's first value, line) at
    ``stride``, so each line can be computed just before it is added.
    """
    base = _lin(lo, stride)
    total = np.zeros(_lin(hi, stride) - base + 1, dtype=np.int64)
    for at, line in placed:
        at -= base
        total[at:at + line.shape[0]] += line
    return Slot.dense(lo, total.reshape(-1, stride) if len(lo) == 2 else total)


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
    its bit length plus a sign bit, in whole bytes.  A pair whose sparser
    operand fills at most a third of its packed span is applied term by
    term; any other pair is one integer multiply.
    """
    origin, top = _corners(pairs, scaled, nvars)
    stride = _stride(origin, top)
    width = max(_MIN_WIDTH, (bound.bit_length() + 1 + 7) // 8 * 8)
    base = _lin(origin, stride)
    acc = 0
    for a, b in pairs:
        sa, sb = a.stats, b.stats
        if sb[0] < sa[0]:
            a, b, sa, sb = b, a, sb, sa
        lo_a, lo_b = _lin(sa[2], stride), _lin(sb[2], stride)
        if 3 * sa[0] <= _lin(sa[3], stride) - lo_a + 1:
            packed = b.packed(width, stride)
            at = lo_b - base
            for k, c in a.spread(stride):
                if c == 1:
                    acc += packed << (width * (k + at))
                elif c == -1:
                    acc -= packed << (width * (k + at))
                else:
                    acc += (packed * c) << (width * (k + at))
        else:
            acc += (a.packed(width, stride) * b.packed(width, stride)) \
                << (width * (lo_a + lo_b - base))
    for k, s in scaled:
        acc += (s.packed(width, stride) * k) \
            << (width * (_lin(s.stats[2], stride) - base))
    return _unpack(acc, _lin(top, stride) - base + 1, width, origin, stride)


# The packed route keeps the name of the limb route it replaced, so that
# tools wrapping the exact big-value route by name (perfbench's tracer)
# still find it.
_conv_limbs = _packed_sum


# -- slots: an int64 array when it fits, a term map when it does not -------

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
            self.stats = (nnz, int(np.abs(arr).max()) if nnz else 0, lo,
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
            if c >= _LIMIT_INT or -c >= _LIMIT_INT:
                return cls(nvars, terms=dict(terms))
        lo, hi = _hull(list(terms), nvars)
        arr = np.zeros(tuple(h - o + 1 for o, h in zip(lo, hi)), dtype=np.int64)
        if nvars == 1:
            for (e0,), c in terms.items():
                arr[e0 - lo[0]] = c
        else:
            for (e0, e1), c in terms.items():
                arr[e0 - lo[0], e1 - lo[1]] = c
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
        """(digit index, coefficient) of every term at this stride (cached)."""
        s = self._spread
        if s is None or s[0] != stride:
            s = self._spread = (stride, [(_lin(e, stride), c)
                                         for e, c in self.to_terms().items()])
        return s[1]

    def to_terms(self) -> Terms:
        """The term map (shared, not copied, for a term-map slot)."""
        if self.terms is not None:
            return self.terms
        arr, lo = self.arr, self.stats[2]
        nz = np.nonzero(arr)
        values = arr[nz].tolist()
        if self.nvars == 1:
            keys = ((e,) for e in (nz[0] + lo[0]).tolist())
        else:
            keys = zip((nz[0] + lo[0]).tolist(), (nz[1] + lo[1]).tolist())
        return dict(zip(keys, values))

    def to_polynomial(self, ring: RingDescriptor) -> Polynomial:
        if self.arr is not None:
            return Polynomial._raw(ring, self.to_terms())
        return Polynomial._raw(ring, dict(self.terms))

    def scale_exponents(self, j: int) -> "Slot":
        if j == 1 or self.is_zero or self.nvars == 0:
            return self
        if self.arr is not None:
            arr = self.arr
            if self.nvars == 1:
                out = np.zeros((arr.shape[0] - 1) * j + 1, dtype=np.int64)
                out[::j] = arr
            else:
                r, c = arr.shape
                out = np.zeros(((r - 1) * j + 1, (c - 1) * j + 1),
                               dtype=np.int64)
                out[::j, ::j] = arr
            return Slot.dense(tuple(o * j for o in self.stats[2]), out)
        return Slot(self.nvars, terms={
            tuple(e * j for e in exps): c for exps, c in self.terms.items()
        })

    def divide_exact(self, n: int) -> "Slot":
        if n == 1 or self.is_zero:
            return self
        if self.arr is not None:
            q, r = np.divmod(self.arr, n)
            if r.any():
                raise ArithmeticError("expected an exact division by %d" % n)
            return Slot.dense(self.stats[2], q)
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
    only adds its share of the exact bound.  ``result`` runs the whole
    sum on int64 arrays when it is certified there, and on packed
    integers otherwise; scaled slots are added as scaled lines or
    integers and never convolved.  Constants (no variables) are summed
    as Python integers, which is exact at any size and skips the
    per-pair packing work; term maps in three or more variables are
    summed term by term into one dict.
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
        if nvars == 0:
            # recorded slots are nonzero, so each holds its constant term
            total = (sum(a.terms[()] * b.terms[()] for a, b in pairs)
                     + sum(k * s.terms[()] for k, s in scaled))
            return Slot(0, terms={(): total} if total else {})
        if nvars > 2:
            acc: Terms = {}
            for a, b in pairs:
                _accumulate_product(acc, a.terms, b.terms, nvars)
            for k, s in scaled:
                _accumulate_product(acc, {(0,) * nvars: k}, s.terms, nvars)
            return Slot(nvars, terms={e: c for e, c in acc.items() if c})
        if (all(a.arr is not None and b.arr is not None for a, b in pairs)
                and all(s.arr is not None for _, s in scaled)):
            lo, hi = _corners(pairs, scaled, nvars)
            stride = _stride(lo, hi)
            lines = [(_lin(a.stats[2], stride) + _lin(b.stats[2], stride),
                      _line(a, stride), _line(b, stride))
                     for a, b in pairs]
            if self.bound < _LIMIT_INT or _float_certified(
                    lines, sum(abs(k) * s.stats[1] for k, s in scaled)):
                return _sum_lines(lo, hi, stride, chain(
                    ((at, _conv_arrays(x, y)) for at, x, y in lines),
                    ((_lin(s.stats[2], stride), _line(s, stride) * k)
                     for k, s in scaled)))
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
