"""Exact sums of polynomial products in at most two variables.

The series pipelines spend their time in sums of polynomial products:
``sum_m g_m f_(n-m)`` in the log-derivative recurrences and
``sum_i a_i b_(k-i)`` in series products.  :class:`SlotAccumulator`
collects the pairs of one such sum and computes the whole sum by one of
two exact routes, chosen once from the exact integer bound

    B = sum over pairs of min(nnz(a), nnz(b)) * max|a| * max|b|,

which no coefficient of the sum can exceed in magnitude:

* **int64 grids** when the sum is certified below 2**62: by B itself,
  or failing that by float64 convolutions of absolute values, padded
  far beyond their own rounding slop.  Each polynomial is a small dense
  numpy array.  x -> z^S, y -> z lays every array of the sum on one
  line, with the stride S taken from the exponent box of the sum, so
  each product is one C-level convolution added into one line.
* **packed integers** otherwise (Kronecker substitution): the same
  x -> z^S, y -> z followed by z -> 2^W turns each polynomial into one
  Python integer.  The digit width W comes from B plus a sign bit, an
  exact integer.  The products of all pairs are added as integers and
  the sum is unpacked once.  An operand with few terms (a
  Frobenius-spread g_m, say) is applied as shifted scalar multiples of
  the other operand instead of a full multiply.

Sums of constants (no variables) are plain Python integer sums.
Anything else (more than two variables) raises :class:`NeedExact` and
the caller reruns on the plain dict path.

A :class:`Slot` is one polynomial travelling through a pipeline: a grid
when its coefficients fit int64, a term map when they do not, plus its
packed integer for the last digit width and stride it was packed at.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .rings import Polynomial, RingDescriptor

# Certified values stay below 2**62.  The float bounds compared against
# this are deliberate over-estimates padded by (1 + 1e-9), which dwarfs
# the float64 rounding slop of the estimates themselves, so the
# remaining 2x headroom to the int64 ceiling is genuine.
_LIMIT = float(2 ** 62)
_LIMIT_INT = 2 ** 62

# A packed digit holds at least one int64 (grids pack eight bytes at a time).
_MIN_WIDTH = 64


class NeedExact(Exception):
    """Raised when the fast arithmetic is unavailable; callers rerun the
    whole operation on the exact dict representation."""


Exps = Tuple[int, ...]
Terms = Dict[Exps, int]


class Grid:
    """A polynomial in <= 2 variables as a dense int64 array plus offsets.

    ``offsets[i]`` is the exponent of variable i at array index 0
    (negative for Laurent polynomials) and ``top[i]`` the exponent at
    the last index.  Zero variables are stored as a one-cell array.
    Every stored value is certified below 2**62.
    """

    __slots__ = ("offsets", "top", "arr", "nnz", "amax")

    def __init__(self, offsets: Tuple[int, ...], arr: np.ndarray):
        self.offsets = offsets
        self.top = tuple(o + n - 1 for o, n in zip(offsets, arr.shape))
        self.arr = arr
        self.nnz = int(np.count_nonzero(arr))
        self.amax = int(np.abs(arr).max()) if self.nnz else 0

    @property
    def is_zero(self) -> bool:
        return self.nnz == 0


def _zero_grid(nvars: int) -> Grid:
    return Grid((0,) * nvars, np.zeros((1,) * max(nvars, 1), dtype=np.int64))


def unit_grid(nvars: int) -> Grid:
    return Grid((0,) * nvars,
                np.array([1], dtype=np.int64).reshape((1,) * max(nvars, 1)))


def _bounding_box(exps: Sequence[Exps], nvars: int):
    mins = tuple(min(e[i] for e in exps) for i in range(nvars))
    maxs = tuple(max(e[i] for e in exps) for i in range(nvars))
    shape = tuple(maxs[i] - mins[i] + 1 for i in range(nvars))
    return mins, shape


def grid_from_terms(terms: Terms, nvars: int) -> Grid:
    """Build a grid; raises NeedExact on values beyond the certified range."""
    if nvars > 2:
        raise NeedExact("grids support at most two variables")
    if not terms:
        return _zero_grid(nvars)
    for c in terms.values():
        if c >= _LIMIT_INT or -c >= _LIMIT_INT:
            raise NeedExact("coefficient exceeds the certified int64 range")
    if nvars == 0:
        return Grid((), np.array([terms[()]], dtype=np.int64))
    mins, shape = _bounding_box(list(terms), nvars)
    arr = np.zeros(shape, dtype=np.int64)
    if nvars == 1:
        for (e0,), c in terms.items():
            arr[e0 - mins[0]] = c
    else:
        for (e0, e1), c in terms.items():
            arr[e0 - mins[0], e1 - mins[1]] = c
    return Grid(mins, arr)


def from_polynomial(p: Polynomial) -> Grid:
    return grid_from_terms(p._terms, p.ring.nvars)


def grid_terms(g: Grid, nvars: int) -> Terms:
    if nvars == 0:
        c = int(g.arr[0])
        return {(): c} if c else {}
    nz = np.nonzero(g.arr)
    values = g.arr[nz].tolist()
    if nvars == 1:
        keys = ((e,) for e in (nz[0] + g.offsets[0]).tolist())
    else:
        keys = zip((nz[0] + g.offsets[0]).tolist(),
                   (nz[1] + g.offsets[1]).tolist())
    return dict(zip(keys, values))


def to_polynomial(g: Grid, ring: RingDescriptor) -> Polynomial:
    return Polynomial._raw(ring, grid_terms(g, ring.nvars))


# -- lines: x -> z^stride, y -> z, shared by both routes ------------------
#
# With the stride taken from the exponent box of the whole sum, every
# product and the sum itself become one-variable and collision-free.

def _lin(exps: Exps, stride: int) -> int:
    """Digit index of an exponent vector under x -> z^stride, y -> z."""
    if len(exps) == 2:
        return exps[0] * stride + exps[1]
    return exps[0] if exps else 0


def _flatten(arr: np.ndarray, stride: int) -> np.ndarray:
    rows, cols = arr.shape
    flat = np.zeros(rows * stride, dtype=arr.dtype)
    flat.reshape(rows, stride)[:, :cols] = arr
    return flat[: (rows - 1) * stride + cols]


def _line(g: Grid, stride: int) -> np.ndarray:
    """The grid's values in digit order at this stride."""
    return _flatten(g.arr, stride) if g.arr.ndim == 2 else g.arr


def _stride(lo: Exps, hi: Exps) -> int:
    """Smallest collision-free stride for exponents in the box lo..hi."""
    return hi[1] - lo[1] + 1 if len(lo) == 2 else 0


def _corners(pairs, nvars: int) -> Tuple[Exps, Exps]:
    """Low and high corners bounding the exponents of a sum of products."""
    stats = [(a.stats, b.stats) for a, b in pairs]
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


def _float_certified(lines) -> bool:
    """Do the float64 bounds of all line pairs sum below the int64 limit?

    The exact bound works from maxima alone; this one convolves the
    absolute values, so it also certifies sums whose large coefficients
    never meet.  It gives up as soon as the running total fails.
    """
    total = 0.0
    for _, a, b in lines:
        total += _abs_bound_max(a, b)
        if total >= _LIMIT:
            return False
    return True


def _sum_lines(lo: Exps, hi: Exps, stride: int, placed) -> Grid:
    """Grid over the box lo..hi of a sum of int64 lines.

    ``placed`` yields (digit index of the line's first value, line) at
    ``stride``, so each line can be computed just before it is added.
    """
    base = _lin(lo, stride)
    total = np.zeros(_lin(hi, stride) - base + 1, dtype=np.int64)
    for at, line in placed:
        at -= base
        total[at:at + line.shape[0]] += line
    return Grid(lo, total.reshape(-1, stride) if len(lo) == 2 else total)


# -- packed route: Kronecker substitution into Python integers -------------

def _pack(slot: "Slot", width: int, stride: int) -> int:
    """The slot as sum c * 2^(width * (lin(e) - lin(lo))), signed digits."""
    w = width >> 3
    if slot.grid is not None:
        flat = _line(slot.grid, stride)
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
    nvars = len(origin)
    if nvars == 2:
        o0, o1 = origin
        return {(o0 + k // stride, o1 + k % stride):
                from_bytes(data[k * w:(k + 1) * w], "little") - half
                for k in nonzero}
    if nvars == 1:
        o0 = origin[0]
        return {(o0 + k,): from_bytes(data[k * w:(k + 1) * w], "little") - half
                for k in nonzero}
    return {(): from_bytes(data, "little") - half} if nonzero else {}


def _packed_sum(pairs, nvars: int, bound: int) -> Terms:
    """Exact sum of the pair products on packed integers.

    ``bound`` must be the exact bound B of the pairs; the digit width is
    its bit length plus a sign bit, in whole bytes.  A pair whose sparser
    operand fills at most a third of its packed span is applied term by
    term; any other pair is one integer multiply.
    """
    origin, top = _corners(pairs, nvars)
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
    return _unpack(acc, _lin(top, stride) - base + 1, width, origin, stride)


# The packed route keeps the name of the limb route it replaced, so that
# tools wrapping the exact big-value route by name (perfbench's tracer)
# still find it.
_conv_limbs = _packed_sum


def exact_conv_terms(a: Grid, b: Grid, nvars: int) -> Terms:
    """Exact convolution of two int64 grids, output of any magnitude."""
    if a.is_zero or b.is_zero:
        return {}
    return _packed_sum([(Slot(nvars, grid=a), Slot(nvars, grid=b))], nvars,
                       min(a.nnz, b.nnz) * a.amax * b.amax)


# -- slots: grid when it fits, terms when it does not --------------------

class Slot:
    """One polynomial travelling through a solver pipeline.

    ``stats`` is (nnz, max |coefficient|, low corner, high corner), where
    the corners bound the exponents: the grid's box, or the term map's
    exact hull.
    """

    __slots__ = ("nvars", "grid", "terms", "stats", "_packed", "_spread")

    def __init__(self, nvars: int, grid: Optional[Grid] = None,
                 terms: Optional[Terms] = None):
        self.nvars = nvars
        self.grid = grid
        self.terms = terms
        if grid is not None:
            self.stats = (grid.nnz, grid.amax, grid.offsets, grid.top)
        elif terms:
            lo, shape = _bounding_box(list(terms), nvars)
            self.stats = (len(terms), max(abs(c) for c in terms.values()), lo,
                          tuple(o + n - 1 for o, n in zip(lo, shape)))
        else:
            self.stats = (0, 0, (0,) * nvars, (0,) * nvars)
        self._packed = None
        self._spread = None

    @classmethod
    def wrap(cls, terms: Terms, nvars: int) -> "Slot":
        """Grid representation when certified, term map otherwise."""
        try:
            return cls(nvars, grid=grid_from_terms(terms, nvars))
        except NeedExact:
            if nvars > 2:
                raise
            return cls(nvars, terms=dict(terms))

    @classmethod
    def zero(cls, nvars: int) -> "Slot":
        return cls(nvars, grid=_zero_grid(nvars))

    @classmethod
    def one(cls, nvars: int) -> "Slot":
        return cls(nvars, grid=unit_grid(nvars))

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

    def constant(self) -> int:
        """The value of a slot in no variables."""
        if self.grid is not None:
            return int(self.grid.arr[0])
        return self.terms.get((), 0)

    def to_terms(self) -> Terms:
        if self.terms is not None:
            return self.terms
        return grid_terms(self.grid, self.nvars)

    def to_polynomial(self, ring: RingDescriptor) -> Polynomial:
        if self.grid is not None:
            return to_polynomial(self.grid, ring)
        return Polynomial._raw(ring, dict(self.terms))

    def scale_exponents(self, j: int) -> "Slot":
        if j == 1 or self.is_zero:
            return self
        if self.grid is not None:
            g = self.grid
            if self.nvars == 0:
                return self
            if self.nvars == 1:
                out = np.zeros((g.arr.shape[0] - 1) * j + 1, dtype=np.int64)
                out[::j] = g.arr
            else:
                r, c = g.arr.shape
                out = np.zeros(((r - 1) * j + 1, (c - 1) * j + 1),
                               dtype=np.int64)
                out[::j, ::j] = g.arr
            return Slot(self.nvars,
                        grid=Grid(tuple(o * j for o in g.offsets), out))
        return Slot(self.nvars, terms={
            tuple(e * j for e in exps): c for exps, c in self.terms.items()
        })

    def divide_exact(self, n: int) -> "Slot":
        if n == 1 or self.is_zero:
            return self
        if self.grid is not None:
            q, r = np.divmod(self.grid.arr, n)
            if r.any():
                raise ArithmeticError("expected an exact division by %d" % n)
            return Slot(self.nvars, grid=Grid(self.grid.offsets, q))
        out = {}
        for e, c in self.terms.items():
            q, r = divmod(c, n)
            if r:
                raise ArithmeticError("expected an exact division by %d" % n)
            out[e] = q
        return Slot(self.nvars, terms=out)


class SlotAccumulator:
    """Sum of products of slot pairs, computed on one route when read.

    ``add_pair`` only records the pair and adds its share of the exact
    bound; ``result`` runs every pair on int64 grids when the whole sum
    is certified there, and on packed integers otherwise.  Constants
    (no variables) are summed as Python integers, which is exact at any
    size and skips the per-pair array work.
    """

    def __init__(self, nvars: int):
        self.nvars = nvars
        self.pairs: List[Tuple[Slot, Slot]] = []
        self.bound = 0

    def add_pair(self, a: Slot, b: Slot):
        if a.is_zero or b.is_zero:
            return
        na, ma, _, _ = a.stats
        nb, mb, _, _ = b.stats
        self.bound += (na if na < nb else nb) * ma * mb
        self.pairs.append((a, b))

    def result(self) -> Slot:
        pairs, nvars = self.pairs, self.nvars
        if not pairs:
            return Slot.zero(nvars)
        if nvars == 0:
            total = sum(a.constant() * b.constant() for a, b in pairs)
            return Slot.wrap({(): total} if total else {}, 0)
        if all(a.grid is not None and b.grid is not None for a, b in pairs):
            lo, hi = _corners(pairs, nvars)
            stride = _stride(lo, hi)
            lines = [(_lin(a.grid.offsets, stride) + _lin(b.grid.offsets, stride),
                      _line(a.grid, stride), _line(b.grid, stride))
                     for a, b in pairs]
            if self.bound < _LIMIT_INT or _float_certified(lines):
                return Slot(nvars, grid=_sum_lines(
                    lo, hi, stride,
                    ((at, _conv_arrays(x, y)) for at, x, y in lines)))
        return Slot.wrap(_packed_sum(pairs, nvars, self.bound), nvars)


def slot_product(a: Slot, b: Slot, nvars: int) -> Slot:
    acc = SlotAccumulator(nvars)
    acc.add_pair(a, b)
    return acc.result()


def slot_linear(pieces: List[Tuple[int, Slot]], nvars: int) -> Slot:
    """Integer linear combination of slots (scalar scaling, no convolution)."""
    parts: List[Tuple[int, Grid]] = []
    out: Terms = {}
    total = 0
    for k, s in pieces:
        if not k or s.is_zero:
            continue
        if s.grid is not None:
            contribution = abs(k) * s.grid.amax
            if total + contribution < _LIMIT_INT:
                total += contribution
                parts.append((k, s.grid))
                continue
        for e, c in s.to_terms().items():
            v = out.get(e, 0) + k * c
            if v:
                out[e] = v
            elif e in out:
                del out[e]
    if parts:
        lo = tuple(min(g.offsets[i] for _, g in parts) for i in range(nvars))
        hi = tuple(max(g.top[i] for _, g in parts) for i in range(nvars))
        stride = _stride(lo, hi)
        merged = _sum_lines(lo, hi, stride,
                            ((_lin(g.offsets, stride), _line(g, stride) * k)
                             for k, g in parts))
        if not out:
            return Slot(nvars, grid=merged)
        for e, c in grid_terms(merged, nvars).items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            elif e in out:
                del out[e]
    return Slot.wrap(out, nvars)
