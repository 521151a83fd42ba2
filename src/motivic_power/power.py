"""Power structures on truncated series: (A(t), m) -> A(t)^m.

The whole construction is driven by one kernel, the rule sending a ring
element a to the series (1-t)^{-a}.  For a polynomial a = sum p_k u^k the
monomial kernel declares

    (1-t)^{-a}  =  prod_k (1 - u^k t)^{-p_k},

with negative p_k meaning the literal polynomial power.  Any unital
series factors uniquely as prod_i (1-t^i)^{-b_i}; raising to the power m
multiplies every exponent b_i by m and reassembles.  Exp and Log are the
same factorization viewed as a pair of mutually inverse isomorphisms.

Implementation note: every solve folds its ring into one variable
(:class:`gridops.Fold`), once, from its inputs' exponent hulls and the
order, and unfolds its results at the end.  The fold is a Kronecker
substitution into z followed by y = z^g, g the gcd of the folded indices
of the solve's inputs, so the solve runs on the lattice those inputs
span.  At order 40, a surface with only even cohomology (q = 0, as K3)
has e(X) on monomials u^p v^q with p + q even, and g = 2; a Hodge-Tate
class, a polynomial in uv (P^2, the diamonds with q = p_g = 0), has
g = 82, and its packed rows carry one digit where they carried 82.
Generic inputs, such as the abelian surface's or any q = 1 diamond's,
have g = 1.
Factoring, and assembling unless the path below is cheaper, solve the
logarithmic-derivative recurrence of the product,

    n f_n = sum_{m=1..n} g_m f_{n-m},   g_m = sum_{i | m} i * b_i(u^(m/i)),

forwards (exponents to series) or backwards (series to exponents).
Each step is one exact integer combination of products (g_m f_{n-m})
and scaled polynomials (n f_n, i b_i(u^(n/i))), summed on
:class:`gridops.SlotAccumulator` before the exact division by n.  The
forward recurrence forms each g_n as it goes; the reverse one reads each
g_n off one accumulator and recovers b_n from it in the same loop.
Assembling may instead multiply the product out factor by factor, from
the last factor down, each coefficient one packed Python integer with
its own lowest exponent (:func:`_euler_product`, chosen by
:func:`_multiplies_out`): the Hilbert-scheme series (Goettsche's product
formula), the Hodge-Deligne series of the usual surfaces and every
power over Z take it.

The monomial kernel is the only power structure the public functions
use.  :class:`Kernel`, the peeling factorization (:func:`_factor_peeling`)
and the block products (:func:`_assemble_blocks`) stay as references
beside the dict recurrence :func:`_monomial_base_exact`: the tests
compare the monomial kernel with them, and the benchmark's probe and
tracer name them.
"""

from __future__ import annotations

import itertools
import operator
from typing import Callable, List, Mapping, Optional, Sequence, Union

import numpy as np

from . import gridops
from .gridops import Fold, Slot, Terms
from .rings import (
    MonomialMap,
    Polynomial,
    RingDescriptor,
    RingMismatchError,
    _Frozen,
    _accumulate_product,
    _json_get,
    _json_int,
    _json_list,
)
from .series import Series


def _frobenius(p: Polynomial, j: int) -> Polynomial:
    """Scale every exponent vector by j (the substitution u -> u^j)."""
    if j == 1 or not p.ring.nvars:
        return p
    return Polynomial._raw(
        p.ring, {tuple(e * j for e in exps): c for exps, c in p._terms.items()}
    )


def _divisor_table(order: int) -> List[List[int]]:
    """The divisors of every n = 0..order in ascending order, by a sieve."""
    divisors: List[List[int]] = [[] for _ in range(order + 1)]
    for i in range(1, order + 1):
        for n in range(i, order + 1, i):
            divisors[n].append(i)
    return divisors


# -- exact dict-based recurrence (reference) ----------------------------

def _monomial_base_exact(a: Polynomial, order: int) -> Series:
    ring = a.ring
    nvars = ring.nvars
    coeffs = [Polynomial.one(ring)]
    if order == 0:
        return Series._raw(ring, 0, coeffs)
    scaled = [None, a] + [_frobenius(a, j) for j in range(2, order + 1)]
    for n in range(1, order + 1):
        acc = {}
        for j in range(1, n + 1):
            term = scaled[j]
            prev = coeffs[n - j]
            if term._terms and prev._terms:
                _accumulate_product(acc, term._terms, prev._terms, nvars)
        divided = {}
        for exps, c in acc.items():
            if c:
                q, r = divmod(c, n)
                if r:
                    raise ArithmeticError(
                        "kernel recurrence produced a non-integral coefficient"
                    )
                divided[exps] = q
        coeffs.append(Polynomial._raw(ring, divided))
    return Series._raw(ring, order, coeffs)


# -- slot pipelines (every ring) ----------------------------------------

def _monomial_base(a: Polynomial, order: int) -> Series:
    """(1-t)^{-a}: the Euler product with exponents (a, 0, ..., 0)."""
    return _assemble(a.ring, order, [a._terms] + [{}] * (order - 1))


def _assemble(ring: RingDescriptor, order: int, exponents: List[Terms],
              m: Optional[Terms] = None) -> Series:
    """Multiply out prod_{i=1..N} (1-t^i)^{-b_i}, with b_i the exponents,
    or the exponents times m, under one fold: factor by factor
    (:func:`_euler_product`) when :func:`_multiplies_out` says so, else by
    the forward recurrence."""
    fold = Fold.graded(ring.nvars, order, exponents, m)
    b = [fold.slot(t) for t in exponents]
    if m is not None:
        ms = fold.slot(m)
        b = [gridops.slot_product(x, ms) for x in b]
    if _multiplies_out(b, order):
        f = _euler_product([x.to_terms() for x in b], order)
    else:
        f = _solve_forward(b, order)
    return Series._raw(ring, order, fold.polynomials(ring, f))


# The factor-by-factor product runs when this many of its row adds count
# no more than the recurrence's operand-term applications, that is at
# rows/rec <= 2/3.  Measured on a 2-vCPU x86-64 VM with Python 3.11, both
# paths timed (CPU, best of 1-3) on the same folded inputs: the Hodge-
# Deligne diamonds of the hodge-surfaces workload at orders 40, 80 and
# 120 (P^2 0.22-0.29, K3 0.42-0.54, abelian 0.34-0.44, seeded diamonds
# 0.24-0.60) all ran 0.26-0.77x the recurrence's time on the product,
# and diamonds with h^{1,1} = 20 and 40 ran 0.82x at 0.70 and 1.01x at
# 0.80; of the folded solves of three axioms-small rounds (Z[u,v] and
# Z[L^(+-)] at order 10), the 27 at 0.30-0.71 ran 0.14-0.32x, and the
# 243 at 1.02-1.45 ran 1.0-3.6x, but for 6 at 0.54-0.87x.
_PRODUCT_ROWS = 1.5


def _multiplies_out(b: Sequence[Slot], order: int) -> bool:
    """Whether to multiply out prod_{i=1..N} (1-t^i)^{-b_i} factor by
    factor rather than solve the forward recurrence, given the folded b_i.

    Never when some b_i is too sparse for a line (``gridops._lined``), as
    its packed coefficients would span the gaps, nor when the rows
    together might span more than ``gridops._MAX_LINE`` digits: with o
    and h the least floor(lo_i/i) and the greatest ceil(hi_i/i), and 0,
    as :meth:`gridops.Fold.graded` takes them, row f_n spans at most
    n*(h-o) + 1 digits, all of which the unpacking reads.
    Always when every exponent is 0 (over Z): each shift is then 0, and
    on axiom-shaped Z powers the product ran 4.9-19.7x (order 10) and
    1.7-29x (order 40) faster.  Otherwise when ``_PRODUCT_ROWS * rows <=
    rec``, where

        rows = sum_i sum_{c u^e in b_i} min(|c|, N//i) * (N - i + 1)

    counts the product's row adds and

        rec = sum_i nnz(b_i) * sum_{k=1..N//i} (N - i*k + 1)

    the recurrence's operand-term applications.
    """
    rec = 0
    constant = True
    o = h = 0
    for i, x in enumerate(b, start=1):
        nnz, _, (lo,), (hi,) = x.stats
        if nnz:
            if not gridops._lined(nnz, hi - lo + 1):
                return False
            constant = constant and lo == hi == 0
            o, h = min(o, lo // i), max(h, -(-hi // i))
            k = order // i
            rec += nnz * k * (2 * order + 2 - i * (k + 1)) // 2
    if (h - o) * order * (order + 1) // 2 + order > gridops._MAX_LINE:
        return False
    if constant:
        return True
    rows = 0
    for i, x in enumerate(b, start=1):
        rows += _passes(x, order // i) * (order - i + 1)
        if _PRODUCT_ROWS * rows > rec:
            return False
    return True


def _passes(x: Slot, k: int) -> int:
    """sum over the terms c u^e of x of min(|c|, k): the passes of the
    factor (1-t^i)^{-x} when k = N//i.  An array slot is read in one numpy
    pass, a term map from its coefficients."""
    if x.terms is None:
        return int(np.minimum(np.abs(x.line()), k).sum())
    return sum(min(abs(c), k) for c in x.terms.values())


def _digit_width(b: Sequence[Terms], order: int) -> int:
    """Packed digit width of :func:`_euler_product`, in whole bytes.

    The majorant M = prod_i (1-t^i)^(-||b_i||_1) bounds every coefficient
    of every partial product, since each factor's coefficients are
    bounded by those of (1-t^i)^(-|c|).  It comes from the recurrence
    n M_n = sum_m G_m M_(n-m), G_m = sum_{i | m} i ||b_i||_1, on plain
    integers; the width is the bit length of max_n M_n plus a sign bit.
    """
    g = [0] * (order + 1)
    for i, t in enumerate(b, start=1):
        norm = sum(map(abs, t.values()))
        for m in range(i, order + 1, i):
            g[m] += i * norm
    M = [1]
    for n in range(1, order + 1):
        M.append(sum(map(operator.mul, g[1:n + 1], reversed(M))) // n)
    return (max(M).bit_length() + 1 + 7) // 8 * 8


def _euler_product(b: Sequence[Terms], order: int) -> gridops.Rows:
    """Coefficients f_0..f_N of prod_i (1-t^i)^{-b_i}, in one variable u
    (a fold's y), one factor (1 - u^e t^i)^{-c} at a time, from i = N
    down to i = 1.

    Each f_n is one Python integer of signed digits in base 2^W, W from
    :func:`_digit_width`, with its own origin: digit k is the coefficient
    of u^(origin + k).  While factor i is applied, f_n holds only the
    partitions of n into parts >= i, so it spans few digits until the
    small parts come in.  Adding v u^e to a row aligns the two origins:
    the incoming value is shifted up when its origin (that of the row it
    came from, plus e) is at or above the row's, otherwise the row's
    value is shifted up and its origin lowered; a row that is 0 takes
    the incoming value as it is.  A factor with 0 < c <= N//i is c
    passes of f_n += u^e f_(n-i) in ascending n; one with -N//i <= c < 0
    is |c| passes of f_n -= u^e f_(n-i) in descending n; any other is
    its binomial series, applied in descending n.  The rows f_0..f_N are
    unpacked together at the end into one :class:`gridops.Rows`, each
    row's digit count read off its bit length, for
    :meth:`gridops.Fold.polynomials` to decode.
    """
    width = _digit_width(b, order)
    f = [1] + [0] * order
    at = [0] * (order + 1)  # each row's origin, times W: a shift in bits
    for i in range(order, 0, -1):
        k_max = order // i
        for (e,), c in b[i - 1].items():
            s = e * width
            if c > k_max or -c > k_max:
                binom = [1]
                for k in range(1, k_max + 1):
                    binom.append(binom[-1] * (c + k - 1) // k)
                for n in range(order, i - 1, -1):
                    acc, o = f[n], at[n]
                    for k in range(1, n // i + 1):
                        v = f[n - k * i]
                        if v:
                            v *= binom[k]
                            p = at[n - k * i] + k * s
                            if not acc:
                                acc, o = v, p
                            elif p >= o:
                                acc += v << (p - o)
                            else:
                                acc = (acc << (o - p)) + v
                                o = p
                    f[n], at[n] = acc, o
            elif c > 0:
                for _ in range(c):
                    for n in range(i, order + 1):
                        v = f[n - i]
                        if v:
                            p = at[n - i] + s
                            x, o = f[n], at[n]
                            if not x:
                                f[n], at[n] = v, p
                            elif p >= o:
                                f[n] = x + (v << (p - o))
                            else:
                                f[n], at[n] = (x << (o - p)) + v, p
            else:
                for _ in range(-c):
                    for n in range(order, i - 1, -1):
                        v = f[n - i]
                        if v:
                            p = at[n - i] + s
                            x, o = f[n], at[n]
                            if not x:
                                f[n], at[n] = -v, p
                            elif p >= o:
                                f[n] = x - (v << (p - o))
                            else:
                                f[n], at[n] = (x << (o - p)) - v, p
    return gridops._unpack([(x, x.bit_length() // width + 1 if x else 0,
                             o // width) for x, o in zip(f, at)], width)


def _solve_forward(b: List[Slot], order: int) -> List[Slot]:
    """Coefficients f_0..f_N of prod_i (1-t^i)^{-b_i}, from the exponents.

    Step n forms g_n = sum_{i | n} i b_i(u^(n/i)), then solves
    n f_n = sum_{m=1..n} g_m f_{n-m}, with f_0 = 1.
    """
    divisors = _divisor_table(order)
    f = [Slot.one()]
    g: List[Optional[Slot]] = [None]
    for n in range(1, order + 1):
        g.append(gridops.slot_linear(
            [(i, b[i - 1].scale_exponents(n // i)) for i in divisors[n]]))
        acc = gridops.SlotAccumulator()
        for m in range(1, n + 1):
            acc.add_pair(g[m], f[n - m])
        f.append(acc.result().divide_exact(n))
    return f


def _solve_reverse(neg: List[Slot], order: int) -> List[Slot]:
    """Exponents b_1..b_N of f = prod_i (1-t^i)^{-b_i}, given ``neg`` = -f.

    Step n reads g_n = n f_n - sum_{m<n} g_m f_{n-m} off one accumulator
    (on -f every product enters with a plus sign), then divides
    g_n - sum_{i | n, i < n} i b_i(u^(n/i)) by n for b_n.
    """
    divisors = _divisor_table(order)
    g: List[Optional[Slot]] = [None]
    b: List[Optional[Slot]] = [None]
    for n in range(1, order + 1):
        acc = gridops.SlotAccumulator()
        for m in range(1, n):
            acc.add_pair(g[m], neg[n - m])
        acc.add(-n, neg[n])
        g.append(acc.result())
        pieces = [(1, g[n])]
        pieces += [(-i, b[i].scale_exponents(n // i)) for i in divisors[n][:-1]]
        b.append(gridops.slot_linear(pieces).divide_exact(n))
    return b[1:]


class Kernel:
    """A named rule a -> (1-t)^{-a} defining a power structure.

    On construction the rule is checked to order 5 on small samples over
    each of ``sample_rings``: it must send 0 to 1 and 1 to the geometric
    series, must be additive (the product rule for exponents), and must
    start 1 + a*t + ..., which is what the peeling factorization relies on.
    """

    __slots__ = ("name", "rule")

    def __init__(self, name: str,
                 rule: Callable[[Polynomial, int], Series],
                 sample_rings: Sequence[RingDescriptor] = ()):
        self.name = name
        self.rule = rule
        for ring in sample_rings:
            self._validate(ring, 5)

    def _samples(self, ring: RingDescriptor) -> List[Polynomial]:
        samples = [Polynomial.constant(ring, c) for c in (0, 1, -1, 2)]
        for name in ring.variables[:2]:
            v = Polynomial.variable(ring, name)
            samples.append(v)
            samples.append(v + 1)
            if ring.laurent:
                samples.append(Polynomial.monomial(
                    ring, tuple(-e for e in next(iter(v._terms)))))
        if ring.nvars >= 2:
            samples.append(Polynomial.variable(ring, ring.variables[0])
                           * Polynomial.variable(ring, ring.variables[1]))
        return samples

    def _validate(self, ring: RingDescriptor, order: int):
        one = Series.one(ring, order)
        geometric = Series(ring, order, [1] * (order + 1))
        if self.rule(Polynomial.zero(ring), order) != one:
            raise ValueError("kernel %r does not send 0 to 1 over %s" % (self.name, ring))
        if self.rule(Polynomial.one(ring), order) != geometric:
            raise ValueError(
                "kernel %r does not send 1 to the geometric series over %s"
                % (self.name, ring)
            )
        samples = self._samples(ring)
        based = [self.rule(a, order) for a in samples]
        for s, a in zip(based, samples):
            if s.coefficient(0) != 1 or s.coefficient(1) != a:
                raise ValueError(
                    "kernel %r is not of the form 1 + a*t + ... at a=%s" % (self.name, a)
                )
        for (a, sa), (b, sb) in itertools.combinations_with_replacement(
                zip(samples, based), 2):
            if self.rule(a + b, order) != sa * sb:
                raise ValueError(
                    "kernel %r is not additive at a=%s, b=%s over %s"
                    % (self.name, a, b, ring)
                )

    def __repr__(self):
        return "<Kernel %s>" % self.name


# Built without sample rings, so importing the package validates nothing;
# the test suite runs the same validation over Z, Z[L^(+-)] and Z[u, v].
MONOMIAL_KERNEL = Kernel("monomial", _monomial_base)


def base_series(a: Polynomial, order: int) -> Series:
    """The kernel series (1-t)^{-a} truncated at the given order."""
    if not isinstance(order, int) or order < 0:
        raise ValueError("order must be a nonnegative integer")
    return _monomial_base(a, order)


class EulerProduct(_Frozen):
    """Exponents (b_1, ..., b_N) of the factored form prod (1-t^i)^{-b_i}."""

    __slots__ = ("ring", "order", "exponents")

    def __init__(self, ring: RingDescriptor, order: int,
                 exponents: Sequence[Union[Polynomial, int]]):
        if not isinstance(order, int) or order < 0:
            raise ValueError("order must be a nonnegative integer")
        exps: List[Polynomial] = []
        for b in exponents:
            if isinstance(b, int):
                b = Polynomial.constant(ring, b)
            elif b.ring != ring:
                raise RingMismatchError(
                    "exponent over %s in product over %s" % (b.ring, ring)
                )
            exps.append(b)
        if len(exps) != order:
            raise ValueError(
                "expected %d exponents for order %d, got %d"
                % (order, order, len(exps))
            )
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "exponents", tuple(exps))

    def __eq__(self, other):
        if not isinstance(other, EulerProduct):
            return NotImplemented
        return (self.ring == other.ring and self.order == other.order
                and self.exponents == other.exponents)

    __hash__ = None

    def __repr__(self):
        body = ", ".join("b_%d=%s" % (i + 1, b) for i, b in enumerate(self.exponents))
        return "<EulerProduct %s>" % body

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "exponents": [b.to_json() for b in self.exponents],
        }

    @classmethod
    def from_json(cls, obj: Mapping,
                  ring: Optional[RingDescriptor] = None) -> "EulerProduct":
        order = _json_int(_json_get(obj, "order", "product"), "product.order")
        exps = [Polynomial.from_json(b, "product.exponents[%d]" % k)
                for k, b in enumerate(_json_list(obj, "exponents", "product"))]
        if ring is None:
            if not exps:
                raise ValueError("cannot infer the ring of an empty product")
            ring = exps[0].ring
        return cls(ring, order, exps)


def _block(b: Polynomial, i: int, order: int, kernel: Kernel) -> Series:
    """(1 - t^i)^{-b} truncated at ``order``."""
    inner = kernel.rule(b, order // i)
    zero = Polynomial.zero(b.ring)
    out = [zero] * (order + 1)
    for j, c in enumerate(inner.coefficients):
        out[j * i] = c
    return Series._raw(b.ring, order, out)


def _factor_peeling(A: Series, kernel: Kernel) -> List[Polynomial]:
    """Peel exponents in the order i = 1..N, dividing the residual."""
    order = A.order
    residual = A
    exponents = []
    for i in range(1, order + 1):
        b = residual.coefficients[i]
        exponents.append(b)
        if b._terms:
            residual = residual * _block(b, i, order, kernel).inverse()
    return exponents


def factor(A: Series, kernel: Kernel = MONOMIAL_KERNEL) -> EulerProduct:
    """Unique factorization of a unital series into prod (1-t^i)^{-b_i}.

    The exponents come off the reverse recurrence (see the module
    docstring), and the result is cached on the series.  ``kernel``
    stays only because ``perfbench/tracer.py`` calls ``factor(A,
    kernel)``; any kernel but the monomial one raises ValueError.
    """
    if kernel is not MONOMIAL_KERNEL:
        raise ValueError("factor supports only the monomial kernel, got %r"
                         % (kernel,))
    cached = A._factor_cache.get(kernel)
    if cached is not None:
        return cached
    if not A.is_unital():
        raise ValueError("only unital series (constant term 1) factor uniquely")
    ring = A.ring
    fold = Fold.graded(ring.nvars, A.order,
                       [p._terms for p in A.coefficients[1:]])
    neg = [fold.slot({e: -c for e, c in p._terms.items()})
           for p in A.coefficients]
    exponents = fold.polynomials(ring, _solve_reverse(neg, A.order))
    result = EulerProduct(ring, A.order, exponents)
    A._factor_cache[kernel] = result
    return result


def _assemble_blocks(ring: RingDescriptor, order: int,
                     exponents: Sequence[Polynomial], kernel: Kernel) -> Series:
    result = Series.one(ring, order)
    for i, b in enumerate(exponents, start=1):
        if b._terms:
            result = result * _block(b, i, order, kernel)
    return result


def assemble(product: EulerProduct) -> Series:
    """Multiply out prod_{i=1..N} (1-t^i)^{-b_i}, truncated at N."""
    return _assemble(product.ring, product.order,
                     [p._terms for p in product.exponents])


def _exponent(m: Union[Polynomial, int], ring: RingDescriptor) -> Polynomial:
    """A power's exponent as a polynomial: an int is a constant of ``ring``."""
    if isinstance(m, int):
        return Polynomial.constant(ring, m)
    if not isinstance(m, Polynomial):
        raise TypeError("the exponent must be an int or a Polynomial, got %s"
                        % type(m).__name__)
    return m


def pow_series(A: Series, m: Polynomial) -> Series:
    """A(t)^m: factor A, multiply every exponent by m, reassemble."""
    m = _exponent(m, A.ring)
    if m.ring != A.ring:
        raise RingMismatchError(
            "exponent over %s, series over %s" % (m.ring, A.ring)
        )
    if not A.is_unital():
        raise ValueError("only unital series (constant term 1) can be powered")
    return _assemble(A.ring, A.order,
                     [p._terms for p in factor(A).exponents], m._terms)


def exp_map(exponents: Sequence[Union[Polynomial, int]],
            order: Optional[int] = None,
            ring: Optional[RingDescriptor] = None) -> Series:
    """Exp(P_1 t + P_2 t^2 + ...) = prod_k (1-t^k)^{-P_k}.

    ``exponents`` lists P_1, P_2, ...; the order defaults to the length
    of the list, shorter lists are padded with zeros and entries beyond
    the order cannot contribute and are ignored.
    """
    exponents = list(exponents)
    if ring is None:
        for p in exponents:
            if isinstance(p, Polynomial):
                ring = p.ring
                break
        else:
            raise ValueError("cannot infer the ring: pass ring= or a Polynomial")
    if order is None:
        order = len(exponents)
    zero = Polynomial.zero(ring)
    padded = (exponents + [zero] * order)[:order]
    return assemble(EulerProduct(ring, order, padded))


def log_map(A: Series) -> List[Polynomial]:
    """Inverse of :func:`exp_map`: the exponent list of the factorization."""
    return list(factor(A).exponents)


def transport_check(mapping: MonomialMap, A: Series, m: Polynomial) -> bool:
    """Does the ring map commute with powering?  phi(A^m) == phi(A)^phi(m).

    Only kernel-compatible maps are accepted, which is what
    :class:`MonomialMap` enforces: monomial substitutions and the
    evaluate-at-ones map.
    """
    if not isinstance(mapping, MonomialMap):
        raise TypeError(
            "transport needs a MonomialMap; general substitutions are not "
            "compatible with the kernel"
        )
    m = _exponent(m, A.ring)
    if A.ring != mapping.source or m.ring != mapping.source:
        raise RingMismatchError(
            "series and exponent must live in the map's source ring %s"
            % mapping.source
        )
    mapped_pow = pow_series(A, m).map_coefficients(mapping, mapping.target)
    pow_mapped = pow_series(A.map_coefficients(mapping, mapping.target),
                            mapping(m))
    return mapped_pow == pow_mapped
