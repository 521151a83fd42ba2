"""Power structures on truncated series: (A(t), m) -> A(t)^m.

The whole construction is driven by one kernel, the rule sending a ring
element a to the series (1-t)^{-a}.  For a polynomial a = sum p_k u^k the
built-in monomial kernel declares

    (1-t)^{-a}  =  prod_k (1 - u^k t)^{-p_k},

with negative p_k meaning the literal polynomial power.  Any unital
series factors uniquely as prod_i (1-t^i)^{-b_i}; raising to the power m
multiplies every exponent b_i by m and reassembles.  Exp and Log are the
same factorization viewed as a pair of mutually inverse isomorphisms.

Implementation note: for the built-in kernel both directions go through
the logarithmic-derivative recurrence of the product,

    n f_n = sum_{m=1..n} g_m f_{n-m},   g_m = sum_{i | m} i * b_i(u^(m/i)),

solved forwards (exponents to series) or backwards (series to exponents)
over every ring.  Each step is one exact integer combination of
products (g_m f_{n-m}) and scaled polynomials (n f_n, i b_i(u^(n/i))),
and every such sum runs through :class:`gridops.SlotAccumulator` before
the exact division by n: as dict sums over Z and in three or more
variables, on int64 lines when its exact bound is below 2^62, and on
Kronecker-packed Python integers otherwise.  The forward
recurrence forms each g_n as it goes; the reverse one reads each g_n
off one accumulator and recovers b_n from it in the same loop.
User-supplied kernels get explicit peeling and block products instead;
the dict recurrence ``_monomial_base_exact`` stays as the reference the
tests compare the built-in kernel with.
"""

from __future__ import annotations

import itertools
from typing import Callable, List, Mapping, Optional, Sequence, Union

from . import gridops
from .gridops import Slot
from .rings import (
    MonomialMap,
    Polynomial,
    RingDescriptor,
    RingMismatchError,
    _accumulate_product,
    _json_int,
)
from .series import Series


def _frobenius(p: Polynomial, j: int) -> Polynomial:
    """Scale every exponent vector by j (the substitution u -> u^j)."""
    if j == 1 or not p.ring.nvars:
        return p
    return Polynomial._raw(
        p.ring, {tuple(e * j for e in exps): c for exps, c in p._terms.items()}
    )


def _divisors(n: int) -> List[int]:
    return [i for i in range(1, n + 1) if n % i == 0]


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
    ring = a.ring
    b = [Slot.wrap(a._terms, ring.nvars)] + [Slot.zero(ring.nvars)] * (order - 1)
    return _assemble_slots(ring, order, b)


def _assemble_slots(ring: RingDescriptor, order: int, b: List[Slot]) -> Series:
    """Multiply out prod_{i=1..N} (1-t^i)^{-b_i} by the forward recurrence."""
    f = _solve_forward(b, order, ring.nvars)
    return Series._raw(ring, order, [x.to_polynomial(ring) for x in f])


def _solve_forward(b: List[Slot], order: int, nvars: int) -> List[Slot]:
    """Coefficients f_0..f_N of prod_i (1-t^i)^{-b_i}, from the exponents.

    Step n forms g_n = sum_{i | n} i b_i(u^(n/i)), then solves
    n f_n = sum_{m=1..n} g_m f_{n-m}, with f_0 = 1.
    """
    f = [Slot.one(nvars)]
    g: List[Optional[Slot]] = [None]
    for n in range(1, order + 1):
        g.append(gridops.slot_linear(
            [(i, b[i - 1].scale_exponents(n // i)) for i in _divisors(n)],
            nvars))
        acc = gridops.SlotAccumulator(nvars)
        for m in range(1, n + 1):
            if not g[m].is_zero:
                acc.add_pair(g[m], f[n - m])
        f.append(acc.result().divide_exact(n))
    return f


def _solve_reverse(neg: List[Slot], order: int, nvars: int) -> List[Slot]:
    """Exponents b_1..b_N of f = prod_i (1-t^i)^{-b_i}, given ``neg`` = -f.

    Step n reads g_n = n f_n - sum_{m<n} g_m f_{n-m} off one accumulator
    (on -f every product enters with a plus sign), then divides
    g_n - sum_{i | n, i < n} i b_i(u^(n/i)) by n for b_n.
    """
    g: List[Optional[Slot]] = [None]
    b: List[Optional[Slot]] = [None]
    for n in range(1, order + 1):
        acc = gridops.SlotAccumulator(nvars)
        for m in range(1, n):
            if not g[m].is_zero:
                acc.add_pair(g[m], neg[n - m])
        acc.add(-n, neg[n])
        g.append(acc.result())
        pieces = [(1, g[n])]
        pieces += [(-i, b[i].scale_exponents(n // i)) for i in _divisors(n)[:-1]]
        b.append(gridops.slot_linear(pieces, nvars).divide_exact(n))
    return b[1:]


class Kernel:
    """A named rule a -> (1-t)^{-a} defining a power structure.

    On construction the rule is checked on small samples over each of
    ``sample_rings``: it must send 0 to 1 and 1 to the geometric series,
    must be additive (the product rule for exponents), and must start
    1 + a*t + ..., which is what the peeling factorization relies on.
    """

    __slots__ = ("name", "rule")

    def __init__(self, name: str,
                 rule: Callable[[Polynomial, int], Series],
                 sample_rings: Sequence[RingDescriptor] = (),
                 check_order: int = 5):
        self.name = name
        self.rule = rule
        for ring in sample_rings:
            self._validate(ring, check_order)

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


def base_series(a: Polynomial, order: int,
                kernel: Kernel = MONOMIAL_KERNEL) -> Series:
    """The kernel series (1-t)^{-a} truncated at the given order."""
    return kernel.rule(a, order)


class EulerProduct:
    """Exponents (b_1, ..., b_N) of the factored form prod (1-t^i)^{-b_i}."""

    __slots__ = ("ring", "order", "exponents")

    def __init__(self, ring: RingDescriptor, order: int,
                 exponents: Sequence[Union[Polynomial, int]]):
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

    def __setattr__(self, name, value):
        raise AttributeError("EulerProduct is immutable")

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
        order = _json_int(obj["order"], "product 'order'")
        exps = [Polynomial.from_json(b) for b in obj["exponents"]]
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

    Exponents come off in the order i = 1, 2, ..., N; b_i is the t^i
    coefficient of the residual once the earlier factors are divided
    out, which is well defined because every kernel series starts
    1 + b*t + higher terms.  The result is cached on the series.
    """
    cached = A._factor_cache.get(kernel)
    if cached is not None:
        return cached
    if not A.is_unital():
        raise ValueError("only unital series (constant term 1) factor uniquely")
    if kernel is MONOMIAL_KERNEL:
        ring = A.ring
        neg = [Slot.wrap({e: -c for e, c in p._terms.items()}, ring.nvars)
               for p in A.coefficients]
        exponents = [x.to_polynomial(ring)
                     for x in _solve_reverse(neg, A.order, ring.nvars)]
    else:
        exponents = _factor_peeling(A, kernel)
    result = EulerProduct(A.ring, A.order, exponents)
    A._factor_cache[kernel] = result
    return result


def _assemble_blocks(ring: RingDescriptor, order: int,
                     exponents: Sequence[Polynomial], kernel: Kernel) -> Series:
    result = Series.one(ring, order)
    for i, b in enumerate(exponents, start=1):
        if b._terms:
            result = result * _block(b, i, order, kernel)
    return result


def assemble(product: EulerProduct,
             kernel: Kernel = MONOMIAL_KERNEL) -> Series:
    """Multiply out prod_{i=1..N} (1-t^i)^{-b_i}, truncated at N."""
    ring = product.ring
    if kernel is MONOMIAL_KERNEL:
        return _assemble_slots(ring, product.order, [
            Slot.wrap(p._terms, ring.nvars) for p in product.exponents])
    return _assemble_blocks(ring, product.order, product.exponents, kernel)


def pow_series(A: Series, m: Polynomial,
               kernel: Kernel = MONOMIAL_KERNEL) -> Series:
    """A(t)^m: factor A, multiply every exponent by m, reassemble."""
    if isinstance(m, int):
        m = Polynomial.constant(A.ring, m)
    if m.ring != A.ring:
        raise RingMismatchError(
            "exponent over %s, series over %s" % (m.ring, A.ring)
        )
    if not A.is_unital():
        raise ValueError("only unital series (constant term 1) can be powered")
    if kernel is MONOMIAL_KERNEL:
        # factor, scale every exponent by m and reassemble, all on slots
        nvars = A.ring.nvars
        ms = Slot.wrap(m._terms, nvars)
        return _assemble_slots(A.ring, A.order, [
            gridops.slot_product(Slot.wrap(b._terms, nvars), ms, nvars)
            for b in factor(A, MONOMIAL_KERNEL).exponents])
    scaled = [b * m for b in factor(A, kernel).exponents]
    return _assemble_blocks(A.ring, A.order, scaled, kernel)


def exp_map(exponents: Sequence[Union[Polynomial, int]],
            order: Optional[int] = None,
            ring: Optional[RingDescriptor] = None,
            kernel: Kernel = MONOMIAL_KERNEL) -> Series:
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
    return assemble(EulerProduct(ring, order, padded), kernel)


def log_map(A: Series, kernel: Kernel = MONOMIAL_KERNEL) -> List[Polynomial]:
    """Inverse of :func:`exp_map`: the exponent list of the factorization."""
    return list(factor(A, kernel).exponents)


def transport_check(mapping: MonomialMap, A: Series, m: Polynomial,
                    kernel: Kernel = MONOMIAL_KERNEL) -> bool:
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
    if isinstance(m, int):
        m = Polynomial.constant(A.ring, m)
    if A.ring != mapping.source or m.ring != mapping.source:
        raise RingMismatchError(
            "series and exponent must live in the map's source ring %s"
            % mapping.source
        )
    mapped_pow = pow_series(A, m, kernel).map_coefficients(mapping, mapping.target)
    pow_mapped = pow_series(
        A.map_coefficients(mapping, mapping.target), mapping(m), kernel
    )
    return mapped_pow == pow_mapped
