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
over rings of at most two variables (Z, Z[L^(+-)], Z[u, v]).  The sum of
each step runs through :class:`gridops.SlotAccumulator`: as plain
integers over Z, on int64 grids when every value is certified below
2^62, and otherwise on Kronecker-packed Python integers, unpacked once
per step before the exact division by n.  Rings with more variables
fall back to explicit peeling and block products on the dict
representation.  The routes compute the identical integers; the generic
route is also what user-supplied kernels get.
"""

from __future__ import annotations

import itertools
from typing import Callable, List, Mapping, Optional, Sequence, Union

from . import gridops
from .gridops import NeedExact, Slot
from .rings import (
    INTEGERS,
    MonomialMap,
    Polynomial,
    RingDescriptor,
    RingMismatchError,
    _accumulate_product,
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


# -- exact dict-based recurrence (reference and fallback) ---------------

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


# -- slot pipelines (int64 grids, packed integers past 2^62) -------------

def _monomial_base(a: Polynomial, order: int) -> Series:
    ring = a.ring
    if ring.nvars <= 2:
        try:
            base = Slot.wrap(a._terms, ring.nvars)
            g = [None] + [base.scale_exponents(j) for j in range(1, order + 1)]
            f = _solve_forward(g, order, ring.nvars)
            return Series._raw(ring, order, [x.to_polynomial(ring) for x in f])
        except NeedExact:
            pass
    return _monomial_base_exact(a, order)


def _solve_forward(g: List[Optional[Slot]], order: int, nvars: int) -> List[Slot]:
    """Solve n f_n = sum_{m=1..n} g_m f_{n-m} for f, with f_0 = 1."""
    f = [Slot.one(nvars)]
    for n in range(1, order + 1):
        acc = gridops.SlotAccumulator(nvars)
        for m in range(1, n + 1):
            gm = g[m]
            if gm is not None and not gm.is_zero:
                acc.add_pair(gm, f[n - m])
        f.append(acc.result().divide_exact(n))
    return f


def _solve_reverse(f: List[Slot], order: int, nvars: int) -> List[Optional[Slot]]:
    """Recover g from f in the same recurrence (g_n = n f_n - partial sum)."""
    g: List[Optional[Slot]] = [None]
    for n in range(1, order + 1):
        acc = gridops.SlotAccumulator(nvars)
        for m in range(1, n):
            gm = g[m]
            if gm is not None and not gm.is_zero:
                acc.add_pair(gm, f[n - m])
        g.append(gridops.slot_linear(
            [(n, f[n]), (-1, acc.result())], nvars))
    return g


def _exponents_from_g(g: List[Optional[Slot]], order: int, nvars: int) -> List[Slot]:
    b: List[Optional[Slot]] = [None]
    for n in range(1, order + 1):
        pieces = [(1, g[n])]
        for i in _divisors(n):
            if i < n and not b[i].is_zero:
                pieces.append((-i, b[i].scale_exponents(n // i)))
        b.append(gridops.slot_linear(pieces, nvars).divide_exact(n))
    return b[1:]


def _g_from_exponents(b: List[Slot], order: int, nvars: int) -> List[Optional[Slot]]:
    g: List[Optional[Slot]] = [None]
    for m in range(1, order + 1):
        pieces = []
        for i in _divisors(m):
            bi = b[i - 1]
            if not bi.is_zero:
                pieces.append((i, bi.scale_exponents(m // i)))
        g.append(gridops.slot_linear(pieces, nvars))
    return g


class Kernel:
    """A named rule a -> (1-t)^{-a} defining a power structure.

    On construction the rule is checked on small samples: it must send 0
    to 1 and 1 to the geometric series, must be additive (the product
    rule for exponents), and must start 1 + a*t + ..., which is what the
    peeling factorization relies on.
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

    def base(self, a: Polynomial, order: int) -> Series:
        return self.rule(a, order)

    def __repr__(self):
        return "<Kernel %s>" % self.name


MONOMIAL_KERNEL = Kernel(
    "monomial",
    _monomial_base,
    sample_rings=(
        INTEGERS,
        RingDescriptor(("L",), laurent=True),
        RingDescriptor(("u", "v")),
    ),
)


def base_series(a: Polynomial, order: int,
                kernel: Kernel = MONOMIAL_KERNEL) -> Series:
    """The kernel series (1-t)^{-a} truncated at the given order."""
    return kernel.base(a, order)


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
        order = int(obj["order"])
        exps = [Polynomial.from_json(b) for b in obj["exponents"]]
        if ring is None:
            if not exps:
                raise ValueError("cannot infer the ring of an empty product")
            ring = exps[0].ring
        return cls(ring, order, exps)


def _block(b: Polynomial, i: int, order: int, kernel: Kernel) -> Series:
    """(1 - t^i)^{-b} truncated at ``order``."""
    inner = kernel.base(b, order // i)
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


def _factor_fast(A: Series) -> Optional[List[Polynomial]]:
    ring = A.ring
    if ring.nvars > 2:
        return None
    try:
        f = [Slot.wrap(c._terms, ring.nvars) for c in A.coefficients]
        g = _solve_reverse(f, A.order, ring.nvars)
        b = _exponents_from_g(g, A.order, ring.nvars)
        return [x.to_polynomial(ring) for x in b]
    except NeedExact:
        return None


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
    exponents = None
    if kernel is MONOMIAL_KERNEL:
        exponents = _factor_fast(A)
    if exponents is None:
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


def _assemble_fast(ring: RingDescriptor, order: int,
                   exponents: Sequence[Polynomial]) -> Optional[Series]:
    if ring.nvars > 2:
        return None
    try:
        b = [Slot.wrap(p._terms, ring.nvars) for p in exponents]
        g = _g_from_exponents(b, order, ring.nvars)
        f = _solve_forward(g, order, ring.nvars)
        return Series._raw(ring, order,
                           [x.to_polynomial(ring) for x in f])
    except NeedExact:
        return None


def assemble(product: EulerProduct,
             kernel: Kernel = MONOMIAL_KERNEL) -> Series:
    """Multiply out prod_{i=1..N} (1-t^i)^{-b_i}, truncated at N."""
    if kernel is MONOMIAL_KERNEL:
        fast = _assemble_fast(product.ring, product.order, product.exponents)
        if fast is not None:
            return fast
    return _assemble_blocks(product.ring, product.order, product.exponents,
                            kernel)


def _pow_fast(A: Series, m: Polynomial) -> Optional[Series]:
    """Factor, scale exponents by m and reassemble, all on slots."""
    ring = A.ring
    if ring.nvars > 2:
        return None
    try:
        factored = factor(A, MONOMIAL_KERNEL)
        ms = Slot.wrap(m._terms, ring.nvars)
        scaled = [
            gridops.slot_product(Slot.wrap(b._terms, ring.nvars), ms, ring.nvars)
            for b in factored.exponents
        ]
        g = _g_from_exponents(scaled, A.order, ring.nvars)
        f = _solve_forward(g, A.order, ring.nvars)
        return Series._raw(ring, A.order,
                           [x.to_polynomial(ring) for x in f])
    except NeedExact:
        return None


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
        fast = _pow_fast(A, m)
        if fast is not None:
            return fast
    factored = factor(A, kernel)
    scaled = EulerProduct(A.ring, A.order, [b * m for b in factored.exponents])
    return _assemble_blocks(A.ring, A.order, scaled.exponents, kernel)


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
