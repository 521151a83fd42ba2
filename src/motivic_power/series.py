"""Truncated power series in t with polynomial coefficients.

A series of order N stores exactly the coefficients of t^0 .. t^N; all
arithmetic is exact and happens mod t^(N+1).  Operations on two series
require equal orders (truncate first), and extending a series beyond its
known order is an error: the missing coefficients are simply not known.
Products and inverses fold the ring into one variable
(:class:`gridops.Fold`), sum their coefficient products on
:class:`gridops.SlotAccumulator` and unfold the results, over every ring.
"""

from __future__ import annotations

from typing import Callable, List, Mapping, Sequence, Union

from .gridops import Fold, Slot, SlotAccumulator
from .rings import (
    Polynomial,
    RingDescriptor,
    RingMismatchError,
    _Frozen,
    _json_get,
    _json_int,
    _json_list,
)


class Series(_Frozen):
    """Immutable truncated series ``c_0 + c_1 t + ... + c_N t^N``."""

    __slots__ = ("ring", "order", "coefficients", "_factor_cache")
    # keyed by the kernel object, which a copy would not share
    _caches = {"_factor_cache": dict}

    def __init__(self, ring: RingDescriptor, order: int,
                 coefficients: Sequence[Union[Polynomial, int]]):
        if not isinstance(order, int) or order < 0:
            raise ValueError("order must be a nonnegative integer")
        coeffs: List[Polynomial] = []
        for c in coefficients:
            if isinstance(c, int):
                c = Polynomial.constant(ring, c)
            elif not isinstance(c, Polynomial):
                raise TypeError("coefficients must be Polynomial or int")
            elif c.ring != ring:
                raise RingMismatchError(
                    "coefficient over %s in series over %s" % (c.ring, ring)
                )
            coeffs.append(c)
        if len(coeffs) != order + 1:
            raise ValueError(
                "expected %d coefficients for order %d, got %d"
                % (order + 1, order, len(coeffs))
            )
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coefficients", tuple(coeffs))
        object.__setattr__(self, "_factor_cache", {})

    @classmethod
    def _raw(cls, ring, order, coeffs) -> "Series":
        self = object.__new__(cls)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coefficients", tuple(coeffs))
        object.__setattr__(self, "_factor_cache", {})
        return self

    @classmethod
    def one(cls, ring: RingDescriptor, order: int) -> "Series":
        zero = Polynomial.zero(ring)
        return cls._raw(ring, order,
                        [Polynomial.one(ring)] + [zero] * order)

    def coefficient(self, k: int) -> Polynomial:
        if not 0 <= k <= self.order:
            raise ValueError("coefficient %d outside known order %d" % (k, self.order))
        return self.coefficients[k]

    def is_unital(self) -> bool:
        return self.coefficients[0] == 1

    def is_effective(self) -> bool:
        return all(c.is_effective() for c in self.coefficients)

    def _check_compatible(self, other: "Series"):
        if self.ring != other.ring:
            raise RingMismatchError(
                "ring mismatch: %s vs %s" % (self.ring, other.ring)
            )
        if self.order != other.order:
            raise ValueError(
                "order mismatch: %d vs %d (truncate first)"
                % (self.order, other.order)
            )

    def __mul__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        self._check_compatible(other)
        ring = self.ring
        xs = [c._terms for c in self.coefficients]
        ys = [c._terms for c in other.coefficients]
        fold = Fold.product(ring.nvars, self.order, xs, ys)
        a = [fold.slot(x) for x in xs]
        b = [fold.slot(y) for y in ys]
        out = []
        for k in range(self.order + 1):
            acc = SlotAccumulator()
            for i in range(k + 1):
                if not a[i].is_zero and not b[k - i].is_zero:
                    acc.add_pair(a[i], b[k - i])
            out.append(acc.result())
        return Series._raw(ring, self.order, fold.polynomials(ring, out))

    def __pow__(self, n: int) -> "Series":
        """Plain n-fold truncated product (integer n >= 0)."""
        if not isinstance(n, int) or n < 0:
            raise ValueError("series powers need a nonnegative integer exponent")
        result = Series.one(self.ring, self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "Series":
        """Multiplicative inverse mod t^(N+1), by the usual recurrence."""
        if not self.is_unital():
            raise ValueError("only series with constant term 1 can be inverted")
        ring = self.ring
        fold = Fold.graded(ring.nvars, self.order,
                           [p._terms for p in self.coefficients[1:]])
        negated = [fold.slot({e: -c for e, c in p._terms.items()})
                   for p in self.coefficients]
        inv = [Slot.one()]
        for k in range(1, self.order + 1):
            acc = SlotAccumulator()
            for j in range(1, k + 1):
                acc.add_pair(negated[j], inv[k - j])
            inv.append(acc.result())
        return Series._raw(ring, self.order, fold.polynomials(ring, inv))

    def rescale(self, k: int) -> "Series":
        """Substitute t -> t^k, truncating at the same order."""
        if not isinstance(k, int) or k < 1:
            raise ValueError("rescale needs a positive integer, got %r" % (k,))
        if k == 1:
            return self
        zero = Polynomial.zero(self.ring)
        out = [zero] * (self.order + 1)
        out[0] = self.coefficients[0]
        for i in range(1, self.order // k + 1):
            out[i * k] = self.coefficients[i]
        return Series._raw(self.ring, self.order, out)

    def truncate(self, order: int) -> "Series":
        if order > self.order:
            raise ValueError(
                "cannot extend a series of order %d to order %d"
                % (self.order, order)
            )
        if order == self.order:
            return self
        return Series._raw(self.ring, order, self.coefficients[: order + 1])

    def map_coefficients(self, fn: Callable[[Polynomial], Polynomial],
                         ring: RingDescriptor) -> "Series":
        return Series(ring, self.order, [fn(c) for c in self.coefficients])

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return (self.ring == other.ring and self.order == other.order
                and self.coefficients == other.coefficients)

    __hash__ = None

    def __str__(self):
        pieces = []
        for k, c in enumerate(self.coefficients):
            if not c._terms:
                continue
            t_part = None if k == 0 else ("t" if k == 1 else "t^%d" % k)
            if len(c._terms) == 1:
                ((exps, coef),) = c._terms.items()
                mono = c._monomial_str(exps)
                mag = abs(coef)
                stem = mono if mag == 1 and mono else (
                    str(mag) + ("*" + mono if mono else ""))
                if t_part:
                    stem = t_part if stem == "1" else stem + "*" + t_part
                negative = coef < 0
            else:
                stem = "(%s)" % c
                if t_part:
                    stem += "*" + t_part
                negative = False
            if not pieces:
                pieces.append("-" + stem if negative else stem)
            else:
                pieces.append((" - " if negative else " + ") + stem)
        if not pieces:
            return "0"
        return "".join(pieces)

    def __repr__(self):
        return "<Series order=%d %s>" % (self.order, self)

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "coeffs": [c.to_json() for c in self.coefficients],
        }

    @classmethod
    def from_json(cls, obj: Mapping, path: str = "series") -> "Series":
        """The series of a JSON object; errors name the JSON ``path``,
        such as ``series.coeffs[1].ring``."""
        order = _json_int(_json_get(obj, "order", path), path + ".order")
        coeffs = [Polynomial.from_json(c, "%s.coeffs[%d]" % (path, k))
                  for k, c in enumerate(_json_list(obj, "coeffs", path))]
        if not coeffs:
            raise ValueError("%s.coeffs needs at least the constant coefficient"
                             % path)
        try:
            return cls(coeffs[0].ring, order, coeffs)
        except ValueError as exc:
            raise ValueError("%s: %s" % (path, exc)) from None
