"""Generating series of Hilbert schemes of points and their specializations.

The pipeline has two halves: bundled local data (the punctual series of
affine d-space at the origin, shipped for d = 1, 2 and user-supplied
beyond) and the global step, which is nothing but raising the local
series to the power of the class of the variety.  Specializing the
coefficients (all variables to 1, or L to uv) commutes with the power
operation, which is what makes the Euler-characteristic and
Hodge-Deligne formulas drop out.

The punctual surface series does not depend on the variety, so it is
built once per process (the largest order asked for is kept and
truncated on later requests).  It is assembled from its Euler
exponents L^(k-1), and it carries them in its factorization cache, so
raising it to a power runs only the forward recurrence; the
Hodge-Deligne step carries the exponents across L -> uv as (uv)^(k-1).
"""

from __future__ import annotations

from typing import List, Mapping, Optional

from . import localdata
from .localdata import MOTIVIC_RING
from .power import (
    EulerProduct,
    MONOMIAL_KERNEL,
    base_series,
    exp_map,
    pow_series,
)
from .rings import (
    INTEGERS,
    MonomialMap,
    Polynomial,
    RingDescriptor,
    RingMismatchError,
    _Frozen,
    _json_int,
)
from .series import Series


class VarietyClass(_Frozen):
    """A class for the pipeline: polynomial representation plus dimension.

    The representation lives in whichever ring the chosen pipeline uses:
    Z[L^(+-)] for motivic output, Z[u, v] for Hodge-Deligne input, the
    plain integers for Euler characteristics.
    """

    __slots__ = ("representation", "dimension")

    def __init__(self, representation, dimension: int):
        if isinstance(representation, int):
            representation = Polynomial.constant(INTEGERS, representation)
        if not isinstance(representation, Polynomial):
            raise TypeError("representation must be a Polynomial or int")
        if not isinstance(dimension, int) or dimension < 1:
            raise ValueError("dimension must be a positive integer")
        object.__setattr__(self, "representation", representation)
        object.__setattr__(self, "dimension", dimension)

    def __repr__(self):
        return "VarietyClass(%s, dimension=%d)" % (self.representation, self.dimension)


class LocalHilbertData(_Frozen):
    """Punctual series of affine d-space at the origin, truncated.

    Coefficient n is the class of the rank-n punctual locus; a sanity
    contract holds for every dimension (constant term 1, a single
    reduced point in degree 1) and the d = 1 series is all ones.
    """

    __slots__ = ("dimension", "series")

    def __init__(self, dimension: int, series: Series):
        if not isinstance(dimension, int) or dimension < 1:
            raise ValueError("dimension must be a positive integer")
        if series.ring.nvars != 1:
            raise ValueError("local data must live in a one-variable ring (L)")
        if not series.is_unital():
            raise ValueError("local series must have constant term 1")
        if series.order >= 1 and series.coefficient(1) != 1:
            raise ValueError(
                "degree-1 coefficient must be 1 (a single reduced point), got %s"
                % series.coefficient(1)
            )
        if dimension == 1:
            for n, c in enumerate(series.coefficients):
                if c != 1:
                    raise ValueError(
                        "curve-point data must be all ones, got %s at t^%d" % (c, n)
                    )
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "series", series)

    def __repr__(self):
        return "LocalHilbertData(dimension=%d, order=%d)" % (
            self.dimension, self.series.order)

    def truncate(self, order: int) -> "LocalHilbertData":
        """The data to a lower order, keeping any cached factorization.

        Factors (1-t^i)^(-b_i) with i > order are 1 mod t^(order+1), so
        the truncated series factors into the first ``order`` exponents.
        """
        if order == self.series.order:
            return self
        series = self.series.truncate(order)
        for key, product in self.series._factor_cache.items():
            series._factor_cache[key] = EulerProduct(
                series.ring, order, product.exponents[:order])
        return LocalHilbertData(self.dimension, series)

    def to_json(self, source: str = "") -> dict:
        return {
            "dimension": self.dimension,
            "source": source,
            "series": self.series.to_json(),
        }

    @classmethod
    def from_json(cls, obj) -> "LocalHilbertData":
        if not isinstance(obj, Mapping):
            raise ValueError("local data must be a JSON object")
        if "source" not in obj:
            raise ValueError("local data files must carry a 'source' string")
        for key in ("dimension", "series"):
            if key not in obj:
                raise ValueError("local data is missing the %r key" % key)
        dimension = _json_int(obj["dimension"], "local data 'dimension'")
        return cls(dimension, Series.from_json(obj["series"]))


def _surface_series(order: int) -> Series:
    """prod_k (1 - L^(k-1) t^k)^(-1) to the given order, oracle-checked.

    The product is Exp of sum_k L^(k-1) t^k; its low-order coefficients
    must agree with the bundled file, which was generated from the
    partition-sum oracle.  The series was assembled from exactly those
    exponents and the factorization is unique, so they go into its
    factorization cache.
    """
    L = Polynomial.variable(MOTIVIC_RING, "L")
    exponents = [L ** (k - 1) for k in range(1, order + 1)]
    series = exp_map(exponents, order=order, ring=MOTIVIC_RING)
    bundled = localdata.load_surface_series()
    depth = min(order, bundled.order)
    if series.truncate(depth) != bundled.truncate(depth):
        raise AssertionError(
            "surface series disagrees with the bundled oracle-generated data"
        )
    series._factor_cache[MONOMIAL_KERNEL] = EulerProduct(MOTIVIC_RING, order,
                                                         exponents)
    return series


# The largest punctual surface series built so far.
_SURFACE_CACHE: Optional[LocalHilbertData] = None


def _surface_local(order: int) -> LocalHilbertData:
    global _SURFACE_CACHE
    if _SURFACE_CACHE is None or _SURFACE_CACHE.series.order < order:
        _SURFACE_CACHE = LocalHilbertData(2, _surface_series(order))
    return _SURFACE_CACHE.truncate(order)


def local_series(dimension: int, order: int,
                 user_data: Optional[LocalHilbertData] = None
                 ) -> LocalHilbertData:
    """Punctual series for affine d-space: bundled for d <= 2, else supplied.

    For curves every degree contributes the single ideal (t^n), so the
    series is all ones.  For surfaces the series is the classical
    infinite product, validated against the bundled partition-sum data
    when first built; it is kept for the rest of the process (at the
    largest order requested) and carries its Euler exponents L^(k-1) in
    its factorization cache.  Higher dimensions have no bundled closed
    form and require ``user_data``, which is returned truncated and
    never cached.
    """
    if not isinstance(order, int) or order < 0:
        raise ValueError("order must be a nonnegative integer")
    if user_data is not None:
        if user_data.dimension != dimension:
            raise ValueError(
                "user data is for dimension %d, requested %d"
                % (user_data.dimension, dimension)
            )
        if user_data.series.order < order:
            raise ValueError(
                "user data only reaches order %d, requested %d"
                % (user_data.series.order, order)
            )
        return user_data.truncate(order)
    if dimension == 1:
        ones = Series(MOTIVIC_RING, order, [1] * (order + 1))
        return LocalHilbertData(1, ones)
    if dimension == 2:
        return _surface_local(order)
    raise ValueError(
        "no closed form is bundled for dimension %d; supply user_data "
        "with the punctual series" % dimension
    )


def global_series(X: VarietyClass, local: LocalHilbertData,
                  order: int) -> Series:
    """Generating series of the Hilbert schemes of X: local series to the [X]."""
    if X.representation.ring != local.series.ring:
        raise RingMismatchError(
            "class over %s, local data over %s"
            % (X.representation.ring, local.series.ring)
        )
    if X.dimension != local.dimension:
        raise ValueError(
            "class has dimension %d, local data dimension %d"
            % (X.dimension, local.dimension)
        )
    return pow_series(local.truncate(order).series, X.representation)


def euler_specialization(S: Series) -> Series:
    """Send every coefficient to its value at all-variables-one."""
    return S.map_coefficients(
        lambda p: Polynomial.constant(INTEGERS, p.evaluate_at_ones()),
        INTEGERS,
    )


def hodge_deligne_series(X: VarietyClass, order: int,
                         user_data: Optional[LocalHilbertData] = None
                         ) -> Series:
    """Series of Hodge-Deligne polynomials of the Hilbert schemes of X.

    ``X.representation`` is the polynomial e_X itself, in a two-variable
    ring.  The bundled local series is pushed through L -> uv (the image
    of the affine line) and then raised to the power e_X.
    """
    target = X.representation.ring
    if target.nvars != 2:
        raise RingMismatchError(
            "Hodge-Deligne input must live in a two-variable ring, got %s" % target
        )
    local = local_series(X.dimension, order, user_data)
    return pow_series(_uv_image(local.series, target), X.representation)


def _uv_image(series: Series, target: RingDescriptor) -> Series:
    """The local series under L -> uv, with its factorization transported.

    L -> uv sends monomials to unit monomials, which commutes with the
    monomial kernel (see :func:`power.transport_check`), so a cached
    factorization maps exponent by exponent.
    """
    u, v = (Polynomial.variable(target, name) for name in target.variables)
    to_uv = MonomialMap(series.ring, target, {series.ring.variables[0]: u * v})
    mapped = series.map_coefficients(to_uv, target)
    known = series._factor_cache.get(MONOMIAL_KERNEL)
    if known is not None:
        mapped._factor_cache[MONOMIAL_KERNEL] = EulerProduct(
            target, known.order, [to_uv(b) for b in known.exponents])
    return mapped


def kapranov_zeta(X, order: int) -> Series:
    """Zeta series of a class: coefficient n is the n-th symmetric power."""
    rep = X.representation if isinstance(X, VarietyClass) else X
    return base_series(rep, order)


def _direct_affine_series(dimension: int, order: int) -> Series:
    """Series of affine d-space assembled by hand, for cross-checking.

    Uses nothing from the power machinery: d = 1 is the geometric series
    in L*t, d = 2 multiplies out explicit geometric factors
    (1 - L^(k+1) t^k)^(-1).
    """
    L = Polynomial.variable(MOTIVIC_RING, "L")
    if dimension == 1:
        return Series(MOTIVIC_RING, order, [L ** n for n in range(order + 1)])
    if dimension == 2:
        result = Series.one(MOTIVIC_RING, order)
        for k in range(1, order + 1):
            zero = Polynomial.zero(MOTIVIC_RING)
            coeffs = [zero] * (order + 1)
            for j in range(order // k + 1):
                coeffs[j * k] = (L ** (k + 1)) ** j
            result = result * Series(MOTIVIC_RING, order, coeffs)
        return result
    raise ValueError("direct product form available only for d in {1, 2}")


def affine_consistency_check(dimension: int, order: int,
                             report: Optional[List[str]] = None) -> bool:
    """Check the local-to-global pipeline on affine space itself.

    Two statements are verified: the series of affine d-space equals the
    punctual series raised to the power L^d (compared against a directly
    assembled product), and, in the Laurent ring, powering that series
    by L^(-d) [X] recovers the punctual series to the power [X] for a
    selection of sample classes.  Failures are described in ``report``
    when a list is passed.
    """
    if report is None:
        report = []
    local = local_series(dimension, order).series
    L = Polynomial.variable(MOTIVIC_RING, "L")
    affine = pow_series(local, L ** dimension)
    if affine != _direct_affine_series(dimension, order):
        report.append(
            "d=%d: local series to the power L^%d does not match the "
            "directly assembled product" % (dimension, dimension)
        )
    inverse_power = Polynomial.monomial(MOTIVIC_RING, (-dimension,))
    samples = [Polynomial.zero(MOTIVIC_RING), Polynomial.one(MOTIVIC_RING),
               L, L + 1, L ** 2, 2 * L]
    for X in samples:
        lhs = pow_series(affine, inverse_power * X)
        rhs = pow_series(local, X)
        if lhs != rhs:
            report.append(
                "d=%d: rescaled power disagrees at [X] = %s" % (dimension, X)
            )
    return not report
