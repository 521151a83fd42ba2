"""Generating series of Hilbert schemes of points and their specializations.

The pipeline has two halves: bundled local data (the punctual series of
affine d-space at the origin, shipped for d = 1, 2 and user-supplied
beyond) and the global step, which is nothing but raising the local
series to the power of the class of the variety.  Specializing the
coefficients (all variables to 1, or L to uv) commutes with the power
operation, which is what makes the Euler-characteristic and
Hodge-Deligne formulas drop out.

The bundled punctual series do not depend on the variety, so each is
built once per process (the largest order asked for is kept and
truncated on later requests).  Each is assembled from its Euler
exponents (b_1 = 1 for curves, b_k = L^(k-1) for surfaces) and carries
them in its factorization cache, so raising it to a power runs only the
forward recurrence.  L -> uv is a monomial map, so it commutes with the
power structure: the Hodge-Deligne step maps only the punctual series'
Euler exponents and assembles them with the exponent e_X.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Dict, List, Optional

from . import localdata
from .localdata import MOTIVIC_RING
from .power import (
    EulerProduct,
    MONOMIAL_KERNEL,
    _assemble,
    assemble,
    base_series,
    factor,
    pow_series,
)
from .rings import (
    INTEGERS,
    MonomialMap,
    Polynomial,
    RingMismatchError,
    _Frozen,
    _check_count,
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
        if type(representation) is int:
            representation = Polynomial.constant(INTEGERS, representation)
        if not isinstance(representation, Polynomial):
            raise TypeError("representation must be a Polynomial or int")
        _check_count(dimension, "dimension", 1)
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
        _check_count(dimension, "dimension", 1)
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
        """The data to a lower order, keeping any cached factorization
        (see :meth:`Series.truncate`)."""
        return LocalHilbertData(self.dimension, self.series.truncate(order))

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
        if not isinstance(obj.get("source"), str):
            raise ValueError("local data files must carry a 'source' string")
        for key in ("dimension", "series"):
            if key not in obj:
                raise ValueError("local data is missing the %r key" % key)
        dimension = _json_int(obj["dimension"], "local data 'dimension'")
        return cls(dimension, Series.from_json(obj["series"]))


def _bundled_series(dimension: int, order: int) -> Series:
    """The punctual series for d = 1 or 2 to the given order, assembled
    from its Euler exponents: 1/(1-t) (b_1 = 1) for curves, Goettsche's
    prod_k (1 - L^(k-1) t^k)^(-1) (b_k = L^(k-1)) for surfaces.

    The factorization is unique, so the exponents go into the series'
    factorization cache.  The surface series' low-order coefficients
    must agree with the bundled file, which was generated from the
    partition-sum oracle.
    """
    exponents = ([1] + [0] * order if dimension == 1 else
                 [Polynomial.monomial(MOTIVIC_RING, (k - 1,))
                  for k in range(1, order + 1)])[:order]
    product = EulerProduct(MOTIVIC_RING, order, exponents)
    series = assemble(product)
    if dimension == 2:
        bundled = localdata.load_surface_series()
        depth = min(order, bundled.order)
        if series.truncate(depth) != bundled.truncate(depth):
            raise AssertionError("surface series disagrees with the bundled "
                                 "oracle-generated data")
    series._factor_cache[MONOMIAL_KERNEL] = product
    return series


# The largest punctual series built so far, per bundled dimension.
_BUNDLED: Dict[int, LocalHilbertData] = {}


def local_series(dimension: int, order: int,
                 user_data: Optional[LocalHilbertData] = None
                 ) -> LocalHilbertData:
    """Punctual series for affine d-space: bundled for d <= 2, else supplied.

    For curves every degree contributes the single ideal (t^n), so the
    series is all ones; for surfaces it is the classical infinite
    product, validated against the bundled partition-sum data when first
    built.  A bundled series is kept for the rest of the process (at the
    largest order requested) and carries its Euler exponents, which every
    truncation keeps, so :func:`global_series` and
    :func:`hodge_deligne_series` read them without a reverse recurrence.
    Higher dimensions have no bundled closed form and require
    ``user_data``, which is returned truncated and never cached.
    """
    _check_count(dimension, "dimension", 1)
    _check_count(order, "order")
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
    if dimension > 2:
        raise ValueError(
            "no closed form is bundled for dimension %d; supply user_data "
            "with the punctual series" % dimension
        )
    cached = _BUNDLED.get(dimension)
    if cached is None or cached.series.order < order:
        cached = _BUNDLED[dimension] = LocalHilbertData(
            dimension, _bundled_series(dimension, order))
    return cached.truncate(order)


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
    ring.  The Euler exponents of the local series are mapped through
    L -> uv (the image of the affine line), which commutes with the
    power structure, and assembled with every exponent times e_X.
    """
    target = X.representation.ring
    if target.nvars != 2:
        raise RingMismatchError(
            "Hodge-Deligne input must live in a two-variable ring, got %s" % target
        )
    local = local_series(X.dimension, order, user_data).series
    u, v = (Polynomial.variable(target, name) for name in target.variables)
    to_uv = MonomialMap(local.ring, target, {local.ring.variables[0]: u * v})
    exponents = [to_uv(b)._terms for b in factor(local).exponents]
    return _assemble(target, order, exponents, X.representation._terms)


def kapranov_zeta(X, order: int) -> Series:
    """Zeta series of a class (a :class:`VarietyClass`, a polynomial, or
    an int as a constant over Z): coefficient n is the n-th symmetric
    power."""
    if isinstance(X, VarietyClass):
        X = X.representation
    elif type(X) is int:
        X = Polynomial.constant(INTEGERS, X)
    elif not isinstance(X, Polynomial):
        raise TypeError("the class must be an int, a Polynomial or a "
                        "VarietyClass, got %s" % type(X).__name__)
    return base_series(X, order)


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
