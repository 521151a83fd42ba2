"""Exact power structures over polynomial rings, with the generating
series of Hilbert schemes of points as the main application."""

from .rings import (
    INTEGERS,
    MonomialMap,
    Polynomial,
    RingDescriptor,
    RingMismatchError,
)
from .series import Series
from .power import (
    EulerProduct,
    assemble,
    base_series,
    exp_map,
    factor,
    log_map,
    pow_series,
    transport_check,
)
from .oracles import (
    WeightProfile,
    coefficient_formula_count,
    finite_power_enumerate,
    partition_count,
    partitions_enumerate,
    punctual_surface_class_oracle,
)
from .hilbert import (
    LocalHilbertData,
    VarietyClass,
    affine_consistency_check,
    euler_specialization,
    global_series,
    hodge_deligne_series,
    kapranov_zeta,
    local_series,
)
from .localdata import MOTIVIC_RING

__version__ = "0.1.0"

__all__ = [
    "INTEGERS",
    "MOTIVIC_RING",
    "EulerProduct",
    "LocalHilbertData",
    "MonomialMap",
    "Polynomial",
    "RingDescriptor",
    "RingMismatchError",
    "Series",
    "VarietyClass",
    "WeightProfile",
    "affine_consistency_check",
    "assemble",
    "base_series",
    "coefficient_formula_count",
    "euler_specialization",
    "exp_map",
    "factor",
    "finite_power_enumerate",
    "global_series",
    "hodge_deligne_series",
    "kapranov_zeta",
    "local_series",
    "log_map",
    "partition_count",
    "partitions_enumerate",
    "pow_series",
    "punctual_surface_class_oracle",
    "transport_check",
]
