"""Exact origin computations of iterated Kahler Laplacians from potentials."""

from .jets import Jet, JetMatrix, log1p, substitute_radial
from .metric import (
    EinsteinReport,
    MetricJet,
    check_k2_identity,
    delta_power_at0,
    einstein_constant,
    euclidean_power_at0,
    fifth_order_check,
    laplacian_apply,
    laplcube_expansion,
    metric_from_potential,
    third_deriv_obstruction,
)
from .fit import (
    FitResult,
    LaplacePolynomial,
    ViolationWitness,
    check_delta_property,
    fit_pk,
    rescaled_value,
)
from .radial import (
    RadialProfile,
    c_constant,
    named_profile,
    normalize,
    profile_from_coeffs,
    psi_functions,
    radial_pk,
    recursion_step,
)
from .rationals import Q
from .series import TSeries

__version__ = "0.1.0"

__all__ = [
    "EinsteinReport",
    "FitResult",
    "Jet",
    "JetMatrix",
    "LaplacePolynomial",
    "MetricJet",
    "Q",
    "RadialProfile",
    "TSeries",
    "ViolationWitness",
    "c_constant",
    "check_delta_property",
    "check_k2_identity",
    "delta_power_at0",
    "einstein_constant",
    "euclidean_power_at0",
    "fifth_order_check",
    "fit_pk",
    "laplacian_apply",
    "laplcube_expansion",
    "log1p",
    "metric_from_potential",
    "named_profile",
    "normalize",
    "profile_from_coeffs",
    "psi_functions",
    "radial_pk",
    "recursion_step",
    "rescaled_value",
    "substitute_radial",
    "third_deriv_obstruction",
    "__version__",
]
