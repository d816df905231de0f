"""Uhlmann fidelity between displaced thermal states.

Four mutually validating routes: the closed-form expression, the overlap
of the optimal two-mode Gaussian purifications, numerical maximization of
that overlap over the free mode-2 displacement, and a truncated Fock-space
matrix oracle. ``compute_route`` runs any of them by name, ``compare`` runs
several side by side, and ``ROUTES`` lists them in report order.
"""

from .closed_form import (
    MAX_OCCUPANCY,
    FidelityValue,
    bures_distance,
    log_overlap_probability,
    optimal_beta,
    overlap_exponent_coefficients,
    tcs_fidelity,
    thermal_fidelity,
)
from .fock_oracle import (
    DEFAULT_CUTOFF,
    FockMatrix,
    TwoModeVector,
    displaced_thermal_fidelity,
    displaced_thermal_matrix,
    displacement_matrix,
    schmidt_purification,
    thermal_density_matrix,
    thermal_spectrum,
    uhlmann_fidelity,
)
from .gaussian_overlap import OverlapResult, pure_overlap
from .optimizer import (
    OptimizationResult,
    maximize_overlap,
    objective,
    purification_forms,
)
from .routes import ROUTES, RouteResult, compare, compute_route
from .states import (
    BOLTZMANN_K,
    HBAR,
    DisplacedThermalState,
    GaussianForm,
    PurificationSpec,
    ThermalParams,
    cf_phase_space_vector,
    gaussian_form_cf,
    mean_occupancy_from_temperature,
    purification_cf,
    purification_gaussian_form,
    tcs_cf,
    weyl_compose,
)

__version__ = "0.1.0"

__all__ = [
    "BOLTZMANN_K",
    "DEFAULT_CUTOFF",
    "HBAR",
    "MAX_OCCUPANCY",
    "ROUTES",
    "DisplacedThermalState",
    "FidelityValue",
    "FockMatrix",
    "GaussianForm",
    "OptimizationResult",
    "OverlapResult",
    "PurificationSpec",
    "RouteResult",
    "ThermalParams",
    "TwoModeVector",
    "bures_distance",
    "cf_phase_space_vector",
    "compare",
    "compute_route",
    "displaced_thermal_fidelity",
    "displaced_thermal_matrix",
    "displacement_matrix",
    "gaussian_form_cf",
    "log_overlap_probability",
    "maximize_overlap",
    "mean_occupancy_from_temperature",
    "objective",
    "optimal_beta",
    "overlap_exponent_coefficients",
    "pure_overlap",
    "purification_cf",
    "purification_forms",
    "purification_gaussian_form",
    "schmidt_purification",
    "tcs_cf",
    "tcs_fidelity",
    "thermal_density_matrix",
    "thermal_fidelity",
    "thermal_spectrum",
    "uhlmann_fidelity",
    "weyl_compose",
]
