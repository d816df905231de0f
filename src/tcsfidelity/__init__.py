"""Uhlmann fidelity between displaced thermal states.

Four mutually validating routes: the closed-form expression, the overlap
of the optimal two-mode Gaussian purifications, numerical maximization of
that overlap over the free mode-2 displacement, and a truncated Fock-space
matrix oracle.
"""

from .closed_form import (
    MAX_OCCUPANCY,
    FidelityValue,
    bures_distance,
    log_overlap_probability,
    optimal_beta,
    overlap_exponent_coefficients,
    overlap_probability,
    tcs_fidelity,
    thermal_fidelity,
)
from .fock_oracle import (
    DEFAULT_CUTOFF,
    FockMatrix,
    TwoModeVector,
    cf_of_two_mode_vector,
    displaced_thermal_matrix,
    displacement_matrix,
    partial_trace_mode2,
    schmidt_purification,
    thermal_density_matrix,
    thermal_spectrum,
    uhlmann_fidelity,
)
from .gaussian_overlap import OverlapResult, pure_overlap
from .optimizer import (
    OptimizationResult,
    OptimizerConfig,
    maximize_overlap,
    objective,
)
from .states import (
    BOLTZMANN_K,
    HBAR,
    PURE_COVARIANCE_DET,
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
    "PURE_COVARIANCE_DET",
    "DisplacedThermalState",
    "FidelityValue",
    "FockMatrix",
    "GaussianForm",
    "OptimizationResult",
    "OptimizerConfig",
    "OverlapResult",
    "PurificationSpec",
    "ThermalParams",
    "TwoModeVector",
    "bures_distance",
    "cf_of_two_mode_vector",
    "cf_phase_space_vector",
    "displaced_thermal_matrix",
    "displacement_matrix",
    "gaussian_form_cf",
    "log_overlap_probability",
    "maximize_overlap",
    "mean_occupancy_from_temperature",
    "objective",
    "optimal_beta",
    "overlap_exponent_coefficients",
    "overlap_probability",
    "partial_trace_mode2",
    "pure_overlap",
    "purification_cf",
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
