"""Uhlmann fidelity between displaced thermal states.

Four mutually validating routes: the closed-form expression, the overlap
of the optimal two-mode Gaussian purifications, numerical maximization of
that overlap over the free mode-2 displacement, and a truncated Fock-space
matrix oracle. ``compute_route`` runs any of them by name, ``compare`` runs
several side by side, and ``ROUTES`` lists them in report order. Outside the
routes, the oracle takes a state as a plain array: the factor B of its
density matrix rho = B B^dag, which ``uhlmann_fidelity`` compares.
"""

from .closed_form import (
    FidelityValue,
    bures_distance,
    optimal_beta,
    tcs_fidelity,
    thermal_fidelity,
)
from .fock_oracle import (
    DEFAULT_CUTOFF,
    displaced_thermal_fidelity,
    displaced_thermal_matrix,
    displacement_matrix,
    schmidt_purification,
    thermal_spectrum,
    uhlmann_fidelity,
)
from .gaussian_overlap import OverlapResult, pure_overlap
from .optimizer import OptimizationResult, maximize_overlap, purification_forms
from .routes import MAX_OCCUPANCY, ROUTES, RouteResult, compare, compute_route
from .states import (
    DisplacedThermalState,
    GaussianForm,
    PurificationSpec,
    ThermalParams,
    mean_occupancy_from_temperature,
    purification_cf,
    purification_gaussian_form,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_CUTOFF",
    "MAX_OCCUPANCY",
    "ROUTES",
    "DisplacedThermalState",
    "FidelityValue",
    "GaussianForm",
    "OptimizationResult",
    "OverlapResult",
    "PurificationSpec",
    "RouteResult",
    "ThermalParams",
    "bures_distance",
    "compare",
    "compute_route",
    "displaced_thermal_fidelity",
    "displaced_thermal_matrix",
    "displacement_matrix",
    "maximize_overlap",
    "mean_occupancy_from_temperature",
    "optimal_beta",
    "pure_overlap",
    "purification_cf",
    "purification_forms",
    "purification_gaussian_form",
    "schmidt_purification",
    "tcs_fidelity",
    "thermal_fidelity",
    "thermal_spectrum",
    "uhlmann_fidelity",
]
