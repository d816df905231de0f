"""Numerical maximization of the purification overlap over the free displacement.

The objective is the Gaussian engine's log overlap of the two purifications,
an exactly quadratic, strictly concave function of (Re beta, Im beta). The
default Newton method therefore takes one step: the engine's triangular
factor of V1 + V2 gives the mode-2 mean that zeroes the mode-2 residual, and
with it the maximum. A derivative-free Nelder-Mead method maximizes the same
objective along a generic search path. Neither method takes a formula from
the closed form, whose analytic maximizer the tests use as the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gaussian_overlap, states
from .closed_form import _check_occupancy
from .states import DisplacedThermalState, GaussianForm, PurificationSpec

METHODS = ("newton", "nelder-mead")


@dataclass(frozen=True)
class OptimizerConfig:
    method: str = "newton"
    beta_tol: float = 1e-8
    value_tol: float = 1e-10
    gradient_tol: float = 1e-6
    max_iters: int = 200
    initial_beta: complex = 0j

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        for name in ("beta_tol", "value_tol", "gradient_tol"):
            if not getattr(self, name) > 0.0:  # NaN included
                raise ValueError(f"{name} must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True)
class OptimizationResult:
    beta_star: complex
    value: float
    iterations: int
    converged: bool
    gradient_norm: float


def _purification_forms(
    state1: DisplacedThermalState, state2: DisplacedThermalState, beta: complex = 0j
) -> tuple[GaussianForm, GaussianForm]:
    """The purifications of state1 and, beta-displaced, of state2 in the frame
    of state1, so that alpha2 - alpha1 is rounded once and only there."""
    diff = state2.displacement - state1.displacement
    return (
        states.purification_gaussian_form(PurificationSpec(state1.thermal, 0j, 0j)),
        states.purification_gaussian_form(PurificationSpec(state2.thermal, diff, beta)),
    )


def objective(
    state1: DisplacedThermalState, state2: DisplacedThermalState, beta: complex
) -> float:
    """Log overlap of the reference purification of state1 with the
    beta-displaced purification of state2, from the Gaussian engine."""
    return gaussian_overlap.pure_overlap(*_purification_forms(state1, state2, beta)).log_value


def finite_difference_gradient(
    state1: DisplacedThermalState,
    state2: DisplacedThermalState,
    beta: complex,
    step: float = 1e-5,
) -> np.ndarray:
    """Central-difference gradient of the log overlap in (Re beta, Im beta)."""

    def f(z: complex) -> float:
        return objective(state1, state2, z)

    return np.array(
        [
            (f(beta + step) - f(beta - step)) / (2.0 * step),
            (f(beta + 1j * step) - f(beta - 1j * step)) / (2.0 * step),
        ]
    )


def _maximize_nelder_mead(state1, state2, config: OptimizerConfig) -> OptimizationResult:
    # Imported here so that only this method pays for scipy's import.
    from scipy.optimize import minimize

    start = np.array([config.initial_beta.real, config.initial_beta.imag])
    result = minimize(
        lambda uv: -objective(state1, state2, complex(uv[0], uv[1])),
        start,
        method="Nelder-Mead",
        options={
            "xatol": 1e-3 * config.beta_tol,
            "fatol": 1e-2 * config.value_tol,
            "maxiter": config.max_iters,
            "maxfev": 8 * config.max_iters,
        },
    )
    beta = complex(result.x[0], result.x[1])
    gradient_norm = float(
        np.linalg.norm(finite_difference_gradient(state1, state2, beta))
    )
    return OptimizationResult(
        beta_star=beta,
        value=math.exp(-float(result.fun)),
        iterations=int(result.nit),
        converged=bool(result.success) and gradient_norm <= config.gradient_tol,
        gradient_norm=gradient_norm,
    )


def maximize_overlap(
    state1: DisplacedThermalState,
    state2: DisplacedThermalState,
    config: OptimizerConfig | None = None,
) -> OptimizationResult:
    """Maximize the purification overlap over beta.

    Newton always converges in its one step. Nelder-Mead's non-convergence
    within config.max_iters is reported through ``converged=False`` with
    diagnostics, never silently.
    """
    config = config or OptimizerConfig()
    _check_occupancy(state1.mean_occupancy, "n1")
    _check_occupancy(state2.mean_occupancy, "n2")
    states._squared_modulus(state2.displacement - state1.displacement, "alpha2 - alpha1")
    if config.method == "nelder-mead":
        return _maximize_nelder_mead(state1, state2, config)
    # Newton: the objective is exactly quadratic in beta, so one triangular
    # step of the engine lands on its maximum and zeroes the mode-2 residual.
    overlap, beta = gaussian_overlap.max_pure_overlap(*_purification_forms(state1, state2))
    return OptimizationResult(
        beta_star=beta, value=overlap.value, iterations=1, converged=True, gradient_norm=0.0
    )
