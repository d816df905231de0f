"""Numerical maximization of the purification overlap over the free displacement.

The log of the overlap is an exactly quadratic, strictly concave function of
(Re beta, Im beta) whose Hessian is the constant -2A I. The default Newton
method therefore steps by gradient / 2A, with no line search and no linear
solve, and lands on the maximum in a single step; a derivative-free
Nelder-Mead fallback exercises a generic search path. Neither method consults
the analytic maximizer, which the tests use as the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_form import log_overlap_probability, overlap_exponent_coefficients
from .states import DisplacedThermalState, PurificationSpec, _squared_modulus

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


def objective(
    state1: DisplacedThermalState, state2: DisplacedThermalState, beta: complex
) -> float:
    """Log overlap of the reference purification of state1 with the
    beta-displaced purification of state2; concave quadratic in (Re beta, Im beta)."""
    ref = PurificationSpec(state1.thermal, state1.displacement, 0j)
    free = PurificationSpec(state2.thermal, state2.displacement, beta)
    return log_overlap_probability(ref, free)


def _gradient(
    state1: DisplacedThermalState, state2: DisplacedThermalState, beta: complex
) -> tuple[np.ndarray, float]:
    """Gradient of the objective in (Re beta, Im beta), and its curvature 2A:
    the Hessian is -2A times the identity at every beta."""
    a, b = overlap_exponent_coefficients(
        state1.mean_occupancy, state2.mean_occupancy
    )
    diff = state2.displacement - state1.displacement
    # The steps would carry an overflowing |alpha2 - alpha1|^2 into beta, which
    # the objective names first; name the displacement difference here.
    _squared_modulus(diff, "alpha2 - alpha1")
    gradient = np.array(
        [
            -2.0 * a * beta.real + 2.0 * b * diff.real,
            -2.0 * a * beta.imag - 2.0 * b * diff.imag,
        ]
    )
    return gradient, 2.0 * a


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


def _maximize_newton(state1, state2, config: OptimizerConfig) -> OptimizationResult:
    beta = complex(config.initial_beta)
    gradient, curvature = _gradient(state1, state2, beta)
    iterations = 0
    converged = float(np.linalg.norm(gradient)) <= config.gradient_tol
    while not converged and iterations < config.max_iters:
        # The Newton step, exact for the quadratic objective. Divide: tests pin
        # its digits to a linear solve's, which 1 / curvature would not keep.
        step = complex(gradient[0] / curvature, gradient[1] / curvature)
        beta += step
        iterations += 1
        gradient, _ = _gradient(state1, state2, beta)
        converged = (
            float(np.linalg.norm(gradient)) <= config.gradient_tol
            or abs(step) <= 0.1 * config.beta_tol
        )
    # Only an overlap far below underflow makes the objective's terms overflow
    # to inf - inf; max reads that NaN as log 0 and leaves any number as it is.
    return OptimizationResult(
        beta_star=beta,
        value=math.exp(max(-math.inf, objective(state1, state2, beta))),
        iterations=iterations,
        converged=converged,
        gradient_norm=float(np.linalg.norm(gradient)),
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

    Non-convergence within config.max_iters is reported through
    ``converged=False`` with diagnostics, never silently.
    """
    config = config or OptimizerConfig()
    if config.method == "newton":
        return _maximize_newton(state1, state2, config)
    return _maximize_nelder_mead(state1, state2, config)
