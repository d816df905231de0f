"""Maximization of the purification overlap over the free displacement.

The objective is the Gaussian engine's log overlap of the two purifications,
an exactly quadratic, strictly concave function of (Re beta, Im beta), so
Newton's method takes one step: the engine's triangular factor of V1 + V2
gives the mode-2 mean that zeroes the mode-2 residual, and with it the
maximum. No formula comes from the closed form, whose analytic maximizer the
tests use as the oracle. ``purification_forms`` builds the forms of both
Gaussian routes.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import gaussian_overlap, states
from .closed_form import _check_occupancy
from .states import DisplacedThermalState, GaussianForm, PurificationSpec


@dataclass(frozen=True)
class OptimizerConfig:
    """Inert: the library reads nothing of it. Kept only because perfbench passes
    ``OptimizerConfig(max_iters=200)`` to maximize_overlap, until ROADMAP
    item 1 moves perfbench onto the routes and deletes it."""

    max_iters: int = 200


@dataclass(frozen=True)
class OptimizationResult:
    """The maximizer beta_star and the maximum overlap ``value``.

    ``iterations`` (always 1) and ``converged`` (always True) are constants
    kept only because perfbench reads them, until ROADMAP item 1 deletes them.
    """

    beta_star: complex
    value: float
    iterations: int = 1
    converged: bool = True


def purification_forms(
    state1: DisplacedThermalState, state2: DisplacedThermalState, beta: complex = 0j
) -> tuple[GaussianForm, GaussianForm]:
    """The purifications of state1 and, beta-displaced, of state2 in the frame
    of state1.

    The overlap is invariant under a common mode-1 displacement, so state1
    sits at alpha = 0 and state2 at alpha2 - alpha1, which is rounded once
    and only here; a huge common displacement then cancels exactly. An
    |alpha2 - alpha1|^2 that overflows raises OverflowError naming it.
    """
    diff = state2.displacement - state1.displacement
    states._squared_modulus(diff, "alpha2 - alpha1")
    return (
        states.purification_gaussian_form(PurificationSpec(state1.thermal, 0j, 0j)),
        states.purification_gaussian_form(PurificationSpec(state2.thermal, diff, beta)),
    )


def objective(
    state1: DisplacedThermalState, state2: DisplacedThermalState, beta: complex
) -> float:
    """Log overlap of the reference purification of state1 with the
    beta-displaced purification of state2, from the Gaussian engine."""
    return gaussian_overlap.pure_overlap(*purification_forms(state1, state2, beta)).log_value


def maximize_overlap(
    state1: DisplacedThermalState,
    state2: DisplacedThermalState,
    config: OptimizerConfig | None = None,
) -> OptimizationResult:
    """Maximize the purification overlap over beta by one Newton step.

    The objective is exactly quadratic in beta, so one triangular step of the
    engine lands on its maximum and zeroes the mode-2 residual. ``config`` is
    ignored; see OptimizerConfig.
    """
    _check_occupancy(state1.mean_occupancy, "n1")
    _check_occupancy(state2.mean_occupancy, "n2")
    overlap, beta = gaussian_overlap.max_pure_overlap(*purification_forms(state1, state2))
    return OptimizationResult(beta_star=beta, value=overlap.value)
