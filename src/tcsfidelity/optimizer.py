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
    and only here; a huge common displacement then cancels exactly. Takes
    any pair of states; routes.compute_route checks the routes' domain.
    """
    diff = state2.displacement - state1.displacement
    return (
        states.purification_gaussian_form(PurificationSpec(state1.thermal, 0j, 0j)),
        states.purification_gaussian_form(PurificationSpec(state2.thermal, diff, beta)),
    )


def maximize_overlap(
    state1: DisplacedThermalState,
    state2: DisplacedThermalState,
    config: OptimizerConfig | None = None,
) -> OptimizationResult:
    """Maximize the purification overlap over beta by one Newton step.

    The objective is exactly quadratic in beta, so one triangular step of the
    engine lands on its maximum and zeroes the mode-2 residual, uncapped: within
    8 eps (max(1, n1, n2) + |ln F|) relative. ``config`` is ignored; see OptimizerConfig.
    """
    overlap, beta = gaussian_overlap.max_pure_overlap(*purification_forms(state1, state2))
    return OptimizationResult(beta_star=beta, value=overlap.value)
