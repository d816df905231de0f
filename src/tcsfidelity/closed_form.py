"""Closed-form fidelity, optimal mode-2 displacement, and Bures distance.

All functions here are scalar formulas in the state parameters; the heavier
numerical routes (Gaussian integral engine, Fock-space oracle, numerical
maximization) live in sibling modules and must reproduce these values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .states import DisplacedThermalState, ThermalParams, _squared_modulus


@dataclass(frozen=True)
class FidelityValue:
    """A transition probability, unchecked: routes.RouteResult judges its range.
    Kept only because perfbench reads ``.value``, until ROADMAP item 1."""

    value: float

    def __float__(self) -> float:
        return self.value


def thermal_fidelity(n1: float, n2: float) -> FidelityValue:
    """Fidelity between two undisplaced thermal states with occupancies n1, n2.

    Evaluated in the conjugate form
        (sqrt((n1+1)(n2+1)) + sqrt(n1 n2))^2 / (n1 + n2 + 1)^2,
    which is free of subtractive cancellation; equal occupancies
    short-circuit to exactly 1. Takes any occupancy ThermalParams accepts.
    """
    n1, n2 = ThermalParams(n1).mean_occupancy, ThermalParams(n2).mean_occupancy
    if n1 == n2:
        return FidelityValue(1.0)
    a = (n1 + 1.0) * (n2 + 1.0)
    b = n1 * n2
    c = n1 + n2 + 1.0
    value = (a + b + 2.0 * math.sqrt(a * b)) / (c * c)
    return FidelityValue(min(value, 1.0))


def tcs_fidelity(
    state1: DisplacedThermalState, state2: DisplacedThermalState
) -> FidelityValue:
    """Fidelity between two displaced thermal states.

    The thermal fidelity times a Gaussian factor in the displacement
    difference, exp(-|a1 - a2|^2 / (n1 + n2 + 1)).
    """
    n1 = state1.mean_occupancy
    n2 = state2.mean_occupancy
    base = thermal_fidelity(n1, n2).value
    diff = state2.displacement - state1.displacement
    value = base * math.exp(
        -_squared_modulus(diff, "alpha2 - alpha1") / (n1 + n2 + 1.0)
    )
    if value == 0.0:
        raise ArithmeticError(
            f"fidelity underflows double precision at |a1 - a2| = {abs(diff):g} "
            f"for these occupancies"
        )
    return FidelityValue(value)


def optimal_beta(
    state1: DisplacedThermalState, state2: DisplacedThermalState
) -> complex:
    """Mode-2 displacement maximizing the purification overlap.

    beta = (sqrt(s1) + sqrt(s2)) / (1 + sqrt(s1 s2)) * (a2 - a1)*.
    Depends on both occupancies even when they are equal; takes any occupancy.
    """
    s1, s2 = state1.s, state2.s
    scale = (math.sqrt(s1) + math.sqrt(s2)) / (1.0 + math.sqrt(s1 * s2))
    return scale * (state2.displacement - state1.displacement).conjugate()


def tcs_bures_distance(
    state1: DisplacedThermalState, state2: DisplacedThermalState
) -> float:
    """Bures distance sqrt(2 (1 - sqrt(F))) between two displaced thermal
    states, free of F's own rounding near F = 1.

    With c = n1 + n2 + 1 and x = |a1 - a2|^2 / (2c), sqrt(F) is
    (1 - g) exp(-x) for the thermal gap
        g = [(n1 - n2)^2 / (sqrt(n1+1) + sqrt(n2+1))^2
             + (n1 - n2)^2 / (sqrt(n1) + sqrt(n2))^2] / (2c),
    so 1 - sqrt(F) = g + (1 - g)(-expm1(-x)), a sum of non-negative terms.
    """
    n1, n2 = state1.mean_occupancy, state2.mean_occupancy
    c = n1 + n2 + 1.0
    gap = 0.0
    if n1 != n2:
        diff = n1 - n2
        upper = diff / (math.sqrt(n1 + 1.0) + math.sqrt(n2 + 1.0))
        lower = diff / (math.sqrt(n1) + math.sqrt(n2))
        gap = (upper * upper + lower * lower) / (2.0 * c)
    shift = state2.displacement - state1.displacement
    x = _squared_modulus(shift, "alpha2 - alpha1") / (2.0 * c)
    return math.sqrt(2.0 * (gap - (1.0 - gap) * math.expm1(-x)))


def bures_distance(fidelity: FidelityValue | float) -> float:
    """Bures distance sqrt(2 (1 - sqrt(F))) from a fidelity in (0, 1], taken as
    sqrt(2 (1 - F) / (1 + sqrt(F))): 1 - sqrt(F) cancels near F = 1, 1 - F never."""
    f = float(fidelity)
    if not (0.0 < f <= 1.0):
        raise ValueError(f"fidelity must lie in (0, 1], got {f}")
    return math.sqrt(2.0 * (1.0 - f) / (1.0 + math.sqrt(f)))
