"""Closed-form fidelity, purification overlap, and Bures distance.

All functions here are scalar formulas in the state parameters; the heavier
numerical routes (Gaussian integral engine, Fock-space oracle, numerical
maximization) live in sibling modules and must reproduce these values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .states import DisplacedThermalState, PurificationSpec, _squared_modulus

#: Largest accepted mean occupancy, the limit of the two Gaussian routes: their
#: relative error stays within 8 eps (max(1, n1, n2) + |ln F|), which grows
#: linearly in n. The closed form alone stays within 2.7e-16 up to n = 1e15;
#: a cap per route is ROADMAP item 3.
MAX_OCCUPANCY = 1e8


@dataclass(frozen=True)
class FidelityValue:
    """Transition probability in (0, 1]."""

    value: float

    def __post_init__(self) -> None:
        v = self.value
        if not (isinstance(v, (int, float)) and 0.0 < v <= 1.0):
            raise ValueError(f"fidelity must lie in (0, 1], got {v!r}")
        object.__setattr__(self, "value", float(v))

    def __float__(self) -> float:
        return self.value


def _check_occupancy(n: float, name: str) -> float:
    if not (isinstance(n, (int, float)) and math.isfinite(n)):
        raise ValueError(f"{name} must be finite, got {n!r}")
    if n < 0.0:
        raise ValueError(f"{name} must be non-negative, got {n}")
    if n > MAX_OCCUPANCY:
        raise ValueError(
            f"{name}={n} exceeds the supported range (max {MAX_OCCUPANCY:g}); "
            "double precision breaks down beyond it"
        )
    return float(n)


def thermal_fidelity(n1: float, n2: float) -> FidelityValue:
    """Fidelity between two undisplaced thermal states with occupancies n1, n2.

    Evaluated in the conjugate form
        (sqrt((n1+1)(n2+1)) + sqrt(n1 n2))^2 / (n1 + n2 + 1)^2,
    which is free of subtractive cancellation; equal occupancies
    short-circuit to exactly 1.
    """
    n1 = _check_occupancy(n1, "n1")
    n2 = _check_occupancy(n2, "n2")
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
    return FidelityValue(min(value, 1.0))


def overlap_exponent_coefficients(n1: float, n2: float) -> tuple[float, float]:
    """Quadratic (A) and linear (B) exponent coefficients of the log overlap.

    With s_i = n_i / (n_i + 1):
        A = (1 + sqrt(s1 s2)) / (1 - sqrt(s1 s2)) >= 1
        B = (sqrt(s1) + sqrt(s2)) / (1 - sqrt(s1 s2)) >= 0
    The log overlap is log F_th - A (|beta|^2 + |a1 - a2|^2) + 2 B Re[beta (a2 - a1)].
    """
    n1 = _check_occupancy(n1, "n1")
    n2 = _check_occupancy(n2, "n2")
    s1 = n1 / (n1 + 1.0)
    s2 = n2 / (n2 + 1.0)
    root = math.sqrt(s1 * s2)
    a = (1.0 + root) / (1.0 - root)
    b = (math.sqrt(s1) + math.sqrt(s2)) / (1.0 - root)
    return a, b


def log_overlap_probability(
    spec_ref: PurificationSpec, spec_free: PurificationSpec
) -> float:
    """Natural log of the transition probability between two purifications.

    ``spec_ref`` is the fixed reference purification and must carry zero
    mode-2 displacement; ``spec_free`` carries the free displacement beta.
    The cross term couples beta to (a2 - a1) without conjugation, i.e. as
    2 Re[beta (a2 - a1)]; this convention is pinned by the stationarity of
    the analytic maximizer (see optimal_beta) and tested as such.
    """
    if spec_ref.beta != 0:
        raise ValueError(
            "reference purification must have zero mode-2 displacement, "
            f"got beta={spec_ref.beta}"
        )
    n1 = spec_ref.thermal.mean_occupancy
    n2 = spec_free.thermal.mean_occupancy
    a, b = overlap_exponent_coefficients(n1, n2)
    diff = spec_free.alpha - spec_ref.alpha
    beta = spec_free.beta
    log_prefactor = math.log(thermal_fidelity(n1, n2).value)
    return (
        log_prefactor
        - a * (_squared_modulus(beta, "beta") + _squared_modulus(diff, "alpha2 - alpha1"))
        + 2.0 * b * (beta * diff).real
    )


def optimal_beta(
    state1: DisplacedThermalState, state2: DisplacedThermalState
) -> complex:
    """Mode-2 displacement maximizing the purification overlap.

    beta = (sqrt(s1) + sqrt(s2)) / (1 + sqrt(s1 s2)) * (a2 - a1)*.
    Depends on both occupancies even when they are equal.
    """
    n1 = _check_occupancy(state1.mean_occupancy, "n1")
    n2 = _check_occupancy(state2.mean_occupancy, "n2")
    s1 = n1 / (n1 + 1.0)
    s2 = n2 / (n2 + 1.0)
    scale = (math.sqrt(s1) + math.sqrt(s2)) / (1.0 + math.sqrt(s1 * s2))
    return scale * (state2.displacement - state1.displacement).conjugate()


def bures_distance(fidelity: FidelityValue | float) -> float:
    """Bures distance sqrt(2 (1 - sqrt(F))) from a fidelity in (0, 1]."""
    f = float(fidelity)
    if not (0.0 < f <= 1.0):
        raise ValueError(f"fidelity must lie in (0, 1], got {f}")
    return math.sqrt(2.0 * (1.0 - math.sqrt(f)))
