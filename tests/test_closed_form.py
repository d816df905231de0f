"""Tests for the closed-form fidelity, overlap, and Bures-distance formulas."""

import math
import sys
from itertools import product

import mpmath
import numpy as np
import pytest

from tcsfidelity import fock_oracle
from tcsfidelity.closed_form import (
    FidelityValue,
    bures_distance,
    optimal_beta,
    tcs_bures_distance,
    tcs_fidelity,
    thermal_fidelity,
)
from tcsfidelity.routes import compute_route
from tcsfidelity.states import DisplacedThermalState, PurificationSpec, ThermalParams

OCCUPANCY_GRID = (0.0, 0.1, 0.5, 1.0, 2.0, 5.0)
DISPLACEMENT_GRID = (0.0, 0.5, 1.0, 2.0)


def make_state(nbar, alpha):
    return DisplacedThermalState(ThermalParams(nbar), alpha)


def reference_spec(state):
    return PurificationSpec(state.thermal, state.displacement, 0j)


def free_spec(state, beta):
    return PurificationSpec(state.thermal, state.displacement, beta)


# ---------------------------------------------------------------------------
# thermal fidelity
# ---------------------------------------------------------------------------


def test_thermal_fidelity_identical_vacuum():
    assert thermal_fidelity(0.0, 0.0).value == 1.0


@pytest.mark.parametrize("nbar", [0.0, 0.1, 0.5, 1.0, 3.7, 100.0])
def test_thermal_fidelity_equal_occupancies(nbar):
    assert thermal_fidelity(nbar, nbar).value == 1.0


def test_thermal_fidelity_one_zero_is_exactly_half():
    assert thermal_fidelity(1.0, 0.0).value == 0.5


def test_thermal_fidelity_matches_oracle():
    oracle = fock_oracle.uhlmann_fidelity(
        fock_oracle.displaced_thermal_matrix(make_state(1.0, 0j), 80),
        fock_oracle.displaced_thermal_matrix(make_state(0.0, 0j), 80),
    )
    assert abs(oracle - 0.5) < 1e-8


def test_thermal_fidelity_symmetric_exactly():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n1, n2 = rng.uniform(0, 10, 2)
        assert thermal_fidelity(n1, n2).value == thermal_fidelity(n2, n1).value


def test_thermal_fidelity_rejects_bad_input():
    with pytest.raises(ValueError):
        thermal_fidelity(-0.1, 0.0)
    with pytest.raises(ValueError):
        thermal_fidelity(0.0, math.nan)


def test_the_closed_form_route_refuses_an_occupancy_above_the_cap():
    # The cap is the routes' gate, not the formula's: thermal_fidelity itself
    # takes n1 = 1e9 (see the next test).
    with pytest.raises(ValueError, match="^n1=1000000000.0 exceeds the supported range"):
        compute_route("closed_form", make_state(1e9, 0j), make_state(0.0, 0j))


@pytest.mark.parametrize("ratio", [0.0, 0.3, 0.7])
@pytest.mark.parametrize("n1", [1e9, 1e12, 1e15])
def test_thermal_fidelity_meets_the_reference_past_the_cap(n1, ratio, reference_fidelity):
    reference = reference_fidelity(n1, 0j, ratio * n1, 0j)
    value = thermal_fidelity(n1, ratio * n1).value
    assert abs(value - reference) / reference <= 4 * sys.float_info.epsilon


def test_fidelity_value_validation():
    assert float(FidelityValue(0.3)) == 0.3


# ---------------------------------------------------------------------------
# displaced thermal fidelity
# ---------------------------------------------------------------------------


def test_tcs_fidelity_coherent_overlap():
    value = tcs_fidelity(make_state(0.0, 0j), make_state(0.0, 1 + 0j)).value
    assert value == math.exp(-1.0)


def test_tcs_fidelity_identical_states_is_one():
    state = make_state(0.8, 1.2 - 0.3j)
    assert tcs_fidelity(state, state).value == 1.0


def test_tcs_fidelity_derived_value_and_oracle():
    s1 = make_state(1.0, 0j)
    s2 = make_state(0.0, 1 + 0j)
    value = tcs_fidelity(s1, s2).value
    assert value == pytest.approx(0.5 * math.exp(-0.5), rel=1e-15)
    assert value == pytest.approx(0.3032653298563167, rel=1e-15)
    oracle = fock_oracle.uhlmann_fidelity(
        fock_oracle.displaced_thermal_matrix(s1, 80),
        fock_oracle.displaced_thermal_matrix(s2, 80),
    )
    assert abs(oracle - value) < 1e-8


def test_tcs_fidelity_symmetric_exactly():
    rng = np.random.default_rng(9)
    for _ in range(100):
        s1 = make_state(rng.uniform(0, 5), complex(*rng.normal(0, 2, 2)))
        s2 = make_state(rng.uniform(0, 5), complex(*rng.normal(0, 2, 2)))
        assert tcs_fidelity(s1, s2).value == tcs_fidelity(s2, s1).value


def test_tcs_fidelity_joint_displacement_invariance():
    rng = np.random.default_rng(13)
    base1 = make_state(0.7, 0.4 + 0.2j)
    base2 = make_state(1.4, -0.9 + 1.1j)
    reference = tcs_fidelity(base1, base2).value
    for _ in range(50):
        shift = complex(*rng.normal(0, 3, 2))
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        moved1 = make_state(0.7, phase * (0.4 + 0.2j) + shift)
        moved2 = make_state(1.4, phase * (-0.9 + 1.1j) + shift)
        assert abs(tcs_fidelity(moved1, moved2).value - reference) < 1e-14


def test_tcs_fidelity_range_and_uniqueness_of_one():
    assert 0.0 < tcs_fidelity(make_state(2, 1j), make_state(2, 1j)).value <= 1.0
    assert tcs_fidelity(make_state(2, 1j), make_state(2, 1.000001j)).value < 1.0
    assert tcs_fidelity(make_state(2, 1j), make_state(2.000001, 1j)).value < 1.0


def test_tcs_fidelity_reports_underflow():
    # A numerical limit, not an input outside the domain.
    with pytest.raises(ArithmeticError, match="underflow"):
        tcs_fidelity(make_state(0.0, 0j), make_state(0.0, 40.0))


# ---------------------------------------------------------------------------
# purification overlap and its maximizer
# ---------------------------------------------------------------------------


def test_overlap_vacuum_coherent(overlap_probability):
    ref = reference_spec(make_state(0.0, 0j))
    for alpha in (0.5, 1 + 1j, 2j):
        free = PurificationSpec(ThermalParams(0.0), alpha, 0j)
        assert overlap_probability(ref, free) == pytest.approx(
            math.exp(-abs(alpha) ** 2), rel=1e-14
        )


def test_overlap_identical_pure_purifications(overlap_probability):
    ref = reference_spec(make_state(1.3, 0.7 - 0.1j))
    free = PurificationSpec(ThermalParams(1.3), 0.7 - 0.1j, 0j)
    assert overlap_probability(ref, free) == pytest.approx(1.0, abs=1e-15)


def test_overlap_requires_zero_reference_beta(overlap_probability):
    bad_ref = PurificationSpec(ThermalParams(1.0), 0j, 0.1j)
    free = PurificationSpec(ThermalParams(1.0), 1j, 0j)
    with pytest.raises(ValueError):
        overlap_probability(bad_ref, free)


def test_overlap_at_optimal_beta_reproduces_fidelity(overlap_probability):
    # Consistency chain over the sweep grid: inserting the analytic maximizer
    # into the overlap must land on the closed-form fidelity.
    for n1, n2, dalpha in product(OCCUPANCY_GRID, OCCUPANCY_GRID, DISPLACEMENT_GRID):
        s1 = make_state(n1, 0.2 - 0.4j)
        s2 = make_state(n2, 0.2 - 0.4j + dalpha)
        beta = optimal_beta(s1, s2)
        overlap = overlap_probability(reference_spec(s1), free_spec(s2, beta))
        assert abs(overlap - tcs_fidelity(s1, s2).value) < 1e-12


def test_optimal_beta_zero_for_equal_displacements():
    s1 = make_state(1.0, 0.5 + 0.5j)
    s2 = make_state(2.0, 0.5 + 0.5j)
    assert optimal_beta(s1, s2) == 0j


def test_optimal_beta_zero_for_pure_states():
    s1 = make_state(0.0, 0j)
    s2 = make_state(0.0, 3 - 2j)
    assert optimal_beta(s1, s2) == 0j


def test_optimal_beta_derived_value():
    s1 = make_state(1.0, 0j)
    s2 = make_state(1.0, 1 + 0j)
    assert optimal_beta(s1, s2) == pytest.approx(2 * math.sqrt(2) / 3, rel=1e-15)


def test_optimal_beta_is_global_maximum_in_disk(overlap_probability):
    rng = np.random.default_rng(17)
    s1 = make_state(0.5, 1 + 1j)
    s2 = make_state(2.0, -1 + 0j)
    beta_star = optimal_beta(s1, s2)
    ref = reference_spec(s1)
    best = overlap_probability(ref, free_spec(s2, beta_star))
    for _ in range(1000):
        radius = 5.0 * math.sqrt(rng.uniform())
        angle = rng.uniform(0, 2 * np.pi)
        beta = beta_star + radius * np.exp(1j * angle)
        assert overlap_probability(ref, free_spec(s2, beta)) <= best + 1e-12


def test_overlap_gradient_vanishes_at_optimal_beta(overlap_probability):
    step = 1e-5
    for n1, n2, dalpha in product((0.0, 0.5, 2.0), (0.1, 1.0), (0.5, 1 + 1j)):
        s1 = make_state(n1, 0.3j)
        s2 = make_state(n2, 0.3j + dalpha)
        ref = reference_spec(s1)
        beta = optimal_beta(s1, s2)

        def prob(z):
            return overlap_probability(ref, free_spec(s2, z))

        grad = np.array(
            [
                (prob(beta + step) - prob(beta - step)) / (2 * step),
                (prob(beta + 1j * step) - prob(beta - 1j * step)) / (2 * step),
            ]
        )
        assert np.linalg.norm(grad) <= 1e-6


# ---------------------------------------------------------------------------
# Bures distance
# ---------------------------------------------------------------------------


def test_bures_distance_identical_states():
    assert bures_distance(1.0) == 0.0
    state = make_state(1.1, 2j)
    assert bures_distance(tcs_fidelity(state, state)) == 0.0


def test_bures_distance_quarter():
    assert bures_distance(0.25) == 1.0


def test_bures_distance_inverse_e():
    assert bures_distance(math.exp(-1.0)) == pytest.approx(
        0.887095643419994, rel=1e-15
    )
    assert bures_distance(math.exp(-1.0)) == pytest.approx(
        math.sqrt(2 * (1 - math.exp(-0.5))), rel=1e-15
    )


@pytest.mark.parametrize("fidelity", [1 - 2**-53, 1 - 3 * 2**-53, 1 - 1e-12, 0.3, 1e-300])
def test_bures_distance_meets_the_mpmath_reference_near_one(fidelity):
    # sqrt(2 (1 - sqrt(F))) was 15.5% off at F = 1 - 3 * 2**-53 and 5.6e-5
    # off at F = 1 - 1e-12, where 1 - sqrt(F) cancels.
    with mpmath.workdps(50):
        reference = mpmath.sqrt(2 * (1 - mpmath.sqrt(mpmath.mpf(fidelity))))
        error = abs(bures_distance(fidelity) - reference) / reference
    assert error <= sys.float_info.epsilon


@pytest.mark.parametrize("nbar", [0.5, 1.0, 10.0, 1000.0])
@pytest.mark.parametrize("step", [2.0**-26, 2.0**-40])
def test_closed_form_distance_meets_the_bures_metric(nbar, step):
    # d_B^2 / step^2 -> 1/(4n(n+1)) along n and 1/(2n+1) along alpha
    # (Twamley, J. Phys. A 29, 3723, 1996). The steps are exact in binary,
    # so the deviation is the step's own O(step) term and round-off. From a
    # rounded F the distance read 0 at every step here but n + 2**-26 at
    # n <= 1: F rounds to 1.
    alpha = 0.3 - 0.2j
    eps = sys.float_info.epsilon
    along_n = tcs_bures_distance(make_state(nbar, alpha), make_state(nbar + step, alpha))
    ratio = along_n**2 / step**2 * (4 * nbar * (nbar + 1))
    assert abs(ratio - 1) <= 2 * step / nbar + 8 * eps
    along_alpha = tcs_bures_distance(make_state(nbar, alpha), make_state(nbar, alpha + step))
    ratio = along_alpha**2 / step**2 * (2 * nbar + 1)
    assert abs(ratio - 1) <= step + 8 * eps


@pytest.mark.parametrize("n1, relative, dalpha", [
    case for case in product([0.0, 1e-3, 1.0, 10.0, 1e4, 7e7], [0.0, 1e-12, 1e-6, 1.0],
                             [0.0, 1e-9, 1e-4, 1.0])
    if case[1:] != (0.0, 0.0)
])
def test_closed_form_distance_meets_the_mpmath_reference(n1, relative, dalpha):
    # Near F = 1 the distance of a rounded F was off by up to 3e4 relative on
    # this grid; the gap form leaves only its own round-off.
    n2 = n1 * (1 + relative) if n1 else relative
    state1 = make_state(n1, 0.5 + 0.25j)
    state2 = make_state(n2, 0.5 + 0.25j + dalpha * (0.6 + 0.8j))
    with mpmath.workdps(50):
        m1, m2 = mpmath.mpf(n1), mpmath.mpf(n2)
        c = m1 + m2 + 1
        shift = mpmath.mpf(abs(state2.displacement - state1.displacement)) ** 2
        root = (mpmath.sqrt((m1 + 1) * (m2 + 1)) + mpmath.sqrt(m1 * m2)) / c
        reference = mpmath.sqrt(2 * (1 - root * mpmath.exp(-shift / (2 * c))))
        error = abs(tcs_bures_distance(state1, state2) - reference) / reference
    assert error <= 2 * sys.float_info.epsilon


def test_bures_distance_monotone_in_fidelity():
    grid = np.linspace(0.01, 1.0, 200)
    distances = [bures_distance(float(f)) for f in grid]
    assert all(a > b for a, b in zip(distances, distances[1:]))


def test_bures_distance_domain_errors():
    for bad in (0.0, -0.5, 1.0 + 1e-12, 2.0):
        with pytest.raises(ValueError):
            bures_distance(bad)
