"""Tests for the overlap maximizer against the analytic optimum."""

import math
import sys
from itertools import product

import numpy as np
import pytest

from tcsfidelity import closed_form, optimizer
from tcsfidelity.closed_form import optimal_beta, tcs_fidelity, thermal_fidelity
from tcsfidelity.optimizer import maximize_overlap
from tcsfidelity.states import DisplacedThermalState, ThermalParams

OCCUPANCY_GRID = (0.0, 0.1, 0.5, 1.0, 2.0, 5.0)
DISPLACEMENT_GRID = (0.0, 0.5, 1.0, 2.0)


def make_state(nbar, alpha):
    return DisplacedThermalState(ThermalParams(nbar), alpha)


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------


def test_objective_at_optimal_beta_is_log_fidelity(objective):
    for n1, n2, dalpha in product((0.0, 0.5, 2.0), (0.1, 1.0), (0.5, 1 + 1j)):
        s1 = make_state(n1, 0.2j)
        s2 = make_state(n2, 0.2j + dalpha)
        value = objective(s1, s2, optimal_beta(s1, s2))
        assert abs(value - math.log(tcs_fidelity(s1, s2).value)) < 1e-12


def test_objective_pure_states_at_zero_beta(objective):
    s1 = make_state(0.0, 0j)
    for dalpha in (0.5, 1 + 1j, 2j):
        s2 = make_state(0.0, dalpha)
        assert objective(s1, s2, 0j) == pytest.approx(-abs(dalpha) ** 2, rel=1e-14)


def test_objective_is_quadratic_along_lines(objective):
    rng = np.random.default_rng(41)
    s1 = make_state(0.7, 1 - 0.5j)
    s2 = make_state(1.9, -0.3 + 0.8j)
    ts = np.linspace(-2.0, 2.0, 9)
    for _ in range(20):
        origin = complex(*rng.normal(0, 2, 2))
        direction = complex(*rng.normal(0, 1, 2))
        values = np.array(
            [objective(s1, s2, origin + t * direction) for t in ts]
        )
        coeffs = np.polynomial.polynomial.polyfit(ts, values, 2)
        fitted = np.polynomial.polynomial.polyval(ts, coeffs)
        assert np.max(np.abs(values - fitted)) < 1e-12


# ---------------------------------------------------------------------------
# Newton path
# ---------------------------------------------------------------------------


def test_equal_displacements_give_zero_beta():
    result = maximize_overlap(make_state(0.4, 1 + 1j), make_state(1.6, 1 + 1j))
    assert abs(result.beta_star) < 1e-10
    assert result.value == pytest.approx(thermal_fidelity(0.4, 1.6).value, abs=1e-12)


def test_recovers_derived_optimum():
    s1 = make_state(1.0, 0j)
    s2 = make_state(1.0, 1 + 0j)
    result = maximize_overlap(s1, s2)
    assert abs(result.beta_star - 2 * math.sqrt(2) / 3) < 1e-10
    assert abs(result.value - tcs_fidelity(s1, s2).value) < 1e-12


def test_matches_analytic_formula():
    s1 = make_state(0.5, 1 + 1j)
    s2 = make_state(2.0, -1 + 0j)
    result = maximize_overlap(s1, s2)
    assert abs(result.beta_star - optimal_beta(s1, s2)) < 1e-8


def test_newton_terminates_in_documented_bound():
    # The log objective is exactly quadratic: one step lands on its maximum.
    # The benchmark reads both constants.
    for n1, n2, dalpha in product((0.0, 0.5, 2.0), (0.0, 1.0), (0.0, 1 + 1j)):
        result = maximize_overlap(make_state(n1, 0j), make_state(n2, dalpha))
        assert (result.iterations, result.converged) == (1, True)


def test_grid_agreement_with_closed_form():
    for n1, n2, dalpha in product(OCCUPANCY_GRID, OCCUPANCY_GRID, DISPLACEMENT_GRID):
        s1 = make_state(n1, 0.2 - 0.4j)
        s2 = make_state(n2, 0.2 - 0.4j + dalpha)
        result = maximize_overlap(s1, s2)
        assert abs(result.beta_star - optimal_beta(s1, s2)) < 1e-8
        assert result.value <= tcs_fidelity(s1, s2).value + 1e-12
        assert abs(result.value - tcs_fidelity(s1, s2).value) < 1e-10


def test_common_displacement_independence():
    # The overlap is invariant under a common mode-1 displacement; the
    # maximizer, which has no starting point, must not depend on it either.
    rng = np.random.default_rng(43)
    s1 = make_state(0.8, 0.5j)
    s2 = make_state(1.5, 1 - 0.5j)
    reference = maximize_overlap(s1, s2)
    for _ in range(20):
        radius = 10.0 * math.sqrt(rng.uniform())
        shift = radius * np.exp(1j * rng.uniform(0, 2 * np.pi))
        result = maximize_overlap(make_state(0.8, 0.5j + shift), make_state(1.5, 1 - 0.5j + shift))
        assert abs(result.beta_star - reference.beta_star) < 1e-8
        assert abs(result.value - reference.value) < 1e-12


def central_difference_gradient(objective, s1, s2, beta, step=1e-5):
    """Central-difference gradient of ``objective`` in (Re beta, Im beta)."""

    def f(z):
        return objective(s1, s2, z)

    return np.array([
        (f(beta + step) - f(beta - step)) / (2.0 * step),
        (f(beta + 1j * step) - f(beta - 1j * step)) / (2.0 * step),
    ])


def test_gradient_small_at_solution(objective):
    s1 = make_state(0.3, 1j)
    s2 = make_state(2.0, 1.5)
    result = maximize_overlap(s1, s2)
    grad = central_difference_gradient(objective, s1, s2, result.beta_star)
    assert np.linalg.norm(grad) <= 1e-6


def test_value_never_below_the_objective_at_another_beta(objective):
    s1 = make_state(1.0, 0j)
    s2 = make_state(0.5, 2 - 1j)
    result = maximize_overlap(s1, s2)
    assert math.log(result.value) >= objective(s1, s2, 3 + 3j)


def test_config_is_ignored():
    # The benchmark still passes a config; it changes nothing.
    s1 = make_state(0.5, 1 + 1j)
    s2 = make_state(2.0, -1 + 0j)
    config = optimizer.OptimizerConfig(max_iters=200)
    assert maximize_overlap(s1, s2, config) == maximize_overlap(s1, s2)


def test_value_underflows_at_a_huge_displacement():
    # The log of the maximum is finite, about -3.3e307; the overlap is far
    # below underflow.
    result = maximize_overlap(make_state(1.0, 0j), make_state(1.0, 1e154 + 0j))
    assert result.value == 0.0


# ---------------------------------------------------------------------------
# the one-step maximizer, on seeded pairs
# ---------------------------------------------------------------------------


def seeded_pairs(count, seed, max_occupancy):
    """n in {0} and [1e-6, max_occupancy], |alpha1| <= 2 and |alpha2 - alpha1|
    in [1e-14, 30]."""
    rng = np.random.default_rng(seed)

    def occupancy():
        if rng.uniform() < 0.15:
            return 0.0
        return float(10.0 ** rng.uniform(-6, math.log10(max_occupancy)))

    def polar(modulus):
        return complex(modulus * np.exp(1j * rng.uniform(0, 2 * np.pi)))

    for _ in range(count):
        alpha1 = polar(rng.uniform(0, 2))
        alpha2 = alpha1 + polar(10.0 ** rng.uniform(-14, math.log10(30)))
        yield make_state(occupancy(), alpha1), make_state(occupancy(), alpha2)


def test_no_step_from_beta_star_raises_the_objective(objective):
    eps = sys.float_info.epsilon
    checked = 0
    for s1, s2 in seeded_pairs(2000, seed=59, max_occupancy=1e8):
        result = maximize_overlap(s1, s2)
        # A subnormal value keeps too few digits for its log to compare.
        if result.value < sys.float_info.min:
            continue
        top = math.log(result.value)
        step = 1e-6 * max(1.0, abs(result.beta_star))
        for direction in (1, -1, 1j, -1j):
            value = objective(s1, s2, result.beta_star + step * direction)
            assert value <= top + 4 * eps * max(1.0, abs(top)), (s1, s2, direction)
        checked += 1
    assert checked >= 1900


def test_beta_star_meets_the_analytic_maximizer():
    for s1, s2 in seeded_pairs(2000, seed=61, max_occupancy=10.0):
        expected = optimal_beta(s1, s2)
        beta = maximize_overlap(s1, s2).beta_star
        assert abs(beta - expected) <= 1e-12 * abs(expected), (s1, s2)


def test_newton_is_one_qr_with_no_solve_and_no_closed_form_formula(monkeypatch):
    qr_calls = []
    qr = np.linalg.qr
    monkeypatch.setattr(
        np.linalg, "qr", lambda *args, **kwargs: qr_calls.append(args) or qr(*args, **kwargs)
    )

    def refuse(*args, **kwargs):
        raise AssertionError("a linear solve was called")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    # Every function the call enters in closed_form, by its code object, so a
    # formula imported by name is seen too.
    entered = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == closed_form.__file__:
            entered.append(frame.f_code.co_name)

    s1 = make_state(0.5, 1 + 1j)
    s2 = make_state(2.0, -1 + 0j)
    sys.setprofile(profile)
    try:
        result = maximize_overlap(s1, s2)
    finally:
        sys.setprofile(None)
    assert len(qr_calls) == 1
    assert entered == []
    assert result.value == pytest.approx(tcs_fidelity(s1, s2).value, rel=1e-14)
