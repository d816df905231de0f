"""Tests for the overlap maximizer against the analytic optimum."""

import math
from itertools import product

import numpy as np
import pytest

from tcsfidelity.closed_form import optimal_beta, tcs_fidelity, thermal_fidelity
from tcsfidelity.optimizer import (
    OptimizerConfig,
    finite_difference_gradient,
    maximize_overlap,
    objective,
)
from tcsfidelity.states import DisplacedThermalState, ThermalParams

OCCUPANCY_GRID = (0.0, 0.1, 0.5, 1.0, 2.0, 5.0)
DISPLACEMENT_GRID = (0.0, 0.5, 1.0, 2.0)


def make_state(nbar, alpha):
    return DisplacedThermalState(ThermalParams(nbar), alpha)


# ---------------------------------------------------------------------------
# objective
# ---------------------------------------------------------------------------


def test_objective_at_optimal_beta_is_log_fidelity():
    for n1, n2, dalpha in product((0.0, 0.5, 2.0), (0.1, 1.0), (0.5, 1 + 1j)):
        s1 = make_state(n1, 0.2j)
        s2 = make_state(n2, 0.2j + dalpha)
        value = objective(s1, s2, optimal_beta(s1, s2))
        assert abs(value - math.log(tcs_fidelity(s1, s2).value)) < 1e-12


def test_objective_pure_states_at_zero_beta():
    s1 = make_state(0.0, 0j)
    for dalpha in (0.5, 1 + 1j, 2j):
        s2 = make_state(0.0, dalpha)
        assert objective(s1, s2, 0j) == pytest.approx(-abs(dalpha) ** 2, rel=1e-14)


def test_objective_is_quadratic_along_lines():
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
    assert result.converged
    assert abs(result.beta_star) < 1e-10
    assert result.value == pytest.approx(thermal_fidelity(0.4, 1.6).value, abs=1e-12)


def test_recovers_derived_optimum():
    s1 = make_state(1.0, 0j)
    s2 = make_state(1.0, 1 + 0j)
    result = maximize_overlap(s1, s2)
    assert result.converged
    assert abs(result.beta_star - 2 * math.sqrt(2) / 3) < 1e-10
    assert abs(result.value - tcs_fidelity(s1, s2).value) < 1e-12


def test_matches_analytic_formula():
    s1 = make_state(0.5, 1 + 1j)
    s2 = make_state(2.0, -1 + 0j)
    result = maximize_overlap(s1, s2)
    assert result.converged
    assert abs(result.beta_star - optimal_beta(s1, s2)) < 1e-8


def test_newton_terminates_in_documented_bound():
    # The log objective is exactly quadratic: one damped-Newton step plus the
    # convergence check must suffice.
    for n1, n2, dalpha in product((0.0, 0.5, 2.0), (0.0, 1.0), (0.0, 1 + 1j)):
        result = maximize_overlap(make_state(n1, 0j), make_state(n2, dalpha))
        assert result.converged
        assert result.iterations <= 2


def test_grid_agreement_with_closed_form():
    for n1, n2, dalpha in product(OCCUPANCY_GRID, OCCUPANCY_GRID, DISPLACEMENT_GRID):
        s1 = make_state(n1, 0.2 - 0.4j)
        s2 = make_state(n2, 0.2 - 0.4j + dalpha)
        result = maximize_overlap(s1, s2)
        assert result.converged
        assert abs(result.beta_star - optimal_beta(s1, s2)) < 1e-8
        assert result.value <= tcs_fidelity(s1, s2).value + 1e-12
        assert abs(result.value - tcs_fidelity(s1, s2).value) < 1e-10


def test_initialization_independence():
    rng = np.random.default_rng(43)
    s1 = make_state(0.8, 0.5j)
    s2 = make_state(1.5, 1 - 0.5j)
    solutions = []
    for _ in range(20):
        radius = 10.0 * math.sqrt(rng.uniform())
        angle = rng.uniform(0, 2 * np.pi)
        config = OptimizerConfig(initial_beta=radius * np.exp(1j * angle))
        result = maximize_overlap(s1, s2, config)
        assert result.converged
        solutions.append(result.beta_star)
    spread = max(abs(a - solutions[0]) for a in solutions)
    assert spread < 1e-8


def test_gradient_small_at_solution():
    s1 = make_state(0.3, 1j)
    s2 = make_state(2.0, 1.5)
    result = maximize_overlap(s1, s2)
    grad = finite_difference_gradient(s1, s2, result.beta_star)
    assert np.linalg.norm(grad) <= 1e-6
    assert result.gradient_norm <= 1e-6


def test_value_never_below_starting_point():
    s1 = make_state(1.0, 0j)
    s2 = make_state(0.5, 2 - 1j)
    config = OptimizerConfig(initial_beta=3 + 3j)
    result = maximize_overlap(s1, s2, config)
    assert result.converged
    assert math.log(result.value) >= objective(s1, s2, 3 + 3j)


# ---------------------------------------------------------------------------
# Nelder-Mead fallback
# ---------------------------------------------------------------------------


def test_nelder_mead_recovers_optimum():
    s1 = make_state(0.5, 1 + 1j)
    s2 = make_state(2.0, -1 + 0j)
    config = OptimizerConfig(method="nelder-mead", beta_tol=1e-6, max_iters=400)
    result = maximize_overlap(s1, s2, config)
    assert result.converged
    assert abs(result.beta_star - optimal_beta(s1, s2)) < 1e-6
    assert result.gradient_norm <= 1e-6


def test_nelder_mead_reports_non_convergence():
    s1 = make_state(1.0, 0j)
    s2 = make_state(1.0, 2 + 0j)
    config = OptimizerConfig(method="nelder-mead", max_iters=1)
    result = maximize_overlap(s1, s2, config)
    assert not result.converged


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        OptimizerConfig(method="bfgs")
    with pytest.raises(ValueError):
        OptimizerConfig(beta_tol=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(value_tol=-1e-3)
    with pytest.raises(ValueError):
        OptimizerConfig(max_iters=0)
    for name in ("beta_tol", "value_tol", "gradient_tol"):
        with pytest.raises(ValueError, match=name):
            OptimizerConfig(**{name: math.nan})
