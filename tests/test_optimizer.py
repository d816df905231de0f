"""Tests for the overlap maximizer against the analytic optimum."""

import math
from itertools import product

import numpy as np
import pytest

from tcsfidelity import optimizer
from tcsfidelity.closed_form import (
    optimal_beta,
    overlap_exponent_coefficients,
    tcs_fidelity,
    thermal_fidelity,
)
from tcsfidelity.optimizer import (
    OptimizationResult,
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
    # The log objective is exactly quadratic: one Newton step plus the
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


def test_value_underflows_where_the_objective_overflows():
    # At the optimum the objective's terms overflow to inf - inf; the overlap
    # itself is far below underflow.
    result = maximize_overlap(make_state(1.0, 0j), make_state(1.0, 1e154 + 0j))
    assert result.value == 0.0


# ---------------------------------------------------------------------------
# the damped Newton method this one replaced, as a reference
# ---------------------------------------------------------------------------


def _gradient_and_hessian(state1, state2, beta):
    a, b = overlap_exponent_coefficients(
        state1.mean_occupancy, state2.mean_occupancy
    )
    diff = state2.displacement - state1.displacement
    gradient = np.array(
        [
            -2.0 * a * beta.real + 2.0 * b * diff.real,
            -2.0 * a * beta.imag - 2.0 * b * diff.imag,
        ]
    )
    hessian = np.array([[-2.0 * a, 0.0], [0.0, -2.0 * a]])
    return gradient, hessian


def damped_newton_reference(state1, state2, config: OptimizerConfig) -> OptimizationResult:
    beta = complex(config.initial_beta)
    value = objective(state1, state2, beta)
    gradient, hessian = _gradient_and_hessian(state1, state2, beta)
    iterations = 0
    converged = float(np.linalg.norm(gradient)) <= config.gradient_tol
    while not converged and iterations < config.max_iters:
        step = np.linalg.solve(hessian, -gradient)
        direction = complex(step[0], step[1])
        # Armijo backtracking; a full step is exact for the quadratic objective.
        scale = 1.0
        slope = float(gradient @ step)
        accepted = False
        for _ in range(60):
            candidate = beta + scale * direction
            candidate_value = objective(state1, state2, candidate)
            if candidate_value >= value + 1e-4 * scale * slope:
                accepted = True
                break
            scale /= 2.0
        if not accepted:
            break
        beta = candidate
        value = candidate_value
        iterations += 1
        gradient, hessian = _gradient_and_hessian(state1, state2, beta)
        converged = (
            float(np.linalg.norm(gradient)) <= config.gradient_tol
            or scale * abs(direction) <= 0.1 * config.beta_tol
        )
    return OptimizationResult(
        beta_star=beta,
        value=math.exp(value),
        iterations=iterations,
        converged=converged,
        gradient_norm=float(np.linalg.norm(gradient)),
    )


def bits(result):
    """Every field of an OptimizationResult, floats by their exact hex."""
    return (
        result.beta_star.real.hex(), result.beta_star.imag.hex(), result.value.hex(),
        result.iterations, result.converged, result.gradient_norm.hex(),
    )


# A far start at high occupancy: the first step leaves a round-off gradient
# above gradient_tol, and the reference halves the second step on the
# objective's round-off where Newton takes it in full.
HALVING_INPUT = (
    60925741.31776952, -0.11610341547797338 - 1.0788228484156266j,
    23103568.14396645, -0.11614398911095049 - 1.0785150429724624j,
    OptimizerConfig(initial_beta=-51.66781939446523 + 64.23235885499197j),
)


def seeded_inputs(count, seed=59):
    """n in {0} and [1e-6, 1e8], |dalpha| in [1e-14, 30], beta0 = 0 or up to
    |beta0| = 100, and max_iters = 1 in a tenth of the draws."""
    rng = np.random.default_rng(seed)

    def occupancy():
        return 0.0 if rng.uniform() < 0.15 else float(10.0 ** rng.uniform(-6, 8))

    def polar(modulus):
        return complex(modulus * np.exp(1j * rng.uniform(0, 2 * np.pi)))

    for _ in range(count):
        n1, n2 = occupancy(), occupancy()
        alpha1 = polar(rng.uniform(0, 2))
        alpha2 = alpha1 + polar(10.0 ** rng.uniform(-14, math.log10(30)))
        beta0 = 0j if rng.uniform() < 0.5 else polar(100.0 * math.sqrt(rng.uniform()))
        max_iters = 1 if rng.uniform() < 0.1 else 200
        yield n1, alpha1, n2, alpha2, OptimizerConfig(initial_beta=beta0, max_iters=max_iters)


def test_newton_matches_the_damped_reference_bit_for_bit(monkeypatch):
    # The reference evaluates the objective once per full step and once more
    # per halving; count the calls to tell the two apart.
    calls = []
    original = objective
    monkeypatch.setitem(
        globals(), "objective", lambda *args: calls.append(args) or original(*args)
    )
    halved = 0
    for n1, alpha1, n2, alpha2, config in [HALVING_INPUT, *seeded_inputs(2000)]:
        s1, s2 = make_state(n1, alpha1), make_state(n2, alpha2)
        calls.clear()
        reference = damped_newton_reference(s1, s2, config)
        result = maximize_overlap(s1, s2, config)
        if len(calls) == 1 + reference.iterations:
            assert bits(result) == bits(reference), (n1, alpha1, n2, alpha2, config)
        else:
            halved += 1
            assert result.converged and reference.converged
            assert abs(result.beta_star - reference.beta_star) <= config.beta_tol
            assert result.value == pytest.approx(reference.value, rel=1e-12)
    assert halved == 1


def test_newton_needs_no_linear_solve_and_one_objective_call(monkeypatch):
    def refuse(*args):
        raise AssertionError("np.linalg.solve called")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    calls = []
    monkeypatch.setattr(
        optimizer, "objective", lambda *args: calls.append(args) or objective(*args)
    )
    s1 = make_state(0.5, 1 + 1j)
    s2 = make_state(2.0, -1 + 0j)
    result = maximize_overlap(s1, s2, OptimizerConfig(initial_beta=3 - 2j))
    assert result.converged
    assert abs(result.beta_star - optimal_beta(s1, s2)) < 1e-8
    assert len(calls) == 1


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
