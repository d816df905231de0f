"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single PASS/FAIL line (visible with ``pytest -s``), so the
acceptance status of each criterion can be read off the run directly.
"""

import math
import subprocess
import sys
from contextlib import contextmanager
from itertools import combinations, product
from pathlib import Path

import numpy as np

from tcsfidelity.closed_form import (
    bures_distance,
    optimal_beta,
    tcs_fidelity,
    thermal_fidelity,
)
from tcsfidelity.fock_oracle import (
    FockMatrix,
    displaced_thermal_matrix,
    displacement_matrix,
    schmidt_purification,
    thermal_spectrum,
    uhlmann_fidelity,
)
from tcsfidelity.gaussian_overlap import pure_overlap
from tcsfidelity.optimizer import maximize_overlap
from tcsfidelity.states import (
    DisplacedThermalState,
    PurificationSpec,
    ThermalParams,
    purification_cf,
    purification_gaussian_form,
    weyl_compose,
)

DATA_DIR = Path(__file__).parent / "data"

OCCUPANCIES = (0.0, 0.1, 0.5, 1.0, 2.0)
DELTAS = (0.0, 0.5, 1 + 1j, 2.0)
BASE_ALPHA = 0.3 - 0.2j

ORACLE_CUTOFF = 80
CF_CUTOFF = 60


@contextmanager
def criterion(number, description):
    try:
        yield
    except AssertionError:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


def make_state(nbar, alpha):
    return DisplacedThermalState(ThermalParams(nbar), alpha)


def grid_states():
    for n1, n2, delta in product(OCCUPANCIES, OCCUPANCIES, DELTAS):
        yield make_state(n1, BASE_ALPHA), make_state(n2, BASE_ALPHA + delta)


def test_criterion_1_cross_route_agreement(overlap_probability):
    with criterion(1, "four routes agree pairwise within 1e-6, analytic routes within 1e-12"):
        for s1, s2 in grid_states():
            closed = tcs_fidelity(s1, s2).value

            beta = optimal_beta(s1, s2)
            reference = PurificationSpec(s1.thermal, s1.displacement, 0j)
            free = PurificationSpec(s2.thermal, s2.displacement, beta)
            at_optimum = overlap_probability(reference, free)

            optimized = maximize_overlap(s1, s2)

            oracle = uhlmann_fidelity(
                displaced_thermal_matrix(s1, ORACLE_CUTOFF),
                displaced_thermal_matrix(s2, ORACLE_CUTOFF),
            )

            analytic_routes = (closed, at_optimum, optimized.value)
            for a, b in combinations(analytic_routes, 2):
                assert abs(a - b) <= 1e-12
            for a, b in combinations((*analytic_routes, oracle), 2):
                assert abs(a - b) <= 1e-6

            engine = pure_overlap(
                purification_gaussian_form(reference),
                purification_gaussian_form(free),
            ).value
            assert abs(engine - at_optimum) <= 1e-12


def test_criterion_2_optimal_purification_recovery():
    with criterion(2, "optimizer recovers the analytic maximizer within 1e-8"):
        for s1, s2 in grid_states():
            result = maximize_overlap(s1, s2)
            assert abs(result.beta_star - optimal_beta(s1, s2)) <= 1e-8
        # equal temperatures still give a temperature-dependent maximizer
        equal_temperature = {
            nbar: maximize_overlap(
                make_state(nbar, 0j), make_state(nbar, 2.0)
            ).beta_star
            for nbar in (0.5, 1.0, 2.0)
        }
        values = list(equal_temperature.values())
        assert all(abs(v) > 0.5 for v in values)
        assert len({round(v.real, 6) for v in values}) == len(values)


def test_criterion_3_purification_covariance_is_pure():
    with criterion(3, "purification covariance determinant equals 1/16 within 1e-12"):
        rng = np.random.default_rng(2024)
        for nbar in rng.uniform(0.0, 10.0, 100):
            spec = PurificationSpec(ThermalParams(float(nbar)), 1 - 0.5j, 0.3 + 0.8j)
            det = np.linalg.det(purification_gaussian_form(spec).covariance)
            assert abs(det - 1.0 / 16.0) <= 1e-12


def test_criterion_4_cf_derivation_chain():
    with criterion(4, "oracle CF of the Schmidt purification matches the closed form within 1e-6"):
        values = (-0.7, 0.0, 0.7)
        lambdas = [complex(re, im) for re in values for im in values]
        assert all(abs(lam) <= 1.0 for lam in lambdas)
        for nbar in (0.5, 1.0, 2.0):
            spec = PurificationSpec(ThermalParams(nbar), 0.6 - 0.3j, 0.4j)
            vector = schmidt_purification(
                make_state(nbar, spec.alpha), spec.beta, CF_CUTOFF
            )
            cached = {
                lam: displacement_matrix(lam, CF_CUTOFF) for lam in lambdas
            }
            amp = vector.amplitudes
            for lam1, lam2 in product(lambdas, lambdas):
                oracle = complex(np.vdot(amp, cached[lam1] @ amp @ cached[lam2].T))
                closed = purification_cf(spec, lam1, lam2)
                assert abs(oracle - closed) <= 1e-6


def test_criterion_5_partial_trace_reduction():
    with criterion(5, "partial trace reproduces the displaced thermal matrix within 1e-8"):
        cases = [
            (0.5, 1 + 1j, 0.3j),
            (1.0, 2.0, -0.7 + 0.2j),
            (2.0, -1.5j, 1.0),
            (2.0, 2.0, 0.5 - 0.5j),
        ]
        for nbar, alpha, beta in cases:
            assert abs(alpha) <= 2.0
            state = make_state(nbar, alpha)
            vector = schmidt_purification(state, beta, CF_CUTOFF)
            reduced = FockMatrix(CF_CUTOFF, factor=vector.amplitudes)
            expected = displaced_thermal_matrix(state, CF_CUTOFF)
            assert np.linalg.norm(reduced.entries - expected.entries) <= 1e-8


def test_criterion_6_spectrum_invariance():
    with criterion(6, "displaced thermal spectrum matches the geometric spectrum within 1e-8"):
        for nbar, alpha in product((0.5, 1.0, 2.0), (1.0, 0.5 - 1.2j, 2j)):
            rho = displaced_thermal_matrix(make_state(nbar, alpha), CF_CUTOFF)
            eigenvalues = np.sort(np.linalg.eigvalsh(rho.entries))[::-1]
            expected = thermal_spectrum(nbar, 20)
            assert np.max(np.abs(eigenvalues[:20] - expected)) <= 1e-8


def test_criterion_7_closed_form_spot_values():
    with criterion(7, "spot values: F_th(1,0)=0.5, F(vac,coh)=1/e, D_B(1)=0"):
        assert thermal_fidelity(1.0, 0.0).value == 0.5
        coherent = tcs_fidelity(make_state(0.0, 0j), make_state(0.0, 1 + 0j)).value
        assert coherent == math.exp(-1.0)
        assert bures_distance(1.0) == 0.0


def test_criterion_8_displacement_composition():
    with criterion(8, "operator product matches the composed displacement within 1e-7"):
        block = CF_CUTOFF // 2
        pairs = [
            (1.5, 1.5),
            (1.5, -1.5),
            (1.5 * np.exp(0.3j), 1.5j),
            (1.0, 1j),
            (0.9 + 1.2j, -1.5),
            (0.3 - 0.4j, 1.2 + 0.9j),
        ]
        for alpha, beta in pairs:
            assert abs(alpha) <= 1.5 + 1e-12 and abs(beta) <= 1.5 + 1e-12
            phase, total = weyl_compose(alpha, beta)
            left = (
                displacement_matrix(alpha, CF_CUTOFF)
                @ displacement_matrix(beta, CF_CUTOFF)
            )
            right = phase * displacement_matrix(total, CF_CUTOFF)
            deviation = np.max(np.abs((left - right)[:block, :block]))
            assert deviation <= 1e-7


def _run_cli(args):
    process = subprocess.run(
        [sys.executable, "-m", "tcsfidelity.cli", *args],
        capture_output=True,
        check=True,
    )
    return process.stdout


def test_criterion_9_cli_determinism():
    with criterion(9, "fidelity --all-routes and sweep outputs are byte-identical"):
        fidelity_args = [
            "fidelity", "--n1", "1", "--alpha1", "0.3,-0.2",
            "--n2", "0.5", "--alpha2", "1.3,0.8", "--all-routes", "--cutoff", "80",
        ]
        sweep_args = [
            "sweep", "--n1", "0,1", "--n2", "0,0.5",
            "--dalpha", "0,0;1,0;1,1", "--cutoff", "60",
        ]
        fidelity_bytes = _run_cli(fidelity_args)
        assert fidelity_bytes == _run_cli(fidelity_args)
        assert fidelity_bytes == (DATA_DIR / "fidelity_all_routes.json").read_bytes()
        sweep_bytes = _run_cli(sweep_args)
        assert sweep_bytes == _run_cli(sweep_args)
        assert sweep_bytes == (DATA_DIR / "sweep.csv").read_bytes()
