"""Tests for the pure-state Gaussian overlap engine."""

import cmath
import math
import sys
import threading
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from tcsfidelity import gaussian_overlap, states
from tcsfidelity.closed_form import optimal_beta, tcs_fidelity
from tcsfidelity.gaussian_overlap import pure_overlap
from tcsfidelity.optimizer import maximize_overlap, purification_forms
from tcsfidelity.routes import MAX_OCCUPANCY, compute_route
from tcsfidelity.states import (
    DisplacedThermalState,
    GaussianForm,
    PurificationSpec,
    ThermalParams,
    purification_gaussian_form,
)

OCCUPANCY_GRID = (0.0, 0.1, 0.5, 1.0, 2.0, 5.0)
DISPLACEMENT_GRID = (0.0, 0.5, 1.0, 2.0)


def form_of(nbar, alpha, beta):
    return purification_gaussian_form(
        PurificationSpec(ThermalParams(nbar), alpha, beta)
    )


def random_form(rng):
    return form_of(
        rng.uniform(0, 6),
        complex(*rng.normal(0, 2, 2)),
        complex(*rng.normal(0, 2, 2)),
    )


def test_self_overlap_is_one():
    rng = np.random.default_rng(29)
    for _ in range(100):
        g = random_form(rng)
        result = pure_overlap(g, g)
        assert abs(result.value - 1.0) < 1e-12
        assert abs(result.log_value) < 1e-12


def test_overlap_symmetric_to_machine_precision():
    rng = np.random.default_rng(31)
    for _ in range(100):
        g1 = random_form(rng)
        g2 = random_form(rng)
        forward = pure_overlap(g1, g2)
        backward = pure_overlap(g2, g1)
        assert forward.value == backward.value
        assert forward.log_value == backward.log_value


def forward_substitution(r, d):
    """R^T z = d column by column in plain float arithmetic: the engine's
    order, with no BLAS kernel."""
    z = [float(x) for x in d]
    for j in range(len(z)):
        z[j] /= r[j][j]
        for k in range(j + 1, len(z)):
            z[k] -= z[j] * r[j][k]
    return np.array(z)


#: Largest |engine - LAPACK| of the log overlap, in ulps of LAPACK's value.
#: A triangular solve that fuses each multiply-add, simulated in exact
#: arithmetic, was 5 ulps off on these pairs.
LAPACK_ULPS = 16


def test_log_value_equals_forward_substitution_and_lapack_within_ulps():
    rng = np.random.default_rng(37)
    for _ in range(10_000):
        g1 = random_form(rng)
        g2 = random_form(rng)
        first, second = sorted(
            (g1.factor, g2.factor), key=np.ndarray.tobytes, reverse=True
        )
        r = np.linalg.qr(np.hstack((first, second)).T / math.sqrt(2.0), mode="r")
        d = g1.displacement_vector - g2.displacement_vector
        log_det = 2.0 * float(np.sum(np.log(np.abs(np.diagonal(r)))))

        def log_value(z):
            return -0.5 * float(z @ z) - 0.5 * log_det

        value = pure_overlap(g1, g2).log_value
        assert value == log_value(forward_substitution(r.tolist(), d))
        # In Fortran order LAPACK solves R^T z = d on R itself.
        lapack = log_value(solve_triangular(np.asfortranarray(r), d, trans="T"))
        assert abs(value - lapack) <= LAPACK_ULPS * math.ulp(lapack)


def rotated(form, angles):
    """The same state with the factor S (R(a) + R(b)): local rotations on the
    right leave S S^T alone but make S non-symmetric."""
    rotation = np.zeros((4, 4))
    for mode, angle in enumerate(angles):
        c, s = math.cos(angle), math.sin(angle)
        rotation[2 * mode:2 * mode + 2, 2 * mode:2 * mode + 2] = [[c, -s], [s, c]]
    return GaussianForm(form.factor @ rotation, form.displacement_vector)


def test_non_symmetric_factors_are_stacked_as_given():
    # The memo rebuilds [S1 S2] from the factors' bytes; a transposed
    # rebuild would pass for the symmetric purification factors alone.
    rng = np.random.default_rng(39)
    for _ in range(200):
        g1, g2 = random_form(rng), random_form(rng)
        r1, r2 = (rotated(g, rng.uniform(0, 2 * np.pi, 2)) for g in (g1, g2))
        assert not np.array_equal(r1.factor, r1.factor.T)
        first, second = sorted((r1.factor, r2.factor), key=np.ndarray.tobytes, reverse=True)
        r = np.linalg.qr(np.hstack((first, second)).T / math.sqrt(2.0), mode="r")
        z = forward_substitution(r.tolist(), r1.displacement_vector - r2.displacement_vector)
        log_det = 2.0 * float(np.sum(np.log(np.abs(np.diagonal(r)))))
        value = pure_overlap(r1, r2).log_value
        assert value == -0.5 * float(z @ z) - 0.5 * log_det
        assert value == pytest.approx(pure_overlap(g1, g2).log_value, rel=1e-12, abs=1e-12)


def test_coherent_displacement_overlap():
    for dalpha in (0.5, 1 + 1j, 2j):
        g1 = form_of(0.0, 0j, 0j)
        g2 = form_of(0.0, dalpha, 0j)
        assert pure_overlap(g1, g2).value == pytest.approx(
            math.exp(-abs(dalpha) ** 2), rel=1e-13
        )


def test_matches_closed_form_overlap_on_grid(overlap_probability):
    for n1, n2, dalpha in product(OCCUPANCY_GRID, OCCUPANCY_GRID, DISPLACEMENT_GRID):
        s1 = DisplacedThermalState(ThermalParams(n1), 0.2 - 0.4j)
        s2 = DisplacedThermalState(ThermalParams(n2), 0.2 - 0.4j + dalpha)
        beta = optimal_beta(s1, s2)
        reference = PurificationSpec(s1.thermal, s1.displacement, 0j)
        free = PurificationSpec(s2.thermal, s2.displacement, beta)
        engine = pure_overlap(
            purification_gaussian_form(reference), purification_gaussian_form(free)
        ).value
        assert abs(engine - overlap_probability(reference, free)) < 1e-12
        assert abs(engine - tcs_fidelity(s1, s2).value) < 1e-12


def test_matches_closed_form_away_from_maximum(overlap_probability):
    g1 = form_of(1.0, 0j, 0j)
    for beta in (0.5, 0.3, -1 + 0.5j, 2j):
        g2 = form_of(2.0, 1 + 0j, beta)
        reference = PurificationSpec(ThermalParams(1.0), 0j, 0j)
        free = PurificationSpec(ThermalParams(2.0), 1 + 0j, beta)
        assert abs(
            pure_overlap(g1, g2).value - overlap_probability(reference, free)
        ) < 1e-12


def test_overlap_decays_with_displacement_distance():
    g1 = form_of(0.8, 0j, 0j)
    separations = np.linspace(0.0, 4.0, 15)
    values = [pure_overlap(g1, form_of(0.8, float(d), 0j)).value for d in separations]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_log_value_survives_underflow():
    g1 = form_of(0.0, 0j, 0j)
    g2 = form_of(0.0, 40.0, 0j)
    result = pure_overlap(g1, g2)
    assert result.value == 0.0
    assert result.log_value == pytest.approx(-1600.0, rel=1e-12)


def test_value_equals_exp_log_value():
    rng = np.random.default_rng(37)
    for _ in range(50):
        result = pure_overlap(random_form(rng), random_form(rng))
        assert result.value == math.exp(result.log_value)


def test_rejects_mixed_covariance():
    # V = S S^T / 2 = 1.5 I is mixed, and its factor sqrt(3) I is not
    # symplectic. The check's memo keeps no failure, so every construction
    # checks the factor again and raises.
    for _ in range(3):
        with pytest.raises(ValueError, match="not symplectic"):
            GaussianForm(math.sqrt(3.0) * np.eye(4), np.zeros(4))
    info = states._check_symplectic.cache_info()
    assert (info.misses, info.currsize) == (3, 0)


#: The Gaussian routes' kernels called directly, past the cap of compute_route.
KERNELS = {
    "gaussian_overlap":
        lambda s1, s2: pure_overlap(*purification_forms(s1, s2, optimal_beta(s1, s2))).value,
    "purification_optimized": lambda s1, s2: maximize_overlap(s1, s2).value,
}


#: (n1, n2 / n1, alpha2 - alpha1) of the reference cases: a grid, and one
#: point near F = 1 at n of about 1, where the QR's log det(V1 + V2) comes
#: out at -28 eps instead of 0, 13.7 units of the envelope.
REFERENCE_CASES = [
    pytest.param(n1, ratio, modulus * (0.6 + 0.8j), id=f"{n1}-{ratio}-{modulus}")
    for n1 in (0.0, 1.0, 10.0, 1e2, 1e3, 1e4, 1e6, 1e8, 1e10, 1e12)
    for ratio in (0.7, 1.0)
    for modulus in (1e-3, 1.0, 20.0, 1e4)
] + [
    pytest.param(1.006758731397055, 1.0,
                 complex(-2.7738380579647557e-05, -3.6096288904937115e-06), id="near-one"),
]


@pytest.mark.parametrize("n1, ratio, dalpha", REFERENCE_CASES)
@pytest.mark.parametrize("route", ["gaussian_overlap", "purification_optimized"])
def test_route_meets_the_mpmath_reference_within_its_envelope(
    route, n1, ratio, dalpha, reference_fidelity, gaussian_route_envelope
):
    n2 = ratio * n1
    alpha1 = 0.3 - 0.2j
    alpha2 = alpha1 + dalpha
    reference = reference_fidelity(n1, alpha1, n2, alpha2)
    if reference < sys.float_info.min:
        pytest.skip("the fidelity underflows double precision")
    s1 = DisplacedThermalState(ThermalParams(n1), alpha1)
    s2 = DisplacedThermalState(ThermalParams(n2), alpha2)
    if n1 <= MAX_OCCUPANCY:
        value = compute_route(route, s1, s2).fidelity
    else:
        value = KERNELS[route](s1, s2)
    bound = gaussian_route_envelope(n1, n2, reference)
    assert abs(value - reference) / reference <= bound


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    n1=st.floats(0.0, MAX_OCCUPANCY),
    exponent=st.none() | st.floats(-14.0, -6.0),
    dalpha=st.just(0j) | st.builds(cmath.rect, st.floats(0.0, 1e-2),
                                   st.floats(0.0, 2 * math.pi)),
)
def test_gaussian_routes_stay_in_the_unit_interval_near_f_one(n1, exponent, dalpha):
    # Equal or nearly equal states, whose round-off may lift the overlap
    # above 1: RouteResult reads it as 1 inside the cap.
    n2 = n1 if exponent is None else min(n1 * (1.0 + 10.0**exponent), MAX_OCCUPANCY)
    s1 = DisplacedThermalState(ThermalParams(n1), 0.3 - 0.2j)
    s2 = DisplacedThermalState(ThermalParams(n2), 0.3 - 0.2j + dalpha)
    for route in GAUSSIAN_ROUTES:
        assert 0.0 < compute_route(route, s1, s2).fidelity <= 1.0


GAUSSIAN_ROUTES = ("gaussian_overlap", "purification_optimized")


def route_bits(pairs, cold=False):
    """The bits of fidelity and beta_star of both Gaussian routes at every
    pair of states; with ``cold``, each route runs on emptied memos."""
    bits = []
    for s1, s2 in pairs:
        for route in GAUSSIAN_ROUTES:
            if cold:
                gaussian_overlap._triangular_factor.cache_clear()
                states._check_symplectic.cache_clear()
            result = compute_route(route, s1, s2)
            beta = result.beta_star
            bits.append((result.fidelity.hex(), beta.real.hex(), beta.imag.hex()))
    return bits


def sweep_pairs(seed, occupancies, count):
    """``count`` pairs of states whose occupancies repeat from ``occupancies``
    and whose displacements do not."""
    rng = np.random.default_rng(seed)
    return [
        (
            DisplacedThermalState(ThermalParams(float(rng.choice(occupancies))),
                                  complex(*rng.normal(0, 1, 2))),
            DisplacedThermalState(ThermalParams(float(rng.choice(occupancies))),
                                  complex(*rng.normal(0, 1, 2))),
        )
        for _ in range(count)
    ]


def test_warm_factor_memo_gives_the_cold_bits():
    pairs = sweep_pairs(41, (0.0, 0.3, 1.0, 7.5, 1e6), 200)
    cold = route_bits(pairs, cold=True)
    gaussian_overlap._triangular_factor.cache_clear()
    assert route_bits(pairs) == cold
    # At most 15 unordered occupancy pairs, however many points.
    assert gaussian_overlap._triangular_factor.cache_info().misses <= 15


def test_factor_memo_is_keyed_on_the_factors_alone():
    # One QR per unordered occupancy pair: the displacements and the order of
    # the states do not enter the key.
    s1 = DisplacedThermalState(ThermalParams(1.0), 0.3 - 0.2j)
    s2 = DisplacedThermalState(ThermalParams(0.5), 1.3 + 0.8j)
    moved = DisplacedThermalState(ThermalParams(0.5), -2.0 + 0.1j)
    route_bits([(s1, s2), (s2, s1), (s1, moved)])
    info = gaussian_overlap._triangular_factor.cache_info()
    assert (info.misses, info.hits) == (1, 5)


def test_symplectic_check_runs_once_per_distinct_factor():
    rng = np.random.default_rng(43)
    for _ in range(30):
        form_of(float(rng.choice((0.0, 1.0, 2.5))), complex(*rng.normal(0, 1, 2)),
                complex(*rng.normal(0, 1, 2)))
    info = states._check_symplectic.cache_info()
    assert (info.misses, info.hits) == (3, 27)


def test_gaussian_routes_from_threads_give_the_single_thread_bits():
    # Four threads share the factor and symplectic memos on the same
    # occupancy pairs, with a switch interval of a microsecond.
    threads, per_thread = 4, 100
    pairs = sweep_pairs(47, (0.0, 0.5, 1.0, 2.0), threads * per_thread)
    expected = route_bits(pairs)
    gaussian_overlap._triangular_factor.cache_clear()
    states._check_symplectic.cache_clear()
    results = [None] * threads

    def work(index):
        results[index] = route_bits(pairs[index::threads])

    workers = [threading.Thread(target=work, args=(i,)) for i in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    for index in range(threads):
        assert results[index] == [
            bits for i, bits in enumerate(expected) if i // 2 % threads == index
        ]
