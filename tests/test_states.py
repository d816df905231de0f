"""Tests for domain types, CF conventions, and the Weyl composition law."""

import cmath
import math

import mpmath
import numpy as np
import pytest
from scipy.special import eval_genlaguerre

from tcsfidelity.states import (
    DisplacedThermalState,
    GaussianForm,
    PurificationSpec,
    ThermalParams,
    mean_occupancy_from_temperature,
    purification_cf,
    purification_gaussian_form,
)


def make_state(nbar, alpha):
    return DisplacedThermalState(ThermalParams(nbar), alpha)


def make_spec(nbar, alpha, beta):
    return PurificationSpec(ThermalParams(nbar), alpha, beta)


def covariance(form):
    """V = S S^T / 2 of a GaussianForm's symplectic factor S."""
    return 0.5 * (form.factor @ form.factor.T)


# ---------------------------------------------------------------------------
# mean occupancy
# ---------------------------------------------------------------------------


def test_occupancy_ratio_ln2_gives_one():
    assert mean_occupancy_from_temperature(ratio=math.log(2.0)) == 1.0


def test_occupancy_ratio_ln_3_2_gives_two():
    assert mean_occupancy_from_temperature(ratio=math.log(1.5)) == 2.0


def test_occupancy_zero_temperature_limit():
    assert mean_occupancy_from_temperature(ratio=1e4) == 0.0
    assert mean_occupancy_from_temperature(ratio=50.0) < 1e-21


@pytest.mark.parametrize("kwargs", [
    {"ratio": 0.0},
    {"ratio": -2.0},
])
def test_occupancy_rejects_bad_arguments(kwargs):
    with pytest.raises(ValueError):
        mean_occupancy_from_temperature(**kwargs)


def test_thermal_params_validation():
    with pytest.raises(ValueError):
        ThermalParams(-0.1)
    with pytest.raises(ValueError):
        ThermalParams(math.inf)


@pytest.mark.parametrize("nbar", [0.0, 0.3, 1.0, 10.0, 1e6])
def test_thermal_ratio_in_unit_interval(nbar):
    s = ThermalParams(nbar).s
    assert 0.0 <= s < 1.0


def test_displaced_state_validation():
    state = make_state(0.5, 1 + 1j)
    assert 0.0 <= state.s < 1.0
    assert state.mean_occupancy == 0.5
    with pytest.raises(ValueError):
        make_state(0.5, complex(math.nan, 0.0))


# ---------------------------------------------------------------------------
# Weyl composition
# ---------------------------------------------------------------------------


def test_weyl_identity_element(weyl_compose):
    phase, total = weyl_compose(1.3 - 0.4j, 0j)
    assert phase == 1.0
    assert total == 1.3 - 0.4j


def test_weyl_inverse_element(weyl_compose):
    alpha = 0.7 + 0.2j
    phase, total = weyl_compose(alpha, -alpha)
    assert total == 0j
    assert phase == 1.0


def test_weyl_literal_case(weyl_compose):
    phase, total = weyl_compose(1.0, 1j)
    assert total == 1 + 1j
    assert phase == pytest.approx(cmath.exp(-1j), abs=1e-15)


def test_weyl_phase_unit_modulus(weyl_compose):
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = complex(*rng.normal(0, 2, 2))
        b = complex(*rng.normal(0, 2, 2))
        phase, _ = weyl_compose(a, b)
        assert abs(abs(phase) - 1.0) < 1e-15


def test_weyl_associativity_of_phases(weyl_compose):
    rng = np.random.default_rng(11)
    for _ in range(100):
        a, b, c = (complex(*rng.normal(0, 1.5, 2)) for _ in range(3))
        p1, ab = weyl_compose(a, b)
        p2, abc_left = weyl_compose(ab, c)
        q1, bc = weyl_compose(b, c)
        q2, abc_right = weyl_compose(a, bc)
        assert abc_left == pytest.approx(abc_right, abs=1e-14)
        assert p1 * p2 == pytest.approx(q1 * q2, abs=1e-14)


# ---------------------------------------------------------------------------
# single-mode CF
# ---------------------------------------------------------------------------


def test_tcs_cf_normalization():
    assert purification_cf(make_spec(0.0, 0j, 0j), 0j, 0j) == 1.0
    assert purification_cf(make_spec(2.3, 1 - 2j, 0j), 0j, 0j) == 1.0


def test_tcs_cf_coherent_state_convention():
    # Zero occupancy must reproduce the standard coherent-state CF; this test
    # pins the sign of the displacement factor.
    alpha = 0.8 - 0.5j
    for lam in (0.3, 0.4j, -0.2 + 0.7j):
        expected = cmath.exp(
            -0.5 * abs(lam) ** 2 + lam * alpha.conjugate() - lam.conjugate() * alpha
        )
        assert purification_cf(make_spec(0.0, alpha, 0j), lam, 0j) == pytest.approx(
            expected, abs=1e-15
        )


def test_tcs_cf_equals_purification_marginal():
    # The lambda2 = 0 marginal is the displaced thermal CF,
    # exp[-(n + 1/2)|lam|^2 + lam a* - lam* a], whatever beta is.
    lam, alpha = 0.1, 1 + 1j
    values = {purification_cf(make_spec(0.5, alpha, beta), lam, 0j)
              for beta in (0j, 2 - 1j, -0.5j)}
    assert len(values) == 1
    expected = cmath.exp(-abs(lam) ** 2 + lam * alpha.conjugate() - lam.conjugate() * alpha)
    assert values.pop() == pytest.approx(expected, abs=1e-15)


def test_cf_marginals_stay_finite_where_the_cross_coefficient_overflows():
    # Past n of about 1.3e154, n (n + 1) overflows; a zero cross term must not
    # become inf * 0 = NaN. |1e-170|^2 underflows to 0, so the value is finite.
    reference = make_spec(1e200, 0.5j, 0j)
    spec = make_spec(1e200, 0.5j, 1 + 1j)
    assert purification_cf(reference, 0j, 0j) == purification_cf(spec, 0j, 0j) == 1.0
    for lam in (1e-170, 1e-170j):
        value = purification_cf(reference, lam, 0j)
        assert cmath.isfinite(value)
        assert purification_cf(spec, lam, 0j) == value


# ---------------------------------------------------------------------------
# two-mode CF against the literal double summation
# ---------------------------------------------------------------------------


def cf_double_sum(nbar, alpha, beta, lambda1, lambda2, cutoff):
    """Truncated double sum over Fock matrix elements of the purification CF.

    The m < n terms use the Laguerre identity
    L_n^(-k)(x) = (-x)^k (n-k)!/n! L_{n-k}^(k)(x) to stay on non-negative
    polynomial orders.
    """
    s = nbar / (nbar + 1.0)
    x1 = abs(lambda1) ** 2
    x2 = abs(lambda2) ** 2
    prefactor = cmath.exp(
        -0.5 * (x1 + x2)
        + lambda1 * alpha.conjugate()
        - lambda1.conjugate() * alpha
        + lambda2 * beta.conjugate()
        - lambda2.conjugate() * beta
    ) / (nbar + 1.0)
    total = 0j
    for m in range(cutoff):
        for n in range(cutoff):
            weight = s ** ((m + n) / 2.0)
            if m >= n:
                total += (
                    math.exp(math.lgamma(n + 1) - math.lgamma(m + 1))
                    * weight
                    * (lambda1 * lambda2) ** (m - n)
                    * eval_genlaguerre(n, m - n, x1)
                    * eval_genlaguerre(n, m - n, x2)
                )
            else:
                total += (
                    math.exp(math.lgamma(m + 1) - math.lgamma(n + 1))
                    * weight
                    * (lambda1.conjugate() * lambda2.conjugate()) ** (n - m)
                    * eval_genlaguerre(m, n - m, x1)
                    * eval_genlaguerre(m, n - m, x2)
                )
    return prefactor * total


def test_purification_cf_normalization():
    for spec in (make_spec(0.0, 0j, 0j), make_spec(1.7, 2 - 1j, 0.5j)):
        assert purification_cf(spec, 0j, 0j) == 1.0


def test_purification_cf_vacuum_line():
    spec = make_spec(0.0, 0j, 0j)
    for lam in (0.5, 1j, 0.3 - 0.4j):
        assert purification_cf(spec, lam, 0j) == pytest.approx(
            cmath.exp(-0.5 * abs(lam) ** 2), abs=1e-15
        )


def test_purification_cf_frozen_value_and_double_sum():
    spec = make_spec(1.0, 1.0, 0.0)
    got = purification_cf(spec, 0.3j, 0.2)
    assert got == pytest.approx(0.6791147484756589 + 0.4646073965199084j, abs=1e-15)
    reference = cf_double_sum(1.0, 1 + 0j, 0j, 0.3j, 0.2 + 0j, 60)
    assert abs(got - reference) < 1e-10


@pytest.mark.parametrize("nbar", [0.5, 1.0, 2.0])
def test_purification_cf_matches_double_sum(nbar):
    spec = make_spec(nbar, 1.0, 0.5j)
    for lambda1, lambda2 in [
        (0.3j, 0.2 + 0j),
        (1.0 + 0j, 1j),
        (0.7 + 0.7j, -0.6 + 0.8j),
        (1.0 + 0j, -1.0 + 0j),
    ]:
        closed = purification_cf(spec, lambda1, lambda2)
        summed = cf_double_sum(nbar, 1 + 0j, 0.5j, lambda1, lambda2, 60)
        assert abs(closed - summed) < 1e-8


def test_purification_cf_modulus_bounded():
    rng = np.random.default_rng(3)
    for _ in range(200):
        spec = make_spec(rng.uniform(0, 4), complex(*rng.normal(0, 2, 2)),
                         complex(*rng.normal(0, 2, 2)))
        lam1 = complex(*rng.normal(0, 1.2, 2))
        lam2 = complex(*rng.normal(0, 1.2, 2))
        assert abs(purification_cf(spec, lam1, lam2)) <= 1.0 + 1e-12
    # On the ridge lambda2 = lambda1*, and within 1 / sqrt(n) of it, the two
    # O(n) terms of the exponent cancel to O(1): every occupancy up to 1e300
    # must still meet the reference, taken from the textbook form with the
    # digits its cancellation needs.
    for exponent in range(0, 301, 4):
        n = 10.0**exponent * rng.uniform(1, 10)
        spec = make_spec(n, complex(*rng.normal(0, 1, 2)), complex(*rng.normal(0, 1, 2)))
        lam1 = complex(*rng.normal(0, 1, 2))
        nearby = lam1.conjugate() + complex(*rng.normal(0, 1, 2)) / math.sqrt(n + 1.0)
        for lam2 in (lam1.conjugate(), nearby):
            chi = purification_cf(spec, lam1, lam2)
            with mpmath.workdps(80 + 2 * exponent):
                l1, l2, big = mpmath.mpc(lam1), mpmath.mpc(lam2), mpmath.mpf(n)
                alpha, beta = mpmath.mpc(spec.alpha), mpmath.mpc(spec.beta)
                quad = -(big + 0.5) * (abs(l1) ** 2 + abs(l2) ** 2) + 2 * mpmath.sqrt(
                    big * (big + 1)) * mpmath.re(l1 * l2)
                disp = (l1 * mpmath.conj(alpha) - mpmath.conj(l1) * alpha
                        + l2 * mpmath.conj(beta) - mpmath.conj(l2) * beta)
                reference = mpmath.exp(quad + disp)
                error = abs(mpmath.mpc(chi) - reference) / abs(reference)
            assert abs(chi) <= 1.0 + 1e-12
            assert error <= 1e-13, (n, lam1, lam2, chi)


def test_cf_overflow_names_the_argument():
    spec = make_spec(0.5, 0j, 0j)
    huge = complex(1e200, 0.0)
    with pytest.raises(OverflowError, match=r"^\|lambda1\|\^2 overflows for lambda1=\(1e\+200"):
        purification_cf(spec, huge, 0j)
    with pytest.raises(OverflowError, match=r"^\|lambda2\|\^2 overflows for lambda2=1e\+200j$"):
        purification_cf(spec, 0j, 1e200j)
    with pytest.raises(OverflowError, match=r"^\|lambda1\|\^2 overflows for lambda1=\(inf\+0j\)$"):
        purification_cf(spec, complex(math.inf, 0.0), 0j)


def test_cf_refuses_a_nan_argument():
    spec = make_spec(0.5, 0j, 0j)
    with pytest.raises(ValueError, match=r"^lambda1 must not be NaN, got \(nan\+0j\)$"):
        purification_cf(spec, complex("nan"), 0)
    with pytest.raises(ValueError, match=r"^lambda2 must not be NaN, got nanj$"):
        purification_cf(spec, 0j, complex(0.0, math.nan))


def test_purification_cf_marginals_ignore_other_mode():
    thermal = ThermalParams(0.8)
    lam = 0.4 - 0.1j
    values = {
        purification_cf(PurificationSpec(thermal, 1 + 1j, beta), lam, 0j)
        for beta in (0j, 3 + 0j, -2j)
    }
    assert len(values) == 1
    values2 = {
        purification_cf(PurificationSpec(thermal, alpha, 0.5j), 0j, lam)
        for alpha in (0j, 3 + 0j, -2j)
    }
    assert len(values2) == 1


# ---------------------------------------------------------------------------
# Gaussian form
# ---------------------------------------------------------------------------


def test_gaussian_form_vacuum():
    form = purification_gaussian_form(make_spec(0.0, 0j, 0j))
    assert np.array_equal(covariance(form), 0.5 * np.eye(4))
    assert np.linalg.det(covariance(form)) == pytest.approx(1 / 16, abs=1e-15)
    assert np.array_equal(form.displacement_vector, np.zeros(4))


def test_gaussian_form_unit_occupancy():
    form = purification_gaussian_form(make_spec(1.0, 0j, 0j))
    cov = covariance(form)
    root2 = math.sqrt(2.0)
    assert np.allclose(np.diag(cov), 1.5, atol=0)
    assert cov[0, 2] == root2 and cov[2, 0] == root2
    assert cov[1, 3] == -root2 and cov[3, 1] == -root2
    assert np.linalg.det(cov) == pytest.approx(1 / 16, abs=1e-14)


def test_gaussian_form_det_is_pure_over_occupancy_range():
    rng = np.random.default_rng(19)
    for nbar in rng.uniform(0.0, 10.0, 100):
        form = purification_gaussian_form(make_spec(float(nbar), 1 - 1j, 0.5 + 0.5j))
        assert abs(np.linalg.det(covariance(form)) - 1 / 16) < 1e-12


def test_gaussian_form_cf_matches_purification_cf(gaussian_form_cf):
    # Ties the covariance/mean encoding to the complex-argument CF and pins
    # the lambda -> phase-space mapping.
    rng = np.random.default_rng(23)
    for _ in range(100):
        spec = make_spec(rng.uniform(0, 3), complex(*rng.normal(0, 1, 2)),
                         complex(*rng.normal(0, 1, 2)))
        form = purification_gaussian_form(spec)
        lam1 = complex(*rng.normal(0, 0.8, 2))
        lam2 = complex(*rng.normal(0, 0.8, 2))
        assert gaussian_form_cf(form, lam1, lam2) == pytest.approx(
            purification_cf(spec, lam1, lam2), abs=1e-13
        )


def test_phase_space_vector_convention(cf_phase_space_vector):
    b = cf_phase_space_vector(1j, 0j)
    assert np.allclose(b, [math.sqrt(2), 0.0, 0.0, 0.0])
    b = cf_phase_space_vector(1.0, 0j)
    assert np.allclose(b, [0.0, -math.sqrt(2), 0.0, 0.0])


def test_gaussian_form_rejects_invalid_input():
    with pytest.raises(ValueError, match="factor must be 4x4"):
        GaussianForm(np.eye(3), np.zeros(4))
    with pytest.raises(ValueError, match="displacement_vector must have length 4"):
        GaussianForm(np.eye(4), np.zeros(3))
    with pytest.raises(ValueError, match="not symplectic"):
        GaussianForm(math.sqrt(3.0) * np.eye(4), np.zeros(4))
    with pytest.raises(ValueError, match="not symplectic"):
        GaussianForm(np.full((4, 4), np.nan), np.zeros(4))
