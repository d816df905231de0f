"""Fixtures shared by every test module."""

import cmath
import math
import sys

import mpmath
import numpy as np
import pytest

from tcsfidelity import closed_form, fock_oracle, gaussian_overlap, optimizer, states

#: Constant of the Gaussian route's envelope, fitted against the 50-digit
#: reference: the largest error seen, in units of eps (max(1, n1, n2) + |ln F|),
#: was 14.0, at n1 = n2 = 0.94 and alpha1 = alpha2, where the QR's
#: log det(V1 + V2) is -28 eps. Seeded scans: 13.2 over 20000 pairs near F = 1
#: with n in [0.1, 10], 14.0 over 60000 equal states with n in [0, 3], 10.3
#: over 40000 with n in [1e2, 1e8], and 7.8 over 8000 random pairs with
#: occupancies up to 1e8 and |dalpha| up to 1e4; 6.6 on the test grid.
GAUSSIAN_ROUTE_C = 16.0


@pytest.fixture(autouse=True)
def release_cache():
    """Empty every memo after each test: one N = 3000 displacement matrix
    takes 144 MB, its plan 111 MB, and no test should lean on what an earlier
    one left behind, such as the triangular factors whose QR calls a test
    counts."""
    yield
    fock_oracle._displacement_entries.cache_clear()
    fock_oracle._recurrence_constants.cache_clear()
    gaussian_overlap._triangular_factor.cache_clear()
    states._check_symplectic.cache_clear()


@pytest.fixture(scope="session")
def reference_fidelity():
    """Closed-form fidelity of two displaced thermal states in 50-digit
    arithmetic, taken at the exact binary values of its arguments:
    reference_fidelity(n1, alpha1, n2, alpha2) -> mpmath.mpf."""

    def fidelity(n1, alpha1, n2, alpha2):
        with mpmath.workdps(50):
            n1, n2 = mpmath.mpf(n1), mpmath.mpf(n2)
            total = n1 + n2 + 1
            thermal = (
                (mpmath.sqrt((n1 + 1) * (n2 + 1)) + mpmath.sqrt(n1 * n2)) / total
            ) ** 2
            distance = abs(mpmath.mpc(alpha2) - mpmath.mpc(alpha1))
            return thermal * mpmath.exp(-(distance**2) / total)

    return fidelity


@pytest.fixture(scope="session")
def gaussian_route_envelope():
    """Relative error bound of the Gaussian-overlap route at occupancies n1, n2
    and fidelity F: c eps (max(1, n1, n2) + |ln F|). The first term is the
    conditioning of V1 + V2, which grows like n; the second, shared with the
    closed form, is the round-off of the exponent |dalpha|^2 / (n1 + n2 + 1)."""

    def envelope(n1, n2, fidelity):
        scale = max(1.0, n1, n2) + abs(math.log(fidelity))
        return GAUSSIAN_ROUTE_C * sys.float_info.epsilon * scale

    return envelope


@pytest.fixture(scope="session")
def overlap_probability():
    """Transition probability between a reference purification and a free
    one, from the analytic log overlap:
    overlap_probability(spec_ref, spec_free) -> float.

    ``spec_ref`` must carry zero mode-2 displacement. With s_i = n_i / (n_i + 1),
        A = (1 + sqrt(s1 s2)) / (1 - sqrt(s1 s2)) >= 1,
        B = (sqrt(s1) + sqrt(s2)) / (1 - sqrt(s1 s2)) >= 0,
    the log overlap is log F_th - A (|beta|^2 + |a2 - a1|^2)
    + 2 B Re[beta (a2 - a1)]. The cross term couples beta to a2 - a1 without
    conjugation; this convention is pinned by the stationarity of the
    analytic maximizer (closed_form.optimal_beta) and tested as such.
    """

    def probability(spec_ref, spec_free):
        if spec_ref.beta != 0:
            raise ValueError(
                "reference purification must have zero mode-2 displacement, "
                f"got beta={spec_ref.beta}"
            )
        n1 = spec_ref.thermal.mean_occupancy
        n2 = spec_free.thermal.mean_occupancy
        s1, s2 = n1 / (n1 + 1.0), n2 / (n2 + 1.0)
        root = math.sqrt(s1 * s2)
        a = (1.0 + root) / (1.0 - root)
        b = (math.sqrt(s1) + math.sqrt(s2)) / (1.0 - root)
        diff = spec_free.alpha - spec_ref.alpha
        beta = spec_free.beta
        log_value = (
            math.log(closed_form.thermal_fidelity(n1, n2).value)
            - a * (abs(beta) ** 2 + abs(diff) ** 2)
            + 2.0 * b * (beta * diff).real
        )
        return min(1.0, math.exp(log_value))

    return probability


@pytest.fixture(scope="session")
def objective():
    """Log overlap of the reference purification of state1 with the
    beta-displaced purification of state2, from the Gaussian engine:
    objective(state1, state2, beta) -> float."""

    def log_overlap(state1, state2, beta):
        forms = optimizer.purification_forms(state1, state2, beta)
        return gaussian_overlap.pure_overlap(*forms).log_value

    return log_overlap


@pytest.fixture(scope="session")
def weyl_compose():
    """Heisenberg-Weyl composition D(alpha) D(beta) = phase * D(alpha + beta):
    weyl_compose(alpha, beta) -> (phase, alpha + beta), with
    phase = exp[(alpha beta* - alpha* beta) / 2] of unit modulus."""

    def compose(alpha, beta):
        alpha, beta = complex(alpha), complex(beta)
        exponent = 0.5 * (alpha * beta.conjugate() - alpha.conjugate() * beta)
        return cmath.exp(exponent), alpha + beta

    return compose


@pytest.fixture(scope="session")
def cf_phase_space_vector():
    """Real vector b conjugate to (x1, p1, x2, p2) with D(l1, l2) = exp(i b.r):
    cf_phase_space_vector(lambda1, lambda2) -> numpy array of length 4."""

    def vector(lambda1, lambda2):
        l1, l2 = complex(lambda1), complex(lambda2)
        root2 = math.sqrt(2.0)
        return np.array([root2 * l1.imag, -root2 * l1.real, root2 * l2.imag, -root2 * l2.real])

    return vector


@pytest.fixture(scope="session")
def gaussian_form_cf(cf_phase_space_vector):
    """The CF that a GaussianForm encodes, exp(-b^T V b / 2 + i b.d) with
    V = S S^T / 2: gaussian_form_cf(form, lambda1, lambda2) -> complex."""

    def cf(form, lambda1, lambda2):
        b = cf_phase_space_vector(lambda1, lambda2)
        covariance = 0.5 * (form.factor @ form.factor.T)
        quad = -0.5 * float(b @ covariance @ b)
        return cmath.exp(complex(quad, float(b @ form.displacement_vector)))

    return cf
