"""Fixtures shared by every test module."""

import math
import sys

import mpmath
import pytest

from tcsfidelity import closed_form, fock_oracle

#: Constant of the Gaussian route's envelope, fitted against the 50-digit
#: reference: the largest error seen, in units of eps (max(1, n1, n2) + |ln F|),
#: was 6.6 at n1 = n2 = 10 over the grid of test_gaussian_overlap, and 5.9
#: over 8000 random pairs with occupancies up to 1e8 and |dalpha| up to 1e4.
GAUSSIAN_ROUTE_C = 8.0


@pytest.fixture(autouse=True)
def release_cache():
    """Empty the displacement memo and the step plan after every test: one
    N = 3000 matrix takes 144 MB, its plan 111 MB, and no test should lean
    on matrices an earlier one left behind."""
    yield
    fock_oracle._displacement_entries.cache_clear()
    fock_oracle._recurrence_constants.cache_clear()


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
    one, from the closed form's analytic log overlap:
    overlap_probability(spec_ref, spec_free) -> float."""

    def probability(spec_ref, spec_free):
        return min(1.0, math.exp(closed_form.log_overlap_probability(spec_ref, spec_free)))

    return probability
