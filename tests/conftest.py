"""Fixtures shared by every test module."""

import pytest

from tcsfidelity import fock_oracle


@pytest.fixture(autouse=True)
def release_cache():
    """Empty the displacement memo and the divisor table after every test:
    one N = 3000 matrix takes 144 MB, its divisors 36 MB, and no test should
    lean on matrices an earlier one left behind."""
    yield
    fock_oracle._displacement_entries.cache_clear()
    fock_oracle._recurrence_constants.cache_clear()
