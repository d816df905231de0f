"""Tests for the truncated-Fock-space verification layer."""

import cmath
import math
import re
import sys
import threading

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_genlaguerre

from tcsfidelity import fock_oracle, routes
from tcsfidelity.closed_form import (
    optimal_beta,
    tcs_fidelity,
)
from tcsfidelity.fock_oracle import (
    cf_table,
    displaced_thermal_fidelity,
    displaced_thermal_matrix,
    displacement_matrix,
    schmidt_purification,
    thermal_spectrum,
    uhlmann_fidelity,
)
from tcsfidelity.states import (
    DisplacedThermalState,
    PurificationSpec,
    ThermalParams,
    purification_cf,
)


def make_state(nbar, alpha):
    return DisplacedThermalState(ThermalParams(nbar), alpha)


def displacement_reference(alpha: complex, n: int) -> np.ndarray:
    """Element-wise displacement operator straight from the analytic formula."""
    out = np.zeros((n, n), dtype=complex)
    x = abs(alpha) ** 2
    for k in range(n):
        for l in range(n):
            if k >= l:
                out[k, l] = (
                    math.exp(0.5 * (math.lgamma(l + 1) - math.lgamma(k + 1)))
                    * alpha ** (k - l)
                    * math.exp(-x / 2)
                    * eval_genlaguerre(l, k - l, x)
                )
            else:
                out[k, l] = (
                    math.exp(0.5 * (math.lgamma(k + 1) - math.lgamma(l + 1)))
                    * (-alpha.conjugate()) ** (l - k)
                    * math.exp(-x / 2)
                    * eval_genlaguerre(k, l - k, x)
                )
    return out


def _scalar_lower_triangle(alpha: complex, n: int) -> np.ndarray:
    """Entries k >= l of D(alpha) from the scalar Laguerre recurrence, one
    order k - l and one degree l at a time."""
    x = abs(alpha) ** 2
    log_mag = math.log(abs(alpha))
    unit = alpha / abs(alpha)
    log_fact = [math.lgamma(i + 1.0) for i in range(n)]
    out = np.zeros((n, n), dtype=complex)
    for order in range(n):
        phase = unit**order
        previous = 0.0
        current = 1.0
        for l in range(n - order):
            k = l + order
            magnitude = math.exp(
                0.5 * (log_fact[l] - log_fact[k]) + order * log_mag - 0.5 * x
            )
            out[k, l] = magnitude * phase * current
            previous, current = (
                current,
                ((2 * l + order + 1 - x) * current - (l + order) * previous) / (l + 1),
            )
    return out


def mpmath_displacement_entry(alpha: complex, k: int, l: int) -> complex:
    """<k|D(alpha)|l> from the Laguerre formula in 50-digit arithmetic."""
    with mpmath.workdps(50):
        a = mpmath.mpc(alpha)
        x = abs(a) ** 2
        low, high, z = (l, k, a) if k >= l else (k, l, -mpmath.conj(a))
        value = (
            mpmath.sqrt(mpmath.factorial(low) / mpmath.factorial(high))
            * z ** (high - low)
            * mpmath.exp(-x / 2)
            * mpmath.laguerre(low, high - low, x)
        )
        return complex(value)


def parent_displacement_entries(alpha: complex, n: int) -> np.ndarray:
    """fock_oracle._displacement_entries in its allocating form, which forms
    every phase product and coefficient afresh at each degree step: the
    reference the buffered form must match byte for byte."""
    out = np.zeros((n, n), dtype=complex)
    if alpha == 0:
        np.fill_diagonal(out, 1.0)
    else:
        radius = abs(alpha)
        x = radius**2
        # Part by part: complex / float would turn a -0.0 imaginary part into
        # +0.0, and D(-alpha) would no longer be D(alpha)^dag bit for bit.
        unit = complex(alpha.real / radius, alpha.imag / radius)
        order = np.arange(n)
        phase_lower, phase_upper = unit**order, (-unit.conjugate()) ** order
        log_fact = np.array([math.lgamma(o + 1.0) for o in range(n)])
        current = np.exp(order * math.log(radius) - 0.5 * x - 0.5 * log_fact)
        previous = scale = np.zeros(n)  # sqrt(l (l + o)): step l - 1's divisor
        for l in range(n):
            out[l:, l] = phase_lower[:n - l] * current
            out[l, l:] = phase_upper[:n - l] * current
            inside = n - l - 1  # orders still inside the matrix at degree l + 1
            o = order[:inside]
            divisor = np.sqrt((l + 1.0) * (l + o + 1))
            previous, current, scale = current[:inside], (
                (2 * l + o + 1 - x) * current[:inside]
                - scale[:inside] * previous[:inside]
            ) / divisor, divisor
    out.flags.writeable = False
    return out


def assert_parent_bytes(entries: np.ndarray, alpha: complex, n: int) -> None:
    """Assert that ``entries`` hold the bytes of parent_displacement_entries:
    all of them at complex alpha, and at real alpha, where D is real, its real
    part as a float64 array.

    At real alpha the complex build's real part is phase.real * E -
    phase.imag * 0.0 with phase.real = +1 or -1: E itself, except that a -0.0
    entry turns into +0.0 wherever the phase's zero or round-off imaginary
    part is negative. Adding +0.0 to both sides maps -0.0 to +0.0 and changes
    no other bit.
    """
    alpha = complex(alpha)
    parent = parent_displacement_entries(alpha, n)
    if alpha.imag != 0:
        assert entries.tobytes() == parent.tobytes()
    else:
        assert entries.dtype == np.float64
        assert (entries + 0.0).tobytes() == (parent.real + 0.0).tobytes()


def scalar_displacement(alpha: complex, n: int) -> np.ndarray:
    """D(alpha) from two scalar passes, the k < l entries from
    D(alpha)^dag = D(-alpha), with bare Laguerre values: the reference
    displacement_matrix must match to round-off."""
    alpha = complex(alpha)
    lower = _scalar_lower_triangle(alpha, n)
    lower_negated = _scalar_lower_triangle(-alpha, n)
    return np.tril(lower) + np.triu(lower_negated.conj().T, 1)


def _psd_sqrt(matrix: np.ndarray) -> np.ndarray:
    """Hermitian square root with negative eigenvalues clipped and those below
    1e-14 of the largest zeroed."""
    w, v = np.linalg.eigh(matrix)
    w = np.clip(w, 0.0, None)
    if w[-1] > 0.0:
        w[w < 1e-14 * w[-1]] = 0.0
    return (v * np.sqrt(w)) @ v.conj().T


def density(factor: np.ndarray) -> np.ndarray:
    """The density matrix B B^dag of a purification factor B."""
    return factor @ factor.conj().T


def square_root_fidelity(factor1: np.ndarray, factor2: np.ndarray) -> float:
    """Fidelity as the nuclear norm of sqrt(rho2) sqrt(rho1), rho_i formed
    from the factors and both square roots from eigendecompositions: the
    reference uhlmann_fidelity must agree with."""
    cross = _psd_sqrt(density(factor2)) @ _psd_sqrt(density(factor1))
    return float(np.sum(np.linalg.svd(cross, compute_uv=False)) ** 2)


def eager_displaced_thermal_entries(state, cutoff: int) -> np.ndarray:
    """rho = (d * eta) d^dag, formed without the factor: the reference for
    B B^dag of the factor displaced_thermal_matrix returns."""
    d = displacement_matrix(state.displacement, cutoff)
    eta = thermal_spectrum(state.mean_occupancy, cutoff)
    return (d * eta) @ d.conj().T


def random_state_pairs(seed, count):
    """Seeded pairs of states with occupancies in [0, 3] and |alpha| <= 3."""
    rng = np.random.default_rng(seed)
    nbar = rng.uniform(0.0, 3.0, (count, 2))
    alpha = 3.0 * np.sqrt(rng.random((count, 2))) * np.exp(2j * np.pi * rng.random((count, 2)))
    return [
        tuple(make_state(nbar[i, j], complex(alpha[i, j])) for j in range(2))
        for i in range(count)
    ]


# ---------------------------------------------------------------------------
# thermal density matrix
# ---------------------------------------------------------------------------


def test_thermal_matrix_vacuum():
    rho = density(displaced_thermal_matrix(make_state(0.0, 0j), 5))
    expected = np.zeros((5, 5), dtype=complex)
    expected[0, 0] = 1.0
    assert np.array_equal(rho, expected)


def test_thermal_matrix_unit_occupancy_entries():
    # D(0) is the identity, so the factor is diag(sqrt(eta)) exactly.
    factor = displaced_thermal_matrix(make_state(1.0, 0j), 12)
    eta = thermal_spectrum(1.0, 12)
    for j in range(12):
        assert eta[j] == 0.5 * 0.5**j
    assert np.array_equal(factor, np.diag(np.sqrt(eta)))
    rho = density(factor)
    off_diagonal = rho - np.diag(np.diagonal(rho))
    assert np.count_nonzero(off_diagonal) == 0


def test_thermal_matrix_trace_tail():
    assert sum(thermal_spectrum(1.0, 40)) == 1.0 - 2.0**-40


def test_thermal_spectrum_values():
    eta = thermal_spectrum(2.0, 6)
    s = 2.0 / 3.0
    assert np.allclose(eta, [s**j / 3.0 for j in range(6)], rtol=1e-15)


def test_thermal_spectrum_refuses_a_negative_occupancy():
    with pytest.raises(ValueError, match=r"^nbar must be >= 0, got -1.0$"):
        thermal_spectrum(-1.0, 3)


@pytest.mark.parametrize("nbar", [math.nan, math.inf])
def test_thermal_spectrum_refuses_a_non_finite_occupancy(nbar):
    # Unchecked, nan gave nan weights and inf gave [0, nan, nan].
    with pytest.raises(ValueError, match=f"^nbar must be finite, got {nbar}$"):
        thermal_spectrum(nbar, 3)


# ---------------------------------------------------------------------------
# displacement operator
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 60, 80, 101, 150, 200, 300])
@pytest.mark.parametrize("alpha", [5.0, -0.7, 3j, -0.4j, 0.3 - 0.2j, -2.7 + 3.1j, 3.5 + 3.5j])
def test_displacement_equals_scalar_recurrence(alpha, n):
    # The normalized recurrence rounds differently; measured max 7.0e-14.
    computed = displacement_matrix(alpha, n)
    assert np.max(np.abs(computed - scalar_displacement(alpha, n))) <= 1e-13
    assert_parent_bytes(computed, alpha, n)


def test_displacement_entries_are_read_only():
    for alpha in (0j, 0.8 - 0.3j):
        entries = displacement_matrix(alpha, 12)
        assert type(entries) is np.ndarray
        with pytest.raises(ValueError):
            entries[0, 0] = 2.0


def test_displacement_repeated_call_returns_equal_entries():
    first = displacement_matrix(1.1 + 0.4j, 40)
    second = displacement_matrix(complex(1.1, 0.4), 40)
    assert np.array_equal(first, second)


def test_displacement_cutoffs_never_share_entries():
    alpha = 0.9 - 1.3j
    for _ in range(2):
        matrices = {n: displacement_matrix(alpha, n) for n in (9, 10, 11)}
        for n, entries in matrices.items():
            assert entries.shape == (n, n)
            assert np.max(np.abs(entries - scalar_displacement(alpha, n))) <= 1e-13
        assert not np.shares_memory(matrices[10], matrices[11])
        assert not np.shares_memory(matrices[9], matrices[10])


@pytest.mark.parametrize("alpha,n,bound", [(5.0, 200, 5e-15), (30.0, 1500, 6e-13)])
def test_displacement_low_block_unitarity(alpha, n, bound):
    low = 10
    product = (
        displacement_matrix(alpha, n)[:low]
        @ displacement_matrix(-alpha, n)[:, :low]
    )
    assert np.max(np.abs(product - np.eye(low))) <= bound


def test_displacement_overflow_raises_instead_of_returning_non_finite():
    # From |alpha| of about 1.3e154, |alpha|^2 is out of range.
    message = r"^\|alpha\|\^2 overflows for alpha=\(1e\+200\+0j\)$"
    with pytest.raises(OverflowError, match=message):
        displacement_matrix(1e200, 5)


def test_displacement_is_finite_and_exact_where_bare_laguerre_values_overflow():
    # Bare Laguerre values overflow above N of about 1040 at |alpha| <= 5;
    # the entries themselves stay below 1. Row and column 0 have closed forms.
    alpha, n = 5.0, 1100
    entries = displacement_matrix(alpha, n)
    assert np.all(np.isfinite(entries))
    k = np.arange(n)
    log_fact = np.array([math.lgamma(j + 1.0) for j in k])
    column = np.exp(k * math.log(alpha) - alpha**2 / 2 - 0.5 * log_fact)
    assert np.max(np.abs(entries[:, 0] - column)) <= 1e-12
    assert np.max(np.abs(entries[0] - (-1.0) ** k * column)) <= 1e-12
    low = entries[:10] @ displacement_matrix(-alpha, n)[:, :10]
    assert np.max(np.abs(low - np.eye(10))) <= 1e-12


@pytest.mark.parametrize("alpha,n,bound", [
    (0.3 + 0.2j, 80, 5e-14),
    (1.5, 200, 5e-14),
    (3 - 1j, 80, 5e-14),
    (5.0, 200, 5e-14),
    (5.0, 1040, 5e-14),
    (5.0, 1500, 5e-14),
    (5.0, 3000, 5e-14),
    (10.0, 3000, 5e-14),
    (-2.7 + 3.1j, 1040, 5e-14),
    (20j, 1500, 5e-14),
    # Measured 6.6e-14 and 5.4e-14 over 300 entries above 1e-3.
    (1.0, 3000, 1e-13),
    (-2.7 + 3.1j, 1500, 1e-13),
    (30.0, 1500, 5e-14),
    (21 - 21j, 3000, 5e-14),
    # Below |alpha| of about 1 the recurrence's round-off grows with the
    # degree, with bare Laguerre values as with normalized ones; measured
    # 3.1e-12 and 1.1e-10 near degree 3000.
    (0.3 - 0.2j, 3000, 1e-11),
    (0.01, 3000, 5e-10),
])
def test_displacement_matches_mpmath(alpha, n, bound):
    # 40 seeded entries per case: 20 among those above 1e-3 in modulus, where
    # round-off shows, and 20 anywhere in the matrix.
    entries = displacement_matrix(alpha, n)
    assert_parent_bytes(entries, alpha, n)
    rng = np.random.default_rng(n)
    large = np.argwhere(np.abs(entries) > 1e-3)
    picks = [*large[rng.integers(0, len(large), 20)], *rng.integers(0, n, (20, 2))]
    error = max(
        abs(entries[k, l] - mpmath_displacement_entry(alpha, int(k), int(l)))
        for k, l in picks
    )
    assert error <= bound


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    radius=st.floats(0.0, 10.0),
    angle=st.floats(0.0, 2 * math.pi),
    n=st.integers(1, 400),
)
def test_displacement_properties(radius, angle, n):
    # Build both matrices afresh, not from an earlier example's memo entry.
    fock_oracle._displacement_entries.cache_clear()
    alpha = radius * cmath.exp(1j * angle)
    entries = displacement_matrix(alpha, n)
    negated = displacement_matrix(-alpha, n)
    assert_parent_bytes(entries, alpha, n)
    assert np.all(np.isfinite(entries))
    assert np.max(np.abs(entries)) <= 1 + 1e-12
    assert np.array_equal(entries.conj().T, negated)
    if n >= (abs(alpha) + 8) ** 2:
        low = entries[:10] @ negated[:, :10]
        assert np.max(np.abs(low - np.eye(10))) <= 1e-13


@pytest.mark.parametrize("n", [1, 2, 80, 1000])
@pytest.mark.parametrize("alpha", [0.01, 0.36 - 0.2j, 1 + 1j, -3.5 + 0.1j, 5, 1e-8j])
def test_displacement_bytes_match_the_reference(alpha, n):
    # The reference runs in the same process on the same numpy, so the check
    # holds however a platform's exp rounds.
    assert_parent_bytes(displacement_matrix(alpha, n), alpha, n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_displacement_matrices_never_share_the_scratch_table(n):
    # At n = 1 and 2 the step plan has no tuple steps, at n = 3 one: a
    # matrix built later at the same cutoff must leave an earlier one as it
    # was, so neither the returned nor the memoized array is the scratch.
    first = displacement_matrix(0.7 - 0.4j, n)
    first_bytes = first.tobytes()
    second = displacement_matrix(-1.2 + 0.9j, n)
    assert first.tobytes() == first_bytes
    assert not np.shares_memory(first, second)
    assert first_bytes == parent_displacement_entries(0.7 - 0.4j, n).tobytes()
    assert second.tobytes() == parent_displacement_entries(-1.2 + 0.9j, n).tobytes()


def test_displacement_fills_from_threads_do_not_interleave():
    # Every fresh matrix, real or complex, fills the cutoff's one scratch
    # table; with a switch interval of a microsecond, threads that
    # interleaved their fills would build wrong matrices. Every third alpha
    # is real, of either sign.
    threads, per_thread, n = 4, 150, 80
    rng = np.random.default_rng(71)
    radii = 3.0 * np.sqrt(rng.random(threads * per_thread))
    angles = 2.0 * np.pi * rng.random(threads * per_thread)
    alphas = [cmath.rect(r, a) for r, a in zip(radii, angles)]
    for i in range(0, len(alphas), 3):
        alphas[i] = complex(radii[i] if angles[i] < np.pi else -radii[i])
    assert len(set(alphas)) == len(alphas)
    parents = [parent_displacement_entries(alpha, n) for alpha in alphas]
    expected = [(p.real if a.imag == 0 else p).tobytes() for a, p in zip(alphas, parents)]
    build = fock_oracle._displacement_entries.__wrapped__
    wrong = [None] * threads

    def work(index):
        chunk = range(index * per_thread, (index + 1) * per_thread)
        wrong[index] = sum(build(alphas[i], n).tobytes() != expected[i] for i in chunk)

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
    assert wrong == [0] * threads


def test_displacement_vacuum_matrix_element():
    for beta in (0.5, 1j, 1.2 - 0.8j):
        d = displacement_matrix(beta, 30)
        assert d[0, 0] == pytest.approx(
            math.exp(-abs(beta) ** 2 / 2), rel=1e-15
        )


def test_displacement_of_zero_is_identity():
    d = displacement_matrix(0j, 25)
    assert np.array_equal(d, np.eye(25, dtype=complex))


SQUARE_ROUNDING = 1.6174868627108212


@pytest.mark.parametrize("n", [1, 2, 3, 64, 65, 80, 200, 300])
def test_real_displacement_is_the_real_part_of_the_complex_matrix(n):
    # At real alpha D holds every entry of the complex build's real part, in
    # half the bytes and with none of the imaginary round-off a complex phase
    # power leaves above order 100. At the radius SQUARE_ROUNDING, radius**2,
    # the |alpha|^2 the complex build takes, and radius * radius differ in
    # the last bit.
    assert SQUARE_ROUNDING**2 != SQUARE_ROUNDING * SQUARE_ROUNDING
    rng = np.random.default_rng(n)
    radii = [0.0, 1e-3, 0.36, 1.0, 2**0.5, SQUARE_ROUNDING, 5.0, 10.0, 20.0,
             *rng.uniform(-3, 3, 5)]
    for radius in [*radii, -SQUARE_ROUNDING, -5.0]:
        table = displacement_matrix(float(radius), n)
        assert table.dtype == np.float64 and table.nbytes == 8 * n * n
        assert not table.flags.writeable
        assert_parent_bytes(table, radius, n)


@pytest.mark.parametrize("a,n", [(1.5, 200), (0.7, 150), (5.0, 101)])
def test_displacement_at_negative_real_alpha_ignores_the_sign_of_zero(a, n):
    # The memo takes complex(-a, 0.0) and complex(-a, -0.0) for one key, so
    # fresh builds of the two must give the same bytes.
    fock_oracle._displacement_entries.cache_clear()
    plus = displacement_matrix(complex(-a, 0.0), n)
    fock_oracle._displacement_entries.cache_clear()
    minus = displacement_matrix(complex(-a, -0.0), n)
    assert plus.tobytes() == minus.tobytes()


@pytest.mark.parametrize("alpha", [0.5 + 0.3j, -1.2 + 0.8j, 2.0 - 1.5j, 0.1j])
def test_displacement_matches_analytic_formula(alpha):
    computed = displacement_matrix(alpha, 60)
    reference = displacement_reference(alpha, 60)
    assert np.max(np.abs(computed - reference)) < 1e-12


def test_displacement_adjoint_is_negated_argument():
    for alpha in (0.7, 1 - 1j, -0.4 + 2j):
        d = displacement_matrix(alpha, 40)
        d_neg = displacement_matrix(-alpha, 40)
        assert np.array_equal(d.conj().T, d_neg)


def test_displacement_truncated_unitarity():
    # Truncation noise creeps up the matrix as |alpha| grows: the half block
    # stays clean through |alpha| = 1.5, while |alpha| = 2 needs the leading
    # third of the basis for the same accuracy.
    n = 60
    for alpha in (0.5, 1.0, 1.2j, 1.5, 1.06 + 1.06j):
        product = displacement_matrix(alpha, n) @ displacement_matrix(-alpha, n)
        deviation = np.max(np.abs((product - np.eye(n))[: n // 2, : n // 2]))
        assert deviation < 1e-8
    product = displacement_matrix(2.0, n) @ displacement_matrix(-2.0, n)
    assert np.max(np.abs((product - np.eye(n))[:20, :20])) < 1e-8


def test_displacement_composition_law(weyl_compose):
    n = 60
    block = n // 2
    pairs = [
        (1.5, 1.5),
        (1.5, -1.5),
        (1.5 * np.exp(0.3j), 1.5j),
        (1.0, 1j),
        (0.8 - 0.6j, -0.3 + 1.2j),
    ]
    for alpha, beta in pairs:
        phase, total = weyl_compose(alpha, beta)
        left = displacement_matrix(alpha, n) @ displacement_matrix(beta, n)
        right = phase * displacement_matrix(total, n)
        deviation = np.max(np.abs((left - right)[:block, :block]))
        assert deviation < 1e-7


# ---------------------------------------------------------------------------
# displaced thermal matrix
# ---------------------------------------------------------------------------


def test_displaced_thermal_zero_displacement():
    factor = displaced_thermal_matrix(make_state(1.5, 0j), 30)
    assert np.array_equal(factor, np.diag(np.sqrt(thermal_spectrum(1.5, 30))))


def test_displaced_vacuum_is_coherent_projector():
    rho = density(displaced_thermal_matrix(make_state(0.0, 1 + 0j), 40))
    assert rho[0, 0] == pytest.approx(math.exp(-1.0), rel=1e-12)
    eigenvalues = np.linalg.eigvalsh(rho)
    assert eigenvalues[-1] == pytest.approx(1.0, abs=1e-10)
    assert abs(eigenvalues[-2]) < 1e-10


@pytest.mark.parametrize("cutoff", [30, 80, 160])
def test_displaced_thermal_entries_match_eager_reference(cutoff):
    # B B^dag rounds differently from (d * eta) d^dag; measured max 1.1e-16.
    for pair in random_state_pairs([cutoff, 1], 17):
        for state in pair:
            rho = density(displaced_thermal_matrix(state, cutoff))
            reference = eager_displaced_thermal_entries(state, cutoff)
            assert np.max(np.abs(rho - reference)) <= 1e-15


@pytest.mark.parametrize("alpha", [1.0, 0.5 - 1.2j, 2j])
def test_displacement_preserves_thermal_spectrum(alpha):
    n = 60
    rho = density(displaced_thermal_matrix(make_state(1.0, alpha), n))
    eigenvalues = np.sort(np.linalg.eigvalsh(rho))[::-1]
    expected = thermal_spectrum(1.0, 20)
    assert np.max(np.abs(eigenvalues[:20] - expected)) < 1e-8


# ---------------------------------------------------------------------------
# Uhlmann fidelity
# ---------------------------------------------------------------------------


def test_uhlmann_self_fidelity():
    rho = displaced_thermal_matrix(make_state(1.0, 0.5 + 0.5j), 60)
    assert uhlmann_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)


def test_uhlmann_vacuum_vs_coherent():
    rho1 = displaced_thermal_matrix(make_state(0.0, 0j), 40)
    rho2 = displaced_thermal_matrix(make_state(0.0, 1 + 0j), 40)
    assert abs(uhlmann_fidelity(rho1, rho2) - math.exp(-1.0)) < 1e-10


def test_uhlmann_thermal_vs_vacuum():
    rho1 = displaced_thermal_matrix(make_state(1.0, 0j), 80)
    rho2 = displaced_thermal_matrix(make_state(0.0, 0j), 80)
    assert abs(uhlmann_fidelity(rho1, rho2) - 0.5) < 1e-8


def test_uhlmann_symmetry():
    rho1 = displaced_thermal_matrix(make_state(0.7, 1 + 0.5j), 60)
    rho2 = displaced_thermal_matrix(make_state(1.8, -0.5j), 60)
    assert abs(uhlmann_fidelity(rho1, rho2) - uhlmann_fidelity(rho2, rho1)) < 1e-10


def test_uhlmann_pure_state_reduces_to_trace_product():
    rho1 = displaced_thermal_matrix(make_state(0.0, 0.8 - 0.2j), 50)
    rho2 = displaced_thermal_matrix(make_state(1.2, 0.1 + 0.4j), 50)
    trace_product = float(np.trace(density(rho1) @ density(rho2)).real)
    assert abs(uhlmann_fidelity(rho1, rho2) - trace_product) < 1e-10


def test_uhlmann_rejects_cutoff_mismatch():
    with pytest.raises(ValueError):
        uhlmann_fidelity(
            displaced_thermal_matrix(make_state(1.0, 0j), 20),
            displaced_thermal_matrix(make_state(1.0, 0j), 30),
        )


@pytest.mark.parametrize("cutoff", [40, 80, 160])
def test_uhlmann_matches_square_root_reference(cutoff):
    # 34 seeded pairs per cutoff, 102 in all. The factored form keeps the
    # eigenvalues the reference zeroes below 1e-14 of the largest, which is
    # worth up to ~1e-8.
    for state1, state2 in random_state_pairs([cutoff], 34):
        rho1 = displaced_thermal_matrix(state1, cutoff)
        rho2 = displaced_thermal_matrix(state2, cutoff)
        reference = square_root_fidelity(rho1, rho2)
        assert abs(uhlmann_fidelity(rho1, rho2) - reference) <= 1e-8


def test_displaced_thermal_matrix_is_the_scaled_displacement():
    # D(alpha) sqrt(eta), column by column, at a complex alpha.
    state, cutoff = make_state(0.8, 0.6 - 1.1j), 30
    expected = displacement_matrix(state.displacement, cutoff) * np.sqrt(
        thermal_spectrum(state.mean_occupancy, cutoff)
    )
    factor = displaced_thermal_matrix(state, cutoff)
    assert factor.dtype == complex
    assert factor.tobytes() == expected.tobytes()


def test_uhlmann_of_partial_traces_matches_displaced_thermal_pair():
    cutoff = 80
    state1, state2 = make_state(1.0, 0.3 - 0.2j), make_state(0.5, 1.3 + 0.8j)
    vector1 = schmidt_purification(state1, 0.4 - 0.6j, cutoff)
    vector2 = schmidt_purification(state2, -0.2 + 0.1j, cutoff)
    direct = uhlmann_fidelity(
        displaced_thermal_matrix(state1, cutoff), displaced_thermal_matrix(state2, cutoff)
    )
    assert abs(uhlmann_fidelity(vector1, vector2) - direct) <= 1e-10


def test_uhlmann_of_constructed_states_needs_no_eigendecomposition(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("uhlmann_fidelity diagonalized a factored input")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    rho1 = displaced_thermal_matrix(make_state(1.0, 0.3 - 0.2j), 40)
    rho2 = displaced_thermal_matrix(make_state(0.5, 1.3 + 0.8j), 40)
    thermal = displaced_thermal_matrix(make_state(0.5, 0j), 40)
    assert 0.0 < uhlmann_fidelity(rho1, rho2) < 1.0
    assert 0.0 < uhlmann_fidelity(thermal, rho1) < 1.0


def test_oracle_forms_no_density_product(monkeypatch):
    # The route, in the frame of state 1, builds no displaced thermal factor
    # at all: it takes one real displacement matrix, at the real
    # |alpha2 - alpha1|, and no complex one. It looks displacement_matrix up
    # by its module name, so a wrapper bound there, as a tracer binds one,
    # sees the call.
    state1, state2 = make_state(1.0, 0.3 - 0.2j), make_state(0.5, 1.3 + 0.8j)

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle route built a displaced thermal factor")

    calls = []

    def recording(alpha, cutoff):
        calls.append((alpha, cutoff, displacement_matrix(alpha, cutoff)))
        return calls[-1][-1]

    monkeypatch.setattr(fock_oracle, "displaced_thermal_matrix", refuse)
    monkeypatch.setattr(fock_oracle, "displacement_matrix", recording)
    # The golden ``fidelity --all-routes`` pair.
    assert 0.0 < routes.compute_route("oracle", state1, state2, 80).fidelity < 1.0
    [(alpha, cutoff, entries)] = calls
    assert type(alpha) is float and alpha == abs(1.0 + 1.0j) and cutoff == 80
    assert entries.dtype == np.float64


def test_oracle_at_large_common_displacement_meets_closed_form():
    # In the frame of state 1 the truncation sees |alpha2 - alpha1| = 0.5
    # only; with both displacements near 8.5 on an N = 80 basis the states
    # themselves are far from truncated, and the old two-matrix route was
    # 0.49 off here.
    state1, state2 = make_state(0.5, 8.5), make_state(1.0, 8.8 + 0.4j)
    oracle = routes.compute_route("oracle", state1, state2, 80).fidelity
    assert abs(oracle - tcs_fidelity(state1, state2).value) <= 1e-14


def test_oracle_frame_matches_uhlmann_of_the_undisplaced_pair():
    # The frame's fidelity is uhlmann_fidelity of state 1 undisplaced and
    # state 2 at the real |alpha2 - alpha1|, within round-off.
    state1, state2 = make_state(0.7, -0.4 + 2.0j), make_state(1.8, 0.2 + 1.2j)
    delta = abs(state2.displacement - state1.displacement)
    direct = uhlmann_fidelity(
        displaced_thermal_matrix(make_state(0.7, 0j), 60),
        displaced_thermal_matrix(make_state(1.8, delta), 60),
    )
    assert abs(displaced_thermal_fidelity(state1, state2, 60) - direct) <= 1e-15


def full_squared_nuclear_norm(m):
    """||M||_*^2 from one SVD of the whole matrix."""
    return float(np.sum(np.linalg.svd(m, compute_uv=False)) ** 2)


def weighted(d, eta1, eta2):
    """diag(sqrt(eta1)) d diag(sqrt(eta2)), the cross matrix of the oracle route."""
    return np.sqrt(eta1)[:, None] * d * np.sqrt(eta2)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 60),
    s1=st.floats(0.0, 0.95) | st.just(1.0),
    s2=st.floats(0.0, 0.95) | st.just(1.0),
    band=st.floats(0.0, 1.0),
    scale=st.sampled_from([0.0, 1e-120, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_pruned_nuclear_norm_meets_the_full_svd(n, s1, s2, band, scale, seed):
    # Weights s^j grade the rows and columns, and entries fall off as
    # band^|i - j| away from the diagonal, as a displacement matrix's do;
    # s = 1 leaves the weights flat, so that nothing is pruned, and scale 0 is
    # the all-zero matrix. At scale 1e-120 the largest squared row norm is
    # below the floor under which squares may underflow, and nothing is pruned.
    # The same moduli with seeded phases give the complex case, as
    # uhlmann_fidelity passes its cross matrix.
    index = np.arange(n)
    rng = np.random.default_rng(seed)
    real = rng.standard_normal((n, n))
    real *= scale * band ** np.abs(index[:, None] - index)
    eta1, eta2 = s1**index, s2**index
    for d in (real, real * np.exp(2j * np.pi * rng.random((n, n)))):
        m = weighted(d, eta1, eta2)
        full = full_squared_nuclear_norm(m)
        pruned = fock_oracle._squared_nuclear_norm(m)
        assert abs(pruned - full) <= 8 * np.finfo(float).eps * full


def test_pruning_keeps_the_rows_whose_squares_underflow():
    # The last entry carries 1e-14 of the nuclear norm, but its square,
    # 1e-328, underflows to 0: counted as zero, it would be pruned, and the
    # value would come out 2e-14 too small.
    m = np.diag([1e-150, 0.0, 1e-164])
    assert fock_oracle._squared_nuclear_norm(m) == full_squared_nuclear_norm(m)
    # The squares of the middle rows overflow to inf, so every tail compares
    # below the tolerance: pruned to its first row, the value would come out
    # a finite 1e-6 in place of the overflowed inf.
    m = np.diag([1e-3, 1e200, 1e200, 1e-30])
    with np.errstate(over="ignore"):
        pruned = fock_oracle._squared_nuclear_norm(m)
        assert pruned == full_squared_nuclear_norm(m) == math.inf
        assert uhlmann_fidelity(m.astype(complex), np.eye(4)) == math.inf


@pytest.mark.parametrize("n1, n2, dalpha, size", [
    # The golden pair: the last row's norm is 1.6e-26, far below eps. The
    # general API's cross matrix of the two factors prunes to the same block.
    (1.0, 0.5, 1.0 + 1.0j, 55),
    # s1 = 10/11, s2 = 5/6: the last row's norm is 4.7e-6, and neither the
    # route nor the general API prunes anything.
    (10.0, 5.0, 1.0, 80),
])
def test_oracle_takes_the_svd_of_the_leading_block(monkeypatch, n1, n2, dalpha, size):
    shapes = []
    svd = np.linalg.svd

    def recording(matrix, *args, **kwargs):
        shapes.append(matrix.shape)
        return svd(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    alpha1 = 0.3 - 0.2j
    state1, state2 = make_state(n1, alpha1), make_state(n2, alpha1 + dalpha)
    value = displaced_thermal_fidelity(state1, state2, 80)
    factor1, factor2 = displaced_thermal_matrix(state1, 80), displaced_thermal_matrix(state2, 80)
    general = uhlmann_fidelity(factor1, factor2)
    assert shapes == [(size, size)] * 2
    d = displacement_matrix(abs(dalpha), 80).real
    full = full_squared_nuclear_norm(weighted(d, thermal_spectrum(n1, 80), thermal_spectrum(n2, 80)))
    assert abs(value - full) <= 8 * np.finfo(float).eps * full
    full = full_squared_nuclear_norm(factor2.conj().T @ factor1)
    assert abs(general - full) <= 8 * np.finfo(float).eps * full


def test_each_oracle_entry_point_passes_the_kernel_one_cross_matrix(monkeypatch):
    # The route's cross matrix is sqrt(eta1) D(|dalpha|) sqrt(eta2), real; the
    # general API's is factor2^dag factor1, complex at complex alpha.
    calls = []
    kernel = fock_oracle._squared_nuclear_norm

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return kernel(*args, **kwargs)

    monkeypatch.setattr(fock_oracle, "_squared_nuclear_norm", recording)
    state1, state2 = make_state(1.0, 0.3 - 0.2j), make_state(0.5, 1.3 + 0.8j)
    displaced_thermal_fidelity(state1, state2, 40)
    factor1, factor2 = displaced_thermal_matrix(state1, 40), displaced_thermal_matrix(state2, 40)
    uhlmann_fidelity(factor1, factor2)
    eta1, eta2 = thermal_spectrum(1.0, 40), thermal_spectrum(0.5, 40)
    expected = [weighted(displacement_matrix(abs(1 + 1j), 40), eta1, eta2),
                factor2.conj().T @ factor1]
    assert len(calls) == len(expected)
    for (args, kwargs), cross in zip(calls, expected):
        assert kwargs == {} and len(args) == 1
        assert args[0].dtype == cross.dtype and args[0].tobytes() == cross.tobytes()


def test_oracle_at_a_large_cutoff_meets_closed_form():
    # At N = 1000 the route takes the SVD of the same 55 x 55 block as at
    # N = 80, and the golden pair stays on the closed form.
    state1, state2 = make_state(1.0, 0.3 - 0.2j), make_state(0.5, 1.3 + 0.8j)
    value = displaced_thermal_fidelity(state1, state2, 1000)
    assert abs(value - tcs_fidelity(state1, state2).value) <= 1e-14


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    n1=st.floats(0.0, 2.0),
    n2=st.floats(0.0, 2.0),
    alpha1=st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 2 * math.pi)),
    dalpha=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2 * math.pi)),
    shift=st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 2 * math.pi)),
    angle=st.floats(0.0, 2 * math.pi),
)
def test_oracle_meets_closed_form_and_is_invariant(n1, n2, alpha1, dalpha, shift, angle):
    alpha1, dalpha, shift = (cmath.rect(*polar) for polar in (alpha1, dalpha, shift))

    def oracle(a1, a2):
        return displaced_thermal_fidelity(make_state(n1, a1), make_state(n2, a2), 80)

    value = oracle(alpha1, alpha1 + dalpha)
    closed = tcs_fidelity(make_state(n1, alpha1), make_state(n2, alpha1 + dalpha)).value
    # The truncation at N = 80 alone is 1.7e-12 at n1 = n2 = 2, |dalpha| = 2,
    # the corner of this domain, and 1e-15 there at N = 100.
    assert abs(value - closed) <= 1e-11
    # Common displacements and phases move the difference by round-off only.
    phase = cmath.exp(1j * angle)
    assert abs(oracle(alpha1 + shift, alpha1 + dalpha + shift) - value) <= 1e-14
    assert abs(oracle(alpha1 * phase, (alpha1 + dalpha) * phase) - value) <= 1e-14


def test_uhlmann_converges_in_cutoff():
    cases = [
        (make_state(1.0, 0.5 + 0.5j), make_state(2.0, -1 + 0.3j)),
        (make_state(2.0, 2.0), make_state(0.5, -0.5j)),
    ]
    for s1, s2 in cases:
        target = tcs_fidelity(s1, s2).value
        errors = []
        for cutoff in (20, 40, 60, 80):
            value = uhlmann_fidelity(
                displaced_thermal_matrix(s1, cutoff),
                displaced_thermal_matrix(s2, cutoff),
            )
            errors.append(abs(value - target))
        assert errors[-1] <= 1e-6
        # decreasing on average; the last steps may sit at the round-off floor
        assert all(b <= a * 1.1 + 1e-14 for a, b in zip(errors, errors[1:]))
        assert errors[-1] < errors[0]


# ---------------------------------------------------------------------------
# Schmidt purification, partial trace, two-mode CF
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("alpha", [0j, 0.6 - 1.1j])
def test_purification_amplitudes_are_the_displaced_thermal_factor(alpha):
    # D(alpha) sqrt(eta) D(beta)^T, formed from the matrices directly: at
    # alpha = 0 the thermal factor diag(sqrt(eta)) equals D(0) sqrt(eta) bit
    # for bit.
    state, beta, cutoff = make_state(0.8, alpha), 0.2 + 0.5j, 30
    sqrt_eta = np.sqrt(thermal_spectrum(state.mean_occupancy, cutoff))
    expected = (displacement_matrix(alpha, cutoff) * sqrt_eta) @ displacement_matrix(
        beta, cutoff
    ).T
    vector = schmidt_purification(state, beta, cutoff)
    assert vector.tobytes() == expected.tobytes()


def test_purification_of_vacuum():
    vector = schmidt_purification(make_state(0.0, 0j), 0j, 8)
    expected = np.zeros((8, 8), dtype=complex)
    expected[0, 0] = 1.0
    assert np.array_equal(vector, expected)


@pytest.mark.parametrize("nbar", [0.3, 1.0, 2.0])
def test_undisplaced_purification_norm_is_exact_tail(nbar):
    cutoff = 60
    vector = schmidt_purification(make_state(nbar, 0j), 0j, cutoff)
    tail = (nbar / (nbar + 1.0)) ** cutoff
    assert np.linalg.norm(vector) ** 2 == pytest.approx(1.0 - tail, rel=1e-12)


@pytest.mark.parametrize("nbar,alpha,beta", [
    (0.5, 1 + 1j, 0.3j),
    (1.0, 2.0, -0.7 + 0.2j),
    (2.0, -1.5j, 1.0),
])
def test_displaced_purification_norm_deficit(nbar, alpha, beta):
    # Displacing spreads weight toward the cutoff, so the norm deficit is
    # dominated by displacement-operator truncation rather than the spectral
    # tail s^N; for these parameters it stays below 1e-7.
    vector = schmidt_purification(make_state(nbar, alpha), beta, 60)
    assert 1.0 - 1e-7 <= np.linalg.norm(vector) <= 1.0 + 1e-12


@pytest.mark.parametrize("nbar,alpha", [(0.5, 1 + 1j), (1.0, 2.0), (2.0, -1.5j)])
def test_partial_trace_recovers_displaced_thermal(nbar, alpha):
    cutoff = 60
    state = make_state(nbar, alpha)
    vector = schmidt_purification(state, 0.4 - 0.6j, cutoff)
    reduced = density(vector)
    expected = density(displaced_thermal_matrix(state, cutoff))
    assert np.linalg.norm(reduced - expected) < 1e-8


def test_partial_trace_of_product_state():
    # The CF of a product state factors into its one-mode CFs; at lambda2 = 0
    # it is the CF of the mode-1 reduction |left><left|, as <right|right> = 1.
    cutoff = 6
    left = np.array([1.0, 1j, 0, 0, 0, 0]) / math.sqrt(2)
    right = np.array([0.6, 0, 0.8j, 0, 0, 0])
    lambdas1, lambdas2 = [0j, 0.5, -0.3 + 0.8j], [0j, 1j, 0.6 - 0.6j]

    def one_mode_cf(vector, lam):
        return np.vdot(vector, displacement_matrix(lam, cutoff) @ vector)

    table = cf_table(np.outer(left, right), lambdas1, lambdas2)
    expected = [[one_mode_cf(left, l1) * one_mode_cf(right, l2) for l2 in lambdas2]
                for l1 in lambdas1]
    assert np.allclose(table, expected, rtol=0, atol=1e-15)
    assert table[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_partial_trace_of_uniform_schmidt_vector():
    # The CF of sum_k |k>|k> / sqrt(N) is tr(D(lambda1) D(lambda2)^T) / N;
    # at lambda2 = 0 it is tr(D(lambda1)) / N, the CF of the maximally mixed
    # reduction I / N.
    cutoff = 8
    lambdas1, lambdas2 = [0j, 0.5, -0.3 + 0.8j], [0j, 1j, 0.6 - 0.6j]
    table = cf_table(np.eye(cutoff, dtype=complex) / math.sqrt(cutoff), lambdas1, lambdas2)
    expected = [
        [np.trace(displacement_matrix(l1, cutoff) @ displacement_matrix(l2, cutoff).T) / cutoff
         for l2 in lambdas2]
        for l1 in lambdas1
    ]
    assert np.allclose(table, expected, rtol=0, atol=1e-15)
    assert table[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_purification_overlap_matches_closed_form(overlap_probability):
    cutoff = 60
    s1 = make_state(1.0, 0.3 - 0.2j)
    s2 = make_state(2.0, 1.3 - 0.2j)
    beta = optimal_beta(s1, s2)
    v1 = schmidt_purification(s1, 0j, cutoff)
    v2 = schmidt_purification(s2, beta, cutoff)
    inner = np.vdot(v1, v2)
    reference = PurificationSpec(s1.thermal, s1.displacement, 0j)
    free = PurificationSpec(s2.thermal, s2.displacement, beta)
    assert abs(abs(inner) ** 2 - overlap_probability(reference, free)) < 1e-6


def test_two_mode_cf_at_origin_is_squared_norm():
    vector = schmidt_purification(make_state(1.0, 1 + 0j), 0.5j, 40)
    assert cf_table(vector, [0j], [0j])[0, 0] == pytest.approx(
        np.linalg.norm(vector) ** 2, rel=1e-12
    )


def test_two_mode_cf_vacuum():
    cutoff = 30
    amplitudes = np.zeros((cutoff, cutoff), dtype=complex)
    amplitudes[0, 0] = 1.0
    for lam in (0.5, 1j, 0.6 - 0.3j):
        assert cf_table(amplitudes, [lam], [0j])[0, 0] == pytest.approx(
            math.exp(-abs(lam) ** 2 / 2), rel=1e-12
        )


def test_cf_table_equals_pointwise_expression():
    amp = schmidt_purification(make_state(0.7, 0.4 - 0.9j), 0.2 + 0.5j, 24)
    lambdas1 = [0j, 0.5, -0.3 + 0.8j]
    lambdas2 = [0.5, 1j, 0.6 - 0.6j, 0j]
    table = cf_table(amp, lambdas1, lambdas2)
    for i, lam1 in enumerate(lambdas1):
        for j, lam2 in enumerate(lambdas2):
            d1 = displacement_matrix(lam1, 24)
            d2 = displacement_matrix(lam2, 24)
            assert table[i, j] == np.vdot(amp, d1 @ amp @ d2.T)
            assert cf_table(amp, [lam1], [lam2])[0, 0] == table[i, j]


def test_two_mode_cf_matches_closed_form():
    cutoff = 60
    spec = PurificationSpec(ThermalParams(1.0), 0j, 0j)
    vector = schmidt_purification(make_state(1.0, 0j), 0j, cutoff)
    for lam1, lam2 in [(0.5, 0.5), (1j, -0.5), (0.7 + 0.7j, 0.3 - 0.9j)]:
        oracle = cf_table(vector, [lam1], [lam2])[0, 0]
        closed = purification_cf(spec, lam1, lam2)
        assert abs(oracle - closed) < 1e-6


# ---------------------------------------------------------------------------
# input validation
# ---------------------------------------------------------------------------


def test_displacement_matrix_validation():
    for alpha in (complex(math.nan, 0), complex(0, math.inf)):
        with pytest.raises(ValueError, match="alpha must be finite"):
            displacement_matrix(alpha, 5)
    for alpha in (0j, 0.5 - 1j):
        for cutoff in (0, -1):
            with pytest.raises(ValueError, match=rf"^cutoff must be >= 1, got {cutoff}$"):
                displacement_matrix(alpha, cutoff)


@pytest.mark.parametrize("shape1, shape2", [
    ((3, 2), (3, 2)),
    ((2, 3), (2, 3)),
    ((3,), (3,)),
    ((3, 3), (3, 2)),
    ((2, 2, 2), (2, 2, 2)),
])
def test_uhlmann_rejects_non_square_factors(shape1, shape2):
    message = f"factors must be square and of one shape, got {shape1} and {shape2}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        uhlmann_fidelity(np.ones(shape1, dtype=complex), np.ones(shape2, dtype=complex))


def test_uhlmann_of_empty_factors_is_zero():
    # A 0 x 0 cross matrix has no last row to read and no singular value.
    assert uhlmann_fidelity(np.zeros((0, 0)), np.zeros((0, 0))) == 0.0
