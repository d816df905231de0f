"""Brute-force verification layer on a truncated Fock basis.

Everything here is dense linear algebra on N x N (or N x N two-mode) arrays:
density operators, displacement operators built from a Laguerre recurrence,
the Bures-Uhlmann fidelity via Hermitian matrix square roots, and Schmidt
purifications with their partial traces and characteristic functions.

Truncated operators are deliberately not renormalized; callers budget for the
geometric truncation tail s^N instead, so convergence in the cutoff stays
observable.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .states import DisplacedThermalState

log = logging.getLogger(__name__)

DEFAULT_CUTOFF = 60

#: Tolerated deviation from Hermiticity for density-matrix inputs.
HERMITICITY_TOL = 1e-12

#: Eigenvalues below this are reported before being clipped to zero;
#: anything between it and zero is silent round-off from truncation.
EIGENVALUE_WARN = -1e-10


@dataclass(frozen=True)
class FockMatrix:
    """Dense complex matrix over the number basis truncated at ``cutoff``."""

    cutoff: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        if self.cutoff < 1:
            raise ValueError(f"cutoff must be >= 1, got {self.cutoff}")
        entries = np.asarray(self.entries, dtype=complex)
        if entries.shape != (self.cutoff, self.cutoff):
            raise ValueError(
                f"entries must be {self.cutoff}x{self.cutoff}, got {entries.shape}"
            )
        object.__setattr__(self, "entries", entries)

    def trace(self) -> complex:
        return complex(np.trace(self.entries))

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.entries - self.entries.conj().T)))


@dataclass(frozen=True)
class TwoModeVector:
    """Two-mode pure state; amplitudes[n1, n2] over the truncated number basis."""

    cutoff: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.cutoff < 1:
            raise ValueError(f"cutoff must be >= 1, got {self.cutoff}")
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (self.cutoff, self.cutoff):
            raise ValueError(
                f"amplitudes must be {self.cutoff}x{self.cutoff}, got {amp.shape}"
            )
        object.__setattr__(self, "amplitudes", amp)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def thermal_spectrum(nbar: float, count: int) -> np.ndarray:
    """First ``count`` eigenvalues of the thermal state, s^j / (nbar + 1)."""
    if nbar < 0:
        raise ValueError(f"nbar must be >= 0, got {nbar}")
    s = nbar / (nbar + 1.0)
    return s ** np.arange(count) / (nbar + 1.0)


def thermal_density_matrix(nbar: float, cutoff: int) -> FockMatrix:
    """Diagonal thermal density operator truncated at ``cutoff`` levels."""
    return FockMatrix(cutoff, np.diag(thermal_spectrum(nbar, cutoff)).astype(complex))


@functools.lru_cache(maxsize=8)
def _displacement_entries(alpha: complex, n: int) -> np.ndarray:
    """Read-only entries of D(alpha) truncated at ``n``, memoized per (alpha, n).

    <k|D(alpha)|l> = sqrt(l!/k!) alpha^(k-l) e^{-|alpha|^2/2} L_l^{(k-l)}(|alpha|^2)
    for k >= l. The Laguerre values come from the three-term recurrence upward
    in the degree l, vectorized over the order k - l: step l advances only the
    orders k - l < n - l that are still inside the matrix, so nothing beyond
    it is evaluated. The factorial ratio stays in log space. The k < l
    entries follow from <l|D(alpha)|k> = conj(<k|D(-alpha)|l>), where
    D(-alpha) shares the magnitudes and Laguerre values and differs only in
    the phase.
    """
    out = np.zeros((n, n), dtype=complex)
    if alpha == 0:
        np.fill_diagonal(out, 1.0)
    else:
        x = abs(alpha) ** 2
        log_mag = math.log(abs(alpha))
        # Python's complex ** int, as in the scalar recurrence: it switches to
        # the polar form above order 100, so these keep its exact bits.
        unit, unit_negated = alpha / abs(alpha), -alpha / abs(alpha)
        phase = np.array([unit**order for order in range(n)])
        phase_negated = np.array([unit_negated**order for order in range(n)])
        # The lower triangle column by column: column l holds rows k = l..n-1.
        cols, rows = np.triu_indices(n)
        orders = rows - cols
        log_fact = np.array([math.lgamma(i + 1.0) for i in range(n)])
        exponent = 0.5 * (log_fact[cols] - log_fact[rows]) + orders * log_mag - 0.5 * x
        # math.exp, not np.exp: the two differ in the last bit for some arguments.
        magnitude = np.fromiter(map(math.exp, exponent.tolist()), float, exponent.size)
        laguerre = np.empty(exponent.size)
        order = np.arange(n)
        previous, current = np.zeros(n), np.ones(n)
        start = 0
        for l in range(n):
            laguerre[start:start + n - l] = current
            start += n - l
            inside = n - l - 1  # orders still inside the matrix at degree l + 1
            o = order[:inside]
            previous, current = current[:inside], (
                (2 * l + o + 1 - x) * current[:inside] - (l + o) * previous[:inside]
            ) / (l + 1)
        out[cols, rows] = np.conj(magnitude * phase_negated[orders] * laguerre)
        out[rows, cols] = magnitude * phase[orders] * laguerre
    out.flags.writeable = False
    return out


def displacement_matrix(alpha: complex, cutoff: int) -> FockMatrix:
    """Displacement operator D(alpha) on the truncated basis.

    One Laguerre-recurrence pass, vectorized over the order k - l, gives the
    k >= l entries; the k < l entries are (-1)^(k-l) conjugates of them,
    <l|D(alpha)|k> = (-1)^(k-l) conj(<k|D(alpha)|l>). Results are memoized
    per (alpha, cutoff) in a bounded cache of 8 matrices, at most 8 * 16 * N^2
    bytes, and the entries are shared between callers, so they are read-only.
    Accuracy of the truncation degrades once |alpha|^2 approaches the cutoff.
    Above a cutoff of about 1040 the Laguerre values overflow for |alpha| up
    to about 5 (numpy reports a RuntimeWarning) and those entries are not
    finite.
    """
    return FockMatrix(cutoff, _displacement_entries(complex(alpha), cutoff))


def displaced_thermal_matrix(state: DisplacedThermalState, cutoff: int) -> FockMatrix:
    """Density matrix D(alpha) rho_thermal D(alpha)^dag."""
    if state.displacement == 0:
        return thermal_density_matrix(state.mean_occupancy, cutoff)
    d = displacement_matrix(state.displacement, cutoff).entries
    eta = thermal_spectrum(state.mean_occupancy, cutoff)
    return FockMatrix(cutoff, (d * eta) @ d.conj().T)


#: Relative floor under which eigenvalues are zeroed in the matrix square
#: root. eigh resolves a rank-deficient input's null space only to absolute
#: round-off (~1e-16), and the square root would amplify that to ~1e-8.
EIGENVALUE_FLOOR = 1e-14


def _psd_sqrt(matrix: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(matrix)
    if w[0] < EIGENVALUE_WARN:
        log.warning(
            "clipping negative eigenvalue %.3e to zero before matrix square root",
            w[0],
        )
    w = np.clip(w, 0.0, None)
    if w[-1] > 0.0:
        w[w < EIGENVALUE_FLOOR * w[-1]] = 0.0
    return (v * np.sqrt(w)) @ v.conj().T


def _validate_density_input(rho: FockMatrix, name: str) -> None:
    defect = rho.hermiticity_defect()
    if defect > HERMITICITY_TOL:
        raise ValueError(
            f"{name} is not Hermitian: max |rho - rho^dag| = {defect:.3e}"
        )


def uhlmann_fidelity(rho1: FockMatrix, rho2: FockMatrix) -> float:
    """Bures-Uhlmann fidelity {Tr[(sqrt(rho1) rho2 sqrt(rho1))^(1/2)]}^2.

    Matrix square roots use Hermitian eigendecompositions with negative
    eigenvalues clipped at zero. The outer trace is evaluated in the
    identical nuclear-norm form sum of singular values of
    sqrt(rho2) sqrt(rho1), where round-off enters linearly; diagonalizing
    sqrt(rho1) rho2 sqrt(rho1) instead would square-root the noise floor of
    rank-deficient inputs up to ~1e-8.
    """
    if rho1.cutoff != rho2.cutoff:
        raise ValueError(
            f"cutoff mismatch: {rho1.cutoff} vs {rho2.cutoff}"
        )
    _validate_density_input(rho1, "rho1")
    _validate_density_input(rho2, "rho2")
    cross = _psd_sqrt(rho2.entries) @ _psd_sqrt(rho1.entries)
    singular_values = np.linalg.svd(cross, compute_uv=False)
    return float(np.sum(singular_values) ** 2)


def schmidt_purification(
    state: DisplacedThermalState, beta: complex, cutoff: int
) -> TwoModeVector:
    """Truncated Schmidt purification of a displaced thermal state.

    amplitudes[m, n] = sum_k sqrt(eta_k) <m|D(alpha)|k> <n|D(beta)|k>, so the
    mode-1 reduction is the displaced thermal state and the mode-2 reduction
    carries displacement beta at the same occupancy. The norm falls short of
    one by the truncation tail s^cutoff.
    """
    sqrt_eta = np.sqrt(thermal_spectrum(state.mean_occupancy, cutoff))
    d_alpha = displacement_matrix(state.displacement, cutoff).entries
    d_beta = displacement_matrix(beta, cutoff).entries
    amplitudes = (d_alpha * sqrt_eta) @ d_beta.T
    return TwoModeVector(cutoff, amplitudes)


def partial_trace_mode2(vector: TwoModeVector) -> FockMatrix:
    """Reduced mode-1 density matrix of a two-mode pure state."""
    amp = vector.amplitudes
    return FockMatrix(vector.cutoff, amp @ amp.conj().T)


def cf_of_two_mode_vector(
    vector: TwoModeVector, lambda1: complex, lambda2: complex
) -> complex:
    """Characteristic function <v| D(lambda1) x D(lambda2) |v> of the vector."""
    d1 = displacement_matrix(lambda1, vector.cutoff).entries
    d2 = displacement_matrix(lambda2, vector.cutoff).entries
    amp = vector.amplitudes
    return complex(np.vdot(amp, d1 @ amp @ d2.T))
