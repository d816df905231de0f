"""Brute-force verification layer on a truncated Fock basis.

Everything here is dense linear algebra on N x N (or N x N two-mode) arrays:
density operators, displacement operators built from a Laguerre recurrence
normalized to the matrix entries (bounded by one, so finite at any cutoff),
the Bures-Uhlmann fidelity, and Schmidt purifications with their partial
traces and characteristic functions.

The fidelity is Uhlmann's maximal transition probability between
purifications. A density matrix rho = B B^dag is purified by the amplitude
matrix B, and the maximum over all purifications is the squared nuclear norm
||B2^dag B1||_*^2. A FockMatrix is held as such a factor, so rho itself is
formed as B B^dag only when its entries are read. The fidelity therefore
costs one factor product and one singular-value decomposition, with no density
product, no matrix square root and no eigenvalue clipping. For two displaced
thermal states, displaced_thermal_fidelity works in the frame of the first,
where the cross matrix is real and needs no product at all.

Truncated operators are deliberately not renormalized; callers budget for the
geometric truncation tail s^N instead, so convergence in the cutoff stays
observable.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .states import DisplacedThermalState, _squared_modulus, _validate_complex

DEFAULT_CUTOFF = 60


class FockMatrix:
    """Density matrix over the number basis truncated at ``cutoff``, held as
    its purification factor.

    ``factor`` is an N x N matrix B with rho = B B^dag: the amplitude matrix
    of a purification of the state, which uhlmann_fidelity uses in place of a
    square root. ``entries``, the density matrix itself, is formed as B B^dag
    on first access and kept; thermal_density_matrix presets its exact
    diagonal instead. A caller who holds only rho picks the factor, for
    example a Cholesky factor or V sqrt(w) from an eigendecomposition with a
    floor of their choosing.
    """

    def __init__(self, cutoff: int, *, factor: np.ndarray) -> None:
        if cutoff < 1:
            raise ValueError(f"cutoff must be >= 1, got {cutoff}")
        factor = np.asarray(factor, dtype=complex)
        if factor.shape != (cutoff, cutoff):
            raise ValueError(f"factor must be {cutoff}x{cutoff}, got {factor.shape}")
        self.cutoff = cutoff
        self.factor = factor

    @functools.cached_property
    def entries(self) -> np.ndarray:
        """The density matrix B B^dag, formed once when read."""
        return self.factor @ self.factor.conj().T

    def trace(self) -> complex:
        return complex(np.trace(self.entries))


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
    eta = thermal_spectrum(nbar, cutoff)
    rho = FockMatrix(cutoff, factor=np.diag(np.sqrt(eta)))
    # Exact, where B B^dag would round; the instance attribute shadows the
    # cached property.
    rho.entries = np.diag(eta).astype(complex)
    return rho


#: Columns per block when the recurrence mirrors its upper triangle: a
#: block's rows stay in cache while their transpose is written.
_MIRROR_BLOCK = 64


def _toeplitz(base: np.ndarray, n: int) -> np.ndarray:
    """The n x n view whose entry (k, l) is base[n - 1 - k + l], without a copy."""
    step = base.itemsize
    return np.ndarray((n, n), base.dtype, base, (n - 1) * step, (-step, step))


@functools.lru_cache(maxsize=1)
def _recurrence_constants(n: int) -> tuple:
    """What the entry recurrence needs at cutoff ``n`` whatever alpha is,
    memoized for the most recent cutoff only.

    Returns the orders, half the log-factorials, the ramp 0, 1, ..., 2n - 1,
    the divisors sqrt((l+1)(l+o+1)) of each step l (views of one packed
    buffer of n (n - 1) / 2 floats), the scales sqrt(l (l+o)) of each step
    l >= 1 (prefixes of the step before's divisors) and the below-diagonal
    mask of one mirror block.
    """
    order = np.arange(n)
    half_log_fact = 0.5 * np.array([math.lgamma(o + 1.0) for o in range(n)])
    ramp = np.arange(2.0 * n)
    packed = np.empty(n * (n - 1) // 2)
    divisors, start = [], 0
    for l in range(n - 1):
        row = packed[start:start + n - 1 - l]
        np.sqrt(np.multiply(l + 1.0, ramp[l + 1:n], row), row)
        divisors.append(row)
        start += n - 1 - l
    scales = [row[:-1] for row in divisors[:-1]]
    below = np.tri(n, min(n, _MIRROR_BLOCK), -1, dtype=bool)
    return order, half_log_fact, ramp, divisors, scales, below


def _fill_entries(x: float, radius: float, entries: np.ndarray) -> None:
    """Write the real E_l^(o) of D(alpha), |alpha| = radius, x = radius^2,
    into the n x n ``entries`` at [l, l + o] and at [l + o, l].

    The Laguerre recurrence of _displacement_entries runs upward in the
    degree l: step l writes row l + 1 of the upper triangle, E_{l+1}^(o) at
    [l + 1, l + 1 + o], in place by four ufunc calls, reading rows l and
    l - 1. The lower triangle is then mirrored in square blocks.
    """
    n = len(entries)
    order, half_log_fact, ramp, divisors, scales, below = _recurrence_constants(n)
    here = entries[0]
    np.exp(order * math.log(radius) - 0.5 * x - half_log_fact, here)
    # Whole numbers, exact as floats: 2l + o + 1 is a slice of the ramp.
    shifted = ramp - x
    # At small n each ufunc call costs more than its arithmetic, so the
    # loop writes through positional ``out`` arguments of local names.
    multiply, subtract, divide = np.multiply, np.subtract, np.divide
    if n > 1:
        # Step 0 has no lag term: E_{-1} = 0, and subtracting +0.0 changes
        # no bit.
        following = entries[1, 1:]
        divide(multiply(shifted[1:n], here[:-1], following), divisors[0], following)
        products = np.empty(n - 2)
        for l in range(1, n - 1):
            lag, here = here, following
            following = entries[l + 1, l + 1:]
            multiply(shifted[2 * l + 1:n + l], here[:-1], following)
            product = products[l - 1:]
            multiply(scales[l - 1], lag[:-2], product)
            subtract(following, product, following)
            divide(following, divisors[l], following)
    for start in range(0, n, _MIRROR_BLOCK):
        stop = start + _MIRROR_BLOCK
        np.copyto(entries[start:, start:stop], entries[start:stop, start:].T,
                  where=below[:n - start, :n - start])


@functools.lru_cache(maxsize=8)
def _displacement_entries(alpha: complex, n: int) -> np.ndarray:
    """Read-only entries of D(alpha) truncated at ``n``, memoized per (alpha, n).

    With x = |alpha|^2 and unit = alpha / |alpha|, the entry k = l + o >= l is
    <l+o|D(alpha)|l> = unit^o E_l^(o), where the real
    E_l^(o) = sqrt(l!/(l+o)!) |alpha|^o e^{-x/2} L_l^{(o)}(x)
    (Cahill & Glauber, Phys. Rev. 177, 1857, 1969) obeys the Laguerre
    three-term recurrence rescaled to the entries themselves,
    E_{l+1} = ((2l+o+1-x) E_l - sqrt(l(l+o)) E_{l-1}) / sqrt((l+1)(l+o+1)),
    from E_0^(o) = |alpha|^o e^{-x/2} / sqrt(o!), taken from log space. It runs
    upward in the degree l, vectorized over the order o: step l advances only
    the orders still inside the matrix. Every value it carries is a matrix
    entry, at most 1 in modulus, so it stays finite at any cutoff. The k < l
    entries follow from <l|D(alpha)|l+o> = (-1)^o conj(<l+o|D(alpha)|l>).
    _fill_entries stores the real E_l^(o) on both sides of the diagonal, and
    one product applies every phase at the end.
    """
    out = np.zeros((n, n), dtype=complex)
    if alpha == 0:
        np.fill_diagonal(out, 1.0)
    else:
        x = _squared_modulus(alpha, "alpha")
        radius = abs(alpha)
        # Part by part: complex / float would turn a -0.0 imaginary part into
        # +0.0, and D(-alpha) would no longer be D(alpha)^dag bit for bit.
        unit = complex(alpha.real / radius, alpha.imag / radius)
        _fill_entries(x, radius, out.real)
        # The phase of entry (k, l) is phases[n - 1 - k + l]: unit^(k-l) for
        # k >= l and (-conj(unit))^(l-k) above. It must be the first factor:
        # the product E * phase signs some zero imaginary parts differently.
        order = np.arange(n)
        phases = np.concatenate([(unit**order)[::-1], ((-unit.conjugate()) ** order)[1:]])
        np.multiply(_toeplitz(phases, n), out, out)
    out.flags.writeable = False
    return out


def displacement_matrix(alpha: complex, cutoff: int) -> np.ndarray:
    """Entries of the displacement operator D(alpha) on the truncated basis.

    One pass of the Laguerre recurrence, normalized to the matrix entries and
    vectorized over the order k - l, gives the k >= l entries; the k < l
    entries are (-1)^(k-l) conjugates of them,
    <l|D(alpha)|k> = (-1)^(k-l) conj(<k|D(alpha)|l>). Every entry is finite at
    any cutoff. Results are memoized per (alpha, cutoff) in a bounded cache of
    8 matrices, at most 8 * 16 * N^2 bytes, plus the divisors of the most
    recent cutoff, about 4 * N^2 bytes, and the array is shared between
    callers, so it is read-only. Accuracy of the truncation degrades once
    |alpha|^2 approaches the cutoff. A non-finite alpha or a cutoff below 1
    raises ValueError, and an alpha whose |alpha|^2 overflows raises
    OverflowError. A matrix takes 0.21-0.35 ms at N = 80, 1.3-2.3 ms at
    N = 320, 8.6-12 ms at N = 1000 and 0.10-0.13 s at N = 3000 (best of 5,
    one OpenBLAS thread, on a 2-vCPU VM whose speed varied between runs),
    and the first one at a new cutoff also builds its divisors: 0.16 ms at
    N = 80, 22 ms at N = 3000.
    """
    alpha = _validate_complex(alpha, "alpha")
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    return _displacement_entries(alpha, cutoff)


def displaced_thermal_matrix(state: DisplacedThermalState, cutoff: int) -> FockMatrix:
    """Density matrix D(alpha) rho_thermal D(alpha)^dag, stored as its factor
    B = D(alpha) sqrt(rho_thermal).

    Building it costs one column scaling of the memoized D(alpha); the N^3
    product B B^dag runs only if ``entries`` is read. At zero displacement it
    is thermal_density_matrix, with exact diagonal entries.
    """
    if state.displacement == 0:
        return thermal_density_matrix(state.mean_occupancy, cutoff)
    d = displacement_matrix(state.displacement, cutoff)
    eta = thermal_spectrum(state.mean_occupancy, cutoff)
    return FockMatrix(cutoff, factor=d * np.sqrt(eta))


def uhlmann_fidelity(rho1: FockMatrix, rho2: FockMatrix) -> float:
    """Bures-Uhlmann fidelity {Tr[(sqrt(rho1) rho2 sqrt(rho1))^(1/2)]}^2.

    Evaluated by Uhlmann's theorem as ||B2^dag B1||_*^2, the squared sum of
    singular values, for any factors rho_i = B_i B_i^dag: B_i = sqrt(rho_i) U_i
    with U_i unitary, and the nuclear norm is unitarily invariant, so it
    equals ||sqrt(rho2) sqrt(rho1)||_*. The factors are the ones the inputs
    carry, so no square root is taken and round-off enters linearly, and
    rho = B B^dag is never formed: the cost is one factor product and one SVD.
    """
    if rho1.cutoff != rho2.cutoff:
        raise ValueError(
            f"cutoff mismatch: {rho1.cutoff} vs {rho2.cutoff}"
        )
    cross = rho2.factor.conj().T @ rho1.factor
    singular_values = np.linalg.svd(cross, compute_uv=False)
    return float(np.sum(singular_values) ** 2)


def displaced_thermal_fidelity(
    state1: DisplacedThermalState, state2: DisplacedThermalState, cutoff: int
) -> float:
    """Fidelity of two displaced thermal states on the basis truncated at
    ``cutoff``, computed in the frame of state 1.

    The fidelity is invariant under a unitary applied to both states (Jozsa,
    J. Mod. Opt. 41, 2315, 1994). D(-alpha1) undisplaces state 1, and a phase
    rotation, which leaves thermal states alone, turns alpha2 - alpha1 into
    delta = |alpha2 - alpha1|. State 1's factor is then diag(sqrt(eta1)) and
    state 2's is D(delta) sqrt(eta2), so uhlmann_fidelity's cross matrix is
    the adjoint of sqrt(eta1) D(delta) sqrt(eta2), formed by two scalings.
    D(delta) is real at real delta >= 0: every phase is +1 or -1 in its real
    part, so the real part of the memoized matrix holds each entry exactly.
    The cost is one displacement matrix and one real SVD, with no N^3
    product, and the truncation depends on |alpha2 - alpha1| alone. An
    |alpha2 - alpha1|^2 that overflows raises OverflowError naming it, and a
    cutoff below 1 raises ValueError.
    """
    delta = state2.displacement - state1.displacement
    _squared_modulus(delta, "alpha2 - alpha1")
    d = displacement_matrix(abs(delta), cutoff).real
    root1 = np.sqrt(thermal_spectrum(state1.mean_occupancy, cutoff))
    root2 = np.sqrt(thermal_spectrum(state2.mean_occupancy, cutoff))
    singular_values = np.linalg.svd(root1[:, None] * d * root2, compute_uv=False)
    return float(np.sum(singular_values) ** 2)


def schmidt_purification(
    state: DisplacedThermalState, beta: complex, cutoff: int
) -> TwoModeVector:
    """Truncated Schmidt purification of a displaced thermal state.

    amplitudes[m, n] = sum_k sqrt(eta_k) <m|D(alpha)|k> <n|D(beta)|k>, so the
    mode-1 reduction is the displaced thermal state and the mode-2 reduction
    carries displacement beta at the same occupancy. The norm falls short of
    one by the truncation tail s^cutoff. The mode-1 factor D(alpha)
    sqrt(eta) is the one displaced_thermal_matrix stores.
    """
    rho = displaced_thermal_matrix(state, cutoff)
    return TwoModeVector(cutoff, rho.factor @ displacement_matrix(beta, cutoff).T)


def cf_table(vector: TwoModeVector, lambdas1, lambdas2) -> np.ndarray:
    """The characteristic function at every pair, table[i, j] at
    (lambdas1[i], lambdas2[j]).

    Each distinct displacement matrix is built once per call and all are held
    until it returns, 16 * N^2 bytes apiece.
    """
    amp = vector.amplitudes
    d = {
        lam: displacement_matrix(lam, vector.cutoff)
        for lam in dict.fromkeys([*lambdas1, *lambdas2])
    }
    table = np.empty((len(lambdas1), len(lambdas2)), dtype=complex)
    for i, lambda1 in enumerate(lambdas1):
        left = d[lambda1] @ amp
        for j, lambda2 in enumerate(lambdas2):
            table[i, j] = np.vdot(amp, left @ d[lambda2].T)
    return table
