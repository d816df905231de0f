"""Brute-force verification layer on a truncated Fock basis.

Everything here is dense linear algebra on N x N arrays: displacement
operators built from a Laguerre recurrence normalized to the matrix entries
(bounded by one, so finite at any cutoff), the Bures-Uhlmann fidelity, and
Schmidt purifications with their characteristic functions. One memoized
builder makes every displacement matrix: a real array at real alpha, where
D(alpha) is real, and a complex one elsewhere.

The fidelity is Uhlmann's maximal transition probability between
purifications. A density matrix rho = B B^dag is purified by the amplitude
matrix B, and the maximum over all purifications is the squared nuclear norm
||B2^dag B1||_*^2. A state is therefore passed as its factor B, a plain
N x N array, and rho itself is never formed. One kernel,
_squared_nuclear_norm, takes that cross matrix alone and returns its squared
nuclear norm from one SVD of its leading block, whose dropped rows and
columns are bounded to move the fidelity by a quarter of an ulp at most, with
no density product, no matrix square root and no eigenvalue clipping. For two
displaced thermal states, displaced_thermal_fidelity works in the frame of
the first, where the cross matrix is real and two scalings form it.

Truncated operators are deliberately not renormalized; callers budget for the
geometric truncation tail s^N instead, so convergence in the cutoff stays
observable.
"""

from __future__ import annotations

import functools
import math
import operator
import threading

import numpy as np

from .states import DisplacedThermalState, _squared_modulus, _validate_complex


def thermal_spectrum(nbar: float, count: int) -> np.ndarray:
    """First ``count`` eigenvalues of the thermal state, s^j / (nbar + 1). A
    non-finite or negative nbar raises ValueError."""
    if not math.isfinite(nbar):
        raise ValueError(f"nbar must be finite, got {nbar}")
    if nbar < 0:
        raise ValueError(f"nbar must be >= 0, got {nbar}")
    s = nbar / (nbar + 1.0)
    return s ** np.arange(count) / (nbar + 1.0)


#: Columns per block when the recurrence mirrors its upper triangle: a
#: block's rows stay in cache while their transpose is written.
_MIRROR_BLOCK = 64


def _toeplitz(base: np.ndarray, n: int) -> np.ndarray:
    """The n x n view whose entry (k, l) is base[n - 1 - k + l], without a copy."""
    step = base.itemsize
    return np.ndarray((n, n), base.dtype, base, (n - 1) * step, (-step, step))


@functools.lru_cache(maxsize=1)
def _recurrence_constants(n: int) -> tuple:
    """The step plan of the entry recurrence at cutoff ``n``: everything it
    needs whatever alpha is, memoized for the most recent cutoff only.

    Returns the orders, half the log-factorials, the ramp 0, 1, ..., 2n - 1,
    the buffer of ramp - x, the n x n scratch table, the seven views of each
    step l and the below-diagonal mask of one mirror block. Step l divides by
    sqrt((l+1)(l+o+1)) and scales its lag by sqrt(l (l+o)), the step before's
    divisors, in one packed buffer led by a row of zeros: the scale of step 0,
    whose lag reads the zero row that pads the table. The scratch table and
    the buffers are shared by every caller: fill them only under _SCRATCH_LOCK.
    """
    order = np.arange(n)
    half_log_fact = 0.5 * np.array([math.lgamma(o + 1.0) for o in range(n)])
    ramp = np.arange(2.0 * n)
    # Row l + 1 of divisors is sqrt((l+1)(l+o+1)), from l = -1 on: zeros first.
    divisors = np.split(np.empty(n * (n + 1) // 2), np.cumsum(np.arange(n, 1, -1)))
    for l, row in enumerate(divisors, -1):
        np.sqrt(np.multiply(l + 1.0, ramp[l + 1:n], row), row)
    shifted = np.empty(2 * n)
    # Row l - 1 of the table, from its diagonal on, starts at padded[l (n + 1)]:
    # at l = 0 that is the n + 1 zeros ahead of the table.
    padded = np.zeros(n * n + n + 1)
    table = padded[n + 1:].reshape(n, n)
    products = np.empty(n - 1)
    # Step l writes row l + 1 of the upper triangle from rows l and l - 1:
    # (2l+o+1 - x, E_l, E_{l+1}, sqrt(l(l+o)), E_{l-1}, product, divisor).
    steps = tuple(
        (shifted[2 * l + 1:n + l], table[l, l:-1], table[l + 1, l + 1:],
         divisors[l][:-1], padded[l * (n + 1):(l + 1) * n - 1], products[l:], divisors[l + 1])
        for l in range(n - 1)
    )
    below = np.tri(n, min(n, _MIRROR_BLOCK), -1, dtype=bool)
    return order, half_log_fact, ramp, shifted, table, steps, below


#: Held from the fill of a plan's scratch table until the product that reads
#: it has returned, so that concurrent callers cannot interleave their fills.
_SCRATCH_LOCK = threading.Lock()


def _fill_entries(x: float, radius: float, n: int) -> np.ndarray:
    """Fill the scratch table of the step plan at cutoff ``n`` with the real
    E_l^(o) of D(alpha), |alpha| = radius, x = radius^2, at [l, l + o] and at
    [l + o, l], and return it. The caller holds _SCRATCH_LOCK until it has
    read the table.

    The Laguerre recurrence of _displacement_entries runs upward in the
    degree l: step l writes row l + 1 of the upper triangle, E_{l+1}^(o) at
    [l + 1, l + 1 + o], in place by four ufunc calls on the views the plan
    holds for it, reading rows l and l - 1. The lower triangle is then
    mirrored in square blocks.
    """
    order, half_log_fact, ramp, shifted, table, steps, below = _recurrence_constants(n)
    np.exp(order * math.log(radius) - 0.5 * x - half_log_fact, table[0])
    # Whole numbers, exact as floats: 2l + o + 1 is a slice of the ramp.
    np.subtract(ramp, x, shifted)
    # At small n each ufunc call costs more than its arithmetic, so the
    # loop writes through positional ``out`` arguments of local names.
    multiply, subtract, divide = np.multiply, np.subtract, np.divide
    for shift, here, following, scale, lag, product, divisor in steps:
        multiply(shift, here, following)
        multiply(scale, lag, product)
        subtract(following, product, following)
        divide(following, divisor, following)
    for start in range(0, n, _MIRROR_BLOCK):
        stop = start + _MIRROR_BLOCK
        np.copyto(table[start:, start:stop], table[start:stop, start:].T,
                  where=below[:n - start, :n - start])
    return table


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
    _fill_entries stores the real E_l^(o) on both sides of the diagonal in
    the cutoff's scratch table, and one product of it with every phase
    allocates the result, so no returned array is the scratch. At real alpha,
    of either sign and with either signed zero as imaginary part, unit is the
    float +1 or -1, every phase is exactly +1 or -1, and the result is the
    real float64 array D is there.
    """
    if alpha == 0:
        out = np.eye(n)
    else:
        x = _squared_modulus(alpha, "alpha")
        radius = abs(alpha)
        if alpha.imag == 0:
            unit = alpha.real / radius
        else:
            # Part by part: complex / float would turn a -0.0 imaginary part into
            # +0.0, and D(-alpha) would no longer be D(alpha)^dag bit for bit.
            unit = complex(alpha.real / radius, alpha.imag / radius)
        order = np.arange(n)
        # The phase of entry (k, l) is phases[n - 1 - k + l]: unit^(k-l) for
        # k >= l and (-conj(unit))^(l-k) above. It must be the first factor:
        # the product E * phase signs some zero imaginary parts differently.
        phases = np.concatenate([(unit**order)[::-1], ((-unit.conjugate()) ** order)[1:]])
        with _SCRATCH_LOCK:
            out = np.multiply(_toeplitz(phases, n), _fill_entries(x, radius, n))
    out.flags.writeable = False
    return out


def displacement_matrix(alpha: complex, cutoff: int) -> np.ndarray:
    """Entries of the displacement operator D(alpha) on the truncated basis.

    One pass of the Laguerre recurrence, normalized to the matrix entries and
    vectorized over the order k - l, gives the k >= l entries; the k < l
    entries are (-1)^(k-l) conjugates of them,
    <l|D(alpha)|k> = (-1)^(k-l) conj(<k|D(alpha)|l>). Every entry is finite at
    any cutoff. The pass follows a step plan kept for the most recent cutoff:
    its divisors, a scratch table of the real entries, and the views each
    degree step reads and writes, about 12 * N^2 bytes of arrays and 1 KB of
    views per step (157 KB at N = 80, 111 MB at N = 3000). Every caller fills
    the same scratch under one lock, held until the phases are applied, so
    calls from several threads are safe and their fills run one at a time.
    At real alpha every entry is real and the result is a float64 array, at
    8 * N^2 bytes; at complex alpha it is complex, at 16 * N^2. Results are
    memoized per (alpha, cutoff) in one bounded cache of 8 matrices, at most
    8 * 16 * N^2 bytes, and the array is shared between callers, so it is
    read-only. Accuracy of the truncation degrades once |alpha|^2 approaches
    the cutoff. A cutoff that is no integer raises TypeError, one below 1 or a
    non-finite alpha ValueError, and an overflowing |alpha|^2 OverflowError.
    """
    alpha = _validate_complex(alpha, "alpha")
    cutoff = operator.index(cutoff)
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    return _displacement_entries(alpha, cutoff)


def displaced_thermal_matrix(state: DisplacedThermalState, cutoff: int) -> np.ndarray:
    """Factor B = D(alpha) sqrt(rho_thermal) of the displaced thermal state
    rho = B B^dag: a new array, real at real alpha, one column scaling of the
    memoized D(alpha)."""
    d = displacement_matrix(state.displacement, cutoff)
    eta = thermal_spectrum(state.mean_occupancy, cutoff)
    return d * np.sqrt(eta)


def uhlmann_fidelity(factor1: np.ndarray, factor2: np.ndarray) -> float:
    """Bures-Uhlmann fidelity {Tr[(sqrt(rho1) rho2 sqrt(rho1))^(1/2)]}^2 of
    the density matrices rho_i = B_i B_i^dag, given their factors B_i.

    Evaluated by Uhlmann's theorem as ||B2^dag B1||_*^2, the squared sum of
    singular values, for any factors: B_i = sqrt(rho_i) U_i with U_i unitary,
    and the nuclear norm is unitarily invariant, so it equals
    ||sqrt(rho2) sqrt(rho1)||_*. No square root is taken, so round-off enters
    linearly, and rho = B B^dag is never formed: the cost is the product
    B2^dag B1, the one matrix _squared_nuclear_norm takes, and one SVD of its
    leading block. A caller who holds only rho picks the factor, for example
    a Cholesky factor or V sqrt(w) from an eigendecomposition with a floor of
    their choosing.
    Factors that are not square or not of one shape raise ValueError.
    """
    shape = factor1.shape
    if len(shape) != 2 or shape[0] != shape[1] or factor2.shape != shape:
        raise ValueError(
            f"factors must be square and of one shape, got {shape} and {factor2.shape}"
        )
    return _squared_nuclear_norm(factor2.conj().T @ factor1)


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
    the adjoint of M = sqrt(eta1) D(delta) sqrt(eta2), of the same nuclear
    norm; M, formed by two scalings, is what _squared_nuclear_norm takes.
    D(delta) is real at real delta >= 0, every phase +1 or -1, and
    displacement_matrix builds and memoizes it as a real array. The thermal
    weights leave most trailing rows and columns of that matrix below
    round-off, so M's nuclear norm is taken over the leading k x k
    block whose dropped rows and columns weigh at most eps/8 of it (see
    _squared_nuclear_norm): the fidelity moves by at most eps/4 relative, and
    the SVD's cost follows the states, not the cutoff. The cost is one
    displacement matrix, a few passes over it, and one real k x k SVD, with
    no N^3 product, and the truncation depends on |alpha2 - alpha1| alone. Any
    occupancy is taken; a cutoff below 1 or an |alpha2 - alpha1| out of range
    raises as in displacement_matrix.
    """
    delta = state2.displacement - state1.displacement
    d = displacement_matrix(abs(delta), cutoff)
    eta1 = thermal_spectrum(state1.mean_occupancy, cutoff)
    eta2 = thermal_spectrum(state2.mean_occupancy, cutoff)
    return _squared_nuclear_norm(np.sqrt(eta1)[:, None] * d * np.sqrt(eta2))


#: Relative change of ||M||_* that the pruned rows and columns may make at
#: most: an eighth of an ulp, so the fidelity moves by a quarter.
_PRUNE_TOLERANCE = np.finfo(float).eps / 8

#: Largest squared row norm of M below which the squares of entries that
#: still matter can underflow, so the tail bound no longer holds and the
#: whole matrix is kept. ||M||_*^2 is then at most N^2 * 1e-200.
_SQUARES_FLOOR = 1e-200


def _squared_nuclear_norm(m: np.ndarray) -> float:
    """||M||_*^2 of the square matrix M, real or complex, from the singular
    values of its leading k x k block alone.

    Dropping rows and columns changes the nuclear norm by at most the sum of
    their 2-norms (triangle inequality), and never raises it
    (||P X Q||_* <= ||X||_*; Bhatia, Matrix Analysis, 1997, IV.2). With
    tail[k] the sum over i >= k of ||M[i, :]|| + ||M[:, i]||, the block
    therefore lies within tail[k] below ||M||_*, and ||M||_* is at least the
    largest row norm. k is the smallest size whose tail is at most
    _PRUNE_TOLERANCE times that row norm. The squared norms are the row and
    column sums of (M * conj(M)).real, conj(M) being M at real M. Where the
    last row's norm alone exceeds _PRUNE_TOLERANCE, the bound whenever no row
    norm exceeds 1, as for the oracle's cross matrices, k is N at once;
    elsewhere that shortcut only keeps more than needed. k is N also where
    the largest squared row norm is below _SQUARES_FLOOR, or is not finite
    and every tail would pass.
    """
    k = len(m)
    if k and (m[-1] * m[-1].conj()).real.sum() <= _PRUNE_TOLERANCE**2:
        squares = (m * m.conj()).real
        rows = squares.sum(axis=1)
        largest = rows.max()
        if _SQUARES_FLOOR <= largest < math.inf:
            norms = np.sqrt(rows) + np.sqrt(squares.sum(axis=0))
            tail = np.cumsum(norms[::-1])[::-1]
            # tail never rises with k, so the sizes it rules out are 1, ..., k - 1.
            k = 1 + int(np.count_nonzero(tail[1:] > _PRUNE_TOLERANCE * math.sqrt(largest)))
    return float(np.sum(np.linalg.svd(m[:k, :k], compute_uv=False)) ** 2)


def schmidt_purification(
    state: DisplacedThermalState, beta: complex, cutoff: int
) -> np.ndarray:
    """Truncated Schmidt purification of a displaced thermal state, as its
    amplitude array.

    amplitudes[m, n] = sum_k sqrt(eta_k) <m|D(alpha)|k> <n|D(beta)|k>, so the
    mode-1 reduction amplitudes amplitudes^dag is the displaced thermal state
    and the mode-2 reduction carries displacement beta at the same occupancy.
    The norm falls short of one by the truncation tail s^cutoff. The mode-1
    factor D(alpha) sqrt(eta) is the one displaced_thermal_matrix returns.
    """
    factor = displaced_thermal_matrix(state, cutoff)
    return factor @ displacement_matrix(beta, cutoff).T


def cf_table(amplitudes: np.ndarray, lambdas1, lambdas2) -> np.ndarray:
    """The characteristic function of the two-mode amplitude array at every
    pair, table[i, j] at (lambdas1[i], lambdas2[j]).

    Each distinct displacement matrix is built once per call and all are held
    until it returns: 8 * N^2 bytes apiece at real lambda, 16 * N^2 at complex.
    """
    cutoff = amplitudes.shape[0]
    d = {
        lam: displacement_matrix(lam, cutoff)
        for lam in dict.fromkeys([*lambdas1, *lambdas2])
    }
    table = np.empty((len(lambdas1), len(lambdas2)), dtype=complex)
    for i, lambda1 in enumerate(lambdas1):
        left = d[lambda1] @ amplitudes
        for j, lambda2 in enumerate(lambdas2):
            table[i, j] = np.vdot(amplitudes, left @ d[lambda2].T)
    return table
