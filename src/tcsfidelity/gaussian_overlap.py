"""Overlap of pure two-mode Gaussian states computed from their symplectic factors.

The transition probability between two pure Gaussian states is the phase-space
integral of chi1 chi2*, a four-dimensional Gaussian integral. In the
conventions of the states module it closes to

    exp(-(d1 - d2)^T (V1 + V2)^{-1} (d1 - d2) / 2) / sqrt(det(V1 + V2)),

whose normalization is fixed by self-overlap = 1 for any pure form
(det 2V = 16 det V = 1). With V = S S^T / 2, the sum V1 + V2 is G G^T for
G = [S1 S2] / sqrt(2), so one QR factorization of G^T gives its triangular
factor without forming the sum. The maximum of the overlap over one state's
mode-2 mean is read off the same factor. This engine knows nothing about the
closed-form overlap expression and serves as an independent route to it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .states import _SQRT2, GaussianForm


@dataclass(frozen=True)
class OverlapResult:
    """Overlap value together with its log, which stays finite below underflow.

    A value outside [0, 1 + 1e-12] is a numerical failure, an ArithmeticError:
    it is computed from states the routes accept.
    """

    value: float
    log_value: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 1.0 + 1e-12:
            raise ArithmeticError(f"overlap must lie in [0, 1], got {self.value}")


#: Most triangular factors _triangular_factor keeps; an entry takes about
#: 1 KB. routes.sweep runs its points grouped by dalpha, every group over the
#: same occupancy pairs and every other group in reverse, so a grid of at most
#: this many pairs factors each pair once, and in a larger grid each group
#: after the first refactors only the pairs beyond this many.
_FACTOR_MEMO = 128


@functools.lru_cache(maxsize=_FACTOR_MEMO)
def _triangular_factor(first: bytes, second: bytes) -> tuple[tuple, float]:
    """The rows of R^T's lower triangle, ``rows[k][j] = R[j, k]`` for
    j <= k, and log det(V1 + V2), for the factors whose bytes are ``first``
    and ``second``: what the substitution reads, memoized per pair.

    The factors depend on the occupancies alone, so a sweep over dalpha
    meets the same pair at every point. The same bytes give LAPACK the same
    input, and so the same bits.
    """
    # [S1 S2] in C order, so that its transpose G^T is in the column order
    # LAPACK reads without a copy.
    stacked = np.frombuffer(first + second).reshape(2, 4, 4).transpose(1, 0, 2).reshape(4, 8)
    # The raw output holds R transposed, below and on its diagonal:
    # R[j, k] = h[k, j] for k >= j, so R is read without a triu copy.
    h = np.linalg.qr(stacked.T / _SQRT2, mode="raw")[0]
    log_det = 2.0 * float(np.sum(np.log(np.abs(np.diagonal(h)))))
    return tuple([tuple(row[:k + 1]) for k, row in enumerate(h.tolist())]), log_det


def _overlap_over_free_means(
    g1: GaussianForm, g2: GaussianForm, free: int
) -> tuple[OverlapResult, list[float]]:
    """The overlap maximized over g2's means of its last ``free`` coordinates:
    the substitution for R^T z = d1 - d2 stops before them, and they absorb
    the residual it leaves, which is returned too."""
    # Stacked in a fixed byte order, so that the overlap is exactly symmetric.
    rows, log_det = _triangular_factor(
        *sorted((g1.factor.tobytes(), g2.factor.tobytes()), reverse=True)
    )
    # Column by column on Python floats, in the order elementwise numpy
    # arithmetic would take, not a BLAS triangular solve, whose kernels
    # differ in their last digits (some fuse multiply-adds).
    z = (g1.displacement_vector - g2.displacement_vector).tolist()
    solved = len(z) - free
    for j in range(solved):
        z[j] /= rows[j][j]
        for k in range(j + 1, len(z)):
            z[k] -= z[j] * rows[k][j]
    head = np.array(z[:solved])
    # head @ head overflows only where the overlap underflows; log_value is
    # then -inf.
    with np.errstate(over="ignore"):
        log_value = -0.5 * float(head @ head) - 0.5 * log_det
    return OverlapResult(value=math.exp(log_value), log_value=log_value), z[solved:]


def pure_overlap(g1: GaussianForm, g2: GaussianForm) -> OverlapResult:
    """Transition probability |<psi1|psi2>|^2 of two pure two-mode Gaussian states.

    The log is computed first from the triangular factor R of G^T, with
    R^T R = V1 + V2 (no explicit inverse), so overlaps far below
    double-precision underflow still report a finite log_value.
    """
    return _overlap_over_free_means(g1, g2, 0)[0]


def max_pure_overlap(g1: GaussianForm, g2: GaussianForm) -> tuple[OverlapResult, complex]:
    """The largest pure_overlap(g1, g2) over g2's mode-2 mean, and the beta
    attaining it: beta2 + (z2 + i z3) / sqrt(2) for the residual (z2, z3) of
    two substitution steps, and log P = -(z0^2 + z1^2) / 2 - log det / 2."""
    overlap, residual = _overlap_over_free_means(g1, g2, 2)
    return overlap, complex(*(g2.displacement_vector[2:] + residual)) / _SQRT2
