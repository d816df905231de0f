"""Overlap of pure two-mode Gaussian states computed from their symplectic factors.

The transition probability between two pure Gaussian states is the phase-space
integral of chi1 chi2*, a four-dimensional Gaussian integral. In the
conventions of the states module it closes to

    exp(-(d1 - d2)^T (V1 + V2)^{-1} (d1 - d2) / 2) / sqrt(det(V1 + V2)),

whose normalization is fixed by self-overlap = 1 for any pure form
(det 2V = 16 det V = 1). With V = S S^T / 2, the sum V1 + V2 is G G^T for
G = [S1 S2] / sqrt(2), so one QR factorization of G^T gives its triangular
factor without forming the sum. This engine knows nothing about the
closed-form overlap expression and serves as an independent route to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import _SQRT2, GaussianForm


@dataclass(frozen=True)
class OverlapResult:
    """Overlap value together with its log, which stays finite below underflow."""

    value: float
    log_value: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 1.0 + 1e-12:
            raise ValueError(f"overlap must lie in [0, 1], got {self.value}")


def pure_overlap(g1: GaussianForm, g2: GaussianForm) -> OverlapResult:
    """Transition probability |<psi1|psi2>|^2 of two pure two-mode Gaussian states.

    The log is computed first from the triangular factor R of G^T, with
    R^T R = V1 + V2 (no explicit inverse), so overlaps far below
    double-precision underflow still report a finite log_value.
    """
    # Stacked in a fixed byte order, so that the overlap is exactly symmetric.
    first, second = sorted((g1.factor, g2.factor), key=np.ndarray.tobytes, reverse=True)
    r = np.linalg.qr(np.hstack((first, second)).T / _SQRT2, mode="r")
    log_det = 2.0 * float(np.sum(np.log(np.abs(np.diagonal(r)))))
    # Forward substitution for R^T z = d1 - d2, in the order LAPACK's
    # triangular solve takes, so the digits match it.
    z = g1.displacement_vector - g2.displacement_vector
    for j in range(len(z)):
        z[j] /= r[j, j]
        z[j + 1:] -= z[j] * r[j, j + 1:]
    # z @ z overflows only where the overlap underflows; log_value is then -inf.
    with np.errstate(over="ignore"):
        log_value = -0.5 * float(z @ z) - 0.5 * log_det
    return OverlapResult(value=math.exp(log_value), log_value=log_value)
