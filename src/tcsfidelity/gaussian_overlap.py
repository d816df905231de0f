"""Overlap of pure two-mode Gaussian states computed from covariance data.

The transition probability between two pure Gaussian states is the phase-space
integral of chi1 chi2*, a four-dimensional Gaussian integral. In the
conventions of the states module it closes to

    exp(-(d1 - d2)^T (V1 + V2)^{-1} (d1 - d2) / 2) / sqrt(det(V1 + V2)),

whose normalization is fixed by self-overlap = 1 for any pure form
(det 2V = 16 det V = 1). This engine knows nothing about the closed-form
overlap expression and serves as an independent route to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import PURE_COVARIANCE_DET, GaussianForm

#: Accepted deviation of det V from the pure-state value 1/16.
PURITY_TOL = 1e-9


@dataclass(frozen=True)
class OverlapResult:
    """Overlap value together with its log, which stays finite below underflow."""

    value: float
    log_value: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 1.0 + 1e-12:
            raise ValueError(f"overlap must lie in [0, 1], got {self.value}")


def _require_pure(form: GaussianForm, name: str) -> None:
    det = float(np.linalg.det(form.covariance))
    if abs(det - PURE_COVARIANCE_DET) > PURITY_TOL:
        raise ValueError(
            f"{name} is not pure: det V = {det!r}, expected {PURE_COVARIANCE_DET}"
        )


def pure_overlap(g1: GaussianForm, g2: GaussianForm) -> OverlapResult:
    """Transition probability |<psi1|psi2>|^2 of two pure two-mode Gaussian states.

    The log is computed first from a Cholesky factorization of V1 + V2 (no
    explicit inverse), so overlaps far below double-precision underflow still
    report a finite log_value.
    """
    _require_pure(g1, "g1")
    _require_pure(g2, "g2")
    m = g1.covariance + g2.covariance
    chol = np.linalg.cholesky(m)
    log_det = 2.0 * float(np.sum(np.log(np.diagonal(chol))))
    # Forward substitution for chol z = d1 - d2, in the order LAPACK's
    # triangular solve takes, so the digits match it.
    z = g1.displacement_vector - g2.displacement_vector
    for j in range(len(z)):
        z[j] /= chol[j, j]
        z[j + 1:] -= z[j] * chol[j + 1:, j]
    log_value = -0.5 * float(z @ z) - 0.5 * log_det
    return OverlapResult(value=math.exp(log_value), log_value=log_value)
