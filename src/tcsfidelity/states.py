"""Domain types and characteristic-function conventions for displaced thermal states.

Every other module consumes the conventions fixed here:

* hbar = k_B = 1; temperature enters only through the mean occupancy.
* Quadrature ordering (x1, p1, x2, p2) with vacuum variance 1/2.
* Characteristic functions are symmetric (Weyl) ordered: chi(lam) = <D(lam)>
  with D(lam) = exp(lam a^dag - lam* a).
* A complex CF argument lam maps to the real vector conjugate to (x, p) as
  b = (sqrt(2) Im lam, -sqrt(2) Re lam), so that a Gaussian state with
  covariance V and mean vector d has chi = exp(-b^T V b / 2 + i b.d).
  A displacement by alpha shifts the mean by sqrt(2) (Re alpha, Im alpha).

The sign of the displacement factor exp(lam alpha* - lam* alpha) is pinned by
requiring that a pure coherent state (zero occupancy) reproduce the standard
coherent-state CF; a unit test enforces this.

The module loads without numpy, so that the closed form needs none:
``GaussianForm``, its symplectic check and ``purification_gaussian_form``
import it when they run.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

_SQRT2 = math.sqrt(2.0)

#: Symplectic form of the quadratures (x1, p1, x2, p2), as rows of floats:
#: this module imports numpy only where a Gaussian form needs it.
_OMEGA = (
    (0.0, 1.0, 0.0, 0.0),
    (-1.0, 0.0, 0.0, 0.0),
    (0.0, 0.0, 0.0, 1.0),
    (0.0, 0.0, -1.0, 0.0),
)


def mean_occupancy_from_temperature(ratio: float) -> float:
    """Mean occupancy of a thermal mode, 1 / (exp(ratio) - 1), from the
    dimensionless ratio hbar w / (k_B T)."""
    if not (math.isfinite(ratio) and ratio > 0.0):
        raise ValueError(f"hbar*w/(k_B*T) ratio must be positive, got {ratio}")
    try:
        return 1.0 / math.expm1(ratio)
    except OverflowError:
        # exp overflows past ratio ~ 709; the occupancy is below double
        # precision long before that.
        return 0.0


@dataclass(frozen=True)
class ThermalParams:
    """Thermal occupation of one bosonic mode."""

    mean_occupancy: float

    def __post_init__(self) -> None:
        n = self.mean_occupancy
        if not (isinstance(n, (int, float)) and math.isfinite(n) and n >= 0.0):
            raise ValueError(f"mean_occupancy must be finite and >= 0, got {n!r}")
        object.__setattr__(self, "mean_occupancy", float(n))

    @property
    def s(self) -> float:
        """Geometric ratio n/(n+1) of the thermal spectrum; always in [0, 1)."""
        return self.mean_occupancy / (self.mean_occupancy + 1.0)


def _validate_complex(value: complex, name: str) -> complex:
    z = complex(value)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return z


def _squared_modulus(z: complex, name: str) -> float:
    """|z|^2, a ValueError that names z when either part is NaN, or an
    OverflowError when it is out of range, including a z that is already
    infinite."""
    if cmath.isnan(z):
        raise ValueError(f"{name} must not be NaN, got {z!r}")
    try:
        square = abs(z) ** 2
    except OverflowError:
        square = math.inf
    if square == math.inf:
        raise OverflowError(f"|{name}|^2 overflows for {name}={z!r}")
    return square


@dataclass(frozen=True)
class DisplacedThermalState:
    """One-mode thermal state displaced in phase space by a coherent amplitude."""

    thermal: ThermalParams
    displacement: complex = 0j

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "displacement", _validate_complex(self.displacement, "displacement")
        )

    @property
    def mean_occupancy(self) -> float:
        return self.thermal.mean_occupancy

    @property
    def s(self) -> float:
        return self.thermal.s


@dataclass(frozen=True)
class PurificationSpec:
    """Two-mode Gaussian purification of a displaced thermal state.

    Mode 1 reduces to the displaced thermal state (thermal, alpha); mode 2
    reduces to a displaced thermal state at the same occupancy with
    displacement beta. beta is the free parameter of the fidelity
    maximization.
    """

    thermal: ThermalParams
    alpha: complex
    beta: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", _validate_complex(self.alpha, "alpha"))
        object.__setattr__(self, "beta", _validate_complex(self.beta, "beta"))


#: Most factors whose passed symplectic check _check_symplectic keeps; an
#: entry takes about 0.3 KB.
_SYMPLECTIC_MEMO = 128


@functools.lru_cache(maxsize=_SYMPLECTIC_MEMO)
def _check_symplectic(factor_bytes: bytes) -> None:
    """Raise ValueError unless the 4x4 factor with these bytes is symplectic.

    Memoized per factor, since a purification's factor depends on its
    occupancy alone: a pass is kept, and a raise keeps nothing, so a factor
    that fails raises on every check.
    """
    import numpy as np

    factor = np.frombuffer(factor_bytes).reshape(4, 4)
    omega = np.array(_OMEGA)
    # Round-off in S Omega S^T scales with |S|^2, which grows like n.
    defect = float(np.abs(factor @ omega @ factor.T - omega).max())
    if not defect <= 1e-12 * float((factor * factor).sum()):
        raise ValueError(
            f"factor is not symplectic: max |S Omega S^T - Omega| = {defect!r}"
        )


@dataclass(frozen=True)
class GaussianForm:
    """Pure two-mode Gaussian state as a symplectic factor and a mean vector.

    Coordinates are ordered (x1, p1, x2, p2). The covariance is
    V = S S^T / 2 for the 4x4 symplectic factor S, S Omega S^T = Omega, so
    the state is pure by construction: V is never stored, and no eigenvalue
    of it comes out of a subtraction.
    """

    factor: np.ndarray
    displacement_vector: np.ndarray

    def __post_init__(self) -> None:
        import numpy as np

        factor = np.array(self.factor, dtype=float)
        disp = np.array(self.displacement_vector, dtype=float)
        if factor.shape != (4, 4):
            raise ValueError(f"factor must be 4x4, got shape {factor.shape}")
        if disp.shape != (4,):
            raise ValueError(
                f"displacement_vector must have length 4, got shape {disp.shape}"
            )
        _check_symplectic(factor.tobytes())
        object.__setattr__(self, "factor", factor)
        object.__setattr__(self, "displacement_vector", disp)


def purification_cf(spec: PurificationSpec, lambda1: complex, lambda2: complex) -> complex:
    """Two-mode CF of the Gaussian purification.

    chi(l1, l2) = exp[-(n+1/2)|l1 - l2*|^2 - Re(l1 l2) / (2 (n+1/2 + sqrt(n(n+1))))]
                  * exp[l1 a* - l1* a + l2 b* - l2* b],

    -(n+1/2)(|l1|^2 + |l2|^2) + 2 sqrt(n(n+1)) Re(l1 l2) without its cancellation
    on the ridge l2 = l1*. Setting lambda2 = 0 recovers the mode-1 marginal CF
    independently of beta, and symmetrically for lambda1 = 0.
    """
    l1 = complex(lambda1)
    l2 = complex(lambda2)
    n = spec.thermal.mean_occupancy
    _squared_modulus(l1, "lambda1")
    _squared_modulus(l2, "lambda2")
    gap = abs(l1 - l2.conjugate())
    # From gap = 1e154 on, |chi| < exp(-gap^2 / 4) underflows to 0, and
    # gap^2 may overflow.
    square = gap**2 if gap < 1e154 else math.inf
    root = math.sqrt(n) * math.sqrt(n + 1.0)
    quad = -(n + 0.5) * square - (l1 * l2).real / (2.0 * (n + 0.5 + root))
    disp = (
        l1 * spec.alpha.conjugate()
        - l1.conjugate() * spec.alpha
        + l2 * spec.beta.conjugate()
        - l2.conjugate() * spec.beta
    )
    return cmath.exp(quad + disp)


def purification_gaussian_form(spec: PurificationSpec) -> GaussianForm:
    """Symplectic factor and mean vector of the purification CF.

    The factor is the two-mode squeezer S = [[a I, b Z], [b Z, a I]] with
    a = sqrt(n + 1), b = sqrt(n) and Z = diag(1, -1). Its covariance S S^T / 2
    has n + 1/2 on the diagonal and +-sqrt(n(n+1)) on the cross-mode
    x1x2 / p1p2 entries. Nothing is subtracted, so S is exact to rounding at
    every occupancy.
    """
    import numpy as np

    n = spec.thermal.mean_occupancy
    a = math.sqrt(n + 1.0)
    b = math.sqrt(n)
    factor = np.array(
        [
            [a, 0.0, b, 0.0],
            [0.0, a, 0.0, -b],
            [b, 0.0, a, 0.0],
            [0.0, -b, 0.0, a],
        ]
    )
    disp = _SQRT2 * np.array(
        [spec.alpha.real, spec.alpha.imag, spec.beta.real, spec.beta.imag]
    )
    return GaussianForm(factor, disp)
