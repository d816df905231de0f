"""The four fidelity routes, run by name and reported in one result type.

Every route maps two displaced thermal states to the Uhlmann fidelity, so
running them side by side cross-checks the library. Each layer is called
through its module attribute (``fock_oracle.displaced_thermal_fidelity``,
not a name imported from it), so that rebinding the attribute, as a tracer
or a test does, is seen by every route.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from . import closed_form, fock_oracle, gaussian_overlap, optimizer, states


@dataclass(frozen=True)
class RouteResult:
    """One route's fidelity, with what is needed to judge it.

    ``beta_star`` is the optimal mode-2 displacement of the routes that find
    one and ``cutoff`` the Fock truncation of the oracle. A fidelity outside
    (0, 1] raises ArithmeticError, one of exactly 0 as an underflow.
    """

    route: str
    fidelity: float
    beta_star: complex | None = None
    cutoff: int | None = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Round-off may overshoot 1 by ulps and 0 is an underflow; anything else
        # outside (0, 1] is a bug.
        if 1.0 < self.fidelity <= 1.0 + 1e-9:
            object.__setattr__(self, "fidelity", 1.0)
        elif self.fidelity == 0.0:
            raise ArithmeticError(
                f"route {self.route} produced fidelity 0.0: it underflows double precision"
            )
        elif not 0.0 < self.fidelity <= 1.0:
            raise ArithmeticError(
                f"internal error: route {self.route} produced fidelity {self.fidelity!r}"
            )


def _closed_form(state1, state2, cutoff) -> RouteResult:
    return RouteResult("closed_form", closed_form.tcs_fidelity(state1, state2).value)


def _oracle(state1, state2, cutoff) -> RouteResult:
    # The cap of the other routes, so that every route accepts one domain.
    closed_form._check_occupancy(state1.mean_occupancy, "n1")
    closed_form._check_occupancy(state2.mean_occupancy, "n2")
    # First, so that the cutoff is checked before s**cutoff could divide by 0.
    fidelity = fock_oracle.displaced_thermal_fidelity(state1, state2, cutoff)
    tails = {"truncation_tail_1": state1.s**cutoff, "truncation_tail_2": state2.s**cutoff}
    return RouteResult("oracle", fidelity, cutoff=cutoff, diagnostics=tails)


def _purification_optimized(state1, state2, cutoff) -> RouteResult:
    result = optimizer.maximize_overlap(state1, state2)
    return RouteResult("purification_optimized", result.value, beta_star=result.beta_star)


def _gaussian_overlap(state1, state2, cutoff) -> RouteResult:
    beta = closed_form.optimal_beta(state1, state2)
    forms = optimizer.purification_forms(state1, state2, beta)
    overlap = gaussian_overlap.pure_overlap(*forms)
    return RouteResult(
        "gaussian_overlap", overlap.value, beta_star=beta,
        diagnostics={"log_value": overlap.log_value},
    )


#: Route name -> route, in the order a comparison of all routes reports them.
ROUTES = {
    "closed_form": _closed_form,
    "oracle": _oracle,
    "purification_optimized": _purification_optimized,
    "gaussian_overlap": _gaussian_overlap,
}


def compute_route(
    name: str,
    state1: states.DisplacedThermalState,
    state2: states.DisplacedThermalState,
    cutoff: int = fock_oracle.DEFAULT_CUTOFF,
) -> RouteResult:
    """Fidelity of two displaced thermal states by the route ``name``.

    Only the oracle uses ``cutoff``. Inputs outside a route's domain raise
    ValueError; numerical failures raise ArithmeticError or
    numpy.linalg.LinAlgError, which subclasses ValueError and so must be
    caught first.
    """
    return ROUTES[name](state1, state2, cutoff)


def compare(
    state1: states.DisplacedThermalState,
    state2: states.DisplacedThermalState,
    names: Iterable[str],
    cutoff: int = fock_oracle.DEFAULT_CUTOFF,
) -> dict[str, RouteResult]:
    """The routes ``names`` side by side: each runs once, in the order given.
    Failures raise as in ``compute_route``."""
    return {
        name: compute_route(name, state1, state2, cutoff) for name in dict.fromkeys(names)
    }
