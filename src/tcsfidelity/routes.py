"""The four fidelity routes, run by name and reported in one result type.

Every route maps two displaced thermal states to the Uhlmann fidelity, so
running them side by side cross-checks the library. This module also
computes what the command line prints, its reports, sweeps and CF grids, so
that a caller runs exactly what ``tcsfid`` runs. Each layer is called
through its module attribute (``fock_oracle.displaced_thermal_fidelity``,
not a name imported from it), so that rebinding the attribute, as a tracer
or a test does, is seen by every route.

The module loads with the closed form and ``states`` alone. The numpy
layers, ``fock_oracle``, ``gaussian_overlap`` and ``optimizer``, are read
as attributes of the package, which imports each on its first use (PEP
562): the first route or CF grid that calls one loads it, so the
closed-form route runs without numpy.
"""

from __future__ import annotations

import itertools
import operator
import sys
from collections.abc import Iterable
from dataclasses import dataclass, field

from . import closed_form, states

#: The package, through which the numpy layers load on first use.
_package = sys.modules[__package__]

#: Fock truncation of the oracle route when the caller gives none.
DEFAULT_CUTOFF = 60

#: Largest mean occupancy a route accepts, the limit of the two Gaussian
#: routes: their relative error stays within 16 eps (max(1, n1, n2) + |ln F|),
#: which grows linearly in n. The closed form's thermal factor alone stays
#: within 4 eps up to n = 1e15; a cap per route is ROADMAP item 4.
MAX_OCCUPANCY = 1e8

#: How far above 1 a route's fidelity may round and still read as 1: the
#: Gaussian routes' envelope at F = 1 at the cap, 16 eps MAX_OCCUPANCY, about
#: 3.6e-7; the largest overshoot measured is 2.0e-7, at n1 = n2 = 9.9e7. One
#: margin for all four routes, loose at small n until ROADMAP item 4's bounds.
_ROUND_OFF_MARGIN = 16 * sys.float_info.epsilon * MAX_OCCUPANCY


@dataclass(frozen=True)
class RouteResult:
    """One route's fidelity, with what is needed to judge it.

    ``beta_star`` is the optimal mode-2 displacement where a route finds one,
    ``cutoff`` the oracle's truncation. ``bures_distance`` is
    closed_form.bures_distance of the fidelity unless the route gives one
    without F's rounding, as the closed form does. The one range rule: a
    fidelity up to _ROUND_OFF_MARGIN (3.6e-7) above 1 reads as 1, 0 raises
    ArithmeticError as an underflow, and any other outside (0, 1] as an
    internal error.
    """

    route: str
    fidelity: float
    beta_star: complex | None = None
    cutoff: int | None = None
    diagnostics: dict = field(default_factory=dict)
    bures_distance: float | None = None

    def __post_init__(self) -> None:
        if 1.0 < self.fidelity <= 1.0 + _ROUND_OFF_MARGIN:
            object.__setattr__(self, "fidelity", 1.0)
        elif self.fidelity == 0.0:
            raise ArithmeticError(
                f"route {self.route} produced fidelity 0.0: it underflows double precision"
            )
        elif not 0.0 < self.fidelity <= 1.0:
            raise ArithmeticError(
                f"internal error: route {self.route} produced fidelity {self.fidelity!r}"
            )
        if self.bures_distance is None:
            distance = closed_form.bures_distance(self.fidelity)
            object.__setattr__(self, "bures_distance", distance)

    def report(self) -> dict:
        """The result as ``tcsfid fidelity`` reports it, with the Bures distance
        and beta_star as format_complex text; diagnostics come last."""
        report = {
            "route": self.route,
            "fidelity": self.fidelity,
            "bures_distance": self.bures_distance,
        }
        if self.beta_star is not None:
            report["beta_star"] = format_complex(self.beta_star)
        if self.cutoff is not None:
            report["cutoff"] = self.cutoff
        report["diagnostics"] = self.diagnostics
        return report


def format_complex(z: complex) -> str:
    """Shortest-representation 're,im' text; round-trips losslessly."""
    return f"{z.real!r},{z.imag!r}"


def _closed_form(state1, state2, cutoff) -> RouteResult:
    return RouteResult(
        "closed_form", closed_form.tcs_fidelity(state1, state2).value,
        bures_distance=closed_form.tcs_bures_distance(state1, state2),
    )


def _oracle(state1, state2, cutoff) -> RouteResult:
    fidelity = _package.fock_oracle.displaced_thermal_fidelity(state1, state2, cutoff)
    tails = {"truncation_tail_1": state1.s**cutoff, "truncation_tail_2": state2.s**cutoff}
    return RouteResult("oracle", fidelity, cutoff=cutoff, diagnostics=tails)


def _purification_optimized(state1, state2, cutoff) -> RouteResult:
    result = _package.optimizer.maximize_overlap(state1, state2)
    return RouteResult("purification_optimized", result.value, beta_star=result.beta_star)


def _gaussian_overlap(state1, state2, cutoff) -> RouteResult:
    beta = closed_form.optimal_beta(state1, state2)
    forms = _package.optimizer.purification_forms(state1, state2, beta)
    overlap = _package.gaussian_overlap.pure_overlap(*forms)
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
    cutoff: int = DEFAULT_CUTOFF,
) -> RouteResult:
    """Fidelity of two displaced thermal states by the route ``name``.

    Only the oracle uses ``cutoff``, an integer; every route refuses one below
    1, and an unknown name. The routes' domain is checked here alone: an
    occupancy above MAX_OCCUPANCY raises ValueError, and an overflowing
    |alpha2 - alpha1|^2 OverflowError. Numerical failures raise
    ArithmeticError, numpy's LinAlgError raised as one.
    """
    cutoff = operator.index(cutoff)
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    if name not in ROUTES:
        raise ValueError(f"unknown route {name!r}; routes: {', '.join(ROUTES)}")
    for label, n in (("n1", state1.mean_occupancy), ("n2", state2.mean_occupancy)):
        if n > MAX_OCCUPANCY:
            raise ValueError(f"{label}={n} exceeds the supported range (max "
                             f"{MAX_OCCUPANCY:g}); double precision breaks down beyond it")
    states._squared_modulus(state2.displacement - state1.displacement, "alpha2 - alpha1")
    try:
        return ROUTES[name](state1, state2, cutoff)
    except ValueError as exc:
        # A LinAlgError, a ValueError subclass, exists only once numpy is loaded.
        numpy = sys.modules.get("numpy")
        if numpy is None or not isinstance(exc, numpy.linalg.LinAlgError):
            raise
        raise ArithmeticError(str(exc)) from exc


def compare(
    state1: states.DisplacedThermalState,
    state2: states.DisplacedThermalState,
    names: Iterable[str],
    cutoff: int = DEFAULT_CUTOFF,
) -> dict[str, RouteResult]:
    """The routes ``names`` side by side: each runs once, in the order given.
    Failures raise as in ``compute_route``."""
    return {
        name: compute_route(name, state1, state2, cutoff) for name in dict.fromkeys(names)
    }


#: The fields of a sweep row, in the order ``tcsfid sweep`` prints them.
SWEEP_COLUMNS = ("n1", "n2", "re_dalpha", "im_dalpha", "route", "fidelity",
                 "bures_distance", "discrepancy_vs_closed_form")


def sweep(n1_values, n2_values, dalphas, alpha1, names, cutoff=DEFAULT_CUTOFF):
    """The routes ``names`` over a grid, state 1 at (n1, alpha1) and state 2
    at (n2, alpha1 + dalpha), as SWEEP_COLUMNS dicts: the points sorted by
    (n1, n2, Re dalpha, Im dalpha), then the routes in the order named. The
    discrepancy is from the closed form, run once per point. A failure raises
    as in ``compute_route``, the first in row order."""
    grid = itertools.product(n1_values, n2_values, dalphas)
    points = sorted((float(v1), float(v2), d.real, d.imag) for v1, v2, d in grid)
    dalpha = [point[2:] for point in points]

    # The points run grouped by dalpha, so that each D(|dalpha|) is built once
    # however many dalpha the grid has: the oracle's memo holds only 8. Every
    # group meets the same occupancy pairs, and alternate groups take them in
    # reverse, so that a grid of more pairs than the factor memo holds
    # refactors only those beyond it.
    outcomes = [None] * len(points)
    order = sorted(range(len(points)), key=dalpha.__getitem__)
    groups = itertools.groupby(order, key=dalpha.__getitem__)
    for parity, (_, group) in enumerate(groups):
        for i in reversed(list(group)) if parity % 2 else group:
            v1, v2, d_re, d_im = points[i]
            try:
                state1 = states.DisplacedThermalState(states.ThermalParams(v1), alpha1)
                alpha2 = alpha1 + complex(d_re, d_im)
                state2 = states.DisplacedThermalState(states.ThermalParams(v2), alpha2)
                outcomes[i] = compare(state1, state2, ["closed_form", *names], cutoff)
            except (ArithmeticError, MemoryError, ValueError) as error:
                outcomes[i] = error
    rows = []
    for point, results in zip(points, outcomes):
        if isinstance(results, Exception):
            raise results
        reference = results["closed_form"].fidelity
        for name in names:
            result = results[name]
            fields = (*point, name, result.fidelity, result.bures_distance,
                      abs(result.fidelity - reference))
            rows.append(dict(zip(SWEEP_COLUMNS, fields)))
    return rows


def cf_grid(spec, lambdas1, lambdas2, cutoff=None):
    """``(table, oracle, deviation)``: the purification CF of ``spec`` at
    (lambdas1[i], lambdas2[j]) in ``table[i][j]``, and with a cutoff the Fock
    oracle's table of its Schmidt purification and their largest |difference|."""
    table = [[states.purification_cf(spec, l1, l2) for l2 in lambdas2] for l1 in lambdas1]
    if cutoff is None:
        return table, None, None
    state = states.DisplacedThermalState(spec.thermal, spec.alpha)
    vector = _package.fock_oracle.schmidt_purification(state, spec.beta, cutoff)
    oracle = _package.fock_oracle.cf_table(vector, lambdas1, lambdas2).tolist()
    deviations = (abs(a - b) for row, row_b in zip(table, oracle) for a, b in zip(row, row_b))
    return table, oracle, max([0.0, *deviations])
