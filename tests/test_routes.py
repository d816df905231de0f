"""Tests for the route registry: one RouteResult per route, in report order."""

import json
from pathlib import Path

import pytest

from tcsfidelity import fock_oracle, routes
from tcsfidelity.routes import RouteResult, compute_route
from tcsfidelity.states import DisplacedThermalState, ThermalParams

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "fidelity_all_routes.json").read_text()
)
# The states and cutoff of the golden ``fidelity --all-routes`` call.
STATE1 = DisplacedThermalState(ThermalParams(1.0), 0.3 - 0.2j)
STATE2 = DisplacedThermalState(ThermalParams(0.5), 1.3 + 0.8j)
CUTOFF = 80


def test_routes_are_in_report_order():
    assert list(routes.ROUTES) == [report["route"] for report in GOLDEN["reports"]]


@pytest.mark.parametrize("golden", GOLDEN["reports"], ids=lambda r: r["route"])
def test_compute_route_matches_golden_bit_for_bit(golden):
    result = compute_route(golden["route"], STATE1, STATE2, CUTOFF)
    assert result.route == golden["route"]
    assert result.fidelity == golden["fidelity"]
    assert result.cutoff == golden.get("cutoff")
    assert result.diagnostics == golden["diagnostics"]
    assert result.converged
    if "beta_star" in golden:
        re, im = (float(part) for part in golden["beta_star"].split(","))
        assert result.beta_star == complex(re, im)
    else:
        assert result.beta_star is None


def test_compute_route_calls_layers_through_module_attributes(monkeypatch):
    monkeypatch.setattr(fock_oracle, "uhlmann_fidelity", lambda rho1, rho2: 0.25)
    assert compute_route("oracle", STATE1, STATE2, 8).fidelity == 0.25


def test_route_result_absorbs_round_off_above_one():
    assert RouteResult("closed_form", 1.0 + 1e-12).fidelity == 1.0


@pytest.mark.parametrize("fidelity", [0.0, -0.1, 1.0 + 1e-6, float("nan")])
def test_route_result_rejects_fidelity_outside_unit_interval(fidelity):
    with pytest.raises(ArithmeticError, match="produced fidelity"):
        RouteResult("oracle", fidelity)

