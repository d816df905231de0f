"""Tests for the route registry: one RouteResult per route, in report order."""

import dataclasses
import json
from pathlib import Path

import pytest

from tcsfidelity import closed_form, fock_oracle, gaussian_overlap, optimizer, routes
from tcsfidelity.routes import RouteResult, compare, compute_route
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
    monkeypatch.setattr(
        fock_oracle, "displaced_thermal_fidelity", lambda state1, state2, cutoff: 0.25
    )
    assert compute_route("oracle", STATE1, STATE2, 8).fidelity == 0.25


def test_route_result_absorbs_round_off_above_one():
    assert RouteResult("closed_form", 1.0 + 1e-12).fidelity == 1.0


@pytest.mark.parametrize("fidelity", [0.0, -0.1, 1.0 + 1e-6, float("nan")])
def test_route_result_rejects_fidelity_outside_unit_interval(fidelity):
    with pytest.raises(ArithmeticError, match="produced fidelity"):
        RouteResult("oracle", fidelity)



def test_compare_runs_the_named_routes_in_order():
    names = ["gaussian_overlap", "closed_form", "oracle", "purification_optimized"]
    results = compare(STATE1, STATE2, names, CUTOFF)
    assert list(results) == names
    golden = {report["route"]: report["fidelity"] for report in GOLDEN["reports"]}
    assert {name: result.fidelity for name, result in results.items()} == golden


def test_compare_runs_a_repeated_name_once(monkeypatch):
    calls = []
    tcs_fidelity = closed_form.tcs_fidelity
    monkeypatch.setattr(
        closed_form, "tcs_fidelity", lambda *args: calls.append(args) or tcs_fidelity(*args)
    )
    results = compare(STATE1, STATE2, ["closed_form", "oracle", "closed_form"], 8)
    assert list(results) == ["closed_form", "oracle"]
    assert len(calls) == 1


def test_compare_stops_after_a_route_that_did_not_converge(monkeypatch):
    maximize_overlap = optimizer.maximize_overlap
    monkeypatch.setattr(
        optimizer, "maximize_overlap",
        lambda *args: dataclasses.replace(maximize_overlap(*args), converged=False),
    )

    def must_not_run(*args):
        raise AssertionError("the Gaussian route ran after a non-converged route")

    monkeypatch.setattr(gaussian_overlap, "pure_overlap", must_not_run)
    results = compare(STATE1, STATE2, routes.ROUTES, CUTOFF)
    assert list(results) == ["closed_form", "oracle", "purification_optimized"]
    assert not results["purification_optimized"].converged
    assert all(result.converged for result in list(results.values())[:-1])
