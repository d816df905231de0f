"""Tests for the route registry: one RouteResult per route, in report order."""

import cmath
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcsfidelity import closed_form, fock_oracle, routes, states
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


@pytest.mark.parametrize("name", ["purification_optimized", "gaussian_overlap"])
def test_gaussian_routes_build_their_forms_in_the_frame_of_state_1(monkeypatch, name):
    # Through the module attribute, so that a tracer rebinding it sees the calls.
    specs = []
    build = states.purification_gaussian_form
    monkeypatch.setattr(
        states, "purification_gaussian_form", lambda spec: specs.append(spec) or build(spec)
    )
    result = compute_route(name, STATE1, STATE2, CUTOFF)
    assert [spec.alpha for spec in specs] == [0j, STATE2.displacement - STATE1.displacement]
    assert specs[0].beta == 0j
    if name == "gaussian_overlap":
        assert specs[1].beta == result.beta_star


def polar(max_modulus):
    return st.builds(cmath.rect, st.floats(0.0, max_modulus), st.floats(0.0, 2 * math.pi))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    n1=st.floats(0.0, 2.0),
    n2=st.floats(0.0, 2.0),
    alpha1=polar(2.0),
    dalpha=polar(2.0),
    shift=polar(5.0),
    angle=st.floats(0.0, 2 * math.pi),
)
def test_every_route_is_symmetric_and_invariant(n1, n2, alpha1, dalpha, shift, angle):
    # Exchanging the states, displacing both by one shift and rotating both by
    # one phase leave the fidelity alone; each route must follow to round-off.
    def make(n, alpha):
        return DisplacedThermalState(ThermalParams(n), alpha)

    def fidelities(state1, state2):
        results = compare(state1, state2, routes.ROUTES, 80)
        return {name: result.fidelity for name, result in results.items()}

    alpha2 = alpha1 + dalpha
    phase = cmath.exp(1j * angle)
    reference = fidelities(make(n1, alpha1), make(n2, alpha2))
    for moved in (
        fidelities(make(n2, alpha2), make(n1, alpha1)),
        fidelities(make(n1, alpha1 + shift), make(n2, alpha2 + shift)),
        fidelities(make(n1, alpha1 * phase), make(n2, alpha2 * phase)),
    ):
        for name, value in reference.items():
            assert abs(moved[name] - value) <= 1e-14, name
