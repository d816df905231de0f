"""Tests for the route registry: one RouteResult per route, in report order."""

import cmath
import json
import math
import sys
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


#: Slack of the triangle inequality: D = sqrt(2 (1 - sqrt(F))) turns an
#: eps-sized error in an F near 1 into an error of about sqrt(eps) in D. The
#: worst excess measured over 3000 triples, a third with a near-coincident
#: pair, was 1.7 sqrt(eps), on the Gaussian routes.
TRIANGLE_SLACK = 4.0 * math.sqrt(sys.float_info.epsilon)


@st.composite
def state_triples(draw):
    """Three states of the box n <= 2, |alpha| <= 2; in some draws the third
    sits within 1e-6 of the second, where D is near 0."""
    triple = [
        DisplacedThermalState(ThermalParams(draw(st.floats(0.0, 2.0))), draw(polar(2.0)))
        for _ in range(3)
    ]
    if draw(st.booleans()):
        near = triple[1]
        triple[2] = DisplacedThermalState(
            ThermalParams(near.mean_occupancy + draw(st.floats(0.0, 1e-6))),
            near.displacement + draw(polar(1e-6)),
        )
    return triple


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(triple=state_triples())
def test_every_route_obeys_the_triangle_inequality(triple):
    def distances(state1, state2):
        results = compare(state1, state2, routes.ROUTES, 80)
        return {name: closed_form.bures_distance(r.fidelity) for name, r in results.items()}

    a, b, c = triple
    ab, bc, ac = distances(a, b), distances(b, c), distances(a, c)
    for name in routes.ROUTES:
        sides = sorted((ab[name], bc[name], ac[name]))
        assert sides[2] <= sides[0] + sides[1] + TRIANGLE_SLACK, name


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    n1=st.floats(0.0, 2.0),
    n2=st.floats(0.0, 2.0),
    alpha1=polar(2.0),
    angle=st.floats(0.0, 2 * math.pi),
    step=st.floats(0.01, 0.5),
)
def test_every_route_falls_along_a_ray(n1, n2, alpha1, angle, step):
    # State 2 moves away from state 1 along one direction, |dalpha| from 0 to
    # 4 steps <= 2. Steps of at least 0.01 lower F by at least 2e-5 of
    # itself, far above round-off, so no slack is needed.
    state1 = DisplacedThermalState(ThermalParams(n1), alpha1)
    direction = cmath.exp(1j * angle)
    series = {name: [] for name in routes.ROUTES}
    for k in range(5):
        state2 = DisplacedThermalState(ThermalParams(n2), alpha1 + k * step * direction)
        for name, result in compare(state1, state2, routes.ROUTES, 80).items():
            series[name].append(result.fidelity)
    for name, values in series.items():
        assert all(later <= earlier for earlier, later in zip(values, values[1:])), name
