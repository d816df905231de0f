"""Tests for the route registry: one RouteResult per route, in report order."""

import cmath
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcsfidelity import closed_form, fock_oracle, routes, states
from tcsfidelity.routes import MAX_OCCUPANCY, RouteResult, compare, compute_route
from tcsfidelity.states import DisplacedThermalState, ThermalParams

DATA_DIR = Path(__file__).parent / "data"
GOLDEN = json.loads((DATA_DIR / "fidelity_all_routes.json").read_text())
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


#: The round-off margin above 1, the Gaussian routes' envelope 16 eps n at
#: the cap.
MARGIN = 16 * sys.float_info.epsilon * MAX_OCCUPANCY


@pytest.mark.parametrize("fidelity", [1.0 + 1e-12, 1.0 + MARGIN])
def test_route_result_absorbs_round_off_above_one(fidelity):
    assert RouteResult("closed_form", fidelity).fidelity == 1.0


@pytest.mark.parametrize(
    "fidelity", [0.0, -0.1, 1.0 + 1e-6, math.nextafter(1.0 + MARGIN, 2.0), float("nan")]
)
def test_route_result_rejects_fidelity_outside_unit_interval(fidelity):
    with pytest.raises(ArithmeticError, match="produced fidelity"):
        RouteResult("oracle", fidelity)


def test_compare_runs_the_named_routes_in_order():
    names = ["gaussian_overlap", "closed_form", "oracle", "purification_optimized"]
    results = compare(STATE1, STATE2, names, CUTOFF)
    assert list(results) == names
    golden = {report["route"]: report["fidelity"] for report in GOLDEN["reports"]}
    assert {name: result.fidelity for name, result in results.items()} == golden


def test_reports_and_sweep_rows_read_the_distance_of_the_result():
    # 2**-30 apart in alpha the fidelity rounds to 1: only the closed form's
    # gap keeps the distance, 2**-30 / sqrt(3) at n = 1. The other routes
    # report the distance of their fidelity.
    thermal = ThermalParams(1.0)
    state1 = DisplacedThermalState(thermal, 0.3)
    state2 = DisplacedThermalState(thermal, 0.3 + 2.0**-30)
    results = compare(state1, state2, routes.ROUTES, CUTOFF)
    rows = routes.sweep([1.0], [1.0], [2.0**-30], 0.3, list(routes.ROUTES), CUTOFF)
    for row, (name, result) in zip(rows, results.items()):
        assert result.report()["bures_distance"] == row["bures_distance"]
        if name == "closed_form":
            expected = closed_form.tcs_bures_distance(state1, state2)
            assert expected == pytest.approx(2.0**-30 / math.sqrt(3), rel=1e-8)
        else:
            expected = closed_form.bures_distance(result.fidelity)
        assert result.bures_distance == expected, name


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
        return {name: r.bures_distance for name, r in results.items()}

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


@pytest.mark.parametrize("name", list(routes.ROUTES))
@pytest.mark.parametrize("cutoff", [0, -1])
def test_every_route_refuses_a_cutoff_below_one(name, cutoff):
    with pytest.raises(ValueError, match=f"^cutoff must be >= 1, got {cutoff}$"):
        compute_route(name, STATE1, STATE2, cutoff)


def above_cap_message(label, n):
    """The pattern of the gate's whole message for occupancy ``n`` as ``label``."""
    message = (f"{label}={n!r} exceeds the supported range (max 1e+08); "
               "double precision breaks down beyond it")
    return f"^{re.escape(message)}$"


@pytest.mark.parametrize("name", list(routes.ROUTES))
@pytest.mark.parametrize("label", ["n1", "n2"])
def test_every_route_takes_the_cap_and_refuses_the_next_double(name, label):
    def pair(n):
        state = DisplacedThermalState(ThermalParams(n), 0.3 - 0.2j)
        return (state, STATE2) if label == "n1" else (STATE1, state)

    assert 0.0 < compute_route(name, *pair(MAX_OCCUPANCY)).fidelity <= 1.0
    above = math.nextafter(MAX_OCCUPANCY, math.inf)
    with pytest.raises(ValueError, match=above_cap_message(label, above)):
        compute_route(name, *pair(above))


@pytest.mark.parametrize("name", list(routes.ROUTES))
@pytest.mark.parametrize("alpha1, alpha2, shown", [
    (0j, 1e200, "(1e+200+0j)"),
    (-1e308, 1e308, "(inf+0j)"),
], ids=["overflowing", "infinite"])
def test_every_route_refuses_an_alpha2_minus_alpha1_out_of_range(name, alpha1, alpha2, shown):
    state1 = DisplacedThermalState(ThermalParams(1.0), alpha1)
    state2 = DisplacedThermalState(ThermalParams(0.5), alpha2)
    message = f"|alpha2 - alpha1|^2 overflows for alpha2 - alpha1={shown}"
    with pytest.raises(OverflowError, match=f"^{re.escape(message)}$"):
        compute_route(name, state1, state2)


def test_the_gate_checks_the_cutoff_then_n1_then_n2_then_the_displacements():
    hot = DisplacedThermalState(ThermalParams(1e9))
    far = DisplacedThermalState(ThermalParams(2e9), 1e200)
    with pytest.raises(ValueError, match="^cutoff must be >= 1, got 0$"):
        compute_route("closed_form", hot, far, 0)
    with pytest.raises(ValueError, match=above_cap_message("n1", 1e9)):
        compute_route("closed_form", hot, far)
    with pytest.raises(ValueError, match=above_cap_message("n2", 2e9)):
        compute_route("closed_form", STATE1, far)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_a_cutoff_that_is_no_integer_fails_alike_cold_or_warm(warm):
    # The displacement memo's key (delta, 80.0) equals (delta, 80), so a memo
    # warmed at cutoff 80 would otherwise answer the float cutoff.
    delta = abs(STATE2.displacement - STATE1.displacement)
    if warm:
        compute_route("oracle", STATE1, STATE2, CUTOFF)
    message = "^'float' object cannot be interpreted as an integer$"
    with pytest.raises(TypeError, match=message):
        compute_route("oracle", STATE1, STATE2, 80.0)
    with pytest.raises(TypeError, match=message):
        fock_oracle.displacement_matrix(delta, 80.0)
    result = compute_route("oracle", STATE1, STATE2, np.int64(CUTOFF))
    assert type(result.cutoff) is int
    assert result.report()["cutoff"] == CUTOFF


def test_an_unknown_route_name_is_a_usage_error():
    listed = "closed_form, oracle, purification_optimized, gaussian_overlap"
    with pytest.raises(ValueError, match=f"^unknown route 'nope'; routes: {listed}$"):
        compute_route("nope", STATE1, STATE2)
    # A bare string is an iterable of one-letter names.
    with pytest.raises(ValueError, match="^unknown route 'o'; "):
        compare(STATE1, STATE2, "oracle")


def test_a_linear_algebra_failure_is_an_arithmetic_error(monkeypatch):
    def refuse(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    with pytest.raises(ArithmeticError, match="^SVD did not converge$") as info:
        compute_route("oracle", STATE1, STATE2, CUTOFF)
    # One numerical-failure class: no longer also a ValueError.
    assert not isinstance(info.value, ValueError)


# ---------------------------------------------------------------------------
# what the command line prints
# ---------------------------------------------------------------------------


def test_reports_of_the_golden_states_are_the_golden_file():
    results = compare(STATE1, STATE2, routes.ROUTES, CUTOFF)
    reports = [result.report() for result in results.values()]
    fidelities = [report["fidelity"] for report in reports]
    document = {
        "schema": 1,
        "reports": reports,
        "max_pairwise_discrepancy": max(fidelities) - min(fidelities),
    }
    golden = (DATA_DIR / "fidelity_all_routes.json").read_text()
    assert json.dumps(document, indent=2) + "\n" == golden


def test_sweep_rows_are_the_golden_csv():
    # The grid, base displacement and cutoff of the golden sweep; tcsfid
    # passes the route names sorted.
    names = sorted(routes.ROUTES)
    rows = routes.sweep([0.0, 1.0], [0.0, 0.5], [0j, 1 + 0j, 1 + 1j], 0j, names, 60)
    lines = [routes.SWEEP_COLUMNS, *(map(str, row.values()) for row in rows)]
    csv = "".join(",".join(line) + "\n" for line in lines)
    assert csv == (DATA_DIR / "sweep.csv").read_text()


def test_sweep_rows_follow_the_grid_then_the_names():
    rows = routes.sweep([1.0, 0.0], [0.5], [1 + 0j, 0j], 0.5j, ["oracle", "closed_form"], 40)
    assert [tuple(row) for row in rows] == [routes.SWEEP_COLUMNS] * 8
    points = [(row["n1"], row["n2"], row["re_dalpha"], row["im_dalpha"]) for row in rows]
    assert points[::2] == points[1::2] == sorted(set(points))
    assert [row["route"] for row in rows] == ["oracle", "closed_form"] * 4
    for row in rows[1::2]:
        state1 = DisplacedThermalState(ThermalParams(row["n1"]), 0.5j)
        state2 = DisplacedThermalState(ThermalParams(row["n2"]), 0.5j + row["re_dalpha"])
        assert row["fidelity"] == closed_form.tcs_fidelity(state1, state2).value
        assert row["discrepancy_vs_closed_form"] == 0.0


def test_sweep_runs_the_closed_form_once_per_point(monkeypatch):
    calls = []
    tcs_fidelity = closed_form.tcs_fidelity
    monkeypatch.setattr(
        closed_form, "tcs_fidelity", lambda *args: calls.append(args) or tcs_fidelity(*args)
    )
    rows = routes.sweep([0.0, 1.0], [0.5], [1 + 0j, 1j], 0j, ["closed_form", "oracle"], 20)
    assert len(rows) == 8
    assert len(calls) == 4


def test_sweep_raises_the_first_failure_in_row_order():
    # The dalpha = 1 group runs first, and its point at n2 = 1e9 is outside
    # the occupancy cap; but (0, 0, 40) comes first in row order, so its
    # underflow is the failure raised.
    underflow = r"underflows double precision at \|a1 - a2\| = 40"
    with pytest.raises(ArithmeticError, match=underflow):
        routes.sweep([0.0], [0.0, 1e9], [1 + 0j, 40 + 0j], 0j, ["closed_form"])
    with pytest.raises(ValueError, match="exceeds the supported range"):
        routes.sweep([0.0], [0.0, 1e9], [1 + 0j, 2 + 0j], 0j, ["closed_form"])


def test_sweep_fills_each_displacement_once(monkeypatch):
    # Nine distinct dalpha, one more than the oracle's memo holds: run in row
    # order, (n1, n2, dalpha), the memo would cycle and refill D(|dalpha|) at
    # every one of the 36 points.
    fills = []
    fill = fock_oracle._fill_entries
    monkeypatch.setattr(
        fock_oracle, "_fill_entries", lambda *args: fills.append(args[0]) or fill(*args)
    )
    dalphas = [complex(k / 10) for k in range(1, 10)]
    rows = routes.sweep([0.0, 1.0], [0.0, 1.0], dalphas, 0j, ["oracle"], 20)
    assert len(rows) == 36
    assert len(fills) == len(set(fills)) == 9


def test_sweep_beyond_the_factor_memo_refactors_only_the_overflow(monkeypatch):
    # 144 occupancy pairs, none the mirror image of another, 16 more than the
    # factor memo holds. The first dalpha group factors all 144; each later
    # group runs the pairs in the reverse order of the one before, so it
    # finds the 128 kept and refactors 16. In one order throughout every
    # point would miss: 432 QR calls.
    calls = []
    qr = np.linalg.qr

    def counting(*args, **kwargs):
        calls.append(None)
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting)
    n1, n2 = np.linspace(0.0, 1.0, 12).tolist(), np.linspace(1.05, 2.0, 12).tolist()
    names = ["gaussian_overlap", "purification_optimized"]
    rows = routes.sweep(n1, n2, [0j, 1 + 0j, 1 + 1j], 0j, names)
    assert len(rows) == 2 * 432
    assert len(calls) == 144 + 16 + 16


def test_cf_grid_without_a_cutoff_has_no_oracle():
    spec = states.PurificationSpec(ThermalParams(1.0), 1 + 0j, 0.5j)
    lambdas1, lambdas2 = [0j, 0.5 + 0j, 1j], [0j, -0.5j]
    table, oracle, deviation = routes.cf_grid(spec, lambdas1, lambdas2)
    assert oracle is None and deviation is None
    cf = states.purification_cf
    assert table == [[cf(spec, l1, l2) for l2 in lambdas2] for l1 in lambdas1]
    assert table[0][0] == 1.0
