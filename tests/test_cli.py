"""CLI tests: route dispatch, formats, exit codes, and determinism."""

import ast
import gc
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from tcsfidelity import cli, closed_form, fock_oracle, routes, states
from tcsfidelity.cli import COMPLEX, ExitCodeCommand, main
from tcsfidelity.routes import format_complex

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    result = runner.invoke(main, list(args))
    return result


# ---------------------------------------------------------------------------
# complex flag format
# ---------------------------------------------------------------------------


def test_complex_round_trip():
    for z in (0j, 1 + 0j, complex(1 / 3, -2 / 7), complex(-0.1, 1e-17)):
        assert COMPLEX.convert(format_complex(z), None, None) == z


def test_complex_rejects_spaces_and_bad_shapes(runner):
    for bad in ("1, 0", "1", "1,0,0", "a,b"):
        result = invoke(runner, "fidelity", "--alpha1", bad)
        assert result.exit_code == 2


# ---------------------------------------------------------------------------
# fidelity
# ---------------------------------------------------------------------------


def test_fidelity_closed_form_coherent(runner):
    result = invoke(
        runner, "fidelity", "--n1", "0", "--alpha1", "0,0",
        "--n2", "0", "--alpha2", "1,0", "--route", "closed-form",
    )
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["schema"] == 1
    assert payload["route"] == "closed_form"
    assert payload["fidelity"] == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert payload["bures_distance"] == pytest.approx(
        math.sqrt(2 * (1 - math.exp(-0.5))), rel=1e-14
    )


def test_fidelity_oracle_route_agrees(runner):
    args = ["--n1", "0", "--alpha1", "0,0", "--n2", "0", "--alpha2", "1,0"]
    closed = json.loads(invoke(runner, "fidelity", *args).stdout)
    oracle = json.loads(
        invoke(runner, "fidelity", *args, "--route", "oracle", "--cutoff", "80").stdout
    )
    assert oracle["cutoff"] == 80
    assert abs(oracle["fidelity"] - closed["fidelity"]) < 1e-8
    assert "truncation_tail_1" in oracle["diagnostics"]


def test_fidelity_all_routes(runner):
    result = invoke(
        runner, "fidelity", "--n1", "1", "--alpha1", "0.3,-0.2",
        "--n2", "0.5", "--alpha2", "1.3,0.8", "--all-routes", "--cutoff", "80",
    )
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert [r["route"] for r in payload["reports"]] == [
        "closed_form", "oracle", "purification_optimized", "gaussian_overlap",
    ]
    assert payload["max_pairwise_discrepancy"] <= 1e-6
    for report in payload["reports"]:
        assert 0.0 < report["fidelity"] <= 1.0
        expected = math.sqrt(2 * (1 - math.sqrt(report["fidelity"])))
        assert abs(report["bures_distance"] - expected) < 1e-14


def test_fidelity_tolerance_breach_exits_one(runner):
    result = invoke(
        runner, "fidelity", "--n1", "1", "--n2", "0", "--alpha2", "1,0",
        "--all-routes", "--tol", "1e-20",
    )
    assert result.exit_code == 1
    payload = json.loads(result.stdout)
    assert payload["max_pairwise_discrepancy"] > 1e-20
    assert "discrepancy" in result.stderr


def test_fidelity_csv_format(runner):
    result = invoke(
        runner, "fidelity", "--n1", "1", "--n2", "0", "--alpha2", "1,0", "--csv",
    )
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "route,fidelity,bures_distance,beta_star,cutoff"
    assert lines[1].startswith("closed_form,0.3032653298563167,")


def test_fidelity_temp_ratio_input(runner):
    result = invoke(
        runner, "fidelity", "--temp-ratio1", repr(math.log(2.0)), "--n2", "0",
    )
    payload = json.loads(result.stdout)
    assert payload["fidelity"] == pytest.approx(0.5, rel=1e-15)


def test_fidelity_occupancy_precedence_warning(runner):
    result = invoke(
        runner, "fidelity", "--n1", "1", "--temp-ratio1", "0.5", "--n2", "1",
    )
    assert result.exit_code == 0
    assert "using --n1" in result.stderr
    payload = json.loads(result.stdout)
    assert payload["fidelity"] == 1.0


def test_fidelity_rejects_bad_route(runner):
    result = invoke(runner, "fidelity", "--route", "magic")
    assert result.exit_code == 2


def test_fidelity_rejects_negative_occupancy(runner):
    result = invoke(runner, "fidelity", "--n1", "-1")
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "route", ["closed-form", "oracle", "purification-optimized", "gaussian-overlap"]
)
def test_fidelity_overflow_names_the_displacement_difference(runner, route):
    result = invoke(runner, "fidelity", "--alpha2", "1e200,0", "--route", route)
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == (
        "error: |alpha2 - alpha1|^2 overflows for alpha2 - alpha1=(1e+200+0j)\n"
    )


@pytest.mark.parametrize(
    "route", ["closed-form", "oracle", "purification-optimized", "gaussian-overlap"]
)
def test_fidelity_at_a_huge_common_displacement(runner, route):
    # The displacement cancels only in the frame of state 1: at the absolute
    # alphas the Gaussian forms' mean vectors overflow to inf, and their
    # difference is NaN.
    result = invoke(
        runner, "fidelity", "--n1", "1", "--alpha1", "1.7e308,0", "--alpha2", "1.7e308,0",
        "--route", route,
    )
    assert result.exit_code == 0, result.output
    assert "RuntimeWarning" not in result.stderr
    assert abs(json.loads(result.stdout)["fidelity"] - 0.5) <= 1e-12


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-3"])
@pytest.mark.parametrize("command", [
    ["fidelity", "--all-routes", "--n1", "1", "--alpha2", "1,0", "--cutoff", "10"],
    ["cf-grid", "--n", "1", "--l1-re", "0:1:2", "--oracle-check", "4"],
], ids=["fidelity", "cf-grid"])
def test_bad_tolerance_is_a_usage_error(runner, command, tol):
    # A NaN tolerance used to switch the check off and exit 0.
    result = invoke(runner, *command, "--tol", tol)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "Invalid value for '--tol'" in result.stderr


def test_fidelity_oracle_at_cutoff_1100_matches_closed_form(runner):
    # Bare Laguerre values would overflow here; the recurrence's entries do not.
    args = ["fidelity", "--n1", "0.5", "--alpha2", "1,0"]
    result = invoke(runner, *args, "--route", "oracle", "--cutoff", "1100")
    assert result.exit_code == 0
    closed = json.loads(invoke(runner, *args).stdout)["fidelity"]
    assert abs(json.loads(result.stdout)["fidelity"] - closed) <= 1e-12


def test_cf_grid_oracle_check_at_cutoff_1100(runner):
    result = invoke(runner, "cf-grid", "--l1-re", "1:1:1", "--oracle-check", "1100")
    assert result.exit_code == 0
    footer = result.stdout.strip().splitlines()[-1]
    assert footer.startswith("# max_abs_deviation=")
    assert float(footer.split("=")[1]) <= 1e-12


def test_fidelity_rejects_out_of_range_inputs(runner):
    result = invoke(runner, "fidelity", "--n1", "1e9")
    assert result.exit_code == 2
    result = invoke(runner, "fidelity", "--alpha2", "40,0")
    assert result.exit_code == 1
    assert "underflow" in result.stderr


@pytest.mark.parametrize(
    "n1, n2, dalpha", [(1e4, 7e3, 1.0), (1e8, 1e8, 1e4), (1e8, 7e7, 1e4)]
)
@pytest.mark.parametrize("route", ["gaussian-overlap", "purification-optimized"])
def test_fidelity_gaussian_route_over_the_occupancy_range(
    runner, route, n1, n2, dalpha, reference_fidelity, gaussian_route_envelope
):
    # From n of about 1e4 on, the covariance's small eigenvalue 1/(4n) is lost
    # to cancellation; the symplectic factor has no such limit. Both routes
    # take the overlap from it.
    result = invoke(
        runner, "fidelity", "--n1", repr(n1), "--n2", repr(n2),
        "--alpha2", f"{dalpha!r},0", "--route", route,
    )
    assert result.exit_code == 0
    fidelity = json.loads(result.stdout)["fidelity"]
    reference = reference_fidelity(n1, 0j, n2, dalpha)
    bound = gaussian_route_envelope(n1, n2, reference)
    assert abs(fidelity - reference) / reference <= bound


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------


def test_optimize_equal_displacements(runner):
    result = invoke(runner, "optimize", "--n1", "1", "--n2", "2",
                    "--alpha1", "1,1", "--alpha2", "1,1")
    payload = json.loads(result.stdout)
    beta = payload["beta_star"].split(",")
    assert abs(complex(float(beta[0]), float(beta[1]))) < 1e-10


def test_optimize_derived_case(runner):
    result = invoke(runner, "optimize", "--n1", "1", "--n2", "1", "--alpha2", "1,0")
    payload = json.loads(result.stdout)
    real_part = float(payload["beta_star"].split(",")[0])
    assert real_part == pytest.approx(0.9428090415820634, abs=1e-10)
    assert payload["beta_deviation"] <= 1e-8
    assert payload["diagnostics"] == {}


def test_optimize_sweep_deviation(runner):
    for n1, n2, alpha2 in [("0", "2", "1,0"), ("0.5", "0.5", "1,1"), ("2", "0.1", "0,2")]:
        result = invoke(runner, "optimize", "--n1", n1, "--n2", n2, "--alpha2", alpha2)
        payload = json.loads(result.stdout)
        assert payload["beta_deviation"] <= 1e-8


# ---------------------------------------------------------------------------
# cf-grid
# ---------------------------------------------------------------------------


def test_cf_grid_single_point(runner):
    result = invoke(runner, "cf-grid", "--n", "1", "--alpha", "0.5,0")
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "re_l1,im_l1,re_l2,im_l2,re_chi,im_chi"
    assert lines[1] == "0.0,0.0,0.0,0.0,1.0,0.0"


def test_cf_grid_vacuum_line(runner):
    result = invoke(runner, "cf-grid", "--n", "0", "--l1-re", "0:1:5")
    lines = result.stdout.strip().splitlines()[1:]
    assert len(lines) == 5
    for line in lines:
        fields = [float(x) for x in line.split(",")]
        assert fields[4] == pytest.approx(math.exp(-fields[0] ** 2 / 2), rel=1e-14)
        assert fields[5] == 0.0


def test_cf_grid_oracle_check_footer(runner):
    result = invoke(
        runner, "cf-grid", "--n", "1", "--alpha", "1,0", "--beta", "0.5,0.5",
        "--l1-re", "-1:1:3", "--l1-im", "0:0.5:2", "--l2-re", "0:1:2",
        "--oracle-check", "60",
    )
    assert result.exit_code == 0
    lines = result.stdout.strip().splitlines()
    assert lines[0].endswith("re_chi_oracle,im_chi_oracle")
    footer = lines[-1]
    assert footer.startswith("# max_abs_deviation=")
    assert float(footer.split("=")[1]) <= 1e-6


def test_cf_grid_footer_is_the_library_deviation(runner):
    result = invoke(
        runner, "cf-grid", "--n", "1", "--alpha", "1,0", "--beta", "0.5,0.5",
        "--l1-re", "-1:1:3", "--l2-im", "0:1:2", "--oracle-check", "30",
    )
    spec = states.PurificationSpec(states.ThermalParams(1.0), 1 + 0j, 0.5 + 0.5j)
    lambdas1 = [complex(x, 0.0) for x in (-1.0, 0.0, 1.0)]
    lambdas2 = [complex(0.0, y) for y in (0.0, 1.0)]
    table, oracle, deviation = routes.cf_grid(spec, lambdas1, lambdas2, 30)
    lines = result.stdout.splitlines()
    assert lines[-1] == f"# max_abs_deviation={deviation!r}"
    assert deviation == max(
        abs(table[i][j] - oracle[i][j]) for i in range(3) for j in range(2)
    ) > 0.0
    assert lines[1] == ",".join(map(format_complex, [-1 + 0j, 0j, table[0][0], oracle[0][0]]))


def test_cf_grid_oracle_check_builds_each_displacement_once(runner):
    fock_oracle._displacement_entries.cache_clear()
    result = invoke(
        runner, "cf-grid", "--l1-re", "-1:1:3", "--l1-im", "-1:1:3",
        "--l2-re", "-1:1:9", "--l2-im", "-1:1:9", "--oracle-check", "6",
    )
    assert result.exit_code == 0
    # 81 distinct lambdas: the 9 of lambda1 and the purification's 0 are
    # among lambda2's.
    assert fock_oracle._displacement_entries.cache_info().misses == 81


def test_cf_grid_tolerance_breach_exits_one(runner):
    result = invoke(
        runner, "cf-grid", "--n", "1", "--l1-re", "0:1:2",
        "--oracle-check", "4", "--tol", "1e-12",
    )
    assert result.exit_code == 1


def test_cf_grid_bad_grid_exits_two(runner):
    result = invoke(runner, "cf-grid", "--l1-re", "0:1")
    assert result.exit_code == 2
    result = invoke(runner, "cf-grid", "--l1-re", "0:1:0")
    assert result.exit_code == 2


@pytest.mark.parametrize("grid", ["nan:nan:2", "inf:inf:2", "0:inf:2", "-1e308:1e308:3"])
def test_non_finite_grid_is_a_usage_error(runner, grid):
    result = invoke(
        runner, "cf-grid", "--l1-re", grid, "--oracle-check", "10", "--tol", "1e-6"
    )
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "Invalid value for '--l1-re'" in result.stderr


@pytest.mark.parametrize("values", ["nan", "0,inf", "nan:1:2"])
def test_non_finite_list_is_a_usage_error(runner, values):
    result = invoke(runner, "sweep", "--n1", values, "--routes", "closed-form")
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "Invalid value for '--n1'" in result.stderr


@pytest.mark.parametrize("oracle", [[], ["--oracle-check", "10"]],
                         ids=["cf-only", "oracle-check"])
def test_cf_grid_overflow_is_a_numerical_failure(runner, oracle):
    result = invoke(runner, "cf-grid", "--l1-re", "0:1e200:2", *oracle)
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == "error: |lambda1|^2 overflows for lambda1=(1e+200+0j)\n"


def test_cf_grid_oracle_overflow_is_a_numerical_failure(runner):
    # The purification's own displacement overflows |alpha|^2 in the recurrence.
    result = invoke(runner, "cf-grid", "--alpha", "1e200,0", "--oracle-check", "10")
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == "error: |alpha|^2 overflows for alpha=(1e+200+0j)\n"


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_single_point_matches_fidelity(runner):
    fid = json.loads(
        invoke(runner, "fidelity", "--n1", "1", "--n2", "0", "--alpha2", "1,0").stdout
    )
    result = invoke(
        runner, "sweep", "--n1", "1", "--n2", "0", "--dalpha", "1,0",
        "--routes", "closed-form",
    )
    lines = result.stdout.strip().splitlines()
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert float(fields[5]) == fid["fidelity"]
    assert float(fields[6]) == fid["bures_distance"]
    assert float(fields[7]) == 0.0


def test_sweep_thermal_column(runner):
    result = invoke(
        runner, "sweep", "--n1", "0,1,2", "--n2", "0", "--dalpha", "0,0",
        "--routes", "closed-form",
    )
    lines = result.stdout.strip().splitlines()[1:]
    by_n1 = {float(line.split(",")[0]): float(line.split(",")[5]) for line in lines}
    assert by_n1[0.0] == 1.0
    assert by_n1[1.0] == 0.5
    assert by_n1[2.0] == pytest.approx(1.0 / 3.0, rel=1e-15)


def test_sweep_monotone_in_displacement(runner):
    result = invoke(
        runner, "sweep", "--n1", "1", "--n2", "0.5",
        "--dalpha", "0,0;0.5,0;1,0;1.5,0;2,0", "--routes", "closed-form",
    )
    lines = result.stdout.strip().splitlines()[1:]
    values = [float(line.split(",")[5]) for line in lines]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_sweep_row_order_and_routes(runner):
    result = invoke(
        runner, "sweep", "--n1", "1,0", "--n2", "0", "--dalpha", "1,0;0,0",
        "--routes", "oracle,closed-form", "--cutoff", "40",
    )
    lines = result.stdout.strip().splitlines()[1:]
    keys = []
    for line in lines:
        fields = line.split(",")
        keys.append((float(fields[0]), float(fields[1]), float(fields[2]),
                     float(fields[3]), fields[4]))
    assert keys == sorted(keys)
    assert {k[4] for k in keys} == {"closed_form", "oracle"}


def test_sweep_oracle_discrepancy_small(runner):
    result = invoke(
        runner, "sweep", "--n1", "1", "--n2", "0.5", "--dalpha", "1,1",
        "--routes", "oracle", "--cutoff", "80",
    )
    line = result.stdout.strip().splitlines()[1]
    assert float(line.split(",")[7]) <= 1e-6


def test_sweep_json_format(runner):
    result = invoke(
        runner, "sweep", "--n1", "1", "--n2", "0", "--dalpha", "1,0",
        "--routes", "closed-form", "--json",
    )
    payload = json.loads(result.stdout)
    assert payload["schema"] == 1
    assert len(payload["rows"]) == 1
    assert payload["rows"][0]["route"] == "closed_form"


def test_sweep_rejects_unknown_route(runner):
    result = invoke(runner, "sweep", "--routes", "closed-form,nonsense")
    assert result.exit_code == 2


def test_sweep_runs_the_closed_form_once_per_point(runner, monkeypatch):
    calls = []
    tcs_fidelity = closed_form.tcs_fidelity
    monkeypatch.setattr(
        closed_form, "tcs_fidelity", lambda *args: calls.append(args) or tcs_fidelity(*args)
    )
    result = invoke(
        runner, "sweep", "--n1", "1", "--n2", "0", "--dalpha", "1,0",
        "--routes", "closed-form",
    )
    assert result.exit_code == 0
    assert len(calls) == 1


def test_sweep_closed_form_failure_maps_like_fidelity(runner):
    swept = invoke(
        runner, "sweep", "--n1", "0", "--n2", "0", "--dalpha", "40,0",
        "--routes", "oracle", "--cutoff", "20",
    )
    single = invoke(runner, "fidelity", "--n1", "0", "--n2", "0", "--alpha2", "40,0")
    assert swept.exit_code == single.exit_code == 1
    assert swept.stdout == ""
    error_line = "error: fidelity underflows double precision at |a1 - a2| = 40"
    assert error_line in swept.stderr
    assert error_line in single.stderr


def test_sweep_builds_each_displacement_once(runner, monkeypatch):
    # Nine distinct dalpha, one more than the displacement memo holds: run in
    # row order, (n1, n2, dalpha), the memo would cycle and refill D(|dalpha|)
    # at every one of the 36 points.
    fills = []
    fill = fock_oracle._fill_entries
    monkeypatch.setattr(
        fock_oracle, "_fill_entries", lambda *args: fills.append(args[0]) or fill(*args)
    )
    dalpha = ";".join(f"{k / 10!r},0" for k in range(1, 10))
    result = invoke(
        runner, "sweep", "--n1", "0,1", "--n2", "0,1", "--dalpha", dalpha,
        "--routes", "oracle", "--cutoff", "20",
    )
    assert result.exit_code == 0
    assert len(result.stdout.splitlines()) == 1 + 36
    assert len(fills) == len(set(fills)) == 9


def test_sweep_raises_the_first_failure_in_row_order(runner):
    # The dalpha = 1 group runs first, and its point at n2 = 1e9 is outside
    # the occupancy cap; but (0, 0, 40) comes first in row order, so its
    # underflow is the failure reported.
    result = invoke(
        runner, "sweep", "--n1", "0", "--n2", "0,1e9", "--dalpha", "1,0;40,0",
        "--routes", "closed-form",
    )
    assert result.exit_code == 1
    assert result.stdout == ""
    assert "error: fidelity underflows double precision at |a1 - a2| = 40" in result.stderr


# ---------------------------------------------------------------------------
# bures
# ---------------------------------------------------------------------------


def test_bures_identity(runner):
    payload = json.loads(invoke(runner, "bures", "--fidelity", "1.0").stdout)
    assert payload == {"schema": 1, "fidelity": 1.0, "bures_distance": 0.0}


def test_bures_quarter(runner):
    payload = json.loads(invoke(runner, "bures", "--fidelity", "0.25").stdout)
    assert payload["bures_distance"] == 1.0


def test_bures_rejects_out_of_range(runner):
    for bad in ("0", "-0.5", "1.5"):
        result = invoke(runner, "bures", "--fidelity", bad)
        assert result.exit_code == 2


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

OVERFLOW_LINE = "error: |alpha2 - alpha1|^2 overflows for alpha2 - alpha1=(1e+200+0j)"

# Command, exit code, last stderr line.
EXIT_CODE_TABLE = [
    (["optimize", "--alpha2", "1e200,0"], 1, OVERFLOW_LINE),
    (["sweep", "--n1", "0", "--n2", "0", "--dalpha", "1e200,0", "--routes", "oracle",
      "--cutoff", "5"], 1, OVERFLOW_LINE),
    (["optimize", "--n1", "1e9"], 2,
     "Error: n1=1000000000.0 exceeds the supported range (max 1e+08); "
     "double precision breaks down beyond it"),
    (["fidelity", "--n1", "1e9", "--route", "purification-optimized"], 2,
     "Error: n1=1000000000.0 exceeds the supported range (max 1e+08); "
     "double precision breaks down beyond it"),
    (["fidelity", "--n1", "1e9", "--route", "oracle"], 2,
     "Error: n1=1000000000.0 exceeds the supported range (max 1e+08); "
     "double precision breaks down beyond it"),
    (["cf-grid", "--n", "-1"], 2, "Error: mean_occupancy must be finite and >= 0, got -1.0"),
    (["cf-grid", "--temp-ratio", "-2"], 2,
     "Error: hbar*w/(k_B*T) ratio must be positive, got -2.0"),
    (["fidelity", "--route", "oracle", "--cutoff", "0"], 2,
     "Error: cutoff must be >= 1, got 0"),
    (["sweep", "--cutoff", "0", "--routes", "oracle"], 2,
     "Error: cutoff must be >= 1, got 0"),
    (["bures", "--fidelity", "0"], 2, "Error: fidelity must lie in (0, 1], got 0.0"),
    # The Nelder-Mead flags are gone: click refuses them rather than ignore them.
    (["optimize", "--beta-tol", "nan"], 2, "Error: No such option '--beta-tol'."),
    (["optimize", "--method", "nelder-mead"], 2, "Error: No such option '--method'."),
]
# A route whose fidelity underflows says so and exits 1. At 1e154 the Gaussian
# route's quadratic form overflows without numpy's RuntimeWarning, which the
# test settings make an error.
UNDERFLOW_LINE = "error: route {} produced fidelity 0.0: it underflows double precision"
EXIT_CODE_TABLE += [
    (["fidelity", "--alpha2", "40,0"], 1,
     "error: fidelity underflows double precision at |a1 - a2| = 40 for these occupancies"),
    (["fidelity", "--alpha2", "30,0", "--route", "oracle", "--cutoff", "10"], 1,
     UNDERFLOW_LINE.format("oracle")),
    (["fidelity", "--alpha2", "30,0", "--route", "purification-optimized"], 1,
     UNDERFLOW_LINE.format("purification_optimized")),
    (["fidelity", "--alpha2", "30,0", "--route", "gaussian-overlap"], 1,
     UNDERFLOW_LINE.format("gaussian_overlap")),
    (["fidelity", "--alpha2", "1e154,0", "--route", "gaussian-overlap"], 1,
     UNDERFLOW_LINE.format("gaussian_overlap")),
    (["optimize", "--alpha2", "40,0"], 1, UNDERFLOW_LINE.format("purification_optimized")),
    # The maximum's log is finite, about -3.3e307; only its exp underflows.
    (["optimize", "--n1", "1", "--n2", "1", "--alpha2", "1e154,0"], 1,
     UNDERFLOW_LINE.format("purification_optimized")),
    (["optimize", "--n1", "1e8", "--n2", "1e8", "--alpha2", "1e152,0"], 1,
     UNDERFLOW_LINE.format("purification_optimized")),
    # Near F = 1 the engine's round-off can exceed the overlap's 1 + 1e-12
    # margin on valid input: a numerical failure (ROADMAP item 10).
    (["fidelity", "--n1", "2335.7214690901214", "--n2", "2335.7214690901214",
      "--route", "gaussian-overlap"], 1,
     "error: overlap must lie in [0, 1], got 1.0000000000020322"),
]
# Usage errors of the grid flags, and the oracle's cutoff check, which runs
# before the truncation tails s**cutoff: at n = 0, s = 0 and 0.0**-1 would
# raise ZeroDivisionError, an exit 1 with the wrong message.
EXIT_CODE_TABLE += [
    (["sweep", "--n1", "1:2:1"], 2,
     "Error: Invalid value for '--n1': a single-point grid needs start == stop"),
    (["sweep", "--n1", "a,b"], 2,
     "Error: Invalid value for '--n1': 'a,b' is not a comma-separated list of reals"),
    (["cf-grid", "--oracle-check", "0"], 2, "Error: --oracle-check cutoff must be >= 1"),
    (["fidelity", "--alpha2", "1,0", "--route", "oracle", "--cutoff", "0"], 2,
     "Error: cutoff must be >= 1, got 0"),
    (["fidelity", "--alpha1", "1,0", "--route", "oracle", "--cutoff", "0"], 2,
     "Error: cutoff must be >= 1, got 0"),
    (["fidelity", "--alpha1", "1,0", "--route", "oracle", "--cutoff", "-1"], 2,
     "Error: cutoff must be >= 1, got -1"),
    (["fidelity", "--route", "oracle", "--cutoff", "-1"], 2,
     "Error: cutoff must be >= 1, got -1"),
]
# A grid whose values cannot be allocated fails while its flag is read, before
# the command runs, and exits 1 like any MemoryError. 1e11 points need 745 GiB,
# so the allocation fails at once; a count that could be allocated would fill
# the memory instead.
HUGE_GRID_LINE = (
    "error: grid '0:1:100000000000' does not fit in memory: Unable to allocate "
    "745. GiB for an array with shape (100000000000,) and data type float64"
)
EXIT_CODE_TABLE += [
    (["sweep", "--n1", "0:1:100000000000"], 1, HUGE_GRID_LINE),
    (["cf-grid", "--l1-re", "0:1:100000000000"], 1, HUGE_GRID_LINE),
]
# Every route refuses a cutoff below 1, not only the oracle that reads it.
EXIT_CODE_TABLE += [
    (["fidelity", "--cutoff", "0"], 2, "Error: cutoff must be >= 1, got 0"),
    (["sweep", "--cutoff", "0", "--routes", "closed-form"], 2,
     "Error: cutoff must be >= 1, got 0"),
]
# Finite displacements whose difference is infinite: every route names the
# difference and exits 1, as when only its square overflows.
INFINITE_DIFFERENCE = ["fidelity", "--alpha1=-1e308,0", "--alpha2", "1e308,0"]
INFINITE_LINE = "error: |alpha2 - alpha1|^2 overflows for alpha2 - alpha1=(inf+0j)"
EXIT_CODE_TABLE += [
    ([*INFINITE_DIFFERENCE, *route], 1, INFINITE_LINE)
    for route in (
        ["--route", "closed-form"],
        ["--route", "oracle"],
        ["--route", "purification-optimized"],
        ["--route", "gaussian-overlap"],
        ["--all-routes"],
    )
]


@pytest.mark.parametrize("args, code, last_line", EXIT_CODE_TABLE,
                         ids=[" ".join(row[0]) for row in EXIT_CODE_TABLE])
def test_library_failures_follow_the_exit_codes(runner, args, code, last_line):
    result = invoke(runner, *args)
    assert result.exit_code == code
    assert result.stdout == ""
    assert result.stderr.splitlines()[-1] == last_line
    # Only the exit itself escapes the command, no library exception.
    assert isinstance(result.exception, SystemExit)
    if code == 2:
        assert result.stderr.startswith(f"Usage: main {args[0]} [OPTIONS]")


@pytest.mark.parametrize("layer, args", [
    ("displaced_thermal_fidelity",
     ["fidelity", "--n1", "1", "--route", "oracle", "--cutoff", "100000"]),
    ("schmidt_purification", ["cf-grid", "--n", "1", "--oracle-check", "100000"]),
], ids=["fidelity", "cf-grid"])
def test_out_of_memory_is_a_numerical_failure(runner, monkeypatch, layer, args):
    # Raised in place of the allocation, which could succeed under overcommit
    # and get the process killed later. A bare MemoryError carries no
    # message, so its line names the type.
    message = "Unable to allocate 74.5 GiB for an array with shape (100000, 100000)"
    for error, line in [
        (MemoryError(message), f"error: {message}"),
        (MemoryError(), "error: MemoryError"),
    ]:
        def refuse(*_):
            raise error

        monkeypatch.setattr(fock_oracle, layer, refuse)
        result = invoke(runner, *args)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == f"{line}\n"
        assert isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("args", [
    ["fidelity", "--route", "oracle"],
    ["sweep", "--routes", "oracle"],
], ids=["fidelity", "sweep"])
def test_a_linear_algebra_failure_is_a_numerical_failure(runner, monkeypatch, args):
    def refuse(*_, **__):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    result = invoke(runner, *args)
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr == "error: SVD did not converge\n"
    assert isinstance(result.exception, SystemExit)


def test_a_plain_value_error_from_a_route_is_a_usage_error(runner, monkeypatch):
    # compute_route raises only numpy's LinAlgError again as ArithmeticError.
    def refuse(*_):
        raise ValueError("not a linear algebra failure")

    monkeypatch.setattr(fock_oracle, "displaced_thermal_fidelity", refuse)
    result = invoke(runner, "fidelity", "--route", "oracle")
    assert result.exit_code == 2
    assert result.stderr.splitlines()[-1] == "Error: not a linear algebra failure"


def test_cli_reaches_the_route_layers_only_through_routes():
    # cli.py parses and formats; what it prints is computed by routes and the
    # modules that define the domain types.
    layers = {"fock_oracle", "gaussian_overlap", "optimizer"}
    tree = ast.parse(Path(cli.__file__).read_text())
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            named.update(part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            named.update((node.module or "").split("."))
            named.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
    assert named & layers == set()


def test_every_command_maps_library_failures():
    assert main.commands
    assert [
        name for name, command in main.commands.items()
        if not isinstance(command, ExitCodeCommand)
    ] == []


@pytest.mark.parametrize("args", [
    ["bures", "--fidelity", "0.25"],
    ["fidelity", "--alpha2", "1e200,0"],
    ["fidelity", "--n1", "1", "--temp-ratio1", "2"],
], ids=["stdout", "error", "warning"])
def test_in_process_calls_leave_no_stream_wrappers(runner, args):
    # click caches a text wrapper per default stream; under the test runner
    # every call has fresh streams, and each cached wrapper used to stay alive.
    def live_wrappers():
        gc.collect()
        return sum(isinstance(obj, io.TextIOWrapper) for obj in gc.get_objects())

    invoke(runner, *args)
    before = live_wrappers()
    for _ in range(50):
        invoke(runner, *args)
    assert live_wrappers() == before


# ---------------------------------------------------------------------------
# determinism and golden files
# ---------------------------------------------------------------------------

GOLDEN_FIDELITY_ARGS = [
    "fidelity", "--n1", "1", "--alpha1", "0.3,-0.2",
    "--n2", "0.5", "--alpha2", "1.3,0.8", "--all-routes", "--cutoff", "80",
]
GOLDEN_SWEEP_ARGS = [
    "sweep", "--n1", "0,1", "--n2", "0,0.5", "--dalpha", "0,0;1,0;1,1",
    "--cutoff", "60",
]


def run_cli(args):
    process = subprocess.run(
        [sys.executable, "-m", "tcsfidelity.cli", *args],
        capture_output=True,
        check=True,
    )
    return process.stdout


@pytest.mark.parametrize("args", [GOLDEN_FIDELITY_ARGS, GOLDEN_SWEEP_ARGS],
                         ids=["fidelity-all-routes", "sweep"])
def test_byte_identical_across_runs(args):
    assert run_cli(args) == run_cli(args)


def test_cli_import_loads_no_scipy():
    code = (
        "import sys, tcsfidelity.cli; "
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    process = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, check=True, text=True
    )
    assert process.stdout == "[]\n"
    # scipy is a test dependency only: every command runs with it unimportable.
    commands = [
        ["fidelity", "--n1", "1", "--alpha2", "1,0", "--all-routes", "--cutoff", "40"],
        ["optimize", "--n1", "1", "--alpha2", "1,0"],
        ["cf-grid", "--n", "1", "--l1-re", "0:1:2", "--oracle-check", "20"],
        ["sweep", "--n1", "0,1", "--dalpha", "1,0", "--cutoff", "40"],
        ["bures", "--fidelity", "0.25"],
    ]
    run = (
        "import sys; sys.modules['scipy'] = None; from tcsfidelity.cli import main; "
        "main(sys.argv[1:], prog_name='tcsfid')"
    )
    for args in commands:
        process = subprocess.run(
            [sys.executable, "-c", run, *args], capture_output=True, text=True
        )
        assert process.returncode == 0, (args, process.stderr)
        assert process.stdout, args


def test_package_and_cli_import_load_no_numpy():
    for module in ("tcsfidelity", "tcsfidelity.cli"):
        code = f"import sys, {module}; print('numpy' in sys.modules)"
        process = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, check=True, text=True
        )
        assert process.stdout == "False\n", module
    # The commands that need no numpy print, with it unimportable, the bytes
    # they print with it loaded. The golden --all-routes bytes, which need it,
    # come from a fresh process in test_fidelity_golden_file.
    closed_form_args = [arg for arg in GOLDEN_FIDELITY_ARGS if arg != "--all-routes"]
    commands = [
        ["--help"],
        ["bures", "--fidelity", "0.25"],
        closed_form_args,
        [*closed_form_args, "--csv"],
    ]
    run = "from tcsfidelity.cli import main; main(sys.argv[1:], prog_name='tcsfid')"
    for args in commands:
        stdout = []
        for numpy in ("import numpy", "sys.modules['numpy'] = None"):
            process = subprocess.run(
                [sys.executable, "-c", f"import sys; {numpy}; {run}", *args],
                capture_output=True,
            )
            assert process.returncode == 0, (args, numpy, process.stderr)
            stdout.append(process.stdout)
        assert stdout[0] and stdout[0] == stdout[1], args


def test_fidelity_golden_file():
    golden = (DATA_DIR / "fidelity_all_routes.json").read_bytes()
    assert run_cli(GOLDEN_FIDELITY_ARGS) == golden


def test_sweep_golden_file():
    golden = (DATA_DIR / "sweep.csv").read_bytes()
    assert run_cli(GOLDEN_SWEEP_ARGS) == golden


README_SWEEP_ARGS = [
    "sweep", "--n1", "0,0.5,1,2", "--n2", "0:2:5", "--dalpha", "0,0;1,0;1,1",
    "--cutoff", "80",
]


@pytest.mark.parametrize("args, points, qr_calls", [
    (GOLDEN_SWEEP_ARGS, 12, 4),
    # 20 occupancy pairs, of which 6 are another's mirror image: (n1, n2)
    # and (n2, n1) stack the same two factors.
    (README_SWEEP_ARGS, 60, 14),
], ids=["golden", "readme"])
def test_sweep_factors_each_occupancy_pair_once(runner, monkeypatch, args, points, qr_calls):
    # Both Gaussian routes run at every point, and their triangular factor
    # depends on the occupancies alone.
    calls = []
    qr = np.linalg.qr

    def counting(*qr_args, **kwargs):
        calls.append(None)
        return qr(*qr_args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting)
    result = invoke(runner, *args)
    assert result.exit_code == 0
    assert result.stdout.count(",gaussian_overlap,") == points
    assert len(calls) == qr_calls


def test_golden_fidelity_factors_once_in_a_fresh_process():
    # The two Gaussian routes of one point share one triangular factor.
    code = (
        "import sys, numpy as np; calls = []; qr = np.linalg.qr\n"
        "np.linalg.qr = lambda *a, **k: calls.append(None) or qr(*a, **k)\n"
        "from tcsfidelity.cli import main\n"
        "try:\n"
        "    main(sys.argv[1:], prog_name='tcsfid')\n"
        "finally:\n"
        "    print('qr calls', len(calls), file=sys.stderr)\n"
    )
    process = subprocess.run(
        [sys.executable, "-c", code, *GOLDEN_FIDELITY_ARGS],
        capture_output=True, check=True,
    )
    assert process.stdout == (DATA_DIR / "fidelity_all_routes.json").read_bytes()
    assert process.stderr == b"qr calls 1\n"


def test_golden_oracle_rows_match_closed_form(runner):
    # Both golden calls sit where the truncation tail is negligible, so the
    # oracle's deviation from the closed form is round-off alone.
    reports = json.loads(invoke(runner, *GOLDEN_FIDELITY_ARGS).stdout)["reports"]
    by_route = {report["route"]: report["fidelity"] for report in reports}
    assert abs(by_route["oracle"] - by_route["closed_form"]) <= 1e-14
    lines = invoke(runner, *GOLDEN_SWEEP_ARGS).stdout.splitlines()[1:]
    oracle_rows = [line.split(",") for line in lines if ",oracle," in line]
    assert len(oracle_rows) == 12
    assert all(float(fields[7]) <= 1e-14 for fields in oracle_rows)
