"""Command-line interface: fidelity routes, optimization, CF grids, and sweeps.

Results go to stdout as JSON or CSV; warnings and failure messages go to
stderr. Output is deterministic: identical invocations produce byte-identical
streams, and no timestamps or wall-clock values appear anywhere.

Exit codes: 0 success, 1 numerical failure, 2 usage error.
Every command is an ``ExitCodeCommand``, which maps library exceptions to them.
The values come from ``routes``; this module parses flags and formats results.

Importing it loads no numpy: ``bures``, the closed-form ``fidelity`` and
``--help`` run without it. The other routes load it on their first call, and
a 'start:stop:count' range when it is parsed.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import sys
from collections.abc import Callable
from typing import NoReturn

import click

from . import closed_form, routes, states

SCHEMA_VERSION = 1

#: Route names as the CLI spells them, in report order.
ROUTE_NAMES = tuple(name.replace("_", "-") for name in routes.ROUTES)


class ParsedParam(click.ParamType):
    """A flag value read by ``parse``, whose ValueError message is the usage error."""

    def __init__(self, name: str, parse: Callable[[str], object]) -> None:
        self.name = name
        self.parse = parse

    def convert(self, value, param, ctx):
        if not isinstance(value, str):  # already converted
            return value
        try:
            return self.parse(value)
        except ValueError as exc:
            self.fail(str(exc), param, ctx)


def _parse_complex(text: str) -> complex:
    """Complex number in the exact form 're,im' (one comma, no spaces)."""
    try:
        re_text, im_text = text.split(",")
        if " " not in text:
            return complex(float(re_text), float(im_text))
    except ValueError:
        pass
    raise ValueError(f"{text!r} is not of the form 're,im'")


def _parse_range(text: str) -> list[float]:
    """Evenly spaced grid in the form 'start:stop:count'."""
    try:
        start, stop, count = text.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError:
        raise ValueError(f"{text!r} is not of the form 'start:stop:count'") from None
    if not math.isfinite(stop - start):  # NaN, inf, or an overflowing span
        raise ValueError(f"{text!r} needs finite end points and span")
    if count < 1:
        raise ValueError("grid count must be >= 1")
    if count == 1 and start != stop:
        raise ValueError("a single-point grid needs start == stop")
    import numpy as np

    try:
        return [float(x) for x in np.linspace(start, stop, count)]
    except MemoryError as exc:
        raise MemoryError(f"grid {text!r} does not fit in memory: {exc}") from None


def _parse_real_list(text: str) -> list[float]:
    """Comma-separated reals 'a,b,c' or a range 'start:stop:count'."""
    if ":" in text:
        return _parse_range(text)
    try:
        values = [float(piece) for piece in text.split(",")]
    except ValueError:
        raise ValueError(f"{text!r} is not a comma-separated list of reals") from None
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{text!r} has a non-finite value")
    return values


COMPLEX = ParsedParam("re,im", _parse_complex)
RANGE = ParsedParam("start:stop:count", _parse_range)
REAL_LIST = ParsedParam("list|range", _parse_real_list)
# Semicolon-separated complex values 're,im;re,im;...'.
COMPLEX_LIST = ParsedParam(
    "re,im;...", lambda text: [_parse_complex(piece) for piece in text.split(";")]
)


def _echo(message: str, err: bool = False) -> None:
    """click.echo to the current sys.stdout, or sys.stderr if ``err``.

    Naming the stream skips click's default-stream cache. That cache is keyed
    weakly on the stream, but its value is the stream itself, so an entry
    never dies; under click's test runner every call brings fresh streams, and
    every in-process call would leak one.
    """
    click.echo(message, file=sys.stderr if err else sys.stdout)


def _emit_json(**fields) -> None:
    """The fields as one JSON object, after the schema version."""
    _echo(json.dumps({"schema": SCHEMA_VERSION, **fields}, indent=2))


#: The columns of ``fidelity --csv``: a report's fields but its diagnostics.
REPORT_COLUMNS = ("route", "fidelity", "bures_distance", "beta_star", "cutoff")

#: The columns of ``cf-grid``; the last two only with ``--oracle-check``.
CF_COLUMNS = ("re_l1", "im_l1", "re_l2", "im_l2", "re_chi", "im_chi",
              "re_chi_oracle", "im_chi_oracle")


def _echo_csv(columns: tuple[str, ...], rows: list[dict]) -> None:
    """A header, then each row's fields by str (a float's shortest round-trip
    repr), empty where the row has none and quoted where they hold a comma."""
    _echo(",".join(columns))
    for row in rows:
        fields = [str(row.get(column, "")) for column in columns]
        _echo(",".join(f'"{field}"' if "," in field else field for field in fields))


def _fail(message: str) -> NoReturn:
    _echo(f"error: {message}", err=True)
    sys.exit(1)


def _check_tolerance(ctx, param, value: float | None) -> float | None:
    # A NaN tolerance would switch the check off: ``x > nan`` is False.
    if value is not None and not (math.isfinite(value) and value >= 0.0):
        raise click.BadParameter(f"must be finite and >= 0, got {value!r}")
    return value


def _resolve_thermal(n: float | None, ratio: float | None, label: str) -> states.ThermalParams:
    if n is not None and ratio is not None:
        _echo(
            f"warning: both --{label} and its --temp-ratio flag given; using --{label}",
            err=True,
        )
    elif ratio is not None:
        n = states.mean_occupancy_from_temperature(ratio=ratio)
    return states.ThermalParams(n if n is not None else 0.0)


def _state_options(command):
    """Give ``command`` the flags of two states; it is called with the states."""
    @functools.wraps(command)
    def build_states(n1, n2, temp_ratio1, temp_ratio2, alpha1, alpha2, **flags):
        state1 = states.DisplacedThermalState(_resolve_thermal(n1, temp_ratio1, "n1"), alpha1)
        state2 = states.DisplacedThermalState(_resolve_thermal(n2, temp_ratio2, "n2"), alpha2)
        return command(state1, state2, **flags)

    decorators = [
        click.option("--n1", type=float, help="Mean occupancy of state 1."),
        click.option("--n2", type=float, help="Mean occupancy of state 2."),
        click.option("--temp-ratio1", type=float,
                     help="hbar*w/(k_B*T) for state 1; --n1 wins if both are given."),
        click.option("--temp-ratio2", type=float,
                     help="hbar*w/(k_B*T) for state 2; --n2 wins if both are given."),
        click.option("--alpha1", type=COMPLEX, default="0,0",
                     help="Displacement of state 1."),
        click.option("--alpha2", type=COMPLEX, default="0,0",
                     help="Displacement of state 2."),
    ]
    for decorator in reversed(decorators):
        build_states = decorator(build_states)
    return build_states


@contextlib.contextmanager
def _exit_codes(ctx: click.Context):
    """Map the library failures raised inside to ExitCodeCommand's exit codes."""
    try:
        yield
    except (ArithmeticError, MemoryError) as exc:
        # A MemoryError from a failed allocation may carry no message.
        _fail(str(exc) or type(exc).__name__)
    except ValueError as exc:
        raise click.UsageError(str(exc), ctx) from exc


class ExitCodeCommand(click.Command):
    """A command whose library failures follow the exit codes.

    A numerical failure (ArithmeticError) or a MemoryError, as from a cutoff
    or grid count whose arrays do not fit, exits 1 with an ``error:`` line;
    any other ValueError is an input outside the library's domain, a usage
    error that exits 2. Failures while the flags are read map the same way.
    """

    def parse_args(self, ctx: click.Context, args: list[str]) -> list[str]:
        with _exit_codes(ctx):
            return super().parse_args(ctx, args)

    def invoke(self, ctx: click.Context):
        with _exit_codes(ctx):
            return super().invoke(ctx)


@click.group()
def main() -> None:
    """Fidelity between displaced thermal states, with cross-validating routes."""


main.command_class = ExitCodeCommand


@main.command()
@_state_options
@click.option(
    "--route",
    type=click.Choice(ROUTE_NAMES),
    default="closed-form",
    help="Computation route.",
)
@click.option("--all-routes", is_flag=True, help="Run every route and compare.")
@click.option(
    "--cutoff",
    type=int,
    default=routes.DEFAULT_CUTOFF,
    show_default=True,
    help="Fock truncation for the oracle route.",
)
@click.option(
    "--tol",
    type=float,
    callback=_check_tolerance,
    help="With --all-routes: exit 1 if the max pairwise discrepancy exceeds this.",
)
@click.option("--json/--csv", "emit_json", default=True, help="Output format.")
def fidelity(state1, state2, route, all_routes, cutoff, tol, emit_json):
    """Fidelity and Bures distance between two displaced thermal states."""
    names = routes.ROUTES if all_routes else [route.replace("-", "_")]
    results = routes.compare(state1, state2, names, cutoff)
    reports = [result.report() for result in results.values()]
    # Rounding is monotone, so max - min is the largest pairwise |a - b|; a
    # single route gives 0, which never breaches --tol.
    fidelities = [report["fidelity"] for report in reports]
    discrepancy = max(fidelities) - min(fidelities)
    if not emit_json:
        _echo_csv(REPORT_COLUMNS, reports)
    elif all_routes:
        _emit_json(reports=reports, max_pairwise_discrepancy=discrepancy)
    else:
        _emit_json(**reports[0])
    if tol is not None and discrepancy > tol:
        _fail(f"route discrepancy {discrepancy!r} > {tol!r}")


@main.command()
@_state_options
def optimize(state1, state2):
    """Maximize the purification overlap numerically and compare with the
    analytic optimum."""
    result = routes.compute_route("purification_optimized", state1, state2)
    analytic = closed_form.optimal_beta(state1, state2)
    _emit_json(
        **result.report(),
        beta_analytic=routes.format_complex(analytic),
        beta_deviation=abs(result.beta_star - analytic),
    )


@main.command(name="cf-grid")
@click.option("--n", type=float, help="Mean occupancy.")
@click.option("--temp-ratio", type=float,
              help="hbar*w/(k_B*T); --n wins if both are given.")
@click.option("--alpha", type=COMPLEX, default="0,0", help="Mode-1 displacement.")
@click.option("--beta", type=COMPLEX, default="0,0", help="Mode-2 displacement.")
@click.option("--l1-re", type=RANGE, default="0:0:1", help="Grid over Re lambda1.")
@click.option("--l1-im", type=RANGE, default="0:0:1", help="Grid over Im lambda1.")
@click.option("--l2-re", type=RANGE, default="0:0:1", help="Grid over Re lambda2.")
@click.option("--l2-im", type=RANGE, default="0:0:1", help="Grid over Im lambda2.")
@click.option("--oracle-check", type=int, metavar="N",
              help="Also evaluate the Fock-oracle CF at cutoff N and report the deviation.")
@click.option("--tol", type=float, callback=_check_tolerance,
              help="With --oracle-check: exit 1 if the max deviation exceeds this.")
def cf_grid(n, temp_ratio, alpha, beta, l1_re, l1_im, l2_re, l2_im, oracle_check, tol):
    """Tabulate the purification characteristic function on a lambda grid (CSV)."""
    spec = states.PurificationSpec(_resolve_thermal(n, temp_ratio, "n"), alpha, beta)
    lambdas1 = [complex(re1, im1) for re1 in l1_re for im1 in l1_im]
    lambdas2 = [complex(re2, im2) for re2 in l2_re for im2 in l2_im]
    if oracle_check is not None and oracle_check < 1:
        raise click.UsageError("--oracle-check cutoff must be >= 1")
    # Every value is computed before the first row is printed, so a numerical
    # failure leaves stdout empty.
    table, oracle, worst = routes.cf_grid(spec, lambdas1, lambdas2, oracle_check)
    rows = []
    for i, l1 in enumerate(lambdas1):
        for j, l2 in enumerate(lambdas2):
            values = [l1, l2, table[i][j], *([] if oracle is None else [oracle[i][j]])]
            rows.append(dict(zip(CF_COLUMNS, (x for z in values for x in (z.real, z.imag)))))
    _echo_csv(CF_COLUMNS[:len(rows[0])], rows)
    if worst is not None:
        _echo(f"# max_abs_deviation={worst!r}")
        if tol is not None and worst > tol:
            _fail(f"CF deviation {worst!r} > {tol!r}")


@main.command()
@click.option("--n1", type=REAL_LIST, default="0", help="Occupancies of state 1.")
@click.option("--n2", type=REAL_LIST, default="0", help="Occupancies of state 2.")
@click.option("--dalpha", type=COMPLEX_LIST, default="0,0",
              help="Displacement differences, 're,im;re,im;...'.")
@click.option("--alpha1", type=COMPLEX, default="0,0",
              help="Base displacement of state 1; state 2 sits at alpha1 + dalpha.")
@click.option("--routes", "route_names", default="all",
              help="Comma-separated routes, or 'all'.")
@click.option("--cutoff", type=int, default=routes.DEFAULT_CUTOFF,
              show_default=True)
@click.option("--json/--csv", "emit_json", default=False, help="Output format.")
def sweep(n1, n2, dalpha, alpha1, route_names, cutoff, emit_json):
    """Fidelity over a parameter grid, one row per grid point per route (CSV).

    Rows are ordered lexicographically in (n1, n2, Re dalpha, Im dalpha) and
    then by route name; the discrepancy column compares each route against the
    closed form.
    """
    selected = sorted(ROUTE_NAMES if route_names == "all" else set(route_names.split(",")))
    unknown = [name for name in selected if name not in ROUTE_NAMES]
    if unknown:
        raise click.UsageError(f"unknown routes {unknown}; valid: {', '.join(ROUTE_NAMES)}")
    selected = [name.replace("-", "_") for name in selected]
    rows = routes.sweep(n1, n2, dalpha, alpha1, selected, cutoff)
    if emit_json:
        _emit_json(rows=rows)
    else:
        _echo_csv(routes.SWEEP_COLUMNS, rows)


@main.command()
@click.option("--fidelity", "fidelity_value", type=float, required=True,
              help="Transition probability in (0, 1].")
def bures(fidelity_value):
    """Bures distance for a given fidelity."""
    _emit_json(fidelity=fidelity_value,
               bures_distance=closed_form.bures_distance(fidelity_value))


if __name__ == "__main__":
    main()
