"""In-process worker: runs one workload's points in a closed loop.

Started by run.py with the package on PYTHONPATH and BLAS pinned to one
thread. Prints one JSON object on its last stdout line, which includes
when the worker's set-up import ended: that is how run.py measures the
worker's set-up time. The set-up is ``import tcsfidelity.cli`` for
cli_startup, whose points are CLI invocations, and ``import tcsfidelity``
otherwise.

The loop times its points in windows of ``Replay.window`` consecutive points
and reports each window's busy time; run.py turns the fastest windows into
the run's throughput.
"""

import sys
import time

if "cli_startup" in sys.argv:
    import tcsfidelity.cli  # noqa: F401
else:
    import tcsfidelity  # noqa: F401

IMPORTED_AT = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

from click.testing import CliRunner  # noqa: E402

import workloads as wl  # noqa: E402
from checks import (  # noqa: E402
    Tally, check_bures, check_golden, cli_route_values, reference_fidelity, within,
)
from spans import Tracer  # noqa: E402

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "data" / "fidelity_all_routes.json"


class Replay:
    """Points, their library calls and their checks for one workload.

    ``evaluate`` is the timed part and returns each route's fidelity (or the
    exception it raised); ``check`` runs outside the timer and records every
    route in the tally. A point starts with (n1, alpha1, n2, alpha2).
    ``units`` is what points_per_s counts per point (sweep rows for
    sweep_shared, one otherwise); ``points_per_process`` is how many consecutive points one
    program process would handle, one sweep call for sweep_shared (None:
    the whole run). ``window`` is how many consecutive points one timing
    window holds, and ``cycle`` how many windows make up one repeating unit
    of work, one sweep call's grid for sweep_shared. ``preflight`` runs
    untimed checks before the loop.
    """

    units = 1
    points_per_process = None
    window = 1
    cycle = 1

    def __init__(self, seed: int, start: int) -> None:
        self.seed = seed
        self.start = start

    def preflight(self, tally) -> None:
        pass

    def check(self, point, values, tally) -> None:
        reference = reference_fidelity(*point[:4])
        for route, value in values.items():
            tally.record(route, within(route, value, reference))


class CliStartupReplay(Replay):
    """Per point, ``bures --fidelity <seeded>`` and ``fidelity --all-routes``
    on fresh seeded states, invoked in-process through click's test runner
    and checked against the closed form. Before its loop each worker checks
    the golden ``fidelity --all-routes`` call byte for byte."""

    #: About 0.07 s of work.
    window = 5

    def __init__(self, seed, start):
        super().__init__(seed, start)
        self.runner = CliRunner()

    def preflight(self, tally):
        golden = self.runner.invoke(tcsfidelity.cli.main, wl.GOLDEN_ARGS)
        tally.record("golden_cli", check_golden(
            golden.exit_code, golden.stdout_bytes, GOLDEN.read_bytes()))

    def points(self):
        return wl.stream("cli_startup", self.seed, self.start)

    def evaluate(self, point):
        n1, a1, n2, a2, _, fidelity = point
        main = tcsfidelity.cli.main
        return {
            "bures_cli": self.runner.invoke(main, ["bures", "--fidelity", repr(fidelity)]),
            "fidelity_cli": self.runner.invoke(main, wl.fidelity_args(n1, a1, n2, a2)),
        }

    def check(self, point, values, tally):
        bures, call = values["bures_cli"], values["fidelity_cli"]
        tally.record("bures_cli", check_bures(point[5], bures.exit_code, bures.stdout_bytes))
        reported = cli_route_values(call.exit_code, call.stdout_bytes)
        reference = reference_fidelity(*point[:4])
        for route in wl.ALL_ROUTES:
            tally.record(route, within(
                route, reported.get(route, ValueError(f"no {route} report")), reference))


class SweepReplay(Replay):
    """The library calls ``sweep`` makes per grid point: the closed form it
    reports discrepancies against, then all four routes at N = 80. A window
    is one row of a sweep call's grid, a cycle the whole grid."""

    units = len(wl.ALL_ROUTES)
    window = wl.SWEEP_ROW
    cycle = wl.SWEEP_POINTS // wl.SWEEP_ROW
    points_per_process = wl.SWEEP_POINTS

    def points(self):
        return wl.stream("sweep_shared", self.seed, self.start)

    def evaluate(self, point):
        n1, a1, n2, a2, cutoff = point
        s1, s2 = wl.state(n1, a1), wl.state(n2, a2)
        tcsfidelity.closed_form.tcs_fidelity(s1, s2)
        return wl.run_routes(sorted(wl.ALL_ROUTES), s1, s2, cutoff)


REPLAYS = {
    "cli_startup": CliStartupReplay,
    "sweep_shared": SweepReplay,
}


def run(workload: str, seed: int, start: int, seconds: float,
        tracer: Tracer | None) -> dict:
    """Closed loop over the workload's points, from point ``start`` on, for
    ``seconds`` of wall time.

    The loop only stops between cycles, so every cycle is whole.
    """
    replay = REPLAYS[workload](seed, start)
    tally = Tally()
    windows = []
    replay.preflight(tally)
    start = time.perf_counter()
    for index, point in enumerate(replay.points()):
        if index % (replay.window * replay.cycle) == 0 and time.perf_counter() - start >= seconds:
            break
        if index % replay.window == 0:
            windows.append(0.0)
        if tracer:
            tracer.point = index
        began = time.perf_counter()
        values = replay.evaluate(point)
        windows[-1] += time.perf_counter() - began
        if tracer:
            tracer.point = -1  # what the checks call is not the point's work
        replay.check(point, values, tally)
    points = len(windows) * replay.window
    result = {
        "imported_at": IMPORTED_AT,
        "points": points,
        "window_units": replay.units * replay.window,
        "windows": windows,
        "cycle": replay.cycle,
        "tally": tally.counts,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        result["layers"] = tracer.metrics(replay.points_per_process)
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(REPLAYS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, help="Where the traced run writes its spans.")
    parser.add_argument("--start", type=int, default=0,
                        help="Index of the first point of the stream to run.")
    args = parser.parse_args()
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        result = run(args.workload, args.seed, args.start, args.seconds, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    if tracer and args.spans:
        tracer.write(args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
