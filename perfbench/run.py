"""tcsfidelity benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a checkout of the repository; the package is
imported from the checkout's ``src``. Every process, this one included, runs
with BLAS pinned to one thread. The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
line before it is a ``report`` object with the environment, the per-operation
failure counts and the input properties; the same report, and the spans of
a traced run, are written to ``perfbench/out/``.

Workloads (each one client, closed loop):

* ``cli_startup``: the CLI's cold start (set-up is ``import
  tcsfidelity.cli``), then ``bures --fidelity <seeded>`` and ``fidelity
  --all-routes`` on fresh seeded states at cutoff 80, invoked in-process,
  one pair per point; each worker first checks the golden call's bytes.
* ``sweep_shared``: in-process, the library calls ``sweep`` makes, all four
  routes at cutoff 80, on one fresh seeded 1 x 9 x 5 grid after another;
  each grid shares 5 displacement arguments among its 90 displacement
  matrices. A point is one output row.

A run is correct when no operation fails: every route within its
documented tolerance of the closed form, every CLI call exiting 0 with the
expected output.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # before anything imports numpy

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "data" / "fidelity_all_routes.json"
WORKER = HERE / "worker.py"
OUT = HERE / "out"

sys.path.insert(0, str(SRC))
try:
    import numpy as np

    import checks
    import workloads as wl
except ImportError as exc:
    sys.exit(f"error: cannot import tcsfidelity from {SRC}: {exc}")

#: Workers an in-process run is split into, one after another, each a cold
#: start that continues the input stream where the last one stopped, so
#: that setup_s samples set-up across the whole run.
WORKERS = 8
IMPORTTIME_SAMPLES = 3
#: No single child may outlive this, so a run ends within its time limit.
CHILD_TIMEOUT_S = 100

#: Modules whose cumulative import time ``-X importtime`` reports, by metric.
IMPORT_METRICS = {
    "cli": "tcsfidelity.cli",
    "tcsfidelity": "tcsfidelity",
    "states": "tcsfidelity.states",
    "closed_form": "tcsfidelity.closed_form",
    "fock_oracle": "tcsfidelity.fock_oracle",
    "gaussian_overlap": "tcsfidelity.gaussian_overlap",
    "optimizer": "tcsfidelity.optimizer",
    "scipy.linalg": "scipy.linalg",
    "scipy.optimize": "scipy.optimize",
    "numpy": "numpy",
    "click": "click",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return env


def run_child(argv: list[str]) -> tuple[float, int, bytes, bytes]:
    """Wall time, exit code, stdout and stderr of one child process.

    A child that times out is killed, waited for, and reported with exit
    code -1.
    """
    began = time.perf_counter()
    try:
        proc = subprocess.run(argv, capture_output=True, env=child_env(),
                              timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as exc:
        code, out, err = -1, exc.stdout or b"", exc.stderr or b""
    return time.perf_counter() - began, code, out, err


def worker(*args: str) -> dict:
    """Start a worker and return its result; ``setup_s`` is the time from
    starting it to the end of its set-up import."""
    started = time.monotonic()
    _, code, out, err = run_child([sys.executable, str(WORKER), *args])
    if code != 0:
        raise RuntimeError(f"worker {args} exited {code}: {err.decode()[-2000:]}")
    result = json.loads(out.splitlines()[-1])
    result["setup_s"] = result["imported_at"] - started
    return result


# ---------------------------------------------------------------------------
# end-to-end runs (--trace 0)
#
# On a shared 2-vCPU virtual machine the same work runs at one of two
# speeds, about 1.7 times apart, switching every few seconds as other
# tenants load the machine; some stretches of half a minute see only the
# slow one. Medians follow that mix. The fastest of many short windows
# (under 0.1 s of work each) does not: almost every run holds a few in the
# fast state. So setup_s is the median of cold starts spread over the run,
# as the benchmark contract asks, and points_per_s comes from the fastest
# windows. Each window holds the same number of fresh points from one
# distribution, so a slowdown of the program shows in every window, and so
# in the fastest ones. A workload's repeating unit of work, one sweep call's
# grid in sweep_shared, is a cycle of windows. The first window of a cycle
# fills what a cache could reuse (the grid's displacement arguments) and the
# others are alike, so the cycle's time is its first window at its fastest
# plus the others at theirs.
# ---------------------------------------------------------------------------

def best_rate(results: list[dict]) -> float:
    """Output units per second of the workers' best cycle, from the fastest
    first window and the fastest other window over all their cycles."""
    cycle = results[0]["cycle"]
    windows = [(i % cycle == 0, w) for r in results for i, w in enumerate(r["windows"])]
    first = min(w for is_first, w in windows if is_first)
    rest = min((w for is_first, w in windows if not is_first), default=0.0)
    return results[0]["window_units"] * cycle / (first + (cycle - 1) * rest)


def e2e_in_process(workload: str, seed: int, seconds: float, tally) -> tuple[dict, dict]:
    """The run's points split among WORKERS cold-started workers in turn."""
    results = []
    points = 0
    for _ in range(WORKERS):
        result = worker("--workload", workload, "--seed", str(seed), "--start", str(points),
                        "--seconds", str(seconds / WORKERS))
        results.append(result)
        points += result["points"]
    for result in results:
        tally.merge(checks.Tally(result["tally"]))
    return {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "points_per_s": best_rate(results),
        "peak_rss_mb": max(r["maxrss_kb"] for r in results) / 1024.0,
    }, {"points": points}


# ---------------------------------------------------------------------------
# traced runs (--trace 1)
# ---------------------------------------------------------------------------

def import_times() -> dict:
    """Median cumulative import time per module, in ms, over fresh processes
    running ``python -X importtime -c "import tcsfidelity.cli"``; 0 for a
    module that import no longer loads."""
    samples = {metric: [] for metric in IMPORT_METRICS}
    for _ in range(IMPORTTIME_SAMPLES):
        _, code, _, err = run_child(
            [sys.executable, "-X", "importtime", "-c", "import tcsfidelity.cli"])
        if code != 0:
            raise RuntimeError(f"importing tcsfidelity.cli failed: {err.decode()[-2000:]}")
        cumulative = {}
        for line in err.decode().splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                cumulative[fields[2].strip()] = int(fields[1]) / 1e3
        for metric, module in IMPORT_METRICS.items():
            samples[metric].append(cumulative.get(module, 0.0))
    return {f"{metric}.import_ms": statistics.median(values)
            for metric, values in samples.items()}


def traced(workload: str, seed: int, seconds: float, tally) -> dict:
    """Import breakdown, then the workload's in-process replay twice in
    fresh workers, untraced and traced, half the run each."""
    OUT.mkdir(exist_ok=True)
    metrics = import_times()
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds / 2)]
    plain = worker(*common)
    spans = OUT / f"spans-{workload}-seed{seed}.jsonl"
    result = worker(*common, "--trace", "1", "--spans", str(spans))
    for run in (plain, result):
        tally.merge(checks.Tally(run["tally"]))
    traced_rate = best_rate([result])
    plain_rate = best_rate([plain])
    metrics.update(result["layers"])
    metrics.update({
        "trace.points_per_s": traced_rate,
        "trace.untraced_points_per_s": plain_rate,
        "trace.overhead_points_per_s": traced_rate - plain_rate,
    })
    return metrics, {
        "points": plain["points"] + result["points"],
        "spans": str(spans.relative_to(ROOT)),
    }


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def environment(seed: int) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "seed": seed,
    }


def inputs(workload: str, seed: int, points: int) -> dict:
    """Input properties of the ``points`` a run attempted, and a digest of
    the seeded inputs (the first chunk of the workload's stream)."""
    used = [p[:5] for p, _ in zip(wl.stream(workload, seed), range(points))]
    # The displacement arguments one sweep call's process could share.
    per_process = used[:wl.SWEEP_POINTS] if workload == "sweep_shared" else used
    return {
        "points": points,
        "repeated_share": wl.repeated_share(wl.displacement_calls(per_process)),
        "digest": wl.digest(wl.CHUNKS[workload](seed, 0)),
    }


def layer_report_metrics(report: dict, tally) -> dict:
    """Failure metrics of a traced run and the input property a cache claim
    cites; the rest of the report stays in the report line."""
    metrics = {
        "fail_ratio": tally.failed / tally.attempted,
        "inputs.repeated_share": report["inputs"]["repeated_share"],
    }
    for op in wl.ALL_ROUTES + ("bures_cli", "golden_cli"):
        metrics[f"checks.{op}.failed"] = tally.counts.get(op, (0, 0))[1]
    return metrics


def declared_units(trace: int) -> dict:
    """Unit of every metric BENCHMARK.json declares for this kind of run."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    package = Path(checks.closed_form.__file__).resolve().parent
    if package != SRC / "tcsfidelity" or not GOLDEN.is_file():
        print(f"error: not a tcsfidelity checkout at {ROOT}", file=sys.stderr)
        return 2
    units = declared_units(args.trace)
    tally = checks.Tally()
    if args.trace:
        metrics, info = traced(args.workload, args.seed, args.seconds, tally)
    else:
        metrics, info = e2e_in_process(args.workload, args.seed, args.seconds, tally)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "points": info["points"],
        "spans": info.get("spans"),
        "env": environment(args.seed),
        "operations": tally.counts,
        "inputs": inputs(args.workload, args.seed, info["points"]),
    }
    if args.trace:
        metrics.update(layer_report_metrics(report, tally))
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(metrics) ^ set(units)}")
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"report": report, "metrics": metrics}, indent=1))
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
