"""Span recording around the public calls of each package layer.

The tracer rebinds module attributes to wrappers that record a span per
call: name, start, end, parent span, point id, and for a few layers a detail
(the (alpha, cutoff) argument of ``displacement_matrix``, the iteration
count of ``maximize_overlap``). Spans stay in memory until ``write``.
Only the traced run installs it; untraced runs call the library unwrapped.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np

from tcsfidelity import closed_form, fock_oracle, gaussian_overlap, optimizer, states

NAME, START, END, PARENT, POINT, DETAIL, FAILED = range(7)


def _displacement_key(alpha, cutoff):
    return (complex(alpha), int(cutoff))


def _iterations_and_failure(result):
    return result.iterations, not result.converged


#: (module, attribute, span name, detail from the arguments, detail and
#: failure from the result).
TRACED = (
    (fock_oracle, "displacement_matrix", "fock_oracle.displacement_matrix",
     _displacement_key, None),
    (fock_oracle, "displaced_thermal_matrix", "fock_oracle.displaced_thermal_matrix",
     None, None),
    (fock_oracle, "uhlmann_fidelity", "fock_oracle.uhlmann_fidelity", None, None),
    (np.linalg, "eigh", "numpy.linalg.eigh", None, None),
    (np.linalg, "svd", "numpy.linalg.svd", None, None),
    (closed_form, "tcs_fidelity", "closed_form.tcs_fidelity", None, None),
    (closed_form, "optimal_beta", "closed_form.optimal_beta", None, None),
    (states, "purification_gaussian_form", "states.purification_gaussian_form",
     None, None),
    (gaussian_overlap, "pure_overlap", "gaussian_overlap.pure_overlap", None, None),
    (optimizer, "maximize_overlap", "optimizer.maximize_overlap", None, _iterations_and_failure),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.point = -1
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def _wrap(self, original, name, from_args, from_result):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            detail = from_args(*args, **kwargs) if from_args else None
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1,
                    self.point, detail, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if from_result:
                span[DETAIL], span[FAILED] = from_result(result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, from_args, from_result in TRACED:
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, from_args, from_result))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def write(self, path) -> None:
        """One JSON list per span: name, start, end, parent, point id."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span[:POINT + 1]) + "\n")

    def metrics(self, points_per_process: int | None) -> dict:
        """Per-layer counts and times, in the units BENCHMARK.json declares,
        over the spans of points (point id >= 0).

        ``distinct_ratio`` counts distinct displacement arguments within each
        run of ``points_per_process`` consecutive points, the share a cache
        inside one program process could reuse; None means one process.
        """
        calls = defaultdict(int)
        busy = defaultdict(float)
        child = defaultdict(float)
        failed = defaultdict(int)
        detail_sum = defaultdict(float)
        keys = []
        for span in self.spans:
            if span[POINT] < 0:
                continue
            name = span[NAME]
            duration = span[END] - span[START]
            calls[name] += 1
            busy[name] += duration
            failed[name] += span[FAILED]
            if span[PARENT] >= 0:
                child[self.spans[span[PARENT]][NAME]] += duration
            if name == "optimizer.maximize_overlap" and span[DETAIL] is not None:
                detail_sum[name] += span[DETAIL]
            if name == "fock_oracle.displacement_matrix":
                process = span[POINT] // points_per_process if points_per_process else 0
                keys.append((process, span[DETAIL]))

        def self_ms(name):
            return 1e3 * (busy[name] - child[name])

        dm = "fock_oracle.displacement_matrix"
        dtm = "fock_oracle.displaced_thermal_matrix"
        uf = "fock_oracle.uhlmann_fidelity"
        po = "gaussian_overlap.pure_overlap"
        mo = "optimizer.maximize_overlap"
        return {
            f"{dm}.calls": calls[dm],
            f"{dm}.busy_ms": 1e3 * busy[dm],
            f"{dm}.distinct_ratio": len(set(keys)) / len(keys) if keys else 0.0,
            f"{dm}.computed_mb": sum(16e-6 * c * c for _, (_, c) in keys),
            f"{dtm}.calls": calls[dtm],
            f"{dtm}.self_ms": self_ms(dtm),
            f"{uf}.calls": calls[uf],
            f"{uf}.self_ms": self_ms(uf),
            f"{uf}.failed": failed[uf],
            "numpy.linalg.eigh.busy_ms": 1e3 * busy["numpy.linalg.eigh"],
            "numpy.linalg.svd.busy_ms": 1e3 * busy["numpy.linalg.svd"],
            "closed_form.tcs_fidelity.calls": calls["closed_form.tcs_fidelity"],
            "closed_form.tcs_fidelity.busy_ms": 1e3 * busy["closed_form.tcs_fidelity"],
            "closed_form.optimal_beta.busy_ms": 1e3 * busy["closed_form.optimal_beta"],
            "states.purification_gaussian_form.busy_ms":
                1e3 * busy["states.purification_gaussian_form"],
            f"{po}.calls": calls[po],
            f"{po}.busy_ms": 1e3 * busy[po],
            f"{po}.failed": failed[po],
            f"{mo}.calls": calls[mo],
            f"{mo}.busy_ms": 1e3 * busy[mo],
            f"{mo}.iterations": detail_sum[mo],
            f"{mo}.failed": failed[mo],
            "trace.spans": len(self.spans),
        }
