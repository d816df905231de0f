"""Output checks and failure accounting.

An operation fails when it raised, exited non-zero, or missed its documented
tolerance. Every check returns whether the operation passed and the caller
records it in a ``Tally`` under the operation's name.
"""

from __future__ import annotations

import json

from tcsfidelity import closed_form

from workloads import ANALYTIC_TOL, ORACLE_TOL, state

#: Bound at import, before a traced run rebinds the module attributes, so the
#: checks add no spans of their own.
_tcs_fidelity = closed_form.tcs_fidelity


def reference_fidelity(n1: float, alpha1: complex, n2: float, alpha2: complex) -> float:
    """Closed-form fidelity that outputs are checked against."""
    return _tcs_fidelity(state(n1, alpha1), state(n2, alpha2)).value


class Tally:
    """Attempted and failed operations per operation name."""

    def __init__(self, counts: dict | None = None) -> None:
        self.counts = {op: list(pair) for op, pair in (counts or {}).items()}

    def record(self, op: str, ok: bool) -> bool:
        pair = self.counts.setdefault(op, [0, 0])
        pair[0] += 1
        pair[1] += not ok
        return ok

    def merge(self, other: "Tally") -> None:
        for op, (attempted, failed) in other.counts.items():
            pair = self.counts.setdefault(op, [0, 0])
            pair[0] += attempted
            pair[1] += failed

    @property
    def attempted(self) -> int:
        return sum(pair[0] for pair in self.counts.values())

    @property
    def failed(self) -> int:
        return sum(pair[1] for pair in self.counts.values())


def within(route: str, value, reference: float) -> bool:
    """A route's fidelity (or the exception it raised) against the closed form."""
    if isinstance(value, BaseException):
        return False
    tol = ORACLE_TOL if route == "oracle" else ANALYTIC_TOL
    return abs(value - reference) <= tol


def check_bures(fidelity: float, returncode: int, stdout: bytes) -> bool:
    """``bures --fidelity f`` must print f and closed_form.bures_distance(f)."""
    if returncode != 0:
        return False
    try:
        payload = json.loads(stdout)
    except ValueError:
        return False
    return (
        payload.get("fidelity") == fidelity
        and payload.get("bures_distance") == closed_form.bures_distance(fidelity)
    )


def cli_route_values(returncode: int, stdout: bytes) -> dict:
    """Fidelity per route that ``fidelity --all-routes`` printed; empty when
    the call failed or printed no reports."""
    if returncode != 0:
        return {}
    try:
        return {r["route"]: r["fidelity"] for r in json.loads(stdout)["reports"]}
    except (ValueError, KeyError, TypeError):
        return {}


def check_golden(returncode: int, stdout: bytes, golden: bytes) -> bool:
    return returncode == 0 and stdout == golden
