"""Seeded inputs, per-point library calls and input-property reports.

Every input stream is a concatenation of chunks; chunk ``i`` is drawn from
``numpy.random.default_rng([seed, i])``, so the same seed gives the same
stream however far a run gets into it, and the digest of the first chunk
identifies the stream.

The per-point functions call the library through its module attributes
(``fock_oracle.displaced_thermal_matrix`` and so on), which is what lets the
traced run rebind those attributes and see every call, including the ones
``displaced_thermal_matrix`` makes to ``displacement_matrix``.
"""

from __future__ import annotations

import hashlib

import numpy as np

from tcsfidelity import closed_form, fock_oracle, gaussian_overlap, optimizer, states

WORKLOADS = ("cli_startup", "sweep_shared")

#: Cutoff of the sweep and of the CLI's fidelity calls, as in the golden call.
CLI_CUTOFF = 80
#: Points of one sweep_shared chunk: 1 n1 x 9 n2 x 5 dalpha, one row of 5
#: dalpha per n2.
SWEEP_ROW = 5
SWEEP_POINTS = 9 * SWEEP_ROW
#: Points per cli_startup chunk.
CHUNK = 384

#: Documented agreement of the analytic routes (README) and of the Fock
#: oracle at N >= 80 with the closed form, as absolute fidelity differences.
ANALYTIC_TOL = 1e-12
ORACLE_TOL = 1e-6

GOLDEN_ARGS = [
    "fidelity", "--n1", "1", "--alpha1", "0.3,-0.2",
    "--n2", "0.5", "--alpha2", "1.3,0.8", "--all-routes", "--cutoff", "80",
]

#: Route identifiers in the order ``fidelity --all-routes`` reports them.
ALL_ROUTES = ("closed_form", "oracle", "purification_optimized", "gaussian_overlap")


def _rng(seed: int, chunk: int) -> np.random.Generator:
    return np.random.default_rng([seed, chunk])


def _disk(rng: np.random.Generator, radius: float, size) -> np.ndarray:
    """Points uniform in the complex disk |z| <= radius."""
    r = radius * np.sqrt(rng.random(size))
    return r * np.exp(2j * np.pi * rng.random(size))


def state(n: float, alpha: complex) -> states.DisplacedThermalState:
    return states.DisplacedThermalState(states.ThermalParams(float(n)), complex(alpha))


# ---------------------------------------------------------------------------
# input streams
# ---------------------------------------------------------------------------

def cli_chunk(seed: int, index: int) -> list[tuple]:
    """(n1, alpha1, n2, alpha2, cutoff, fidelity): the states of one
    ``fidelity --all-routes`` call, occupancies in [0, 2] and |alpha| <= 1.5
    at the CLI cutoff, and a fidelity in (0, 1] for one ``bures`` call. No
    displacement argument repeats.
    """
    rng = _rng(seed, index)
    n = rng.uniform(0.0, 2.0, (CHUNK, 2))
    alpha = _disk(rng, 1.5, (CHUNK, 2))
    fidelity = 1.0 - rng.random(CHUNK)
    return [
        (float(n[i, 0]), complex(alpha[i, 0]), float(n[i, 1]), complex(alpha[i, 1]),
         CLI_CUTOFF, float(fidelity[i]))
        for i in range(CHUNK)
    ]


def fidelity_args(n1: float, alpha1: complex, n2: float, alpha2: complex) -> list[str]:
    """Arguments of ``fidelity --all-routes`` for two states at the CLI cutoff."""
    return [
        "fidelity", "--n1", repr(n1), f"--alpha1={alpha1.real!r},{alpha1.imag!r}",
        "--n2", repr(n2), f"--alpha2={alpha2.real!r},{alpha2.imag!r}",
        "--all-routes", "--cutoff", str(CLI_CUTOFF),
    ]


def sweep_chunk(seed: int, index: int) -> list[tuple]:
    """One ``sweep`` call's grid, (n1, alpha1, n2, alpha2, cutoff) per point:
    one n1 and 9 n2 values in [0, 2], times 5 dalpha (the first 0,
    |dalpha| <= 2) from a base displacement 0.5 <= |alpha1| <= 1.5, at the
    sweep cutoff. Its 45 points share 5 distinct displacement arguments; no
    argument recurs in another chunk.
    """
    rng = _rng(seed, index)
    n1 = float(rng.uniform(0.0, 2.0))
    n2 = sorted(float(v) for v in rng.uniform(0.0, 2.0, 9))
    dalpha = [0j] + [complex(z) for z in _disk(rng, 2.0, 4)]
    alpha1 = complex(rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.random()))
    return [(n1, alpha1, v2, alpha1 + d, CLI_CUTOFF) for v2 in n2 for d in dalpha]


CHUNKS = {"cli_startup": cli_chunk, "sweep_shared": sweep_chunk}


def stream(workload: str, seed: int, start: int = 0):
    """Endless seeded point stream of a workload, from point ``start`` on."""
    index = 0
    while True:
        chunk = CHUNKS[workload](seed, index)
        yield from chunk[start:]
        start = max(start - len(chunk), 0)
        index += 1


def digest(items) -> str:
    return hashlib.sha256(repr(list(items)).encode()).hexdigest()


# ---------------------------------------------------------------------------
# per-point library calls
# ---------------------------------------------------------------------------

NUMERICAL_ERRORS = (ValueError, ArithmeticError)


def closed_form_fidelity(s1, s2, cutoff=None) -> float:
    return closed_form.tcs_fidelity(s1, s2).value


def oracle_fidelity(s1, s2, cutoff: int) -> float:
    rho1 = fock_oracle.displaced_thermal_matrix(s1, cutoff)
    rho2 = fock_oracle.displaced_thermal_matrix(s2, cutoff)
    return fock_oracle.uhlmann_fidelity(rho1, rho2)


def gaussian_fidelity(s1, s2, cutoff=None) -> float:
    beta = closed_form.optimal_beta(s1, s2)
    reference = states.PurificationSpec(s1.thermal, s1.displacement, 0j)
    free = states.PurificationSpec(s2.thermal, s2.displacement, beta)
    return gaussian_overlap.pure_overlap(
        states.purification_gaussian_form(reference),
        states.purification_gaussian_form(free),
    ).value


def newton_fidelity(s1, s2, cutoff=None) -> float:
    result = optimizer.maximize_overlap(s1, s2, optimizer.OptimizerConfig(max_iters=200))
    if not result.converged:
        raise ArithmeticError("optimizer did not converge")
    return result.value


#: Route identifier -> f(state1, state2, cutoff); only the oracle uses the cutoff.
ROUTE_CALLS = {
    "closed_form": closed_form_fidelity,
    "oracle": oracle_fidelity,
    "purification_optimized": newton_fidelity,
    "gaussian_overlap": gaussian_fidelity,
}


def run_routes(routes, s1, s2, cutoff: int | None = None) -> dict:
    """Fidelity per route, or the numerical exception the route raised."""
    values = {}
    for route in routes:
        try:
            values[route] = ROUTE_CALLS[route](s1, s2, cutoff)
        except NUMERICAL_ERRORS as exc:
            values[route] = exc
    return values


# ---------------------------------------------------------------------------
# input-property report
# ---------------------------------------------------------------------------

def displacement_calls(points) -> list[tuple]:
    """(alpha, cutoff) of every displacement_matrix call the oracle route
    makes for ``points`` of (n1, alpha1, n2, alpha2, cutoff)."""
    return [
        (alpha, cutoff)
        for _, a1, _, a2, cutoff in points
        for alpha in (a1, a2)
        if alpha != 0
    ]


def repeated_share(calls) -> float:
    """Share of displacement_matrix calls whose (alpha, cutoff) argument an
    earlier call in ``calls`` already had: what a cache could reuse."""
    return 1.0 - len(set(calls)) / len(calls) if calls else 0.0
