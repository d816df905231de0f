"""Uhlmann fidelity between displaced thermal states.

Four mutually validating routes: the closed-form expression, the overlap
of the optimal two-mode Gaussian purifications, numerical maximization of
that overlap over the free mode-2 displacement, and a truncated Fock-space
matrix oracle. ``compute_route`` runs any of them by name, ``compare`` runs
several side by side, and ``ROUTES`` lists them in report order. Outside the
routes, the oracle takes a state as a plain array: the factor B of its
density matrix rho = B B^dag, which ``uhlmann_fidelity`` compares.

Every export and submodule loads on first use (PEP 562), so that
``import tcsfidelity`` imports no numpy: only ``fock_oracle``,
``gaussian_overlap`` and ``optimizer`` compute with it, and the closed form,
``states`` and ``routes`` load without them.
"""

import sys

__version__ = "0.1.0"

#: Submodule -> the names it exports, one entry per submodule.
_EXPORTS = {
    "closed_form": ["FidelityValue", "bures_distance", "optimal_beta", "tcs_fidelity",
                    "thermal_fidelity"],
    "fock_oracle": ["displaced_thermal_fidelity", "displaced_thermal_matrix",
                    "displacement_matrix", "schmidt_purification", "thermal_spectrum",
                    "uhlmann_fidelity"],
    "gaussian_overlap": ["OverlapResult", "pure_overlap"],
    "optimizer": ["OptimizationResult", "maximize_overlap", "purification_forms"],
    "routes": ["DEFAULT_CUTOFF", "MAX_OCCUPANCY", "ROUTES", "RouteResult", "compare",
               "compute_route"],
    "states": ["DisplacedThermalState", "GaussianForm", "PurificationSpec", "ThermalParams",
               "mean_occupancy_from_temperature", "purification_cf",
               "purification_gaussian_form"],
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    home = _HOME.get(name, name)
    if home not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, not importlib.import_module, so that -X importtime lists it.
    __import__(f"{__name__}.{home}")
    module = sys.modules[f"{__name__}.{home}"]
    return module if home == name else getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
