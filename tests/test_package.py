"""Tests for the package surface: every export loads on first use."""

import json
import subprocess
import sys

import pytest

import tcsfidelity
from tcsfidelity import routes
from tcsfidelity.states import DisplacedThermalState, ThermalParams

#: The public names, as the package exported them when it imported eagerly.
PUBLIC = {
    "DEFAULT_CUTOFF", "MAX_OCCUPANCY", "ROUTES", "DisplacedThermalState", "FidelityValue",
    "GaussianForm", "OptimizationResult", "OverlapResult", "PurificationSpec",
    "RouteResult", "ThermalParams", "bures_distance", "compare", "compute_route",
    "displaced_thermal_fidelity", "displaced_thermal_matrix", "displacement_matrix",
    "maximize_overlap", "mean_occupancy_from_temperature", "optimal_beta", "pure_overlap",
    "purification_cf", "purification_forms", "purification_gaussian_form",
    "schmidt_purification", "tcs_fidelity", "thermal_fidelity", "thermal_spectrum",
    "uhlmann_fidelity",
}
SUBMODULES = ("closed_form", "fock_oracle", "gaussian_overlap", "optimizer", "routes", "states")


def run_fresh(code: str) -> str:
    process = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert process.returncode == 0, process.stderr
    return process.stdout


def test_all_keeps_the_public_names():
    assert set(tcsfidelity.__all__) == PUBLIC
    assert len(tcsfidelity.__all__) == len(PUBLIC)


def test_a_bare_import_resolves_every_name_to_its_home_module():
    # In a fresh process, where no submodule is loaded yet: each name is the
    # object of the module that defines it, and each submodule the module.
    code = f"""
import importlib, sys, tcsfidelity
assert not any(name.startswith("tcsfidelity.") for name in sys.modules)
for module in {SUBMODULES!r}:
    assert getattr(tcsfidelity, module) is importlib.import_module("tcsfidelity." + module)
wrong = []
for name in tcsfidelity.__all__:
    value = getattr(tcsfidelity, name)
    # A function or class names its module; the three constants are routes'.
    home = sys.modules[getattr(value, "__module__", "tcsfidelity.routes")]
    if getattr(home, name, None) is not value:
        wrong.append(name)
print(wrong)
"""
    assert run_fresh(code) == "[]\n"


def test_star_import_and_dir_list_every_export():
    namespace = {}
    exec("from tcsfidelity import *", namespace)
    assert PUBLIC <= namespace.keys()
    assert namespace["compute_route"] is routes.compute_route
    assert PUBLIC | set(SUBMODULES) <= set(dir(tcsfidelity))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'tcsfidelity' has no attribute 'nope'$"):
        tcsfidelity.nope  # noqa: B018
    assert not hasattr(tcsfidelity, "nope")


def test_first_calls_from_threads_get_the_sequential_results():
    # Four threads make the process's first comparison of every route at
    # once, so they race through the lazy imports of numpy and the route
    # layers; each must get the results of a plain sequential call.
    code = """
import json, sys, threading
sys.setswitchinterval(1e-6)
from tcsfidelity import ROUTES, DisplacedThermalState, ThermalParams, compare
assert "numpy" not in sys.modules
state1 = DisplacedThermalState(ThermalParams(1.0), 0.3 - 0.2j)
state2 = DisplacedThermalState(ThermalParams(0.5), 1.3 + 0.8j)
barrier = threading.Barrier(4)
reports = [None] * 4

def work(index):
    barrier.wait()
    results = compare(state1, state2, ROUTES, 80)
    reports[index] = [result.report() for result in results.values()]

threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(60)
assert not any(thread.is_alive() for thread in threads)
print(json.dumps(reports))
"""
    state1 = DisplacedThermalState(ThermalParams(1.0), 0.3 - 0.2j)
    state2 = DisplacedThermalState(ThermalParams(0.5), 1.3 + 0.8j)
    expected = [r.report() for r in routes.compare(state1, state2, routes.ROUTES, 80).values()]
    assert json.loads(run_fresh(code)) == [expected] * 4
