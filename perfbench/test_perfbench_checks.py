"""The benchmark's output checks count a failure for a wrong output."""

import json
from pathlib import Path

from tcsfidelity import closed_form

from checks import Tally, check_bures, check_golden, cli_route_values, within

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "data" / "fidelity_all_routes.json"


def bures_stdout(fidelity, distance):
    return json.dumps({"schema": 1, "fidelity": fidelity, "bures_distance": distance},
                      indent=2).encode() + b"\n"


def test_bures_check_counts_perturbed_fidelity():
    tally = Tally()
    f = 0.3
    distance = closed_form.bures_distance(f)
    tally.record("bures", check_bures(f, 0, bures_stdout(f, distance)))
    assert (tally.attempted, tally.failed) == (1, 0)
    perturbed = f * (1 + 1e-15)
    tally.record("bures", check_bures(f, 0, bures_stdout(perturbed, distance)))
    tally.record("bures", check_bures(f, 0, bures_stdout(f, distance * (1 + 1e-15))))
    tally.record("bures", check_bures(f, 2, bures_stdout(f, distance)))
    assert (tally.attempted, tally.failed) == (4, 3)


def test_golden_check_counts_one_altered_byte():
    golden = GOLDEN.read_bytes()
    tally = Tally()
    tally.record("golden_cli", check_golden(0, golden, golden))
    index = golden.index(b"0.427724490104128")
    altered = golden[:index] + b"1" + golden[index + 1:]
    tally.record("golden_cli", check_golden(0, altered, golden))
    tally.record("golden_cli", check_golden(1, golden, golden))
    assert tally.counts == {"golden_cli": [3, 2]}
    assert cli_route_values(0, golden)["closed_form"] == 0.427724490104128
    assert len(cli_route_values(0, golden)) == 4
    assert cli_route_values(1, golden) == {}
    assert cli_route_values(0, golden[:-20]) == {}


def test_route_tolerances():
    reference = 0.5
    assert within("gaussian_overlap", reference + 5e-13, reference)
    assert not within("gaussian_overlap", reference + 2e-12, reference)
    assert within("oracle", reference + 5e-7, reference)
    assert not within("oracle", reference + 2e-6, reference)
    assert not within("oracle", ValueError("not pure"), reference)

