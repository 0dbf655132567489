"""Byte-level guard on the CLI outputs.

Each case runs `rssiloc.cli.main` into a fresh directory and compares the
sha256 of every file written there with a digest recorded from a
known-good build. A change to the numeric code that moves any output
byte fails here, even when every tolerance-based test still passes.

After an intended output change, print the new table with

    PYTHONPATH=src python tests/test_golden.py

and paste it over GOLDEN.
"""

import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from rssiloc.cli import EXIT_OK, main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
DESK = str(SCENARIOS / "desk.json")
WIFI = str(SCENARIOS / "wifi_interference.json")

LATTICE_BEACONS = [
    {"id": 4 * iy + ix, "x_m": 10.0 * ix, "y_m": 10.0 * iy}
    for iy in range(4)
    for ix in range(4)
]

# 4x4 lattice, 3 dB shadowing and a -80 dBm receiver at exponent 3
# (mean reach ~14.7 m): windows are partly empty, some steps hear fewer
# than three beacons, and some top-3 sets are collinear.
LATTICE_SPARSE = {
    "seed": 5,
    "roi_m": {"x_min": 0, "y_min": 0, "x_max": 30, "y_max": 30},
    "beacons": LATTICE_BEACONS,
    "trajectory_m": [[5 + 0.5 * i, 5 + 0.35 * i] for i in range(40)],
    "path_loss": {"rssi_at_ref_dbm": -45.0, "ref_distance_m": 1.0, "exponent": 3.0},
    "radio": {"sensitivity_dbm": -80.0},
    "shadowing": {"sigma_db": 3.0},
}

# Noise-free walk over lattice points equidistant from several beacons:
# equal readings, so the top-3 order rests on the id tie-break.
LATTICE_TIES = {
    "seed": 1,
    "roi_m": {"x_min": 0, "y_min": 0, "x_max": 30, "y_max": 30},
    "beacons": LATTICE_BEACONS,
    "trajectory_m": [[15, 15], [5, 5], [15, 5], [25, 25], [15, 15], [5, 15]],
    "shadowing": {"sigma_db": 0.0},
}

# Every optional section set away from its default: a scan of 4 samples
# per channel, WiFi on 1/4/6/9/11/13 at partial duty (packet failures on
# every channel, so the monitor rescans), a drifting transition with a
# control offset, correlated Q and R, and a 5-sample window.
ALL_SECTIONS = {
    "seed": 23,
    "roi_m": {"x_min": -5, "y_min": 0, "x_max": 35, "y_max": 32},
    "beacons": LATTICE_BEACONS,
    "trajectory_m": [[3 + 0.6 * i, 4 + 0.4 * i] for i in range(40)],
    "path_loss": {"rssi_at_ref_dbm": -40.0, "ref_distance_m": 2.0, "exponent": 2.5},
    "radio": {"tx_power_dbm": 10.0, "sensitivity_dbm": -95.0, "max_range_m": 45.0},
    "shadowing": {"sigma_db": 1.5},
    "environment": {
        "noise_floor_dbm": -97.0,
        "interferers": [
            {"wifi_channel": w, "rx_power_dbm": -72.0 - w, "duty_cycle": 0.2 + 0.03 * w}
            for w in (1, 4, 6, 9, 11, 13)
        ],
    },
    "scan": {"samples_per_channel": 4, "sample_interval_ms": 50.0},
    "kalman": {
        "state_transition": [[1.0, 0.02], [-0.01, 0.99]],
        "control_m": [0.6, 0.4],
        "process_noise_m2": [[0.3, 0.05], [0.05, 0.2]],
        "measurement_noise_m2": [[2.0, 0.1, 0.0], [0.1, 1.5, 0.2], [0.0, 0.2, 1.0]],
    },
    "aggregation_window": 5,
}

# case name -> argv before --out (a dict argv item is a scenario written
# to the run directory first)
CASES = {
    "simulate_desk": ["simulate", "--scenario", DESK],
    "simulate_wifi": ["simulate", "--scenario", WIFI],
    "simulate_desk_json": ["simulate", "--scenario", DESK, "--format", "json"],
    "simulate_desk_seeds3": ["simulate", "--scenario", DESK, "--seeds", "3"],
    "simulate_lattice_sparse": ["simulate", "--scenario", LATTICE_SPARSE],
    "simulate_lattice_ties": ["simulate", "--scenario", LATTICE_TIES],
    "simulate_all_sections": ["simulate", "--scenario", ALL_SECTIONS],
    "simulate_wifi_seeds3": ["simulate", "--scenario", WIFI, "--seeds", "3"],
    "simulate_all_sections_seeds3": ["simulate", "--scenario", ALL_SECTIONS, "--seeds", "3"],
    "compare_wifi": ["compare", "--scenario", WIFI],
    "scan_wifi": ["scan", "--scenario", WIFI],
    "scan_all_sections": ["scan", "--scenario", ALL_SECTIONS],
    "deploy_60x40": ["deploy", "--roi", "60x40", "--range-m", "25"],
}

GOLDEN = {
    "compare_wifi": {
        "compare.csv":
            "947b276138b8aea5ced4c426ed69780a46f6cfe209215faef7879256d1203318",
        "metrics.json":
            "5219321d1c9d49582542085d5e83e24bfe8dc8a0a3c9ab61774d82ddf519b8d6",
    },
    "deploy_60x40": {
        "beacons.csv":
            "11b9e899d1e3a787a4ea010099fd8ca9b3351f3f4c15d8aeda8f4a0361d08cc5",
        "coverage.json":
            "cc5faa8318f07fea87e9928f0c5146d8de21b697e4781abcf8d9d00f02c1bfda",
    },
    "scan_all_sections": {
        "scan.csv":
            "e1acd3a73a5c87234be84cc45c1d102bb6c4b1356a2589342e37a8988fc846cb",
    },
    "scan_wifi": {
        "scan.csv":
            "3e439571a893f57ebedbcadb9bbcd05dad860a5060c47ce039b5b0e27e9ff595",
    },
    "simulate_desk": {
        "steps.csv":
            "733f7969d4bf0f7aba7c048b5711f166b2f9cb95183fea28754f8b29a9cbf7f1",
        "summary.json":
            "90c8fae1ffb7758d6c15a25b2aa671e334579fc44f1dc9e0d5734c39b1bdff34",
    },
    "simulate_desk_json": {
        "steps.json":
            "dbc733659aff84aae286e683f13d227a5a017112218e1883adf2a4c84f3d43ed",
        "summary.json":
            "90c8fae1ffb7758d6c15a25b2aa671e334579fc44f1dc9e0d5734c39b1bdff34",
    },
    "simulate_all_sections": {
        "steps.csv":
            "a0cb304b3f9ff03085fb568800cbb05d1199afa54aeee3f77b820d61e204e37a",
        "summary.json":
            "0ccdce5d6bdd507e38e05ce08178189b550c8e7d4396ff83fbe806d019e94fe3",
    },
    "simulate_all_sections_seeds3": {
        "seed_23/steps.csv":
            "a0cb304b3f9ff03085fb568800cbb05d1199afa54aeee3f77b820d61e204e37a",
        "seed_23/summary.json":
            "0ccdce5d6bdd507e38e05ce08178189b550c8e7d4396ff83fbe806d019e94fe3",
        "seed_24/steps.csv":
            "7ba8f095c4c7910ee34bf89c7b574b6ab4173c95670dfa15bedd1cd6567c3721",
        "seed_24/summary.json":
            "2b4907527abbe3e36eaf9681b34e47eb3628d5fa9aed687d16723791806dd697",
        "seed_25/steps.csv":
            "870e065c54ded82fad471152db8bf53ccd0b72b2f7a3cc1b423c719912becf86",
        "seed_25/summary.json":
            "4219c30e3b3fdd9b2b07985160e2e54a398e3a5227879f9c5fa4209dc440dd46",
    },
    "simulate_desk_seeds3": {
        "seed_42/steps.csv":
            "733f7969d4bf0f7aba7c048b5711f166b2f9cb95183fea28754f8b29a9cbf7f1",
        "seed_42/summary.json":
            "90c8fae1ffb7758d6c15a25b2aa671e334579fc44f1dc9e0d5734c39b1bdff34",
        "seed_43/steps.csv":
            "894b2b7e47baccc9134dac136de205448e9e103f047a95e58aae65567b042568",
        "seed_43/summary.json":
            "4e41109226d0b57820fad456d5502598d28da49ddc310ab1afdddf01ed914050",
        "seed_44/steps.csv":
            "95b324d3e1396fa9868cc03360e48d5f11dce87e929b0329020c74415f349124",
        "seed_44/summary.json":
            "7af1c89596ec87afa8f8bb8afb778085f8336fe5a1dcb7211e59e5c097440485",
    },
    "simulate_lattice_sparse": {
        "steps.csv":
            "9509e17d8b66c4d8d7a3baea93384ee8df983f2fa87aa1b78159ebecba9986b2",
        "summary.json":
            "86f180988003979712730e1450ff6d064f45817310af8758ba5d84eb1293d44f",
    },
    "simulate_lattice_ties": {
        "steps.csv":
            "c384bf31b9292d03b7ea7d47cd3da46651a7b314b2f4abe708f4d43ac8b6dac2",
        "summary.json":
            "3c1cc86617b529d50374ddf29c65741920791283ca380bebe25b4d40293a42c1",
    },
    "simulate_wifi": {
        "steps.csv":
            "d0957e25cb5ca6502d87f1172fafaa2c64f81626cf6de2b10ad84dea1bc69aee",
        "summary.json":
            "0d78b858bebf0d74e9b1bc79c32406f4b866bdbb50ba4ad296aceb734e4d085a",
    },
    "simulate_wifi_seeds3": {
        "seed_7/steps.csv":
            "d0957e25cb5ca6502d87f1172fafaa2c64f81626cf6de2b10ad84dea1bc69aee",
        "seed_7/summary.json":
            "0d78b858bebf0d74e9b1bc79c32406f4b866bdbb50ba4ad296aceb734e4d085a",
        "seed_8/steps.csv":
            "9daa2653c3df975851dd6265ba68a11675826bd4412bd37ad84d1ede09fc6aa2",
        "seed_8/summary.json":
            "b39baf5d5e18b0445eecbb6fccc943eb0154a1fa30ee656442c5a92c5cd99409",
        "seed_9/steps.csv":
            "a7f3a8c5f262f666f092132dbe33ec2c834a520ab7b370dd49c00bf0fd7b0a8d",
        "seed_9/summary.json":
            "2ebe4b84489171c91a5766cd500c93c0ed6ae5eae84327f5aea1a167783bc4d8",
    },
}


def run_case(name: str, work: Path) -> dict[str, str]:
    """Run one case under `work`; map each output file to its sha256."""
    argv = []
    for item in CASES[name]:
        if isinstance(item, dict):
            scn = work / "scenario.json"
            scn.write_text(json.dumps(item))
            item = str(scn)
        argv.append(item)
    out = work / "out"
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    return {
        p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_outputs_match_golden(name, tmp_path):
    assert run_case(name, tmp_path) == GOLDEN[name]


if __name__ == "__main__":
    table = {}
    with contextlib.redirect_stdout(sys.stderr):
        for case in sorted(CASES):
            with tempfile.TemporaryDirectory() as tmp:
                table[case] = run_case(case, Path(tmp))
    json.dump(table, sys.stdout, indent=4, sort_keys=True)
    print()
