"""Byte-level guard on the CLI outputs.

Each case runs `rssiloc.cli.main` into a fresh directory and compares the
sha256 of every file written there with a digest recorded from a
known-good build. A change to the numeric code that moves any output
byte fails here, even when every tolerance-based test still passes.

After an intended output change, print the new table with

    PYTHONPATH=src python tests/test_golden.py

and paste it over GOLDEN. To see which cells a change moves, run every
case with this tree's program and with the one in another checkout:

    PYTHONPATH=src python tests/test_golden.py --against DIR

For each output file that differs it prints the changed cells (DIR's
text, then this tree's) and the largest |delta| per CSV column or JSON
path, and exits 1; it prints nothing when every file is equal. Both
child runs inherit the environment, so setting NPY_DISABLE_CPU_FEATURES
for the whole command compares the two trees under another numpy SIMD
dispatch, e.g.

    NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" \
        PYTHONPATH=src python tests/test_golden.py --against DIR
"""

import argparse
import contextlib
import csv
import hashlib
import json
import math
import os
import re
import subprocess
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
            "d6386d6402a3d948b65744ed567037315ae50a671976293598c3cc9d5798aa68",
        "metrics.json":
            "6f9f18e96155829834c9c7b19d75b07fbddb3c44ca9e0b6098e8ed91ccd6e460",
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
    "simulate_all_sections": {
        "steps.csv":
            "4748503dc13218d69975655496ee2c6fee543833c8fcb033faab539f65dcb2fe",
        "summary.json":
            "2792f3af4d88b713c1653225349efe2ea33574ee26fe6c3da2c1f556376fa107",
    },
    "simulate_all_sections_seeds3": {
        "seed_23/steps.csv":
            "4748503dc13218d69975655496ee2c6fee543833c8fcb033faab539f65dcb2fe",
        "seed_23/summary.json":
            "2792f3af4d88b713c1653225349efe2ea33574ee26fe6c3da2c1f556376fa107",
        "seed_24/steps.csv":
            "57e80144e41ceff01e6d3d02b1bb930a7bfddf212e305a0a4cb141b715be539c",
        "seed_24/summary.json":
            "1e3f67369c7f6570f00ee8c5c24cf3e22776abc23e5c43f6348e578e25b3a2a1",
        "seed_25/steps.csv":
            "bd38e571dd3a295e2ef77b447f9d755763af8610927108319988e54c57f53fff",
        "seed_25/summary.json":
            "b97755572f8886537dc1e3bd80e28d153582f39b7f350254bff15299e612bc20",
    },
    "simulate_desk": {
        "steps.csv":
            "86470ddbe665cd7143a965b8f8e1c8a3acbf0324b5db2fc19602705d766ce997",
        "summary.json":
            "a495fc5ae9ec483a36012317bd50aa82048c236ab45c7b2539484633692cb49f",
    },
    "simulate_desk_seeds3": {
        "seed_42/steps.csv":
            "86470ddbe665cd7143a965b8f8e1c8a3acbf0324b5db2fc19602705d766ce997",
        "seed_42/summary.json":
            "a495fc5ae9ec483a36012317bd50aa82048c236ab45c7b2539484633692cb49f",
        "seed_43/steps.csv":
            "fc78009074b7dc5f1d881fae4f1759a26bb2c6d424a25b4fea93710b047b8421",
        "seed_43/summary.json":
            "3e3c0fb59ee7d6d1f566d9fb2d382a731d687a533fd946c9b986da9e1898fd5c",
        "seed_44/steps.csv":
            "49bffb15ad8f01614683f693cd840d2984604cb50de105f6f2de8d415d88dfc1",
        "seed_44/summary.json":
            "20e98731bdedfadd9df2534ca0ac330a97f398bca7c992202cfd4651932cb75b",
    },
    "simulate_lattice_sparse": {
        "steps.csv":
            "95e70905e90b90aa9dbe97702ecb5b546bc699451441c02eb51e0ced267dba62",
        "summary.json":
            "fd488b1eb802b5b261fe8b384c154993c6bd8b5403e49f656ab2e04d85bc7569",
    },
    "simulate_lattice_ties": {
        "steps.csv":
            "3e082c0924d3ceceb7a2a759251f401a4e8ef58e5313d55b930bd6ee5ec37455",
        "summary.json":
            "08d330feb365543b6817c76e64c1d4973524effd4ced288b9c176b19eb443ebc",
    },
    "simulate_wifi": {
        "steps.csv":
            "e991e8abf76eee0a2666987b7f73c32beeefa6e6c12e521aefd47d86e27bd56b",
        "summary.json":
            "dcd54d296d8c7b85340d2d71429a45dafa8ee36d537bd04398f7356fcaf87d13",
    },
    "simulate_wifi_seeds3": {
        "seed_7/steps.csv":
            "e991e8abf76eee0a2666987b7f73c32beeefa6e6c12e521aefd47d86e27bd56b",
        "seed_7/summary.json":
            "dcd54d296d8c7b85340d2d71429a45dafa8ee36d537bd04398f7356fcaf87d13",
        "seed_8/steps.csv":
            "2d04cde9070b2d923bcd42d8bc223717be765eb54910cab16b58bcee8d665997",
        "seed_8/summary.json":
            "3b3c0a9bbaa6d37a908b3987df91520e94901dc12369b3658b9a8f6452eb70e6",
        "seed_9/steps.csv":
            "7a97371065c128725ead8c87c4af6ec0e96124b92e71dbe4d5e841b3624e00fd",
        "seed_9/summary.json":
            "b545f44a481ac88786483123925e815933beeea49bd06696be1d4d4e6262b146",
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


def _delta(a, b) -> float:
    """|a - b| of two numbers or number texts; inf when either is not a
    finite number."""
    try:
        delta = abs(float(a) - float(b))
    except (TypeError, ValueError):
        return math.inf
    return delta if math.isfinite(delta) else math.inf


def _csv_cells(path: Path) -> dict:
    """(row, column name) -> cell text of a CSV with a header line."""
    header, *rows = csv.reader(path.read_text().splitlines())
    return {(i, name): cell for i, row in enumerate(rows) for name, cell in zip(header, row)}


def _json_leaves(obj, path="") -> dict:
    """JSON path -> leaf value, list indices written [i]."""
    if isinstance(obj, dict):
        items = ((f"{path}.{key}" if path else key, value) for key, value in obj.items())
    elif isinstance(obj, list):
        items = ((f"{path}[{i}]", value) for i, value in enumerate(obj))
    else:
        return {path: obj}
    return {leaf: v for key, value in items for leaf, v in _json_leaves(value, key).items()}


def diff_file(old: Path, new: Path) -> list[str]:
    """Lines naming each cell that differs between two CSV or JSON
    outputs, then the largest |delta| per CSV column or per JSON path
    (list indices folded to [])."""
    if old.suffix == ".csv":
        cells = _csv_cells(old), _csv_cells(new)
        name, group = (lambda key: f"row {key[0]} {key[1]}"), (lambda key: key[1])
    else:
        cells = _json_leaves(json.loads(old.read_text())), _json_leaves(json.loads(new.read_text()))
        name, group = str, (lambda key: re.sub(r"\[\d+\]", "[]", key))
    missing = object()
    keys = [*cells[0], *(key for key in cells[1] if key not in cells[0])]
    changed = [(key, cells[0].get(key, missing), cells[1].get(key, missing)) for key in keys
               if cells[0].get(key, missing) != cells[1].get(key, missing)]
    largest = {}
    lines = []
    for key, a, b in changed:
        lines.append(f"  {name(key)}: {'(none)' if a is missing else a} -> "
                     f"{'(none)' if b is missing else b}")
        largest[group(key)] = max(largest.get(group(key), 0.0), _delta(a, b))
    lines.append("  max |delta|: " + ", ".join(f"{g} {d:.3g}" for g, d in largest.items()))
    return lines


def diff_against(other: Path) -> int:
    """Run every case with this tree's program and with other/src's, each
    in a child process, and print the cells that differ; returns 1 when
    any output differs, else 0."""
    here = Path(__file__).resolve().parent.parent
    with tempfile.TemporaryDirectory() as tmp:
        outputs = []
        for tree, label in ((other, "against"), (here, "here")):
            work = Path(tmp) / label
            env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"))
            subprocess.run([sys.executable, __file__, "--write", str(work)], env=env,
                           check=True, stdout=subprocess.DEVNULL)
            outputs.append(work)
        differs = False
        for case in sorted(CASES):
            old, new = (work / case / "out" for work in outputs)
            files = sorted({p.relative_to(root).as_posix()
                            for root in (old, new) for p in root.rglob("*") if p.is_file()})
            for rel in files:
                a, b = old / rel, new / rel
                if a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes():
                    continue
                differs = True
                if not (a.is_file() and b.is_file()):
                    print(f"{case}/{rel}: only in {'here' if b.is_file() else 'against'}")
                    continue
                print(f"{case}/{rel}:")
                print("\n".join(diff_file(a, b)))
    return int(differs)


def test_diff_file_names_each_changed_cell(tmp_path):
    old, new = tmp_path / "old.csv", tmp_path / "new.csv"
    old.write_text("step,x,y\n0,1.0,2.0\n1,3.0,nan\n")
    new.write_text("step,x,y\n0,1.5,2.0\n1,3.25,4.0\n")
    assert diff_file(old, new) == [
        "  row 0 x: 1.0 -> 1.5",
        "  row 1 x: 3.0 -> 3.25",
        "  row 1 y: nan -> 4.0",
        "  max |delta|: x 0.5, y inf",
    ]
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps({"m": {"cdf": [1.0, 2.0, 3.0], "rmse": 0.5}, "seed": 1}))
    new.write_text(json.dumps({"m": {"cdf": [1.0, 2.5, 3.125], "rmse": 0.5}, "seed": 1}))
    assert diff_file(old, new) == [
        "  m.cdf[1]: 2.0 -> 2.5",
        "  m.cdf[2]: 3.0 -> 3.125",
        "  max |delta|: m.cdf[] 0.5",
    ]


def test_against_an_equal_tree_prints_nothing(capsys):
    assert diff_against(Path(__file__).resolve().parent.parent) == 0
    assert capsys.readouterr().out == ""


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Print the golden table, or diff the "
                                     "case outputs against another checkout.")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--against", metavar="DIR", type=Path,
                      help="checkout whose src/ holds the program to compare with")
    mode.add_argument("--write", metavar="WORK", type=Path,
                      help="run every case into WORK/<case> and keep the outputs")
    args = parser.parse_args()
    if args.against is not None:
        sys.exit(diff_against(args.against))
    if args.write is not None:
        for case in sorted(CASES):
            (args.write / case).mkdir(parents=True)
            run_case(case, args.write / case)
        sys.exit(0)
    table = {}
    with contextlib.redirect_stdout(sys.stderr):
        for case in sorted(CASES):
            with tempfile.TemporaryDirectory() as tmp:
                table[case] = run_case(case, Path(tmp))
    json.dump(table, sys.stdout, indent=4, sort_keys=True)
    print()
