import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rssiloc import cli
from rssiloc.cli import (
    EXIT_DOMAIN,
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_OK,
    main,
    parse_scenario,
    scenario_to_dict,
)
from rssiloc.channel import ScanConfig
from rssiloc.geometry import AnchorNode, Point2D, Rect
from rssiloc.radio import PathLossParams, RadioSpec, ShadowingModel
from rssiloc.simulate import Scenario
from rssiloc.spectrum import ChannelEnvironment, InterfererProfile, WifiChannel
from rssiloc.tracking import KalmanConfig

DESK = Path(__file__).resolve().parent.parent / "scenarios" / "desk.json"
WIFI = DESK.with_name("wifi_interference.json")

TRIANGLE_BEACONS = [
    {"id": 0, "x_m": 0, "y_m": 0},
    {"id": 1, "x_m": 30, "y_m": 0},
    {"id": 2, "x_m": 15, "y_m": 30},
]


def write_scenario(path: Path, **overrides) -> Path:
    doc = {
        "seed": 42,
        "roi_m": {"x_min": 0, "y_min": 0, "x_max": 30, "y_max": 30},
        "beacons": TRIANGLE_BEACONS,
        "trajectory_m": {"static": [12, 9], "steps": 25},
        "shadowing": {"sigma_db": 0.0},
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


def test_simulate_zero_noise(tmp_path):
    scn = write_scenario(tmp_path / "s.json")
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(scn), "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    for flavor in ("raw", "averaged", "kalman"):
        assert summary["metrics"][flavor]["rmse_m"] < 1e-6
    header = (out / "steps.csv").read_text().splitlines()[0]
    assert header == "step,true_x,true_y,raw_x,raw_y,avg_x,avg_y,kf_x,kf_y,channel,resolved"
    assert len((out / "steps.csv").read_text().splitlines()) == 26


def test_negative_zero_shadowing_runs_as_zero(tmp_path, capsys):
    # -0.0 passes the sigma >= 0 check; the scene runs as the 0.0 one does,
    # down to the sigma echo in summary.json
    trees = []
    for name, sigma in (("plus", 0.0), ("minus", -0.0)):
        scn = write_scenario(tmp_path / f"{name}.json", shadowing={"sigma_db": sigma})
        out = tmp_path / name
        assert main(["simulate", "--scenario", str(scn), "--out", str(out), "--seeds", "2"]) == EXIT_OK
        trees.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()})
    assert len(trees[0]) == 4 and trees[0] == trees[1]


def test_simulate_missing_seed(tmp_path):
    scn = tmp_path / "s.json"
    doc = json.loads(write_scenario(tmp_path / "base.json").read_text())
    del doc["seed"]
    scn.write_text(json.dumps(doc))
    assert main(["simulate", "--scenario", str(scn), "--out", str(tmp_path / "o")]) == EXIT_INPUT


def test_simulate_unknown_field_rejected(tmp_path):
    scn = write_scenario(tmp_path / "s.json", typo_field=1)
    assert main(["simulate", "--scenario", str(scn), "--out", str(tmp_path / "o")]) == EXIT_INPUT


def test_simulate_malformed_json(tmp_path):
    scn = tmp_path / "s.json"
    scn.write_text("{not json")
    assert main(["simulate", "--scenario", str(scn), "--out", str(tmp_path / "o")]) == EXIT_INPUT


@pytest.mark.parametrize("content", [
    b"\xff\xfe{",  # not UTF-8
    b"[" * 100_000 + b"]" * 100_000,  # deeper than the decoder recurses
])
def test_simulate_undecodable_file(tmp_path, content):
    scn = tmp_path / "s.json"
    scn.write_bytes(content)
    assert main(["simulate", "--scenario", str(scn), "--out", str(tmp_path / "o")]) == EXIT_INPUT


def test_simulate_unknown_nested_field(tmp_path):
    scn = write_scenario(tmp_path / "s.json", shadowing={"sigma_db": 1.0, "oops": 2})
    assert main(["simulate", "--scenario", str(scn), "--out", str(tmp_path / "o")]) == EXIT_INPUT


def test_simulate_coverage_precheck(tmp_path):
    # beacons reachable only through >max_range links -> refuse to run
    scn = write_scenario(
        tmp_path / "s.json",
        roi_m={"x_min": 0, "y_min": 0, "x_max": 500, "y_max": 500},
        trajectory_m={"static": [450, 450], "steps": 3},
    )
    assert main(["simulate", "--scenario", str(scn), "--out", str(tmp_path / "o")]) == EXIT_DOMAIN


def test_simulate_byte_identical_reruns(tmp_path):
    scn = write_scenario(tmp_path / "s.json", shadowing={"sigma_db": 2.0})
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--scenario", str(scn), "--out", str(out_a)]) == EXIT_OK
    assert main(["simulate", "--scenario", str(scn), "--out", str(out_b)]) == EXIT_OK
    assert (out_a / "steps.csv").read_bytes() == (out_b / "steps.csv").read_bytes()
    assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()


def test_simulate_seed_override_changes_output(tmp_path):
    scn = write_scenario(tmp_path / "s.json", shadowing={"sigma_db": 2.0})
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--scenario", str(scn), "--out", str(out_a)]) == EXIT_OK
    assert main(["simulate", "--scenario", str(scn), "--out", str(out_b), "--seed", "7"]) == EXIT_OK
    assert (out_a / "steps.csv").read_bytes() != (out_b / "steps.csv").read_bytes()
    assert json.loads((out_b / "summary.json").read_text())["seed"] == 7


def test_simulate_seed_sweep_subdirectories(tmp_path):
    scn = write_scenario(tmp_path / "s.json", shadowing={"sigma_db": 2.0})
    out = tmp_path / "sweep"
    assert main(["simulate", "--scenario", str(scn), "--out", str(out), "--seeds", "3"]) == EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == ["seed_42", "seed_43", "seed_44"]
    for sub in out.iterdir():
        assert (sub / "steps.csv").exists() and (sub / "summary.json").exists()


def test_scan_quiet_environment(tmp_path, capsys):
    scn = write_scenario(tmp_path / "s.json")
    out = tmp_path / "out"
    assert main(["scan", "--scenario", str(scn), "--out", str(out)]) == EXIT_OK
    assert "selected channel: 11" in capsys.readouterr().out
    lines = (out / "scan.csv").read_text().splitlines()
    assert lines[0] == "channel,center_mhz,mean_dbm,variance_db2"
    assert len(lines) == 17
    for line in lines[1:]:
        channel, center, mean, var = line.split(",")
        assert float(mean) == -100.0
        assert float(var) == 0.0
    assert lines[1].startswith("11,2405.0,")


def test_scan_wifi_trio_selects_15(tmp_path, capsys):
    scn = write_scenario(
        tmp_path / "s.json",
        environment={
            "noise_floor_dbm": -100.0,
            "interferers": [
                {"wifi_channel": w, "rx_power_dbm": -70.0, "duty_cycle": 1.0}
                for w in (1, 6, 11)
            ],
        },
    )
    assert main(["scan", "--scenario", str(scn), "--out", str(tmp_path / "o")]) == EXIT_OK
    assert "selected channel: 15" in capsys.readouterr().out


def test_scan_only_channel_20_clean(tmp_path, capsys):
    scn = write_scenario(
        tmp_path / "s.json",
        environment={
            "noise_floor_dbm": -100.0,
            "interferers": [
                {"wifi_channel": w, "rx_power_dbm": -70.0, "duty_cycle": 1.0}
                for w in (1, 4, 6, 11, 12, 13)
            ],
        },
    )
    assert main(["scan", "--scenario", str(scn), "--out", str(tmp_path / "o")]) == EXIT_OK
    assert "selected channel: 20" in capsys.readouterr().out


def test_deploy_small_roi(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["deploy", "--roi", "30x30", "--range-m", "25", "--out", str(out)]) == EXIT_OK
    lines = (out / "beacons.csv").read_text().splitlines()
    assert lines[0] == "id,x,y"
    assert len(lines) == 10  # 3x3 grid
    verdict = json.loads((out / "coverage.json").read_text())
    assert verdict["covered"] is True
    assert verdict["beacons"] == 9


def test_deploy_dense_grid(tmp_path):
    out = tmp_path / "out"
    assert main(["deploy", "--roi", "30x30", "--range-m", "5", "--out", str(out)]) == EXIT_OK
    verdict = json.loads((out / "coverage.json").read_text())
    assert verdict["covered"] is True
    assert verdict["beacons"] > 9


def test_deploy_degenerate_roi(tmp_path):
    assert main(["deploy", "--roi", "0x30", "--range-m", "25", "--out", str(tmp_path / "o")]) == EXIT_INPUT
    assert main(["deploy", "--roi", "30", "--range-m", "25", "--out", str(tmp_path / "o")]) == EXIT_INPUT
    for roi in ("nanx30", "30xinf"):
        assert main(["deploy", "--roi", roi, "--range-m", "25", "--out", str(tmp_path / "o")]) == EXIT_INPUT


def test_compare_outputs(tmp_path):
    scn = write_scenario(tmp_path / "s.json", shadowing={"sigma_db": 2.0},
                         trajectory_m={"static": [12, 9], "steps": 120})
    out = tmp_path / "out"
    assert main(["compare", "--scenario", str(scn), "--out", str(out)]) == EXIT_OK
    lines = (out / "compare.csv").read_text().splitlines()
    assert lines[0] == "step,error_raw_m,error_avg_m,error_kf_m"
    assert len(lines) == 121
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["raw"]["rmse_m"] > metrics["averaged"]["rmse_m"] > metrics["kalman"]["rmse_m"]


def test_compare_errors_agree_with_metrics(tmp_path):
    # compare.csv holds the per-step errors that metrics.json summarises:
    # each column, sorted with absent steps dropped, is that flavor's CDF
    out = tmp_path / "out"
    assert main(["compare", "--scenario", str(WIFI), "--out", str(out)]) == EXIT_OK
    lines = (out / "compare.csv").read_text().splitlines()[1:]
    columns = list(zip(*(line.split(",")[1:] for line in lines)))
    metrics = json.loads((out / "metrics.json").read_text())
    for flavor, column in zip(("raw", "averaged", "kalman"), columns):
        errors = sorted(float(cell) for cell in column if cell)
        assert errors == metrics[flavor]["error_cdf_m"], flavor


def test_simulate_seed_sweep_rejects_empty_count(tmp_path):
    scn = write_scenario(tmp_path / "s.json")
    out = tmp_path / "o"
    for count in ("0", "-2"):
        assert main(["simulate", "--scenario", str(scn), "--out", str(out),
                     "--seeds", count]) == EXIT_INPUT
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--safety", "0"],
    ["--safety", "-0.5"],
    ["--safety", "1.5"],
    ["--safety", "nan"],
    ["--safety", "inf"],
    ["--range-m", "0"],
    ["--range-m", "-25"],
    ["--range-m=-inf"],
    ["--range-m", "nan"],
    ["--range-m", "inf"],
])
def test_deploy_flags_out_of_range(tmp_path, flags):
    argv = ["deploy", "--roi", "30x30", "--range-m", "25", "--out", str(tmp_path / "o")]
    assert main(argv + flags) == EXIT_INPUT


@pytest.mark.parametrize("argv, code", [
    (["simulate", "--scenario", str(DESK), "--format", "json"], EXIT_INPUT),
    (["deploy", "--roi", "60x40", "--range-m", "25", "--grid-step", "0.25"], EXIT_INPUT),
    (["locate", "--scenario", str(DESK)], EXIT_INPUT),
    (["simulate"], EXIT_INPUT),
    (["simulate", "--scenario", str(DESK), "--seeds", "x"], EXIT_INPUT),
    (["deploy", "--help"], EXIT_OK),
])
def test_argparse_exits_return_their_code(tmp_path, capsys, argv, code):
    # argparse's exit comes back from main as its code, before any file is written
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == code
    assert "usage: rssiloc" in "".join(capsys.readouterr())
    assert not out.exists()


@pytest.mark.parametrize("overrides", [
    {"shadowing": {"sigma_db": float("nan")}},
    {"path_loss": {"exponent": float("inf")}},
    {"radio": {"sensitivity_dbm": float("-inf")}},
    {"trajectory_m": [[12, 9], [float("nan"), 9]]},
    {"beacons": TRIANGLE_BEACONS[:2] + [{"id": 2, "x_m": float("inf"), "y_m": 30}]},
    {"kalman": {"process_noise_m2": [[float("nan"), 0], [0, 0.01]]}},
    {"kalman": {"control_m": [0, float("inf")]}},
    {"shadowing": {"sigma_db": 10**400}},  # an integer beyond float range
])
def test_simulate_rejects_non_finite_numbers(tmp_path, overrides):
    scn = write_scenario(tmp_path / "s.json", **overrides)
    assert main(["simulate", "--scenario", str(scn), "--out", str(tmp_path / "o")]) == EXIT_INPUT


def test_simulate_trajectory_on_beacon_is_input_error(tmp_path):
    scn = write_scenario(tmp_path / "s.json", trajectory_m=[[12, 9], [30, 0]])
    assert main(["simulate", "--scenario", str(scn), "--out", str(tmp_path / "o")]) == EXIT_INPUT


def run_simulate(tmp_path, **overrides) -> int:
    scn = write_scenario(tmp_path / "s.json", **overrides)
    return main(["simulate", "--scenario", str(scn), "--out", str(tmp_path / "o")])


def _interferer(**fields):
    return {"environment": {"interferers": [
        {"wifi_channel": 6, "rx_power_dbm": -70.0, "duty_cycle": 0.5, **fields}]}}


# Values the library types reject: each exits 2 and names where it sits.
@pytest.mark.parametrize("overrides, path, named", [
    ({"path_loss": {"exponent": -1}}, "$.path_loss", "exponent"),
    ({"shadowing": {"sigma_db": -1}}, "$.shadowing", "sigma"),
    ({"radio": {"sensitivity_dbm": 30}}, "$.radio", "sensitivity"),
    ({"scan": {"samples_per_channel": 0}}, "$.scan.samples_per_channel", "got 0"),
    (_interferer(wifi_channel=99), "$.environment.interferers[0].wifi_channel", "99"),
    (_interferer(duty_cycle=2), "$.environment.interferers[0]", "duty_cycle"),
    ({"kalman": {"process_noise_m2": [[0.01, 0.005], [0, 0.01]]}}, "$.kalman", "process_noise"),
    ({"roi_m": {"x_min": 30, "y_min": 0, "x_max": 0, "y_max": 30}}, "$.roi_m", "inverted"),
    ({"beacons": [{"id": -1, "x_m": 0, "y_m": 0}] + TRIANGLE_BEACONS[1:]}, "$.beacons[0]", "id"),
    ({"environment": {"interferers": 5}}, "$.environment.interferers", "list"),
    ({"scan": {"sample_interval_ms": -5}}, "$.scan", "sample_interval_ms"),
])
def test_library_rejection_exits_2_with_field_path(tmp_path, capsys, overrides, path, named):
    assert run_simulate(tmp_path, **overrides) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and named in err


@pytest.mark.parametrize("overrides", [
    {"trajectory_m": {"static": [12, 9], "steps": 100_000_000}},
    {"trajectory_m": {"static": [12, 9], "steps": cli.MAX_STEPS + 1}},
    {"aggregation_window": 10**12},
    {"scan": {"samples_per_channel": cli.MAX_SAMPLES + 1}},
])
def test_sizes_over_their_cap_exit_2(tmp_path, capsys, overrides):
    assert run_simulate(tmp_path, **overrides) == EXIT_INPUT
    assert "must be in [1, " in capsys.readouterr().err


def test_interferer_count_over_cap_exits_2(tmp_path, capsys):
    # the list may be empty, so its cap reads unlike the counts above
    interferer = {"wifi_channel": 6, "rx_power_dbm": -70.0, "duty_cycle": 0.5}
    env = {"interferers": [interferer] * cli.MAX_INTERFERERS}
    assert run_simulate(tmp_path, environment=env) == EXIT_OK
    env["interferers"].append(interferer)
    assert run_simulate(tmp_path, environment=env) == EXIT_INPUT
    assert capsys.readouterr().err.startswith(
        f"error: $.environment.interferers: must hold at most {cli.MAX_INTERFERERS} entries")


def _beacon_grid(n):
    return [{"id": i, "x_m": float(i % 32), "y_m": float(i // 32)} for i in range(n)]


def test_beacon_count_over_cap_exits_2(tmp_path, capsys):
    beacons = _beacon_grid(cli.MAX_BEACONS)
    roi = {"x_min": 0, "y_min": 0, "x_max": 40, "y_max": 40}
    trajectory = {"static": [12.5, 9.5], "steps": 2}
    assert run_simulate(tmp_path, roi_m=roi, beacons=beacons, trajectory_m=trajectory) == EXIT_OK
    beacons.append({"id": cli.MAX_BEACONS, "x_m": 35.0, "y_m": 35.0})
    assert run_simulate(tmp_path, roi_m=roi, beacons=beacons, trajectory_m=trajectory) == EXIT_INPUT
    assert capsys.readouterr().err.startswith(
        f"error: $.beacons: must hold at most {cli.MAX_BEACONS} entries")


def test_steps_times_beacons_over_cap_exits_2(tmp_path, capsys):
    # each count is within its own cap; their product is one over
    n_beacons = cli.MAX_RSSI_CELLS // cli.MAX_STEPS
    doc = json.loads(write_scenario(
        tmp_path / "s.json", roi_m={"x_min": 0, "y_min": 0, "x_max": 40, "y_max": 40},
        beacons=_beacon_grid(n_beacons),
        trajectory_m={"static": [12.5, 9.5], "steps": cli.MAX_STEPS}).read_text())
    assert len(parse_scenario(doc).beacons) * cli.MAX_STEPS == cli.MAX_RSSI_CELLS
    doc["beacons"] = _beacon_grid(n_beacons + 1)
    with pytest.raises(cli.ScenarioFileError, match=r"^\$\.beacons: "):
        parse_scenario(doc)
    scn = tmp_path / "over.json"
    scn.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["simulate", "--scenario", str(scn), "--out", str(out)]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: $.beacons: ")
    assert not out.exists()


def test_waypoint_list_over_cap_exits_2(tmp_path, capsys):
    # a waypoint list takes the step cap of the static shorthand
    doc = json.loads(write_scenario(tmp_path / "s.json").read_text())
    doc["trajectory_m"] = [[12.0, 9.0]] * cli.MAX_STEPS
    assert len(parse_scenario(doc).trajectory) == cli.MAX_STEPS
    doc["trajectory_m"].append([12.0, 9.0])
    scn = tmp_path / "over.json"
    scn.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["simulate", "--scenario", str(scn), "--out", str(out)]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith(
        f"error: $.trajectory_m: must hold at most {cli.MAX_STEPS} entries")
    assert not out.exists()


@pytest.mark.parametrize("count", [cli.MAX_SEEDS + 1, 10**18])
def test_simulate_seed_sweep_rejects_count_over_cap(tmp_path, capsys, count):
    scn = write_scenario(tmp_path / "s.json")
    out = tmp_path / "o"
    assert main(["simulate", "--scenario", str(scn), "--out", str(out),
                 "--seeds", str(count)]) == EXIT_INPUT
    assert f"--seeds must be in [1, {cli.MAX_SEEDS}]" in capsys.readouterr().err
    assert not out.exists()


def _desk(tmp_path, **overrides) -> str:
    doc = json.loads(DESK.read_text())
    doc.update(overrides)
    path = tmp_path / "desk.json"
    path.write_text(json.dumps(doc))
    return str(path)


# Well-formed input whose estimation or planning problem fails: exit 3.
DOMAIN_FAILURES = {
    # no beacon is heard above a -50 dBm sensitivity: no step resolves
    "unheard": lambda tmp: ["simulate", "--scenario", _desk(tmp, radio={"sensitivity_dbm": -50})],
    # three collinear beacons: every lateration is singular
    "collinear": lambda tmp: ["simulate", "--scenario", _desk(tmp, beacons=[
        {"id": i, "x_m": 15.0 * i, "y_m": 0} for i in range(3)])],
    # R negligible next to a huge Q: the filter cannot correct
    "filter_diverges": lambda tmp: ["simulate", "--scenario", _desk(tmp, kalman={
        "process_noise_m2": [[1e30, 0], [0, 1e30]],
        "measurement_noise_m2": [[1e-30, 0, 0], [0, 1e-30, 0], [0, 0, 1e-30]]})],
    "plan_capacity": lambda tmp: ["deploy", "--roi", "100000x100000", "--range-m", "1"],
    "denormal_range": lambda tmp: ["deploy", "--roi", "30x30", "--range-m", "5e-324"],
    "underflow_spacing": lambda tmp: ["deploy", "--roi", "30x30", "--range-m", "1e-200",
                                      "--safety", "1e-200"],
    "coverage_pairs": lambda tmp: ["deploy", "--roi", "400x400", "--range-m", "5"],
    # about 1.6e7 points at the 0.25 m pitch
    "lattice_capacity": lambda tmp: ["deploy", "--roi", "1000x1000", "--range-m", "25"],
}


def test_precheck_uses_the_sensitivity_reach(tmp_path, capsys):
    # at -50 dBm the mean reading is heard within 10 ** (5 / 20) = 1.8 m of a
    # beacon, far inside the 60.96 m planning range: no step can resolve, so
    # the run stops before it writes anything
    out = tmp_path / "o"
    scn = _desk(tmp_path, radio={"sensitivity_dbm": -50})
    assert main(["simulate", "--scenario", scn, "--out", str(out)]) == EXIT_DOMAIN
    assert "trajectory coverage precheck failed" in capsys.readouterr().err
    assert not out.exists()


def _uncovered_report(what, points) -> str:
    lines = [f"error: {what}: {len(points)} point(s) lack three-beacon coverage"]
    lines += [f"  uncovered: ({x}, {y})" for x, y in points[:20]]
    return "\n".join(lines + [f"  ... and {len(points) - 20} more"]) + "\n"


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_precheck_failure_output(tmp_path, capsys, command):
    # 23 distinct waypoints beyond every beacon's reach, the first repeated:
    # the report lists each point once, the first 20 of them by name
    points = [(400.0 + i, 450.0) for i in range(23)]
    scn = write_scenario(tmp_path / "s.json",
                         roi_m={"x_min": 0, "y_min": 0, "x_max": 500, "y_max": 500},
                         trajectory_m=[list(points[0])] + [list(p) for p in points])
    out = tmp_path / "o"
    assert main([command, "--scenario", str(scn), "--out", str(out)]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == _uncovered_report("trajectory coverage precheck failed", points)
    assert not out.exists()


def test_deploy_verification_failure_output(tmp_path, capsys, monkeypatch):
    # no shipped input makes a planned grid fail its check, so the verifier
    # reports 21 uncovered points; the plan and verdict are still written
    points = [(0.25 * i, 1.5) for i in range(21)]
    monkeypatch.setattr(cli, "verify_three_coverage",
                        lambda *args: (False, np.array(points)))
    out = tmp_path / "o"
    assert main(["deploy", "--roi", "30x30", "--range-m", "25", "--out", str(out)]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert captured.out == "9 beacons at spacing (15, 15) m; coverage FAIL\n"
    assert captured.err == _uncovered_report("deployment verification failed", points)
    assert len((out / "beacons.csv").read_text().splitlines()) == 10
    verdict = json.loads((out / "coverage.json").read_text())
    assert verdict["covered"] is False
    assert verdict["uncovered_points"] == [list(p) for p in points]


@pytest.mark.parametrize("case", sorted(DOMAIN_FAILURES))
def test_domain_failures_exit_3(tmp_path, capsys, case):
    argv = DOMAIN_FAILURES[case](tmp_path)
    assert main(argv + ["--out", str(tmp_path / "o")]) == EXIT_DOMAIN
    assert "internal error" not in capsys.readouterr().err
    # a failed run leaves no half-written outputs
    assert not (tmp_path / "o" / "steps.csv").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("overrides, err", [
    ({"kalman": {"state_transition": [[1e200, 0], [0, 1e200]]}},
     "error: range filter diverged at step 1\n"),
    ({"beacons": [dict(TRIANGLE_BEACONS[0], x_m=1.3407807929942597e+154),
                  *TRIANGLE_BEACONS[1:]]},
     "error: trajectory coverage precheck failed: 1 point(s) lack three-beacon coverage\n"
     "  uncovered: (12.0, 9.0)\n"),
], ids=["transition_overflow", "beacon_distance_overflow"])
def test_numeric_failure_reports_by_status_alone(tmp_path, capsys, overrides, err):
    # a prediction or a squared beacon distance beyond the float range ends
    # the run through its status, with one error report and no warning
    out = tmp_path / "o"
    assert main(["simulate", "--scenario", _desk(tmp_path, **overrides),
                 "--out", str(out)]) == EXIT_DOMAIN
    assert capsys.readouterr() == ("", err)
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_huge_measurement_noise_runs(tmp_path, capsys):
    # R = 1e110 I puts det(H E H^T + R) beyond the float range; the filter
    # scales it away and runs, trusting its predictions
    r = [[1e110 if i == j else 0.0 for j in range(3)] for i in range(3)]
    out = tmp_path / "o"
    assert main(["simulate", "--scenario", _desk(tmp_path, kalman={"measurement_noise_m2": r}),
                 "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out.startswith("seed 42: 200 steps, kalman rmse ")
    assert (out / "steps.csv").exists()


LONG_SEED = "9" * 300


@pytest.mark.parametrize("argv, out, unwritable", [
    (["simulate"], "file/out", "file/out"),
    (["scan"], "file/out", "file/out"),
    (["deploy", "--roi", "60x40", "--range-m", "25"], "file/out", "file/out"),
    (["compare"], "file/out", "file/out"),
    (["simulate", "--seeds", "2", "--seed", LONG_SEED], "o", f"o/seed_{LONG_SEED}"),
], ids=["simulate", "scan", "deploy", "compare", "seed_dir_name"])
def test_unwritable_out_exits_2(tmp_path, capsys, argv, out, unwritable):
    # an --out below a regular file, or a seed directory whose name is
    # longer than the file system allows, is bad input, not an internal error
    (tmp_path / "file").write_text("")
    if argv[0] != "deploy":
        argv = argv + ["--scenario", str(write_scenario(tmp_path / "s.json"))]
    assert main(argv + ["--out", str(tmp_path / out)]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith(f"error: cannot write {tmp_path / unwritable}: ")


@pytest.mark.parametrize("command", ["simulate", "compare"])
def test_run_without_raw_fixes_succeeds(tmp_path, capsys, command):
    # at -71.6 dBm the lone step's first samples leave fewer than three
    # beacons heard, while the window means resolve: raw has no estimate,
    # and its statistics are null rather than a failed run
    scn = _desk(tmp_path, trajectory_m={"static": [12, 9], "steps": 1},
                radio={"sensitivity_dbm": -71.6})
    out = tmp_path / "o"
    assert main([command, "--scenario", scn, "--seed", "0", "--out", str(out)]) == EXIT_OK
    name = "summary.json" if command == "simulate" else "metrics.json"
    doc = json.loads((out / name).read_text())
    metrics = doc["metrics"] if command == "simulate" else doc
    assert metrics["raw"]["rmse_m"] is None and metrics["raw"]["error_cdf_m"] == []
    assert metrics["raw"]["resolved_steps"] == 0 and metrics["raw"]["unresolved_steps"] == 1
    assert metrics["kalman"]["rmse_m"] is not None
    if command == "compare":
        assert "raw       rmse n/a" in capsys.readouterr().out


def test_seed_sweep_parses_and_prechecks_once(tmp_path, monkeypatch):
    calls = {"parse": 0, "precheck": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(cli, "parse_scenario", counted("parse", cli.parse_scenario))
    monkeypatch.setattr(cli, "_coverage_precheck", counted("precheck", cli._coverage_precheck))
    scn = write_scenario(tmp_path / "s.json")
    out = tmp_path / "sweep"
    assert main(["simulate", "--scenario", str(scn), "--out", str(out), "--seeds", "4"]) == EXIT_OK
    assert calls == {"parse": 1, "precheck": 1}
    seeds = [json.loads((out / f"seed_{s}" / "summary.json").read_text())["seed"] for s in range(42, 46)]
    assert seeds == [42, 43, 44, 45]


def test_sweep_divergence_keeps_earlier_outputs(tmp_path, capsys, monkeypatch):
    # three seeds with the second seed's filter diverging at step 5: the
    # sweep exits 3 there, with the first seed's outputs written as a lone
    # run writes them before the diverging seed runs. Every step of this
    # scenario resolves, so the first seed steps at steps 1 to 24 of 25,
    # and the 24 + 5th step call is the second seed's step 5.
    from rssiloc import kernels

    real = kernels.ekf_step
    calls = iter(range(1, 1000))

    def diverge_second_seed_at_step_five(*args):
        status, *state = real(*args)
        return (2 if next(calls) == 24 + 5 else status), *state

    scn = write_scenario(tmp_path / "s.json", shadowing={"sigma_db": 2.0})
    alone = tmp_path / "alone"
    assert main(["simulate", "--scenario", str(scn), "--out", str(alone)]) == EXIT_OK
    capsys.readouterr()
    monkeypatch.setattr(kernels, "ekf_step", diverge_second_seed_at_step_five)
    out = tmp_path / "sweep"
    assert main(["simulate", "--scenario", str(scn), "--out", str(out), "--seeds", "3"]) == EXIT_DOMAIN
    assert capsys.readouterr().err == "error: range filter diverged at step 5\n"
    assert sorted(p.name for p in out.iterdir()) == ["seed_42"]
    for name in ("steps.csv", "summary.json"):
        assert (out / "seed_42" / name).read_bytes() == (alone / name).read_bytes()


@st.composite
def scenarios(draw):
    """Small valid scenarios with every section set."""
    unit = st.floats(0.0, 1.0)
    dbm = st.floats(-200.0, 100.0)
    positive = st.floats(0.01, 1e3)
    x0, y0 = draw(st.floats(-1e3, 1e3)), draw(st.floats(-1e3, 1e3))
    roi = Rect(x0, y0, x0 + draw(positive), y0 + draw(positive))
    ids = draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=5, unique=True))
    beacons = tuple(AnchorNode(i, Point2D(draw(st.floats(-1e3, 1e3)), draw(st.floats(-1e3, 1e3))))
                    for i in ids)
    on_beacon = {(b.position.x, b.position.y) for b in beacons}
    walk = st.builds(lambda u, v: (roi.x_min + u * roi.width, roi.y_min + v * roi.height),
                     unit, unit).filter(lambda p: roi.contains(Point2D(*p)) and p not in on_beacon)
    tx = draw(dbm)
    a, b = draw(st.floats(0.0, 10.0)), draw(st.floats(0.0, 10.0))
    r_off = [draw(st.floats(-0.4, 0.4)) for _ in range(3)]
    return Scenario(
        roi=roi,
        beacons=beacons,
        trajectory=draw(st.lists(walk, min_size=1, max_size=4)),
        seed=draw(st.integers(0, 2**64)),
        path_loss=PathLossParams(draw(dbm), draw(positive), draw(positive)),
        radio=RadioSpec(tx, tx - draw(positive), draw(positive)),
        shadowing=ShadowingModel(draw(st.floats(0.0, 10.0))),
        environment=ChannelEnvironment(
            tuple(InterfererProfile(WifiChannel(draw(st.integers(1, 13))), draw(dbm), draw(unit))
                  for _ in range(draw(st.integers(0, 3)))),
            draw(dbm),
        ),
        scan=ScanConfig(draw(st.integers(1, cli.MAX_SAMPLES)), draw(st.floats(0.0, 1e3))),
        kalman=KalmanConfig(
            np.array([[draw(st.floats(-2, 2)) for _ in range(2)] for _ in range(2)]),
            np.array([draw(st.floats(-5, 5)) for _ in range(2)]),
            # diagonally dominant: Q positive semidefinite, R positive definite
            np.array([[a, 0.5 * min(a, b)], [0.5 * min(a, b), b]]),
            np.array([[1.0, r_off[0], r_off[1]], [r_off[0], 1.5, r_off[2]],
                      [r_off[1], r_off[2], 2.0]]),
        ),
        aggregation_window=draw(st.integers(1, cli.MAX_SAMPLES)),
    )


@settings(max_examples=50, deadline=None)
@given(scenarios())
def test_scenario_echo_round_trips(s):
    echo = scenario_to_dict(s)
    assert scenario_to_dict(parse_scenario(json.loads(json.dumps(echo)))) == echo


# A valid document that sets every section, on a three-step walk.
FULL_DOC = {
    "seed": 3,
    "roi_m": {"x_min": 0, "y_min": 0, "x_max": 30, "y_max": 30},
    "beacons": TRIANGLE_BEACONS,
    "trajectory_m": [[12, 9], [13, 10], [14, 11]],
    "path_loss": {"rssi_at_ref_dbm": -45.0, "ref_distance_m": 1.0, "exponent": 2.0},
    "radio": {"tx_power_dbm": 20.0, "sensitivity_dbm": -107.0, "max_range_m": 60.0},
    "shadowing": {"sigma_db": 2.0},
    "environment": {
        "noise_floor_dbm": -100.0,
        "interferers": [{"wifi_channel": 6, "rx_power_dbm": -70.0, "duty_cycle": 0.5}],
    },
    "scan": {"samples_per_channel": 2, "sample_interval_ms": 100.0},
    "kalman": {
        "state_transition": [[1, 0], [0, 1]],
        "control_m": [0, 0],
        "process_noise_m2": [[0.01, 0], [0, 0.01]],
        "measurement_noise_m2": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    },
    "aggregation_window": 4,
}


def _doc_paths(obj, prefix=()):
    """Key/index path of every value inside a document."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _doc_paths(value, prefix + (key,))


# Small integers and any float up front: most fields hold numbers, and
# their boundaries (-1, 0, 2, 99, huge, NaN) sit there.
JSON_VALUES = st.integers(-2, 100) | st.floats() | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(list(_doc_paths(FULL_DOC))), JSON_VALUES)
@example(("shadowing", "sigma_db"), -0.0)
def test_fuzzed_field_never_exits_internal(path, value):
    """Any JSON value in place of any one field is rejected or run, never a
    crash, and stderr holds nothing but the one error report: no warning."""
    doc = copy.deepcopy(FULL_DOC)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    # hypothesis rejects function-scoped fixtures such as capsys
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        scn = Path(tmp) / "s.json"
        scn.write_text(json.dumps(doc))
        code = main(["simulate", "--scenario", str(scn), "--out", str(Path(tmp) / "o")])
    assert code != EXIT_INTERNAL
    assert err.getvalue() == "" or err.getvalue().startswith("error: "), err.getvalue()
