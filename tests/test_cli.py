import json
from pathlib import Path

import pytest

from rssiloc.cli import (
    EXIT_DOMAIN,
    EXIT_INPUT,
    EXIT_OK,
    main,
)

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


def test_simulate_json_format(tmp_path):
    scn = write_scenario(tmp_path / "s.json")
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", str(scn), "--out", str(out), "--format", "json"]) == EXIT_OK
    steps = json.loads((out / "steps.json").read_text())
    assert len(steps) == 25
    assert steps[0]["channel"] == 11


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
    ["--grid-step", "0"],
    ["--grid-step", "-1"],
    ["--grid-step", "nan"],
    ["--grid-step", "inf"],
    ["--range-m", "nan"],
    ["--range-m", "inf"],
])
def test_deploy_flags_out_of_range(tmp_path, flags):
    argv = ["deploy", "--roi", "30x30", "--range-m", "25", "--out", str(tmp_path / "o")]
    assert main(argv + flags) == EXIT_INPUT


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
