"""Command-line front end.

Subcommands: `simulate` (full pipeline run to steps.csv + summary.json),
`scan` (energy scan to scan.csv), `deploy` (beacon grid planning to
beacons.csv), `compare` (per-step pipeline errors to compare.csv).

Scenario files are JSON mirroring the Scenario type field-for-field,
physical quantities carrying their unit in the field name. Unknown
fields are rejected, missing optional sections take library defaults,
and `seed` is required. Exit codes: 0 success, 2 malformed input,
3 domain/coverage failure, 1 internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import kernels
from .channel import ScanConfig, scan_all_channels, select_channel
from .geometry import AnchorNode, Point2D, Rect
from .radio import PathLossParams, RadioSpec, ShadowingModel
from .simulate import (
    Metrics,
    RunResult,
    Scenario,
    compute_metrics,
    plan_square_grid_deployment,
    run_scenario,
    verify_three_coverage,
)
from .spectrum import ChannelEnvironment, InterfererProfile, WifiChannel
from .tracking import KalmanConfig

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_DOMAIN = 3


class ScenarioFileError(Exception):
    """Malformed scenario file; message carries the offending field path."""


# ---------------------------------------------------------------------------
# scenario file parsing


def _require_mapping(obj, path):
    if not isinstance(obj, dict):
        raise ScenarioFileError(f"{path}: expected an object")
    return obj


def _check_fields(obj: dict, path: str, required: set[str], optional: set[str]):
    unknown = set(obj) - required - optional
    if unknown:
        raise ScenarioFileError(f"{path}: unknown field(s) {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ScenarioFileError(f"{path}: missing required field(s) {sorted(missing)}")


def _number(obj, path) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ScenarioFileError(f"{path}: expected a number")
    try:
        value = float(obj)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ScenarioFileError(f"{path}: expected a finite number, got {value}")
    return value


def _integer(obj, path) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ScenarioFileError(f"{path}: expected an integer")
    return obj


def _point(obj, path) -> Point2D:
    if not (isinstance(obj, list) and len(obj) == 2):
        raise ScenarioFileError(f"{path}: expected [x, y]")
    return Point2D(_number(obj[0], f"{path}[0]"), _number(obj[1], f"{path}[1]"))


def _matrix(obj, path, shape) -> np.ndarray:
    try:
        arr = np.array(obj, dtype=float)
    except (TypeError, ValueError):
        raise ScenarioFileError(f"{path}: expected a numeric array") from None
    if arr.shape != shape:
        raise ScenarioFileError(f"{path}: expected shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ScenarioFileError(f"{path}: expected finite numbers")
    return arr


def _parse_trajectory(obj, path) -> tuple[Point2D, ...]:
    if isinstance(obj, dict):
        _check_fields(obj, path, {"static", "steps"}, set())
        point = _point(obj["static"], f"{path}.static")
        steps = _integer(obj["steps"], f"{path}.steps")
        if steps < 1:
            raise ScenarioFileError(f"{path}.steps: must be >= 1")
        return (point,) * steps
    if isinstance(obj, list):
        return tuple(_point(p, f"{path}[{i}]") for i, p in enumerate(obj))
    raise ScenarioFileError(f"{path}: expected a waypoint list or a static shorthand")


def parse_scenario(doc: dict) -> Scenario:
    """Build a Scenario from a parsed JSON document, validating strictly."""
    _require_mapping(doc, "$")
    _check_fields(
        doc,
        "$",
        {"seed", "roi_m", "beacons", "trajectory_m"},
        {"path_loss", "radio", "shadowing", "environment", "scan", "kalman",
         "aggregation_window"},
    )

    seed = _integer(doc["seed"], "$.seed")

    roi_obj = _require_mapping(doc["roi_m"], "$.roi_m")
    _check_fields(roi_obj, "$.roi_m", {"x_min", "y_min", "x_max", "y_max"}, set())
    roi = Rect(*(_number(roi_obj[k], f"$.roi_m.{k}") for k in ("x_min", "y_min", "x_max", "y_max")))

    if not isinstance(doc["beacons"], list):
        raise ScenarioFileError("$.beacons: expected a list")
    beacons = []
    for i, b in enumerate(doc["beacons"]):
        _require_mapping(b, f"$.beacons[{i}]")
        _check_fields(b, f"$.beacons[{i}]", {"id", "x_m", "y_m"}, set())
        beacons.append(
            AnchorNode(
                _integer(b["id"], f"$.beacons[{i}].id"),
                Point2D(_number(b["x_m"], f"$.beacons[{i}].x_m"),
                        _number(b["y_m"], f"$.beacons[{i}].y_m")),
            )
        )

    trajectory = _parse_trajectory(doc["trajectory_m"], "$.trajectory_m")

    kwargs = {}
    if "path_loss" in doc:
        o = _require_mapping(doc["path_loss"], "$.path_loss")
        _check_fields(o, "$.path_loss", set(), {"rssi_at_ref_dbm", "ref_distance_m", "exponent"})
        defaults = PathLossParams()
        kwargs["path_loss"] = PathLossParams(
            rssi_at_ref=_number(o.get("rssi_at_ref_dbm", defaults.rssi_at_ref), "$.path_loss.rssi_at_ref_dbm"),
            ref_distance=_number(o.get("ref_distance_m", defaults.ref_distance), "$.path_loss.ref_distance_m"),
            exponent=_number(o.get("exponent", defaults.exponent), "$.path_loss.exponent"),
        )
    if "radio" in doc:
        o = _require_mapping(doc["radio"], "$.radio")
        _check_fields(o, "$.radio", set(), {"tx_power_dbm", "sensitivity_dbm", "max_range_m"})
        defaults = RadioSpec()
        kwargs["radio"] = RadioSpec(
            tx_power=_number(o.get("tx_power_dbm", defaults.tx_power), "$.radio.tx_power_dbm"),
            sensitivity=_number(o.get("sensitivity_dbm", defaults.sensitivity), "$.radio.sensitivity_dbm"),
            max_range=_number(o.get("max_range_m", defaults.max_range), "$.radio.max_range_m"),
        )
    if "shadowing" in doc:
        o = _require_mapping(doc["shadowing"], "$.shadowing")
        _check_fields(o, "$.shadowing", set(), {"sigma_db"})
        kwargs["shadowing"] = ShadowingModel(
            sigma=_number(o.get("sigma_db", ShadowingModel().sigma), "$.shadowing.sigma_db")
        )
    if "environment" in doc:
        o = _require_mapping(doc["environment"], "$.environment")
        _check_fields(o, "$.environment", set(), {"noise_floor_dbm", "interferers"})
        interferers = []
        for i, it in enumerate(o.get("interferers", [])):
            p = f"$.environment.interferers[{i}]"
            _require_mapping(it, p)
            _check_fields(it, p, {"wifi_channel", "rx_power_dbm", "duty_cycle"}, set())
            interferers.append(
                InterfererProfile(
                    WifiChannel(_integer(it["wifi_channel"], f"{p}.wifi_channel")),
                    _number(it["rx_power_dbm"], f"{p}.rx_power_dbm"),
                    _number(it["duty_cycle"], f"{p}.duty_cycle"),
                )
            )
        kwargs["environment"] = ChannelEnvironment(
            interferers=tuple(interferers),
            noise_floor=_number(o.get("noise_floor_dbm", ChannelEnvironment().noise_floor),
                                "$.environment.noise_floor_dbm"),
        )
    if "scan" in doc:
        o = _require_mapping(doc["scan"], "$.scan")
        _check_fields(o, "$.scan", set(), {"samples_per_channel", "sample_interval_ms"})
        defaults = ScanConfig()
        kwargs["scan"] = ScanConfig(
            samples_per_channel=_integer(o.get("samples_per_channel", defaults.samples_per_channel),
                                         "$.scan.samples_per_channel"),
            sample_interval_ms=_number(o.get("sample_interval_ms", defaults.sample_interval_ms),
                                       "$.scan.sample_interval_ms"),
        )
    if "kalman" in doc:
        o = _require_mapping(doc["kalman"], "$.kalman")
        _check_fields(o, "$.kalman", set(),
                      {"state_transition", "control_m", "process_noise_m2", "measurement_noise_m2"})
        defaults = KalmanConfig()
        kwargs["kalman"] = KalmanConfig(
            state_transition=(_matrix(o["state_transition"], "$.kalman.state_transition", (2, 2))
                              if "state_transition" in o else defaults.state_transition),
            control=(_matrix(o["control_m"], "$.kalman.control_m", (2,))
                     if "control_m" in o else defaults.control),
            process_noise=(_matrix(o["process_noise_m2"], "$.kalman.process_noise_m2", (2, 2))
                           if "process_noise_m2" in o else defaults.process_noise),
            measurement_noise=(_matrix(o["measurement_noise_m2"], "$.kalman.measurement_noise_m2", (3, 3))
                               if "measurement_noise_m2" in o else defaults.measurement_noise),
        )
    if "aggregation_window" in doc:
        kwargs["aggregation_window"] = _integer(doc["aggregation_window"], "$.aggregation_window")

    try:
        return Scenario(roi=roi, beacons=tuple(beacons), trajectory=trajectory,
                        seed=seed, **kwargs)
    except ValueError as exc:
        raise ScenarioFileError(str(exc)) from None


def load_scenario(path: Path, seed_override: int | None = None) -> Scenario:
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioFileError(f"cannot read {path}: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioFileError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    if seed_override is not None:
        _require_mapping(doc, "$")
        doc["seed"] = seed_override
    return parse_scenario(doc)


def scenario_to_dict(s: Scenario) -> dict:
    """Canonical file-schema echo of a scenario, defaults resolved."""
    return {
        "seed": s.seed,
        "roi_m": {"x_min": s.roi.x_min, "y_min": s.roi.y_min,
                  "x_max": s.roi.x_max, "y_max": s.roi.y_max},
        "beacons": [{"id": b.id, "x_m": b.position.x, "y_m": b.position.y} for b in s.beacons],
        "trajectory_m": [[p.x, p.y] for p in s.trajectory],
        "path_loss": {"rssi_at_ref_dbm": s.path_loss.rssi_at_ref,
                      "ref_distance_m": s.path_loss.ref_distance,
                      "exponent": s.path_loss.exponent},
        "radio": {"tx_power_dbm": s.radio.tx_power,
                  "sensitivity_dbm": s.radio.sensitivity,
                  "max_range_m": s.radio.max_range},
        "shadowing": {"sigma_db": s.shadowing.sigma},
        "environment": {
            "noise_floor_dbm": s.environment.noise_floor,
            "interferers": [
                {"wifi_channel": i.wifi_channel.index, "rx_power_dbm": i.rx_power,
                 "duty_cycle": i.duty_cycle}
                for i in s.environment.interferers
            ],
        },
        "scan": {"samples_per_channel": s.scan.samples_per_channel,
                 "sample_interval_ms": s.scan.sample_interval_ms},
        "kalman": {"state_transition": s.kalman.state_transition.tolist(),
                   "control_m": s.kalman.control.tolist(),
                   "process_noise_m2": s.kalman.process_noise.tolist(),
                   "measurement_noise_m2": s.kalman.measurement_noise.tolist()},
        "aggregation_window": s.aggregation_window,
    }


# ---------------------------------------------------------------------------
# output writers (repr floats: shortest round-trip, byte-stable)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _metrics_dict(m: Metrics) -> dict:
    return {
        "rmse_m": m.rmse,
        "mean_error_m": m.mean_error,
        "max_error_m": m.max_error,
        "error_cdf_m": list(m.error_cdf),
        "resolved_steps": m.resolved_steps,
        "unresolved_steps": m.unresolved_steps,
    }


def _step_rows(result: RunResult) -> list[list]:
    rows = []
    for rec in result.steps:
        rows.append([
            rec.step,
            rec.true_position.x, rec.true_position.y,
            rec.raw.x if rec.raw else None, rec.raw.y if rec.raw else None,
            rec.averaged.x if rec.averaged else None, rec.averaged.y if rec.averaged else None,
            rec.kalman.x if rec.kalman else None, rec.kalman.y if rec.kalman else None,
            rec.channel,
            1 if rec.resolved else 0,
        ])
    return rows


_STEP_HEADER = ["step", "true_x", "true_y", "raw_x", "raw_y", "avg_x", "avg_y",
                "kf_x", "kf_y", "channel", "resolved"]


def write_run_outputs(result: RunResult, s: Scenario, out_dir: Path, fmt: str) -> dict:
    """Write steps.<fmt> and summary.json; returns the summary object."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = _step_rows(result)
    if fmt == "json":
        _write_json(out_dir / "steps.json",
                    [dict(zip(_STEP_HEADER, row)) for row in rows])
    else:
        _write_csv(out_dir / "steps.csv", _STEP_HEADER, rows)
    summary = {
        "seed": s.seed,
        "config": scenario_to_dict(s),
        "metrics": {
            "raw": _metrics_dict(compute_metrics(result, "raw")),
            "averaged": _metrics_dict(compute_metrics(result, "averaged")),
            "kalman": _metrics_dict(compute_metrics(result, "kalman")),
        },
    }
    _write_json(out_dir / "summary.json", summary)
    return summary


def _coverage_precheck(s: Scenario) -> list[Point2D]:
    """Trajectory points not within planning range of >= 3 beacons."""
    px = np.array([p.x for p in s.trajectory])
    py = np.array([p.y for p in s.trajectory])
    bx = np.array([b.position.x for b in s.beacons])
    by = np.array([b.position.y for b in s.beacons])
    counts = kernels.coverage_counts(px, py, bx, by, s.radio.max_range, 3)
    bad = np.flatnonzero(counts < 3)
    seen = set()
    uncovered = []
    for i in bad:
        p = (float(px[i]), float(py[i]))
        if p not in seen:
            seen.add(p)
            uncovered.append(Point2D(*p))
    return uncovered


def _report_uncovered(uncovered: list[Point2D], what: str) -> None:
    print(f"error: {what}: {len(uncovered)} point(s) lack three-beacon coverage",
          file=sys.stderr)
    for p in uncovered[:20]:
        print(f"  uncovered: ({p.x}, {p.y})", file=sys.stderr)
    if len(uncovered) > 20:
        print(f"  ... and {len(uncovered) - 20} more", file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args) -> int:
    if args.seeds is not None and args.seeds < 1:
        raise ScenarioFileError(f"--seeds must be >= 1, got {args.seeds}")
    scenario = load_scenario(Path(args.scenario), args.seed)
    out_root = Path(args.out)

    seeds = [scenario.seed] if args.seeds is None else [
        scenario.seed + i for i in range(args.seeds)
    ]
    for seed in seeds:
        s = scenario if seed == scenario.seed else load_scenario(Path(args.scenario), seed)
        uncovered = _coverage_precheck(s)
        if uncovered:
            _report_uncovered(uncovered, "trajectory coverage precheck failed")
            return EXIT_DOMAIN
        result = run_scenario(s)
        out_dir = out_root if args.seeds is None else out_root / f"seed_{seed}"
        summary = write_run_outputs(result, s, out_dir, args.format)
        kf = summary["metrics"]["kalman"]
        print(f"seed {seed}: {len(result.steps)} steps, "
              f"kalman rmse {kf['rmse_m']:.4f} m -> {out_dir}")
    return EXIT_OK


def cmd_scan(args) -> int:
    scenario = load_scenario(Path(args.scenario), args.seed)
    rng = np.random.default_rng(scenario.seed)
    report = scan_all_channels(scenario.environment, scenario.scan, rng)
    selected = select_channel(report)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [[r.channel.index, r.channel.center_mhz, r.mean_energy, r.variance]
            for r in report.records]
    _write_csv(out_dir / "scan.csv", ["channel", "center_mhz", "mean_dbm", "variance_db2"], rows)
    print(f"selected channel: {selected.index}")
    return EXIT_OK


def _parse_roi(text: str) -> Rect:
    try:
        w, h = (float(v) for v in text.lower().split("x"))
    except ValueError:
        raise ScenarioFileError(f"--roi: expected WIDTHxHEIGHT, got {text!r}") from None
    if not (0 < w < math.inf and 0 < h < math.inf):
        raise ScenarioFileError(f"--roi: width and height must be finite and > 0, got {text!r}")
    return Rect(0.0, 0.0, w, h)


def cmd_deploy(args) -> int:
    roi = _parse_roi(args.roi)
    if not 0 < args.range_m < math.inf:
        raise ScenarioFileError(f"--range-m must be finite and > 0, got {args.range_m}")
    if not 0 < args.safety <= 1:
        raise ScenarioFileError(f"--safety must be in (0, 1], got {args.safety}")
    if not 0 < args.grid_step < math.inf:
        raise ScenarioFileError(f"--grid-step must be finite and > 0, got {args.grid_step}")
    plan = plan_square_grid_deployment(roi, args.range_m, args.safety)
    ok, uncovered = verify_three_coverage(plan, roi, args.range_m, args.grid_step)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [[i, p.x, p.y] for i, p in enumerate(plan.positions)]
    _write_csv(out_dir / "beacons.csv", ["id", "x", "y"], rows)
    _write_json(out_dir / "coverage.json", {
        "covered": ok,
        "beacons": len(plan.positions),
        "spacing_x_m": plan.spacing_x,
        "spacing_y_m": plan.spacing_y,
        "uncovered_points": [[p.x, p.y] for p in uncovered[:100]],
    })
    print(f"{len(plan.positions)} beacons at spacing "
          f"({plan.spacing_x:.4g}, {plan.spacing_y:.4g}) m; "
          f"coverage {'pass' if ok else 'FAIL'}")
    if not ok:
        _report_uncovered(uncovered, "deployment verification failed")
        return EXIT_DOMAIN
    return EXIT_OK


def cmd_compare(args) -> int:
    s = load_scenario(Path(args.scenario), args.seed)
    uncovered = _coverage_precheck(s)
    if uncovered:
        _report_uncovered(uncovered, "trajectory coverage precheck failed")
        return EXIT_DOMAIN
    result = run_scenario(s)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    def err(est, true_pt):
        if est is None:
            return None
        return float(np.hypot(est.x - true_pt.x, est.y - true_pt.y))

    rows = [[rec.step,
             err(rec.raw, rec.true_position),
             err(rec.averaged, rec.true_position),
             err(rec.kalman, rec.true_position)]
            for rec in result.steps]
    _write_csv(out_dir / "compare.csv",
               ["step", "error_raw_m", "error_avg_m", "error_kf_m"], rows)
    metrics = {
        "raw": _metrics_dict(compute_metrics(result, "raw")),
        "averaged": _metrics_dict(compute_metrics(result, "averaged")),
        "kalman": _metrics_dict(compute_metrics(result, "kalman")),
    }
    _write_json(out_dir / "metrics.json", metrics)
    for name in ("raw", "averaged", "kalman"):
        print(f"{name:9s} rmse {metrics[name]['rmse_m']:.4f} m")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rssiloc",
        description="RSSI localization simulator: channel selection, "
                    "trilateration and Kalman tracking under WiFi interference.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run the full pipeline on a scenario file")
    p.add_argument("--scenario", required=True, help="scenario JSON path")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.add_argument("--seeds", type=int, default=None, metavar="N",
                   help="sweep N consecutive seeds into per-seed subdirectories")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="per-step output format")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("scan", help="energy-scan the 16 channels and pick one")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", default="out")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("deploy", help="plan a beacon grid for a rectangular roi")
    p.add_argument("--roi", required=True, help="roi size as WIDTHxHEIGHT, meters")
    p.add_argument("--range-m", type=float, required=True, help="beacon radio range")
    p.add_argument("--safety", type=float, default=0.9, help="spacing derating factor")
    p.add_argument("--grid-step", type=float, default=0.25,
                   help="verification lattice pitch, meters")
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_deploy)

    p = sub.add_parser("compare", help="per-step error comparison of the three pipelines")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", default="out")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScenarioFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
