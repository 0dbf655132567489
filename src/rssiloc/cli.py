"""Command-line front end.

Subcommands: `simulate` (full pipeline run to steps.csv + summary.json),
`scan` (energy scan to scan.csv), `deploy` (beacon grid planning to
beacons.csv), `compare` (per-step pipeline errors to compare.csv).

Scenario files are JSON mirroring the Scenario type field-for-field,
physical quantities carrying their unit in the field name; one table,
_FIELDS, lays the schema out. Unknown fields are rejected, missing
optional fields take library defaults, and `seed` is required.

Exit codes: 0 success; 2 malformed input, including any value a library
type rejects (the message names its field path) or an unwritable --out;
3 domain failure: no three-beacon coverage, no resolved step, a diverged
filter, or a plan or verification lattice over its capacity; 1 internal error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import kernels
from .channel import ScanConfig, scan_all_channels, select_channel
from .errors import LocalizationError
from .geometry import AnchorNode, Point2D, Rect
from .radio import PathLossParams, RadioSpec, ShadowingModel
from .simulate import (
    FLAVORS,
    RunResult,
    Scenario,
    compute_metrics,
    plan_square_grid_deployment,
    run_batch,
    run_scenario,
    step_errors,
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

# Caps on the sizes the input sets, checked before anything is allocated:
# the trajectory's step count, the samples drawn per scan channel or
# per aggregation window, the interferer count (a scan draws 16 x samples
# x interferers uniforms at once), the seeds of a `--seeds` sweep, the
# beacon count, and trajectory steps x beacons (a run holds the true and
# the aggregated RSSI, one float each per step and beacon, and a sweep
# keeps the run it last wrote while the next one runs: three such arrays,
# 80 MB each at 10**7).
MAX_STEPS = 100_000
MAX_SAMPLES = 1_000
MAX_INTERFERERS = 256
MAX_SEEDS = 100_000
MAX_BEACONS = 1_024
MAX_RSSI_CELLS = 10_000_000


def _build(cls, path, **kw):
    """cls(**kw), with the constructor's ValueError reported at `path`."""
    try:
        return cls(**kw)
    except ValueError as exc:
        raise ScenarioFileError(f"{path}: {exc}") from None


def _check_fields(obj, path: str, required: set[str], optional: set[str]):
    if not isinstance(obj, dict):
        raise ScenarioFileError(f"{path}: expected an object")
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


def _count(cap):
    """Parser for a size taken from the file: an integer in [1, cap]."""
    def parse(obj, path) -> int:
        value = _integer(obj, path)
        if not 1 <= value <= cap:
            raise ScenarioFileError(f"{path}: must be in [1, {cap}], got {value}")
        return value
    return parse


def _point(obj, path) -> Point2D:
    if not (isinstance(obj, list) and len(obj) == 2):
        raise ScenarioFileError(f"{path}: expected [x, y]")
    return Point2D(_number(obj[0], f"{path}[0]"), _number(obj[1], f"{path}[1]"))


def _matrix(*shape):
    """Parser for nested lists of finite numbers with the given shape."""
    def nested(obj, path, dims):
        if not dims:
            return _number(obj, path)
        if not (isinstance(obj, list) and len(obj) == dims[0]):
            raise ScenarioFileError(f"{path}: expected a list of {dims[0]}")
        return [nested(item, f"{path}[{i}]", dims[1:]) for i, item in enumerate(obj)]
    return lambda obj, path: np.array(nested(obj, path, shape))


def _list_of(parse, cap=None):
    def parse_list(obj, path) -> tuple:
        if not isinstance(obj, list):
            raise ScenarioFileError(f"{path}: expected a list")
        if cap is not None and len(obj) > cap:
            raise ScenarioFileError(f"{path}: must hold at most {cap} entries, got {len(obj)}")
        return tuple(parse(item, f"{path}[{i}]") for i, item in enumerate(obj))
    return parse_list


def _record(cls):
    """Parser for an object laid out by _FIELDS[cls]. A field is optional
    when the dataclass gives its attribute a default, which an absent
    field takes."""
    def parse(obj, path):
        table = _FIELDS[cls]
        defaulted = {f.name for f in dataclasses.fields(cls)
                     if f.default is not dataclasses.MISSING
                     or f.default_factory is not dataclasses.MISSING}
        _check_fields(obj, path,
                      {name for name, attr, _ in table if attr not in defaulted},
                      {name for name, attr, _ in table if attr in defaulted})
        return _build(cls, path, **{attr: field_parser(obj[name], f"{path}.{name}")
                                    for name, attr, field_parser in table if name in obj})
    return parse


def _beacon(obj, path) -> AnchorNode:
    _check_fields(obj, path, {"id", "x_m", "y_m"}, set())
    position = Point2D(_number(obj["x_m"], f"{path}.x_m"), _number(obj["y_m"], f"{path}.y_m"))
    return _build(AnchorNode, path, id=_integer(obj["id"], f"{path}.id"), position=position)


def _trajectory(obj, path) -> tuple[Point2D, ...]:
    if isinstance(obj, dict):
        _check_fields(obj, path, {"static", "steps"}, set())
        point = _point(obj["static"], f"{path}.static")
        return (point,) * _count(MAX_STEPS)(obj["steps"], f"{path}.steps")
    if isinstance(obj, list):
        return _list_of(_point, MAX_STEPS)(obj, path)
    raise ScenarioFileError(f"{path}: expected a waypoint list or a static shorthand")


def _wifi_channel(obj, path) -> WifiChannel:
    return _build(WifiChannel, path, index=_integer(obj, path))


# The scenario schema: for each library type, its file fields as
# (file field, attribute, parser). parse_scenario and scenario_to_dict
# both walk this table.
_FIELDS = {
    Scenario: (
        ("seed", "seed", _integer),
        ("roi_m", "roi", _record(Rect)),
        ("beacons", "beacons", _list_of(_beacon, MAX_BEACONS)),
        ("trajectory_m", "trajectory", _trajectory),
        ("path_loss", "path_loss", _record(PathLossParams)),
        ("radio", "radio", _record(RadioSpec)),
        ("shadowing", "shadowing", _record(ShadowingModel)),
        ("environment", "environment", _record(ChannelEnvironment)),
        ("scan", "scan", _record(ScanConfig)),
        ("kalman", "kalman", _record(KalmanConfig)),
        ("aggregation_window", "aggregation_window", _count(MAX_SAMPLES)),
    ),
    Rect: (
        ("x_min", "x_min", _number),
        ("y_min", "y_min", _number),
        ("x_max", "x_max", _number),
        ("y_max", "y_max", _number),
    ),
    PathLossParams: (
        ("rssi_at_ref_dbm", "rssi_at_ref", _number),
        ("ref_distance_m", "ref_distance", _number),
        ("exponent", "exponent", _number),
    ),
    RadioSpec: (
        ("tx_power_dbm", "tx_power", _number),
        ("sensitivity_dbm", "sensitivity", _number),
        ("max_range_m", "max_range", _number),
    ),
    ShadowingModel: (("sigma_db", "sigma", _number),),
    ChannelEnvironment: (
        ("noise_floor_dbm", "noise_floor", _number),
        ("interferers", "interferers", _list_of(_record(InterfererProfile), MAX_INTERFERERS)),
    ),
    InterfererProfile: (
        ("wifi_channel", "wifi_channel", _wifi_channel),
        ("rx_power_dbm", "rx_power", _number),
        ("duty_cycle", "duty_cycle", _number),
    ),
    ScanConfig: (
        ("samples_per_channel", "samples_per_channel", _count(MAX_SAMPLES)),
        ("sample_interval_ms", "sample_interval_ms", _number),
    ),
    KalmanConfig: (
        ("state_transition", "state_transition", _matrix(2, 2)),
        ("control_m", "control", _matrix(2)),
        ("process_noise_m2", "process_noise", _matrix(2, 2)),
        ("measurement_noise_m2", "measurement_noise", _matrix(3, 3)),
    ),
}


def parse_scenario(doc: dict) -> Scenario:
    """Build a Scenario from a parsed JSON document, validating strictly."""
    s = _record(Scenario)(doc, "$")
    cells = len(s.trajectory) * len(s.beacons)
    if cells > MAX_RSSI_CELLS:
        raise ScenarioFileError(
            f"$.beacons: {len(s.beacons)} beacons over {len(s.trajectory)} trajectory "
            f"steps make {cells} RSSI readings (limit {MAX_RSSI_CELLS})")
    return s


def load_scenario(path: Path, seed_override: int | None = None) -> Scenario:
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioFileError(f"cannot read {path}: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioFileError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise ScenarioFileError(f"{path}: JSON nested too deeply") from None
    if seed_override is not None and isinstance(doc, dict):
        doc["seed"] = seed_override
    return parse_scenario(doc)


def _echo(value):
    """File-schema form of a parsed value: the inverse of its parser."""
    table = _FIELDS.get(type(value))
    if table is not None:
        return {name: _echo(getattr(value, attr)) for name, attr, _ in table}
    if isinstance(value, tuple):
        return [_echo(item) for item in value]
    if isinstance(value, AnchorNode):
        return {"id": value.id, "x_m": value.position.x, "y_m": value.position.y}
    if isinstance(value, Point2D):
        return [value.x, value.y]
    if isinstance(value, WifiChannel):
        return value.index
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def scenario_to_dict(s: Scenario) -> dict:
    """Canonical file-schema echo of a scenario, defaults resolved."""
    return _echo(s)


# ---------------------------------------------------------------------------
# output writers (repr floats: shortest round-trip, byte-stable)


def _cells(column: np.ndarray) -> list[str]:
    """Text cells of one output column: ints as str, floats as their repr,
    NaN (an absent estimate) as an empty cell."""
    values = column.tolist()
    if column.dtype.kind != "f":
        return list(map(str, values))
    cells = list(map(float.__repr__, values))
    if np.isnan(column).any():
        cells = ["" if cell == "nan" else cell for cell in cells]
    return cells


def _write_csv(path: Path, header: list[str], columns) -> None:
    """One line per row of the columns; a column is an array, which
    _cells formats, or a list of its cells' text."""
    cells = [column if isinstance(column, list) else _cells(column) for column in columns]
    path.write_text("\n".join([",".join(header), *map(",".join, zip(*cells))]) + "\n")


class _Json(str):
    """JSON text already encoded at its place in the output."""


def _encode(obj, indent: str = "") -> str:
    """The text of json.dumps(obj, indent=2, sort_keys=True) for obj, with
    string dict keys, sitting at `indent`. A list of finite floats or of
    ints is joined in one go, each number as its repr, which is how json
    writes it; strings, keys, None, bools, NaN, infinities and empty
    containers go through json.dumps."""
    if isinstance(obj, _Json):
        return obj
    inner = indent + "  "
    if isinstance(obj, dict) and obj:
        items = (f"{json.dumps(key)}: {_encode(obj[key], inner)}" for key in sorted(obj))
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}"
    if isinstance(obj, (list, tuple)) and obj:
        kinds = set(map(type, obj))
        if kinds == {float} and math.isfinite(sum(obj)):
            items = map(float.__repr__, obj)
        elif kinds == {int}:
            items = map(int.__repr__, obj)
        else:
            items = (_encode(item, inner) for item in obj)
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"
    return json.dumps(obj)


def _write_json(path: Path, obj) -> None:
    path.write_text(_encode(obj) + "\n")


def _metrics_block(result: RunResult) -> dict:
    """Error statistics of each estimate flavor, as summary.json and
    metrics.json carry them."""
    block = {}
    for flavor in FLAVORS:
        m = compute_metrics(result, flavor)
        block[flavor] = {
            "rmse_m": m.rmse,
            "mean_error_m": m.mean_error,
            "max_error_m": m.max_error,
            "error_cdf_m": list(m.error_cdf),
            "resolved_steps": m.resolved_steps,
            "unresolved_steps": m.unresolved_steps,
        }
    return block


_STEP_HEADER = ["step", "true_x", "true_y", "raw_x", "raw_y", "avg_x", "avg_y",
                "kf_x", "kf_y", "channel", "resolved"]


def _values(column: np.ndarray) -> list:
    """Python values of one output column, NaN (an absent estimate) as
    None, which JSON writes as null."""
    if column.dtype.kind != "f":
        return column.tolist()
    values = column.astype(object)
    values[np.isnan(column)] = None
    return values.tolist()


class ScenarioText:
    """Output text that every run of one scenario shares, so a sweep
    encodes it once: `config`, the config echo's fields as summary.json
    text (each run sets its own seed), and `step_cells`, the step, true_x
    and true_y cells of steps.csv."""

    def __init__(self, s: Scenario):
        self.config = {key: _Json(_encode(value, "    "))
                       for key, value in scenario_to_dict(s).items()}
        true = np.array([(p.x, p.y) for p in s.trajectory], dtype=np.float64)
        self.step_cells = [list(map(str, range(len(true)))), _cells(true[:, 0]),
                           _cells(true[:, 1])]


def write_run_outputs(result: RunResult, text: ScenarioText, out_dir: Path, fmt: str,
                      seed: int) -> dict:
    """Write steps.<fmt> and summary.json of the run of this seed; returns
    its metrics block. A run where no step resolved raises before any file
    is written."""
    metrics = _metrics_block(result)
    out_dir.mkdir(parents=True, exist_ok=True)
    columns = [*result.raw.T, *result.averaged.T, *result.kalman.T, result.channel,
               result.resolved.astype(np.int64)]
    if fmt == "json":
        columns = [np.arange(len(result.true)), *result.true.T, *columns]
        rows = zip(*map(_values, columns))
        _write_json(out_dir / "steps.json", [dict(zip(_STEP_HEADER, row)) for row in rows])
    else:
        _write_csv(out_dir / "steps.csv", _STEP_HEADER, [*text.step_cells, *columns])
    _write_json(out_dir / "summary.json",
                {"seed": seed, "config": dict(text.config, seed=seed), "metrics": metrics})
    return metrics


def _coverage_precheck(s: Scenario) -> None:
    """Fail on the trajectory points not within reach of >= 3 beacons. A
    beacon's reach is the lower of the radio's planning range and the
    distance at which the path-loss mean falls to the receiver sensitivity."""
    pl = s.path_loss
    px = np.array([p.x for p in s.trajectory])
    py = np.array([p.y for p in s.trajectory])
    bx = np.array([b.position.x for b in s.beacons])
    by = np.array([b.position.y for b in s.beacons])
    # a reach or a squared distance beyond the float range is inf, and
    # compares as such
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        heard = kernels.path_loss_range(np.float64(s.radio.sensitivity), pl.rssi_at_ref,
                                        pl.ref_distance, pl.exponent)
        reach = min(s.radio.max_range, float(heard))
        counts = kernels.coverage_counts(px, py, bx, by, reach, 3)
    bad = counts < 3
    if bad.any():
        raise _coverage_failure("trajectory coverage precheck failed", [
            Point2D(*p) for p in dict.fromkeys(zip(px[bad].tolist(), py[bad].tolist()))])


def _coverage_failure(what: str, uncovered: list[Point2D]) -> LocalizationError:
    """The error naming the points that lack three-beacon coverage."""
    lines = [f"{what}: {len(uncovered)} point(s) lack three-beacon coverage"]
    lines += [f"  uncovered: ({p.x}, {p.y})" for p in uncovered[:20]]
    if len(uncovered) > 20:
        lines.append(f"  ... and {len(uncovered) - 20} more")
    return LocalizationError("\n".join(lines))


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args) -> None:
    if args.seeds is not None and not 1 <= args.seeds <= MAX_SEEDS:
        raise ScenarioFileError(f"--seeds must be in [1, {MAX_SEEDS}], got {args.seeds}")
    scenario = load_scenario(Path(args.scenario), args.seed)
    _coverage_precheck(scenario)
    seeds = [scenario.seed + i for i in range(1 if args.seeds is None else args.seeds)]
    out_root = Path(args.out)
    text = ScenarioText(scenario)
    # each run is written as it arrives, so the runs before a diverged seed
    # keep their outputs; a single run writes to the output directory itself
    for seed, result in zip(seeds, run_batch(scenario, seeds)):
        out_dir = out_root if args.seeds is None else out_root / f"seed_{seed}"
        kf = write_run_outputs(result, text, out_dir, args.format, seed)["kalman"]
        print(f"seed {seed}: {len(result.true)} steps, "
              f"kalman rmse {kf['rmse_m']:.4f} m -> {out_dir}")


def cmd_scan(args) -> None:
    scenario = load_scenario(Path(args.scenario), args.seed)
    rng = np.random.default_rng(scenario.seed)
    report = scan_all_channels(scenario.environment, scenario.scan, rng)
    selected = select_channel(report)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [(r.channel.index, r.channel.center_mhz, r.mean_energy, r.variance)
            for r in report.records]
    _write_csv(out_dir / "scan.csv", ["channel", "center_mhz", "mean_dbm", "variance_db2"],
               [np.array(column) for column in zip(*rows)])
    print(f"selected channel: {selected.index}")


def _parse_roi(text: str) -> Rect:
    try:
        w, h = (float(v) for v in text.lower().split("x"))
    except ValueError:
        raise ScenarioFileError(f"--roi: expected WIDTHxHEIGHT, got {text!r}") from None
    if not (0 < w < math.inf and 0 < h < math.inf):
        raise ScenarioFileError(f"--roi: width and height must be finite and > 0, got {text!r}")
    return Rect(0.0, 0.0, w, h)


def cmd_deploy(args) -> None:
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
    _write_csv(out_dir / "beacons.csv", ["id", "x", "y"],
               [np.arange(len(plan.positions)), np.array([p.x for p in plan.positions]),
                np.array([p.y for p in plan.positions])])
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
        raise _coverage_failure("deployment verification failed", uncovered)


def cmd_compare(args) -> None:
    s = load_scenario(Path(args.scenario), args.seed)
    _coverage_precheck(s)
    result = run_scenario(s)
    metrics = _metrics_block(result)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    _write_csv(out_dir / "compare.csv", ["step", "error_raw_m", "error_avg_m", "error_kf_m"],
               [np.arange(len(result.true)),
                *(step_errors(result, flavor) for flavor in FLAVORS)])
    _write_json(out_dir / "metrics.json", metrics)
    for flavor in FLAVORS:
        rmse = metrics[flavor]["rmse_m"]
        print(f"{flavor:9s} rmse " + ("n/a" if rmse is None else f"{rmse:.4f} m"))


# ---------------------------------------------------------------------------
# entry point


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process."""
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
        args.func(args)
    except ScenarioFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except LocalizationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:  # load_scenario reports read errors, so this is --out
        print(f"error: cannot write {exc.filename or args.out}: {exc.strerror}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
