"""Benchmark workloads: input generation from a seed, and output checks.

Each workload is a list of jobs. A job is one `rssiloc` CLI invocation
(the arguments after the program name, without `--out`) plus what its
outputs must look like. Inputs depend only on the workload name, the
seed and the scale, so the same seed gives byte-identical inputs.

This module uses the standard library only: the benchmark must not
import the program it measures outside the worker process.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from pathlib import Path

WORKLOADS = ("surrogate_sweep", "channel_churn", "deploy_grid")

SWEEP_SEEDS = 100
SWEEP_BATCH = 10
SWEEP_STEPS = 200
TAIL_STEPS = 50
TAIL_RMSE_M = 0.5

CHURN_WALKS = 10
CHURN_STEPS = 500
CHURN_ROI = (60.0, 40.0)
CHURN_RANGE_M = 25.0
# WiFi channels 1, 4, 7, 10 and 13 together overlap all 16 ZigBee channels.
CHURN_BASE_WIFI = (1, 4, 7, 10, 13)
CHURN_EXTRA_WIFI = 3

GRID_PITCH_M = 0.25
GRID_SAFETY = 0.9
# Deploy job ladder: (mean side in m, beacon count). The seed draws each
# floor's aspect ratio and radio range, but the lattice-point count and the
# beacon count of every job stay fixed, so coverage work per pass does not
# depend on the seed. Rungs near the middle are close and the top two are
# equal, so the median and tail jobs do not jump between rungs; beacon
# counts are capped to keep peak memory modest.
DEPLOY_LADDER = ((60, 49), (68, 64), (76, 81), (84, 100), (88, 100),
                 (92, 100), (100, 121), (112, 144), (112, 144))
DEPLOY_SIDE_M = (60.0, 120.0)
DEPLOY_RANGE_M = (10.0, 20.0)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _count(total: int, scale: float) -> int:
    return max(1, round(total * scale))


def make_jobs(workload: str, seed: int, scale: float, inputs: Path) -> list[dict]:
    """Write the workload's input files under `inputs` and return its jobs."""
    inputs.mkdir(parents=True, exist_ok=True)
    if workload == "surrogate_sweep":
        return _sweep_jobs(seed, scale, inputs)
    if workload == "channel_churn":
        return _churn_jobs(seed, scale, inputs)
    if workload == "deploy_grid":
        return _deploy_jobs(seed, scale)
    raise ValueError(f"unknown workload {workload!r}")


def _write_scenario(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, sort_keys=True) + "\n")


def _sweep_jobs(seed: int, scale: float, inputs: Path) -> list[dict]:
    """Seed n sweeps scenario seeds [n*100, n*100 + 100) in batches of ten,
    so seed 0 reproduces the acceptance-3/4 sweep through the CLI."""
    scenario = inputs / "sweep.json"
    _write_scenario(scenario, {
        "seed": 0,
        "roi_m": {"x_min": 0, "y_min": 0, "x_max": 30, "y_max": 30},
        "beacons": [{"id": 0, "x_m": 0, "y_m": 0}, {"id": 1, "x_m": 30, "y_m": 0},
                    {"id": 2, "x_m": 15, "y_m": 30}],
        "trajectory_m": {"static": [12, 9], "steps": SWEEP_STEPS},
        "shadowing": {"sigma_db": 2.0},
    })
    total = _count(SWEEP_SEEDS, scale)
    base = seed * SWEEP_SEEDS
    jobs = []
    for first in range(0, total, SWEEP_BATCH):
        n = min(SWEEP_BATCH, total - first)
        seeds = [base + first + i for i in range(n)]
        jobs.append({
            "name": f"batch_{first // SWEEP_BATCH:02d}",
            "kind": "simulate",
            "args": ["simulate", "--scenario", str(scenario), "--seed", str(seeds[0]),
                     "--seeds", str(n)],
            "runs": [f"seed_{s}" for s in seeds],
            "trajectory": [[12.0, 9.0]] * SWEEP_STEPS,
            "work": n * SWEEP_STEPS,
        })
    return jobs


def _cells(width: float, height: float, radio_range: float) -> tuple[int, int]:
    """Cells per axis of the beacon lattice rssiloc plans for this floor."""
    nominal = GRID_SAFETY * radio_range / math.sqrt(2.0)
    return max(1, math.ceil(width / nominal)), max(1, math.ceil(height / nominal))


def _lattice(width: float, height: float, radio_range: float) -> list[tuple[float, float]]:
    cells_x, cells_y = _cells(width, height, radio_range)
    return [(ix * width / cells_x, iy * height / cells_y)
            for iy in range(cells_y + 1) for ix in range(cells_x + 1)]


def _random_walk(rng: random.Random, beacons, steps: int) -> list[list[float]]:
    """Unit-speed walk with a wandering heading, reflected 1 m inside the
    floor and kept clear of beacons (a position on a beacon is invalid)."""
    w, h = CHURN_ROI
    x, y = rng.uniform(2.0, w - 2.0), rng.uniform(2.0, h - 2.0)
    heading = rng.uniform(0.0, 2.0 * math.pi)
    points = []
    while len(points) < steps:
        heading += rng.gauss(0.0, 0.5)
        nx, ny = x + math.cos(heading), y + math.sin(heading)
        if not 1.0 <= nx <= w - 1.0:
            heading = math.pi - heading
            continue
        if not 1.0 <= ny <= h - 1.0:
            heading = -heading
            continue
        nx, ny = round(nx, 3), round(ny, 3)
        if any(math.hypot(nx - bx, ny - by) < 0.5 for bx, by in beacons):
            heading += math.pi / 2.0
            continue
        x, y = nx, ny
        points.append([x, y])
    return points


def _churn_jobs(seed: int, scale: float, inputs: Path) -> list[dict]:
    rng = _rng("channel_churn", seed)
    beacons = _lattice(*CHURN_ROI, CHURN_RANGE_M)
    jobs = []
    for j in range(_count(CHURN_WALKS, scale)):
        wifi = list(CHURN_BASE_WIFI) + [rng.randint(1, 13) for _ in range(CHURN_EXTRA_WIFI)]
        trajectory = _random_walk(rng, beacons, CHURN_STEPS)
        scenario = inputs / f"walk_{j:02d}.json"
        _write_scenario(scenario, {
            "seed": rng.randrange(2**31),
            "roi_m": {"x_min": 0, "y_min": 0, "x_max": CHURN_ROI[0], "y_max": CHURN_ROI[1]},
            "beacons": [{"id": i, "x_m": bx, "y_m": by} for i, (bx, by) in enumerate(beacons)],
            "trajectory_m": trajectory,
            "shadowing": {"sigma_db": 2.0},
            "environment": {"noise_floor_dbm": -100.0, "interferers": [
                {"wifi_channel": ch, "rx_power_dbm": round(rng.uniform(-75.0, -60.0), 2),
                 "duty_cycle": round(rng.uniform(0.2, 0.4), 3)}
                for ch in wifi]},
            "scan": {"samples_per_channel": 50, "sample_interval_ms": 100.0},
            "kalman": {"process_noise_m2": [[1.0, 0.0], [0.0, 1.0]]},
        })
        jobs.append({
            "name": f"walk_{j:02d}",
            "kind": "simulate",
            "args": ["simulate", "--scenario", str(scenario)],
            "runs": [""],
            "trajectory": trajectory,
            "work": CHURN_STEPS,
        })
    return jobs


def _lattice_points(side: float) -> int:
    """Points of one axis of the verification lattice (boundaries included),
    counted as rssiloc.simulate._lattice_1d does."""
    n = math.floor(side / GRID_PITCH_M + 1e-9) + 1
    return n + (1 if (n - 1) * GRID_PITCH_M < side - 1e-9 else 0)


def _deploy_jobs(seed: int, scale: float) -> list[dict]:
    """Each ladder rung keeps its area and beacon count; the seed draws the
    aspect ratio within the side limits, then a range within the limits that
    gives the rung's beacon count (ties broken at random)."""
    rng = _rng("deploy_grid", seed)
    lo, hi = DEPLOY_SIDE_M
    r_lo, r_hi = DEPLOY_RANGE_M
    ranges = [round(r_lo + 0.01 * i, 2) for i in range(round((r_hi - r_lo) / 0.01) + 1)]
    rungs = list(DEPLOY_LADDER[:_count(len(DEPLOY_LADDER), scale)])
    rng.shuffle(rungs)
    jobs = []
    for j, (side, beacons) in enumerate(rungs):
        stretch = min(hi / side, side / lo, 1.2)
        aspect = rng.uniform(1.0 / stretch, stretch)
        width, height = round(side * aspect, 2), round(side / aspect, 2)
        miss = {}
        for r in ranges:
            cells_x, cells_y = _cells(width, height, r)
            miss[r] = abs((cells_x + 1) * (cells_y + 1) - beacons)
        best = min(miss.values())
        radio_range = rng.choice([r for r in ranges if miss[r] == best])
        points = _lattice_points(width) * _lattice_points(height)
        jobs.append({
            "name": f"floor_{j:02d}",
            "kind": "deploy",
            "args": ["deploy", "--roi", f"{width}x{height}", "--range-m", str(radio_range)],
            "roi": [width, height],
            "range_m": radio_range,
            "work": points,
        })
    return jobs


# ---------------------------------------------------------------------------
# output checks


class OutputError(Exception):
    """A job's outputs are missing, malformed or inconsistent."""


def _finite_numbers(obj, path="metrics"):
    if isinstance(obj, dict):
        for k, v in obj.items():
            _finite_numbers(v, f"{path}.{k}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _finite_numbers(v, f"{path}[{i}]")
    elif isinstance(obj, bool) or not isinstance(obj, (int, float)) or not math.isfinite(obj):
        raise OutputError(f"{path}: not a finite number: {obj!r}")


def _read_csv(path: Path) -> list[dict]:
    try:
        with path.open(newline="") as fh:
            return list(csv.DictReader(fh))
    except OSError as exc:
        raise OutputError(f"cannot read {path.name}: {exc}") from None


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise OutputError(f"cannot read {path.name}: {exc}") from None


def check_simulate_run(run_dir: Path, trajectory: list) -> dict:
    """Check one seed's steps.csv and summary.json; return its quality figures."""
    rows = _read_csv(run_dir / "steps.csv")
    if len(rows) != len(trajectory):
        raise OutputError(f"{run_dir.name}: {len(rows)} step rows, expected {len(trajectory)}")
    summary = _read_json(run_dir / "summary.json")
    metrics = summary.get("metrics")
    if not isinstance(metrics, dict) or set(metrics) != {"raw", "averaged", "kalman"}:
        raise OutputError(f"{run_dir.name}: summary.json lacks the three metric blocks")
    _finite_numbers(metrics)
    resolved = 0
    tail = []
    try:
        for i, (row, (tx, ty)) in enumerate(zip(rows, trajectory)):
            if int(row["step"]) != i or float(row["true_x"]) != tx or float(row["true_y"]) != ty:
                raise OutputError(f"{run_dir.name}: step row {i} does not match the trajectory")
            resolved += row["resolved"] == "1"
            if i >= len(rows) - TAIL_STEPS:
                kx, ky = row["kf_x"], row["kf_y"]
                tail.append(math.hypot(float(kx) - tx, float(ky) - ty) if kx and ky else math.inf)
    except (KeyError, ValueError) as exc:
        raise OutputError(f"{run_dir.name}: malformed steps.csv: {exc}") from None
    if metrics["averaged"]["resolved_steps"] != resolved:
        raise OutputError(f"{run_dir.name}: summary resolved_steps disagrees with steps.csv")
    tail_rmse = math.sqrt(sum(e * e for e in tail) / len(tail))
    return {"kf_rmse_m": metrics["kalman"]["rmse_m"], "resolved": resolved,
            "steps": len(rows), "tail_pass": tail_rmse < TAIL_RMSE_M}


def check_deploy(out_dir: Path, job: dict) -> dict:
    """Check coverage.json against beacons.csv and the lattice geometry."""
    coverage = _read_json(out_dir / "coverage.json")
    rows = _read_csv(out_dir / "beacons.csv")
    if coverage.get("covered") is not True:
        raise OutputError(f"{out_dir.name}: coverage.json does not report covered: true")
    if coverage.get("beacons") != len(rows) or not rows:
        raise OutputError(f"{out_dir.name}: beacon count disagrees with beacons.csv")
    width, height = job["roi"]
    try:
        xs = [float(r["x"]) for r in rows]
        ys = [float(r["y"]) for r in rows]
        spacing = math.hypot(coverage["spacing_x_m"], coverage["spacing_y_m"])
    except (KeyError, TypeError, ValueError) as exc:
        raise OutputError(f"{out_dir.name}: malformed deploy outputs: {exc}") from None
    # A square-lattice cell whose diagonal is within range reaches all four
    # corner beacons from every point, which is the three-coverage guarantee.
    if spacing > job["range_m"] or min(xs) != 0.0 or min(ys) != 0.0 \
            or not math.isclose(max(xs), width) or not math.isclose(max(ys), height):
        raise OutputError(f"{out_dir.name}: beacon lattice does not span the floor within range")
    return {}


def check_job(out_dir: Path, job: dict) -> list[dict]:
    """Check one job's outputs; return per-run quality figures."""
    if job["kind"] == "deploy":
        return [check_deploy(out_dir, job)]
    return [check_simulate_run(out_dir / run, job["trajectory"]) for run in job["runs"]]


def tree_digest(root: Path) -> str:
    """sha256 over every file under root, by relative path and content."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def combine_digests(digests: dict[str, str]) -> str:
    """One sha256 for a workload's outputs from its per-job digests."""
    h = hashlib.sha256()
    for name in sorted(digests):
        h.update(f"{name}={digests[name]}\n".encode())
    return h.hexdigest()
