"""Scenario orchestration: deployment planning, coverage verification,
and the end-to-end localization pipeline.

A run executes, per trajectory step: one packet exchange on the active
channel (feeding the rescan state machine), an RSSI sampling window per
beacon, dB-domain aggregation, strongest-three anchor selection,
path-loss inversion to ranges, the lateration solve, and one Kalman
step. Three estimate flavors are recorded from the same random draws:

    raw       lateration on the first sample of each window
    averaged  lateration on the window means
    kalman    averaged estimate passed through the range filter

A run returns its results as columns, one row per trajectory step
(RunResult): the true position, each flavor's estimate (NaN where the
step has none), the active channel and the aggregated RSSI per beacon.

Time is virtual: the sampling/aggregation intervals are bookkeeping and
a step counter advances the run, so equal scenarios (seed included)
reproduce bit-equal results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .channel import ChannelMonitor, ScanConfig, scan_all_channels, select_channel
from .errors import CapacityError, FilterDivergenceError, NoResolvedStepsError
from .geometry import AnchorNode, Point2D, Rect
from .radio import PathLossParams, RadioSpec, ShadowingModel
from .spectrum import ChannelEnvironment, packet_success
from .tracking import KalmanConfig

__all__ = [
    "Scenario",
    "DeploymentPlan",
    "RunResult",
    "Metrics",
    "plan_square_grid_deployment",
    "verify_three_coverage",
    "run_scenario",
    "compare_pipelines",
    "compute_metrics",
    "step_errors",
    "FLAVORS",
]

# Fig.-3 monitoring defaults used by runs; standalone ChannelMonitor
# instances take these as constructor arguments instead.
MONITOR_WINDOW = 20
MONITOR_FAILURE_THRESHOLD = 0.2

# The estimate flavors a run records, in output order.
FLAVORS = ("raw", "averaged", "kalman")

_MAX_PLANNED_BEACONS = 1_000_000
_MAX_LATTICE_POINTS = 4_000_000
_MAX_COVERAGE_PAIRS = 1_000_000_000


@dataclass(frozen=True)
class Scenario:
    """Complete simulation input; `seed` fixes every random draw."""

    roi: Rect
    beacons: tuple[AnchorNode, ...]
    trajectory: tuple[Point2D, ...]
    seed: int
    path_loss: PathLossParams = field(default_factory=PathLossParams)
    radio: RadioSpec = field(default_factory=RadioSpec)
    shadowing: ShadowingModel = field(default_factory=ShadowingModel)
    environment: ChannelEnvironment = field(default_factory=ChannelEnvironment)
    scan: ScanConfig = field(default_factory=ScanConfig)
    kalman: KalmanConfig = field(default_factory=KalmanConfig)
    aggregation_window: int = 10

    def __post_init__(self):
        object.__setattr__(self, "beacons", tuple(self.beacons))
        object.__setattr__(self, "trajectory", tuple(self.trajectory))
        if not self.beacons:
            raise ValueError("scenario needs at least one beacon")
        if not self.trajectory:
            raise ValueError("scenario needs at least one trajectory point")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.aggregation_window < 1:
            raise ValueError("aggregation_window must be >= 1")
        ids = [b.id for b in self.beacons]
        if len(set(ids)) != len(ids):
            raise ValueError("beacon ids must be unique within a scenario")
        beacon_points = {b.position for b in self.beacons}
        for p in self.trajectory:
            if not self.roi.contains(p):
                raise ValueError(f"trajectory point ({p.x}, {p.y}) outside roi")
            if p in beacon_points:
                raise ValueError(f"trajectory point ({p.x}, {p.y}) coincides with a beacon")


@dataclass(frozen=True)
class DeploymentPlan:
    """Planned beacon lattice. Spacing is recorded per axis because the
    snap-to-fit step quantizes each axis independently."""

    positions: tuple[Point2D, ...]
    spacing_x: float
    spacing_y: float


@dataclass(frozen=True, eq=False)
class RunResult:
    """Per-step columns of one run; row t belongs to trajectory step t.

    true, raw, averaged, kalman : (T, 2) float64 positions in meters; an
        estimate row is NaN where the step has no such estimate
    channel : (T,) int64 active ZigBee channel index
    rssi : (T, n_beacons) aggregated dBm in scenario beacon order, NaN
        where a beacon was unheard over the whole window
    """

    true: np.ndarray
    raw: np.ndarray
    averaged: np.ndarray
    kalman: np.ndarray
    channel: np.ndarray
    rssi: np.ndarray

    @property
    def resolved(self) -> np.ndarray:
        """(T,) bool: the step carries an averaged estimate."""
        return ~np.isnan(self.averaged[:, 0])


@dataclass(frozen=True)
class Metrics:
    rmse: float
    mean_error: float
    max_error: float
    error_cdf: tuple[float, ...]
    resolved_steps: int
    unresolved_steps: int


# ---------------------------------------------------------------------------
# deployment planning


def plan_square_grid_deployment(
    roi: Rect, radio_range: float, safety: float = 0.9
) -> DeploymentPlan:
    """Square-lattice beacon layout guaranteeing three-coverage of the roi.

    The target spacing is safety * radio_range / sqrt(2): a cell of that
    side has its full diagonal within radio_range, so every point of a
    cell reaches all four corner beacons. The spacing is then snapped
    down per axis so an integer number of cells spans the roi, boundary
    rows and columns included.
    """
    if radio_range <= 0.0:
        raise ValueError(f"radio_range must be > 0, got {radio_range}")
    if not 0.0 < safety <= 1.0:
        raise ValueError(f"safety must be in (0, 1], got {safety}")
    if roi.width <= 0.0 or roi.height <= 0.0:
        raise ValueError("roi must have positive width and height")

    nominal = safety * radio_range / math.sqrt(2.0)
    # a span clamped at the cap still trips it; a tiny range or safety gives
    # an infinite span, or a nominal spacing that underflows to 0, and
    # neither reaches the division or ceil()
    span_x = roi.width / nominal if nominal > 0.0 else math.inf
    span_y = roi.height / nominal if nominal > 0.0 else math.inf
    cells_x = max(1, math.ceil(min(span_x, _MAX_PLANNED_BEACONS)))
    cells_y = max(1, math.ceil(min(span_y, _MAX_PLANNED_BEACONS)))
    if (cells_x + 1) * (cells_y + 1) > _MAX_PLANNED_BEACONS:
        raise CapacityError(
            f"plan would need at least {(cells_x + 1) * (cells_y + 1)} beacons "
            f"(limit {_MAX_PLANNED_BEACONS})"
        )
    spacing_x = roi.width / cells_x
    spacing_y = roi.height / cells_y
    positions = tuple(
        Point2D(roi.x_min + ix * spacing_x, roi.y_min + iy * spacing_y)
        for iy in range(cells_y + 1)
        for ix in range(cells_x + 1)
    )
    return DeploymentPlan(positions, spacing_x, spacing_y)


def _lattice_1d(lo: float, hi: float, step: float) -> np.ndarray:
    n = int(math.floor((hi - lo) / step + 1e-9)) + 1
    values = lo + step * np.arange(n)
    if values[-1] < hi - 1e-9:
        values = np.append(values, hi)
    return values


def verify_three_coverage(
    plan: DeploymentPlan, roi: Rect, radio_range: float, grid_step: float = 0.25
) -> tuple[bool, list[Point2D]]:
    """Check that every roi lattice point (grid_step pitch, boundaries
    included) lies within radio_range of at least three beacons. Each
    beacon is tested over the lattice points in the bounding box of its
    disc, with the same closed-ball predicate as a test of every point.
    Returns the verdict and the uncovered sample points, row by row
    (y, then x, ascending)."""
    if grid_step <= 0.0:
        raise ValueError(f"grid_step must be > 0, got {grid_step}")
    # bound the lattice in floats before any count becomes an int or array;
    # each axis holds at most span / step + 2 points
    points = (roi.width / grid_step + 2.0) * (roi.height / grid_step + 2.0)
    if points > _MAX_LATTICE_POINTS:
        raise CapacityError(
            f"verification lattice would hold about {points:.3g} points "
            f"(limit {_MAX_LATTICE_POINTS})"
        )
    # no beacon's box holds more than every point, so points x beacons
    # bounds the distance tests and the time
    pairs = points * len(plan.positions)
    if pairs > _MAX_COVERAGE_PAIRS:
        raise CapacityError(
            f"coverage check would test about {pairs:.3g} point-beacon pairs "
            f"(limit {_MAX_COVERAGE_PAIRS})"
        )
    xs = _lattice_1d(roi.x_min, roi.x_max, grid_step)
    ys = _lattice_1d(roi.y_min, roi.y_max, grid_step)
    bx = np.array([p.x for p in plan.positions])
    by = np.array([p.y for p in plan.positions])
    counts = kernels.lattice_coverage_counts(xs, ys, bx, by, float(radio_range), 3)
    rows, cols = np.nonzero(counts < 3)
    uncovered = [Point2D(x, y) for x, y in zip(xs[cols].tolist(), ys[rows].tolist())]
    return len(uncovered) == 0, uncovered


# ---------------------------------------------------------------------------
# pipeline execution


def run_scenario(s: Scenario) -> RunResult:
    """Execute the full pipeline over the scenario trajectory.

    Steps where fewer than three beacons are heard degrade gracefully:
    their estimate rows stay NaN and the run continues. The Kalman chain
    initializes on the first averaged fix with zero covariance and
    advances once per resolved step.
    """
    rng = np.random.default_rng(s.seed)

    report = scan_all_channels(s.environment, s.scan, rng)
    monitor = ChannelMonitor(
        select_channel(report), MONITOR_WINDOW, MONITOR_FAILURE_THRESHOLD
    )

    beacon_x = np.array([b.position.x for b in s.beacons])
    beacon_y = np.array([b.position.y for b in s.beacons])
    beacon_ids = np.array([b.id for b in s.beacons])
    pl = s.path_loss

    cfg = s.kalman

    kf_pos: np.ndarray | None = None
    kf_cov: np.ndarray | None = None

    n_steps = len(s.trajectory)
    true = np.array([(p.x, p.y) for p in s.trajectory], dtype=np.float64)
    raw = np.full((n_steps, 2), np.nan)
    averaged = np.full((n_steps, 2), np.nan)
    kalman = np.full((n_steps, 2), np.nan)
    channel = np.empty(n_steps, dtype=np.int64)
    rssi = np.empty((n_steps, len(s.beacons)))
    for step in range(n_steps):
        # Fig.-3 loop: one packet exchange per step on the active channel,
        # rescan when the failure window trips.
        monitor.record_packet_outcome(
            packet_success(s.environment, monitor.active_channel, rng)
        )
        if monitor.should_rescan():
            report = scan_all_channels(s.environment, s.scan, rng)
            monitor.switch_to(select_channel(report))
        channel[step] = monitor.active_channel.index

        # One window of noisy readings per beacon.
        tx, ty = true[step]
        dist = np.hypot(beacon_x - tx, beacon_y - ty)
        true_rssi = kernels.path_loss_rssi(dist, pl.rssi_at_ref, pl.ref_distance, pl.exponent)
        readings = kernels.shadowed_readings(
            true_rssi, s.shadowing.sigma, s.radio.sensitivity, rng, s.aggregation_window
        )
        agg = rssi[step] = kernels.db_mean(readings)

        fix = _estimate(beacon_x, beacon_y, beacon_ids, readings[:, 0], pl)
        if fix is not None:
            raw[step] = fix[0]
        fix = _estimate(beacon_x, beacon_y, beacon_ids, agg, pl)
        if fix is None:
            continue
        averaged[step], sel, ranges = fix
        if kf_pos is None:
            # First fix seeds the filter: zero initial covariance, the
            # next prediction injects Q.
            kf_pos = averaged[step].copy()
            kf_cov = np.zeros((2, 2))
        else:
            ok, kf_pos_new, kf_cov_new = kernels.ekf_step(
                kf_pos, kf_cov,
                beacon_x[sel], beacon_y[sel], ranges,
                cfg.state_transition, cfg.control, cfg.process_noise,
                cfg.measurement_noise,
            )
            if ok == 2:
                raise FilterDivergenceError(f"range filter diverged at step {step}")
            if ok != 0:
                # prediction landing on an anchor: keep the previous state,
                # leave this step's filtered estimate absent
                continue
            kf_pos, kf_cov = kf_pos_new, kf_cov_new
        kalman[step] = kf_pos
    return RunResult(true, raw, averaged, kalman, channel, rssi)


def _estimate(beacon_x, beacon_y, beacon_ids, rssi, pl: PathLossParams):
    """Top-3 selection over the heard (non-NaN) readings, path-loss
    inversion, lateration. Returns ((x, y), selected indices, ranges) or
    None when unresolvable."""
    idx = np.flatnonzero(~np.isnan(rssi))
    if idx.size < 3:
        return None
    sel = idx[kernels.top_k(beacon_ids[idx], rssi[idx], 3)]
    ranges = kernels.path_loss_range(rssi[sel], pl.rssi_at_ref, pl.ref_distance, pl.exponent)
    status, x, y = kernels.lateration_solve(beacon_x[sel], beacon_y[sel], ranges)
    if status != 0:
        return None
    return (x, y), sel, ranges


# ---------------------------------------------------------------------------
# metrics


def step_errors(result: RunResult, flavor: str) -> np.ndarray:
    """(T,) distance of each step's estimate of one flavor ('raw',
    'averaged' or 'kalman') from the true position, NaN where the step
    has no such estimate."""
    if flavor not in FLAVORS:
        raise ValueError(f"unknown estimate flavor {flavor!r}")
    delta = getattr(result, flavor) - result.true
    return np.array([math.hypot(dx, dy) for dx, dy in delta.tolist()])


def compute_metrics(result: RunResult, flavor: str) -> Metrics:
    """Error statistics for one estimate flavor ('raw', 'averaged' or
    'kalman'); steps without that estimate are excluded and counted."""
    errors = step_errors(result, flavor)
    arr = errors[~np.isnan(errors)]
    if not arr.size:
        raise NoResolvedStepsError(f"no step carries a {flavor} estimate")
    return Metrics(
        rmse=float(np.sqrt(np.mean(arr * arr))),
        mean_error=float(arr.mean()),
        max_error=float(arr.max()),
        error_cdf=tuple(float(e) for e in np.sort(arr)),
        resolved_steps=arr.size,
        unresolved_steps=errors.size - arr.size,
    )


def compare_pipelines(s: Scenario) -> tuple[Metrics, Metrics, Metrics]:
    """Metrics for raw, averaged, and averaged+Kalman estimates from one
    shared run (paired noise draws)."""
    result = run_scenario(s)
    return tuple(compute_metrics(result, flavor) for flavor in FLAVORS)
