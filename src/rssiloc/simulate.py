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

run_batch runs one scenario for many seeds, one seed after another. Each
seed keeps its own generator, monitor and filter chain, so its columns
are bit-identical to a run of that seed alone; run_scenario is the batch
of one. A seed's run goes stage by stage over blocks of steps, each
holding at most STEP_BLOCK_READINGS window readings:

    draw       in a lone run's order, per step: the packet uniforms, the
               monitor and any rescan, then one window of shadowing
               normals per beacon; with no interferer, one draw per block
    stateless  readings, aggregation, top-3, ranging and lateration of
               both flavors as array expressions over the block's steps
    filter     after the last block, the fix steps in order, each one
               scalar kernels.ekf_step on Python floats

run_batch yields each seed's run as it finishes; when a seed's filter
diverges it raises after yielding the seeds before it.

A run returns its results as columns, one row per trajectory step
(RunResult): the true position, each flavor's estimate (NaN where the
step has none), the active channel, the aggregated RSSI per beacon and
a status naming why a filtered estimate is missing.

Time is virtual: the sampling/aggregation intervals are bookkeeping and
a step counter advances the run, so equal scenarios (seed included)
reproduce bit-equal results.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
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
    "run_batch",
    "compute_metrics",
    "step_errors",
    "FLAVORS",
]

# The estimate flavors a run records, in output order.
FLAVORS = ("raw", "averaged", "kalman")

_MAX_PLANNED_BEACONS = 1_000_000
_MAX_LATTICE_POINTS = 4_000_000
_MAX_COVERAGE_PAIRS = 1_000_000_000

# run_batch's bound on the window readings of one step block (64 KiB of
# them); larger blocks save no time and raise peak memory by their
# temporaries.
STEP_BLOCK_READINGS = 1 << 13


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
    status : (T,) int8 why the step has or lacks a filtered estimate:
        0 resolved, 1 fewer than three beacons heard, 2 lateration failed
        (collinear anchors or ranges beyond the float range), 3 EKF skipped
        (the prediction landed on an anchor)
    """

    true: np.ndarray
    raw: np.ndarray
    averaged: np.ndarray
    kalman: np.ndarray
    channel: np.ndarray
    rssi: np.ndarray
    status: np.ndarray

    @property
    def resolved(self) -> np.ndarray:
        """(T,) bool: the step carries an averaged estimate."""
        return ~np.isnan(self.averaged[:, 0])


@dataclass(frozen=True)
class Metrics:
    """Error statistics of one estimate flavor; rmse, mean_error and
    max_error are None, and error_cdf empty, where no step carries it."""

    rmse: float | None
    mean_error: float | None
    max_error: float | None
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
    # a squared offset beyond the float range is inf, and compares as such
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        counts = kernels.lattice_coverage_counts(xs, ys, bx, by, float(radio_range), 3)
    rows, cols = np.nonzero(counts < 3)
    uncovered = [Point2D(x, y) for x, y in zip(xs[cols].tolist(), ys[rows].tolist())]
    return len(uncovered) == 0, uncovered


# ---------------------------------------------------------------------------
# pipeline execution


def run_batch(s: Scenario, seeds) -> Iterator[RunResult]:
    """Run the full pipeline over the scenario trajectory once per seed;
    s.seed is ignored. Yields one RunResult per seed, in order, each
    bit-identical to the run of that seed alone. A seed runs only when
    its result is asked for, so a caller that consumes each run as it
    comes holds one run's results at most.

    Steps where fewer than three beacons are heard degrade gracefully:
    their estimate rows stay NaN and the run continues. The Kalman chain
    initializes on the first averaged fix with zero covariance and
    advances once per resolved step.

    A run whose filter diverges raises FilterDivergenceError naming the
    step, after the runs of the seeds before it have been yielded."""
    seeds = [int(seed) for seed in seeds]
    if any(seed < 0 for seed in seeds):
        raise ValueError(f"seeds must be >= 0, got {min(seeds)}")
    pl, cfg = s.path_loss, s.kalman
    true = np.array([(p.x, p.y) for p in s.trajectory], dtype=np.float64)
    beacon_ids = np.array([b.id for b in s.beacons])
    beacon_x = np.array([b.position.x for b in s.beacons])
    beacon_y = np.array([b.position.y for b in s.beacons])
    # the (T, n_beacons) distances are a temporary of this call: a
    # generator's frame would hold them for the whole sweep
    true_rssi = kernels.path_loss_rssi(
        np.hypot(beacon_x - true[:, 0, None], beacon_y - true[:, 1, None]),
        pl.rssi_at_ref, pl.ref_distance, pl.exponent)
    matrices = tuple(tuple(m.ravel().tolist()) for m in (
        cfg.state_transition, cfg.control, cfg.process_noise, cfg.measurement_noise))
    for seed in seeds:
        yield _run_seed(s, seed, true, beacon_ids, beacon_x, beacon_y, true_rssi, matrices)


def run_scenario(s: Scenario) -> RunResult:
    """The run of s.seed: run_batch for one seed."""
    return next(run_batch(s, [s.seed]))


def _run_seed(s: Scenario, seed: int, true, beacon_ids, beacon_x, beacon_y, true_rssi,
              matrices) -> RunResult:
    """The run of one seed, stage by stage over blocks of steps that hold
    at most STEP_BLOCK_READINGS window readings, or one step."""
    n_steps, n_beacons = true_rssi.shape
    pl, window = s.path_loss, s.aggregation_window
    block = max(1, min(n_steps, STEP_BLOCK_READINGS // (n_beacons * window)))
    raw = np.empty((n_steps, 2))
    averaged = np.empty((n_steps, 2))
    channel = np.empty(n_steps, dtype=np.int64)
    rssi = np.empty((n_steps, n_beacons))
    status = np.empty(n_steps, dtype=np.int8)
    k = min(3, n_beacons)
    anchor_x = np.empty((n_steps, k))
    anchor_y = np.empty((n_steps, k))
    ranges = np.empty((n_steps, k))

    rng = np.random.default_rng(seed)
    monitor = ChannelMonitor(select_channel(scan_all_channels(s.environment, s.scan, rng)))
    noise = np.empty((block, n_beacons, window))
    # With no interferer a packet's draw is empty, which leaves the
    # generator as it was, and the packet never fails, so the channel
    # stays put; the noise for a block is then one draw, bit-equal to one
    # window draw per step.
    quiet = not s.environment.interferers
    for t0 in range(0, n_steps, block):
        t1 = min(t0 + block, n_steps)
        # Draw stage: the generator called in a lone run's step order.
        if quiet:
            channel[t0:t1] = monitor.active_channel.index
            noise[:t1 - t0] = rng.normal(0.0, s.shadowing.sigma, (t1 - t0, n_beacons, window))
        else:
            for t in range(t0, t1):
                # Fig.-3 loop: one packet exchange per step on the active
                # channel, rescan when the failure window trips.
                monitor.record_packet_outcome(
                    packet_success(s.environment, monitor.active_channel, rng))
                if monitor.should_rescan():
                    report = scan_all_channels(s.environment, s.scan, rng)
                    monitor.switch_to(select_channel(report))
                channel[t] = monitor.active_channel.index
                noise[t - t0] = rng.normal(0.0, s.shadowing.sigma, (n_beacons, window))

        # Stateless stage: readings, aggregation, top-3, ranging and
        # lateration for every step of the block at once. A value beyond
        # the float range becomes inf or NaN, which the fix status reports.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            readings = kernels.censored(true_rssi[t0:t1, :, None] + noise[:t1 - t0],
                                        s.radio.sensitivity)
            agg = rssi[t0:t1] = kernels.db_mean(readings)
            fix_status, xy, _, _ = _fixes(readings[..., 0], beacon_ids, beacon_x, beacon_y, pl)
            raw[t0:t1] = np.where(fix_status[..., None] == 0, xy, np.nan)
            fix_status, xy, sel, fix_ranges = _fixes(agg, beacon_ids, beacon_x, beacon_y, pl)
            averaged[t0:t1] = np.where(fix_status[..., None] == 0, xy, np.nan)
            status[t0:t1] = fix_status
            anchor_x[t0:t1] = beacon_x[sel]
            anchor_y[t0:t1] = beacon_y[sel]
            ranges[t0:t1] = fix_ranges

    # Filter stage: the fix steps in order.
    kalman = _filter(matrices, averaged, status, anchor_x, anchor_y, ranges)
    return RunResult(true.copy(), raw, averaged, kalman, channel, rssi, status)


def _fixes(rssi, beacon_ids, beacon_x, beacon_y, pl: PathLossParams):
    """Top-3 selection over the heard (non-NaN) readings, path-loss
    inversion and lateration for each (..., n_beacons) row. Returns the
    row status (0 a fix, 1 fewer than three heard, 2 lateration failed),
    the (..., 2) fix, and the selected indices and their ranges,
    (..., 3) each."""
    heard = np.count_nonzero(~np.isnan(rssi), axis=-1) >= 3
    sel = kernels.top_k(beacon_ids, rssi, 3)
    ranges = kernels.path_loss_range(np.take_along_axis(rssi, sel, axis=-1),
                                     pl.rssi_at_ref, pl.ref_distance, pl.exponent)
    failed, x, y = kernels.lateration_batch(beacon_x[sel], beacon_y[sel], ranges)
    fix_status = np.where(heard, 2 * failed, 1).astype(np.int8)
    return fix_status, np.stack((x, y), axis=-1), sel, ranges


def _filter(matrices, averaged, status, anchor_x, anchor_y, ranges):
    """Run the range filter over the averaged fixes in step order, and
    mark EKF skips (a prediction on an anchor) as status 3 in place.
    `matrices` holds the transition, control, Q and R as flat tuples.
    Returns the (T, 2) filtered estimates; raises FilterDivergenceError
    naming the step where the filter diverges."""
    kalman = np.full((len(status), 2), np.nan)
    steps = np.flatnonzero(status == 0).tolist()
    if not steps:
        return kalman
    # First fix seeds the filter: zero initial covariance, the next
    # prediction injects Q.
    px, py = averaged[steps[0]].tolist()
    cov = (0.0, 0.0, 0.0, 0.0)
    done, estimates = [steps[0]], [(px, py)]
    ax, ay, z = anchor_x.tolist(), anchor_y.tolist(), ranges.tolist()
    for t in steps[1:]:
        code, qx, qy, qcov = kernels.ekf_step(px, py, cov, ax[t], ay[t], z[t], *matrices)
        if code == 0:
            px, py, cov = qx, qy, qcov
            done.append(t)
            estimates.append((px, py))
        elif code == 1:
            # a prediction landing on an anchor keeps the previous state
            # and leaves this step's filtered estimate absent
            status[t] = 3
        else:
            raise FilterDivergenceError(f"range filter diverged at step {t}")
    kalman[done] = estimates
    return kalman


# ---------------------------------------------------------------------------
# metrics


def step_errors(result: RunResult, flavor: str) -> np.ndarray:
    """(T,) distance of each step's estimate of one flavor ('raw',
    'averaged' or 'kalman') from the true position, NaN where the step
    has no such estimate."""
    if flavor not in FLAVORS:
        raise ValueError(f"unknown estimate flavor {flavor!r}")
    dx, dy = (getattr(result, flavor) - result.true).T.tolist()
    return np.array(list(map(math.hypot, dx, dy)))


def compute_metrics(result: RunResult, flavor: str) -> Metrics:
    """Error statistics for one estimate flavor ('raw', 'averaged' or
    'kalman'); steps without that estimate are excluded and counted.
    Raises NoResolvedStepsError when no step of the run resolved."""
    errors = step_errors(result, flavor)
    if not result.resolved.any():
        raise NoResolvedStepsError("no step carries a position fix")
    arr = errors[~np.isnan(errors)]
    if not arr.size:
        return Metrics(None, None, None, (), 0, errors.size)
    return Metrics(
        rmse=float(np.sqrt(np.mean(arr * arr))),
        mean_error=float(arr.mean()),
        max_error=float(arr.max()),
        error_cdf=tuple(np.sort(arr).tolist()),
        resolved_steps=arr.size,
        unresolved_steps=errors.size - arr.size,
    )

