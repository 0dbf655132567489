import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rssiloc import kernels, simulate
from rssiloc.channel import ChannelMonitor, ScanConfig, scan_all_channels, select_channel
from rssiloc.cli import load_scenario
from rssiloc.errors import CapacityError, FilterDivergenceError, NoResolvedStepsError
from rssiloc.geometry import AnchorNode, Point2D, Rect
from rssiloc.radio import PathLossParams, RadioSpec, ShadowingModel
from rssiloc.simulate import (
    DeploymentPlan,
    RunResult,
    Scenario,
    FLAVORS,
    _lattice_1d,
    compute_metrics,
    plan_square_grid_deployment,
    run_batch,
    run_scenario,
    verify_three_coverage,
)
from rssiloc.spectrum import ChannelEnvironment, InterfererProfile, WifiChannel, packet_success
from rssiloc.tracking import KalmanConfig, KalmanState, RangeMeasurement

TRIANGLE = (
    AnchorNode(0, Point2D(0, 0)),
    AnchorNode(1, Point2D(30, 0)),
    AnchorNode(2, Point2D(15, 30)),
)


def triangle_scenario(seed, steps=60, sigma=0.0, env=None, target=(12.0, 9.0)):
    return Scenario(
        roi=Rect(0, 0, 30, 30),
        beacons=TRIANGLE,
        trajectory=(target,) * steps,
        seed=seed,
        shadowing=ShadowingModel(sigma),
        environment=env if env is not None else ChannelEnvironment(),
    )


# ---------------------------------------------------------------------------
# deployment planning


def test_planner_snaps_spacing_down():
    plan = plan_square_grid_deployment(Rect(0, 0, 30, 30), 25.0, 0.9)
    # nominal 0.9*25/sqrt(2) = 15.9099... -> 2 cells per axis -> 15 m
    assert len(plan.positions) == 9
    assert plan.spacing_x == pytest.approx(15.0)
    assert plan.spacing_y == pytest.approx(15.0)


def test_planner_minimum_is_four_corners():
    plan = plan_square_grid_deployment(Rect(0, 0, 2, 3), 25.0, 0.9)
    assert len(plan.positions) == 4
    assert set(map(tuple, plan.positions.tolist())) == {(0, 0), (2, 0), (0, 3), (2, 3)}


def test_planner_output_always_three_covers():
    rng = np.random.default_rng(123)
    for _ in range(10):
        w, h = rng.uniform(10, 100, 2)
        radio_range = rng.uniform(10, 60)
        roi = Rect(0, 0, w, h)
        plan = plan_square_grid_deployment(roi, radio_range)
        ok, uncovered = verify_three_coverage(plan, roi, radio_range)
        assert ok, f"uncovered {uncovered[:3]} for roi {w}x{h} range {radio_range}"


def test_planner_capacity_limit():
    with pytest.raises(CapacityError):
        plan_square_grid_deployment(Rect(0, 0, 1000, 1000), 1.4)
    with pytest.raises(CapacityError):  # an infinite span, bounded before ceil()
        plan_square_grid_deployment(Rect(0, 0, 30, 30), 5e-324)
    with pytest.raises(CapacityError):  # the nominal spacing underflows to 0
        plan_square_grid_deployment(Rect(0, 0, 30, 30), 1e-200, safety=1e-200)


@pytest.mark.parametrize("roi, radio_range, safety", [
    (Rect(0, 0, 30, 30), 25.0, 0.9),
    (Rect(-3.7, 1.1, 41.3, 19.9), 7.3, 0.9),
    (Rect(0.1, 0.2, 0.7, 0.9), 0.3, 0.55),
    (Rect(-1e3, -5e2, 1e3, 5e2), 60.96, 1.0),
    (Rect(1e6 + 0.1, -7.25, 1e6 + 93.3, 11.5), 9.9, 0.8),
])
def test_planner_positions_are_the_scalar_formula(roi, radio_range, safety):
    # each coordinate is x_min + ix * spacing_x (or the y twin) in Python
    # floats, bit for bit, row by row; the array is read-only
    plan = plan_square_grid_deployment(roi, radio_range, safety)
    nominal = safety * radio_range / math.sqrt(2.0)
    cells_x, cells_y = math.ceil(roi.width / nominal), math.ceil(roi.height / nominal)
    expected = [(roi.x_min + ix * plan.spacing_x, roi.y_min + iy * plan.spacing_y)
                for iy in range(cells_y + 1) for ix in range(cells_x + 1)]
    assert plan.positions.shape == (len(expected), 2) and plan.positions.dtype == np.float64
    assert plan.positions.tobytes() == np.array(expected).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        plan.positions[0, 0] = 1.0


def test_planner_at_its_cap_stays_small():
    # 1,000,000 beacons, the cap, are one 16 MB (n, 2) array; one point
    # object per beacon would peak at about 138 MiB
    tracemalloc.start()
    try:
        plan = plan_square_grid_deployment(Rect(0, 0, 999, 999), 1.5714)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert plan.positions.shape == (1_000_000, 2)
    assert peak < 64 << 20


def test_verifier_lattice_capacity_limit():
    plan = plan_square_grid_deployment(Rect(0, 0, 1000, 1000), 25.0)
    with pytest.raises(CapacityError):  # about 1.6e7 points at the 0.25 m pitch
        verify_three_coverage(plan, Rect(0, 0, 1000, 1000), 25.0)


def test_verifier_pair_capacity_limit():
    # 16,129 beacons x ~2.57e6 lattice points: the lattice alone is allowed
    roi = Rect(0, 0, 400, 400)
    plan = plan_square_grid_deployment(roi, 5.0)
    with pytest.raises(CapacityError, match="point-beacon pairs"):
        verify_three_coverage(plan, roi, 5.0)


def test_planner_validation():
    with pytest.raises(ValueError):
        plan_square_grid_deployment(Rect(0, 0, 0, 10), 25.0)
    for radio_range in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="radio_range"):
            plan_square_grid_deployment(Rect(0, 0, 10, 10), radio_range)
    with pytest.raises(ValueError):
        plan_square_grid_deployment(Rect(0, 0, 10, 10), 25.0, safety=0.0)


# ---------------------------------------------------------------------------
# coverage verification


@pytest.mark.parametrize("radio_range", [-25.0, 0.0, math.nan, math.inf])
def test_verifier_rejects_a_range_not_finite_and_positive(radio_range):
    # -25 squares to the r2 of 25 and inf reaches everywhere: no plan may pass
    # on either, and 0 or nan would fail every point
    roi = Rect(0, 0, 30, 30)
    plan = plan_square_grid_deployment(roi, 25.0)
    with pytest.raises(ValueError, match="radio_range"):
        verify_three_coverage(plan, roi, radio_range)


def test_boundary_distance_counts_as_covered():
    # three beacons all at exactly radio range from the sample point
    plan = DeploymentPlan(((0, 0), (6, 0), (3, 3)), 0.0, 0.0)
    ok, uncovered = verify_three_coverage(plan, Rect(3, 0, 3, 0), 3.0)
    assert ok and uncovered.shape == (0, 2)


def test_two_beacons_cover_nothing():
    plan = DeploymentPlan(((0, 0), (1, 0)), 0.0, 0.0)
    ok, uncovered = verify_three_coverage(plan, Rect(0, 0, 1, 1), 100.0)
    assert not ok
    assert len(uncovered) == 25  # full 5x5 lattice


def test_triangle_over_bounding_box_needs_far_corner_reach():
    # with exactly three beacons every box point must reach all three;
    # the binding distance is corner (30,30) to (0,0) = sqrt(1800) = 42.4264 m,
    # so 35 m fails and 43 m passes
    plan = DeploymentPlan([(a.position.x, a.position.y) for a in TRIANGLE], 0.0, 0.0)
    box = Rect(0, 0, 30, 30)
    assert math.hypot(30, 30) == pytest.approx(42.42640687119285)
    ok35, uncovered35 = verify_three_coverage(plan, box, 35.0)
    assert not ok35
    assert [30.0, 30.0] in uncovered35.tolist()
    ok43, uncovered43 = verify_three_coverage(plan, box, 43.0)
    assert ok43 and uncovered43.shape == (0, 2)


def meshgrid_uncovered(plan, roi, radio_range):
    """Reference uncovered points: the point-list kernel over the raveled
    meshgrid of the verifier's lattice, in that order."""
    xs = _lattice_1d(roi.x_min, roi.x_max)
    ys = _lattice_1d(roi.y_min, roi.y_max)
    gx, gy = np.meshgrid(xs, ys)
    px, py = gx.ravel(), gy.ravel()
    counts = kernels.coverage_counts(px, py, *plan.positions.T, float(radio_range), 3)
    return np.stack((px, py), axis=1)[counts < 3]


def test_uncovered_points_keep_the_meshgrid_order():
    # five scattered beacons over a ragged 20 x 13.1 m floor leave most of
    # it uncovered; coverage.json writes the first 100, so order is output
    plan = DeploymentPlan(((2, 3), (9.5, 1), (5, 8), (25, 6.5), (14, 12)), 0.0, 0.0)
    roi = Rect(-1, 0.3, 19, 13.4)
    for radio_range in (7.0, 9.7, 12.0):
        ok, uncovered = verify_three_coverage(plan, roi, radio_range)
        expected = meshgrid_uncovered(plan, roi, radio_range)
        assert not ok and 100 < len(uncovered) < 81 * 54  # 81 x 54 points
        assert uncovered.dtype == np.float64 and uncovered.shape == expected.shape
        assert uncovered.tobytes() == expected.tobytes()


def test_lattice_includes_ragged_boundary():
    plan = DeploymentPlan(((0, 0), (0.9, 0), (0, 0.9)), 0.0, 0.0)
    # width 0.9 is not a multiple of 0.25: the right/top edges must still
    # be sampled
    ok, uncovered = verify_three_coverage(plan, Rect(0, 0, 0.9, 0.9), 2.0)
    assert ok
    ok_small, _ = verify_three_coverage(plan, Rect(0, 0, 0.9, 0.9), 0.9)
    assert not ok_small  # corner (0.9, 0.9) is 1.27 m from two beacons


# ---------------------------------------------------------------------------
# run_scenario


def test_noise_free_run_locks_onto_target():
    res = run_scenario(triangle_scenario(seed=1, steps=12))
    assert res.resolved[:10].all()
    kx, ky = res.kalman[9]
    assert math.hypot(kx - 12.0, ky - 9.0) < 1e-6


def test_run_is_reproducible_bytewise():
    a = run_scenario(triangle_scenario(seed=99, sigma=2.0, steps=40))
    b = run_scenario(triangle_scenario(seed=99, sigma=2.0, steps=40))
    for column in dataclasses.fields(RunResult):
        col_a, col_b = getattr(a, column.name), getattr(b, column.name)
        assert col_a.dtype == col_b.dtype and col_a.shape == col_b.shape
        assert col_a.tobytes() == col_b.tobytes(), column.name


def test_interfered_run_stays_on_clean_channel():
    env = ChannelEnvironment(
        interferers=tuple(InterfererProfile(WifiChannel(w), -70.0, 0.5) for w in (1, 6, 11)),
        noise_floor=-100.0,
    )
    res = run_scenario(triangle_scenario(seed=5, sigma=2.0, steps=80, env=env))
    channels = set(res.channel.tolist())
    assert channels <= {15, 20, 25, 26}
    assert len(channels) == 1  # static interference: no rescan mid-run


def test_unreachable_beacons_degrade_gracefully():
    far = tuple(
        AnchorNode(i, Point2D(1e5 + 10 * i, 1e5)) for i in range(3)
    )
    s = Scenario(
        roi=Rect(0, 0, 30, 30),
        beacons=far,
        trajectory=((12, 9),) * 5,
        seed=0,
        shadowing=ShadowingModel(0.0),
    )
    res = run_scenario(s)
    assert not res.resolved.any()
    assert np.isnan(res.raw).all() and np.isnan(res.kalman).all()
    with pytest.raises(NoResolvedStepsError):
        compute_metrics(res, "kalman")


@pytest.mark.parametrize("n_beacons", [1, 2])
def test_fewer_than_three_beacons_resolve_no_step(n_beacons):
    # every beacon heard, but too few of them: each step has status 1 and
    # no estimate of any flavor
    s = dataclasses.replace(triangle_scenario(seed=0, steps=6, sigma=2.0),
                            beacons=TRIANGLE[:n_beacons])
    res = run_scenario(s)
    assert res.status.tolist() == [1] * 6
    for flavor in ("raw", "averaged", "kalman"):
        assert np.isnan(getattr(res, flavor)).all(), flavor


def test_step_records_carry_aggregated_rssi():
    res = run_scenario(triangle_scenario(seed=3, steps=4))
    row = res.rssi[0]
    assert row.shape == (3,) and not np.isnan(row).any()
    # noise-free: aggregated reading equals the path-loss value at 15 m
    assert row[0] == pytest.approx(-45 - 20 * math.log10(15.0), abs=1e-9)


def test_sparse_lattice_columns_are_consistent():
    # the golden LATTICE_SPARSE scene: a 4x4 lattice heard through a -80 dBm
    # receiver at exponent 3 with 3 dB shadowing, so windows are partly empty
    # and some raw and averaged fixes are missing
    lattice = tuple(AnchorNode(4 * iy + ix, Point2D(10.0 * ix, 10.0 * iy))
                    for iy in range(4) for ix in range(4))
    res = run_scenario(Scenario(
        roi=Rect(0, 0, 30, 30),
        beacons=lattice,
        trajectory=[(5 + 0.5 * i, 5 + 0.35 * i) for i in range(40)],
        seed=5,
        path_loss=PathLossParams(exponent=3.0),
        radio=RadioSpec(sensitivity=-80.0),
        shadowing=ShadowingModel(3.0),
    ))
    for name in ("true", "raw", "averaged", "kalman"):
        column = getattr(res, name)
        assert column.shape == (40, 2) and column.dtype == np.float64
        assert (np.isnan(column[:, 0]) == np.isnan(column[:, 1])).all(), name
    assert not np.isnan(res.true).any()
    assert res.channel.shape == (40,) and res.channel.dtype == np.int64
    assert res.rssi.shape == (40, 16) and res.rssi.dtype == np.float64
    assert ((res.channel >= 11) & (res.channel <= 26)).all()
    has_kalman = ~np.isnan(res.kalman[:, 0])
    assert not (has_kalman & ~res.resolved).any()
    assert (res.resolved == ~np.isnan(res.averaged[:, 0])).all()
    # the scene exercises both sides of every mask
    assert res.resolved.any() and not res.resolved.all()
    assert np.isnan(res.rssi).any() and not np.isnan(res.rssi).all()


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(roi=Rect(0, 0, 10, 10), beacons=TRIANGLE,
                 trajectory=((20, 20),), seed=1)  # outside roi
    with pytest.raises(ValueError):
        Scenario(roi=Rect(0, 0, 30, 30),
                 beacons=(TRIANGLE[0], AnchorNode(0, Point2D(1, 1)), TRIANGLE[2]),
                 trajectory=((5, 5),), seed=1)  # duplicate id
    with pytest.raises(ValueError):
        Scenario(roi=Rect(0, 0, 30, 30), beacons=TRIANGLE,
                 trajectory=((5, 5),), seed=1, aggregation_window=0)
    with pytest.raises(ValueError):
        Scenario(roi=Rect(0, 0, 30, 30), beacons=TRIANGLE,
                 trajectory=((5, 5), (30, 0)), seed=1)  # on a beacon
    with pytest.raises(ValueError):
        Scenario(roi=Rect(0, 0, 30, 30), beacons=TRIANGLE,
                 trajectory=((5, 5),), seed=-1)  # no generator takes it


@pytest.mark.parametrize("trajectory", [(), [(5.0, 5.0, 1.0)] * 2, [(5.0, 5.0), (math.nan, 5.0)]],
                         ids=["empty", "three_columns", "nan"])
def test_scenario_rejects_malformed_trajectory(trajectory):
    with pytest.raises(ValueError):
        Scenario(roi=Rect(0, 0, 30, 30), beacons=TRIANGLE, trajectory=trajectory, seed=1)


def test_trajectory_is_one_read_only_array():
    # the run's true column is the scenario's trajectory itself
    s = triangle_scenario(seed=0, steps=4)
    assert s.trajectory.shape == (4, 2) and s.trajectory.dtype == np.float64
    assert not s.trajectory.flags.writeable
    assert run_scenario(s).true is s.trajectory


NAN, INF = math.nan, math.inf


# Each value the schema rejects as non-finite or negative is also rejected
# by the library type itself.
@pytest.mark.parametrize("build", [
    lambda: PathLossParams(exponent=NAN),
    lambda: PathLossParams(rssi_at_ref=NAN),
    lambda: PathLossParams(ref_distance=INF),
    lambda: RadioSpec(tx_power=NAN),
    lambda: RadioSpec(sensitivity=NAN),
    lambda: RadioSpec(max_range=NAN),
    lambda: ShadowingModel(NAN),
    lambda: ShadowingModel(INF),
    lambda: ScanConfig(sample_interval_ms=-5),
    lambda: ScanConfig(sample_interval_ms=NAN),
    lambda: KalmanConfig(state_transition=[[1.0, NAN], [0.0, 1.0]]),
    lambda: KalmanConfig(control=[INF, 0.0]),
], ids=[
    "exponent_nan", "rssi_at_ref_nan", "ref_distance_inf", "tx_power_nan",
    "sensitivity_nan", "max_range_nan", "sigma_nan", "sigma_inf",
    "sample_interval_negative", "sample_interval_nan", "transition_nan", "control_inf",
])
def test_library_types_reject_non_finite_values(build):
    with pytest.raises(ValueError):
        build()


DESK = Path(__file__).resolve().parent.parent / "scenarios" / "desk.json"


# Types holding arrays compare and hash by identity: the generated value
# methods would ask an array for one truth value, or hash it.
@pytest.mark.parametrize("build", [
    lambda: load_scenario(DESK),
    lambda: KalmanConfig(),
    lambda: KalmanState(np.zeros(2), np.eye(2)),
    lambda: RangeMeasurement(TRIANGLE, np.array([1.0, 2.0, 3.0])),
], ids=["scenario", "kalman_config", "kalman_state", "range_measurement"])
def test_array_holding_types_compare_by_identity(build):
    x = build()
    assert x == x
    assert (x == build()) is False
    assert isinstance(hash(x), int)


# ---------------------------------------------------------------------------
# run_batch against the per-step loop


def oracle_run(s):
    """One seed's run as the package computed it one step at a time
    before run_batch: the loop body of the old run_scenario, verbatim
    but for its return value, a dict of the RunResult columns it had."""
    rng = np.random.default_rng(s.seed)

    report = scan_all_channels(s.environment, s.scan, rng)
    monitor = ChannelMonitor(select_channel(report))

    beacon_x = np.array([b.position.x for b in s.beacons])
    beacon_y = np.array([b.position.y for b in s.beacons])
    beacon_ids = np.array([b.id for b in s.beacons])
    pl = s.path_loss

    cfg = s.kalman
    matrices = [tuple(m.ravel().tolist()) for m in (
        cfg.state_transition, cfg.control, cfg.process_noise, cfg.measurement_noise)]

    kf_pos = None
    kf_cov = None

    n_steps = len(s.trajectory)
    true = np.array(s.trajectory, dtype=np.float64)
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
        readings = kernels.censored(
            true_rssi[:, None] + rng.normal(0.0, s.shadowing.sigma,
                                            (len(s.beacons), s.aggregation_window)),
            s.radio.sensitivity,
        )
        agg = rssi[step] = kernels.db_mean(readings)

        fix = oracle_estimate(beacon_x, beacon_y, beacon_ids, readings[:, 0], pl)
        if fix is not None:
            raw[step] = fix[0]
        fix = oracle_estimate(beacon_x, beacon_y, beacon_ids, agg, pl)
        if fix is None:
            continue
        averaged[step], sel, ranges = fix
        if kf_pos is None:
            # First fix seeds the filter: zero initial covariance, the
            # next prediction injects Q.
            kf_pos = tuple(averaged[step].tolist())
            kf_cov = (0.0, 0.0, 0.0, 0.0)
        else:
            ok, kf_x, kf_y, kf_cov_new = kernels.ekf_step(
                *kf_pos, kf_cov,
                beacon_x[sel].tolist(), beacon_y[sel].tolist(), ranges.tolist(),
                *matrices,
            )
            if ok == 2:
                raise FilterDivergenceError(f"range filter diverged at step {step}")
            if ok != 0:
                # prediction landing on an anchor: keep the previous state,
                # leave this step's filtered estimate absent
                continue
            kf_pos, kf_cov = (kf_x, kf_y), kf_cov_new
        kalman[step] = kf_pos
    return dict(true=true, raw=raw, averaged=averaged, kalman=kalman, channel=channel, rssi=rssi)


def oracle_estimate(beacon_x, beacon_y, beacon_ids, rssi, pl):
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


def oracle_status(columns):
    """The status each step of an oracle run must carry, read off its
    columns: 0 with a filtered estimate, 3 with an averaged fix but none,
    else 1 or 2 by whether three beacons were heard."""
    heard = np.count_nonzero(~np.isnan(columns["rssi"]), axis=1) >= 3
    status = np.where(heard, 2, 1).astype(np.int8)
    status[~np.isnan(columns["averaged"][:, 0])] = 3
    status[~np.isnan(columns["kalman"][:, 0])] = 0
    return status


def oracle_sweep(s, seeds):
    """The oracle's runs of each seed up to the first divergence, and that
    divergence's message (None without one)."""
    runs = []
    for seed in seeds:
        try:
            runs.append(oracle_run(dataclasses.replace(s, seed=seed)))
        except FilterDivergenceError as exc:
            return runs, str(exc)
    return runs, None


def batch_sweep(s, seeds):
    """run_batch's yielded runs up to its divergence error, and that
    error's message (None without one): oracle_sweep's form."""
    results = []
    try:
        for result in run_batch(s, seeds):
            results.append(result)
    except FilterDivergenceError as exc:
        return results, str(exc)
    return results, None


def assert_same_runs(got, expected):
    (results, message), (runs, expected_message) = got, expected
    assert message == expected_message
    assert len(results) == len(runs)
    for result, columns in zip(results, runs):
        columns = dict(columns, status=oracle_status(columns))
        for name, column in columns.items():
            value = getattr(result, name)
            assert value.dtype == column.dtype and value.shape == column.shape, name
            assert value.tobytes() == column.tobytes(), name


KALMAN_CONFIGS = (
    KalmanConfig(),
    # drifting transition, control offset, correlated Q and R
    KalmanConfig(
        state_transition=[[1.0, 0.02], [-0.01, 0.99]],
        control=[0.6, 0.4],
        process_noise=[[0.3, 0.05], [0.05, 0.2]],
        measurement_noise=[[2.0, 0.1, 0.0], [0.1, 1.5, 0.2], [0.0, 0.2, 1.0]],
    ),
    # R negligible next to a huge Q: the filter diverges
    KalmanConfig(process_noise=1e30 * np.eye(2), measurement_noise=1e-30 * np.eye(3)),
    # every prediction at (0, 0): a beacon there makes the filter skip
    KalmanConfig(state_transition=np.zeros((2, 2))),
)


@st.composite
def batch_scenes(draw):
    """A scene and seed list for run_batch. Beacons sit on a 5 m lattice
    and half the waypoints on a 2.5 m one, so equal readings (an id tie)
    and collinear top-3 sets are common; a short sensitivity reach leaves
    beacons unheard."""
    n = draw(st.integers(3, 12))
    cells = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                          min_size=n, max_size=n, unique=True))
    ids = draw(st.permutations(range(n)))
    beacons = tuple(AnchorNode(3 * i + 1, Point2D(5.0 * cx, 5.0 * cy))
                    for i, (cx, cy) in zip(ids, cells))
    on_beacon = {(b.position.x, b.position.y) for b in beacons}
    lattice = st.builds(lambda i, j: (2.5 * i, 2.5 * j), st.integers(0, 12), st.integers(0, 12))
    anywhere = st.tuples(st.floats(0, 30), st.floats(0, 30))
    waypoints = draw(st.lists(st.one_of(lattice, anywhere), min_size=1, max_size=25))
    trajectory = [(x + 1.25, y) if (x, y) in on_beacon else (x, y) for x, y in waypoints]
    interferers = draw(st.lists(st.builds(
        InterfererProfile, st.builds(WifiChannel, st.integers(1, 13)),
        st.floats(-90.0, -40.0), st.floats(0.0, 1.0)), max_size=4))
    scene = Scenario(
        roi=Rect(-5, -5, 35, 35),
        beacons=beacons,
        trajectory=trajectory,
        seed=0,
        path_loss=PathLossParams(exponent=draw(st.sampled_from((2.0, 3.0)))),
        radio=RadioSpec(sensitivity=draw(st.sampled_from((-107.0, -85.0, -75.0)))),
        shadowing=ShadowingModel(draw(st.sampled_from((0.0, 0.5, 2.0, 4.0)))),
        environment=ChannelEnvironment(tuple(interferers)),
        scan=ScanConfig(samples_per_channel=draw(st.integers(1, 4))),
        kalman=draw(st.sampled_from(KALMAN_CONFIGS)),
        aggregation_window=draw(st.integers(1, 12)),
    )
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4))
    return scene, seeds


@settings(max_examples=80, deadline=None)
@given(batch_scenes(), st.sampled_from((None, 1, 3)))
@example(scene=(triangle_scenario(0, steps=7, sigma=2.0), [3, 4]), block=1)
@example(scene=(triangle_scenario(0, steps=7, sigma=2.0), [3, 4]), block=3)
def test_run_batch_matches_per_step_loop(scene, block):
    # every column of every seed, status included, bit for bit; a
    # divergence stops the batch at the same seed and step. A step block
    # of one or three steps (None keeps the default bound) splits the
    # draws, which with no interferer are one per block.
    s, seeds = scene
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(simulate, "STEP_BLOCK_READINGS",
                       block * len(s.beacons) * s.aggregation_window)
        got = batch_sweep(s, seeds)
    assert_same_runs(got, oracle_sweep(s, seeds))


@settings(max_examples=30, deadline=None)
@given(batch_scenes(), st.sampled_from((1, 3)))
def test_step_blocks_move_no_bits(scene, block):
    # step blocks of one step, or of three with a ragged last one, give
    # the columns the default bound gives
    s, seeds = scene
    whole = batch_sweep(s, seeds)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "STEP_BLOCK_READINGS",
                   block * len(s.beacons) * s.aggregation_window)
        pieces = batch_sweep(s, seeds)
    assert pieces[1] == whole[1]
    assert len(pieces[0]) == len(whole[0])
    for got, expected in zip(pieces[0], whole[0]):
        for name in ("true", "raw", "averaged", "kalman", "channel", "rssi", "status"):
            assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), name


def test_run_batch_matches_per_step_loop_across_rescans():
    # the 4 x 4 lattice under six partial-duty WiFi interferers: the monitor
    # rescans mid-run on some seeds, under a non-identity filter
    lattice = tuple(AnchorNode(4 * iy + ix, Point2D(10.0 * ix, 10.0 * iy))
                    for iy in range(4) for ix in range(4))
    s = Scenario(
        roi=Rect(-5, 0, 35, 32),
        beacons=lattice,
        trajectory=[(3 + 0.6 * i, 4 + 0.4 * i) for i in range(40)],
        seed=0,
        path_loss=PathLossParams(rssi_at_ref=-40.0, ref_distance=2.0, exponent=2.5),
        radio=RadioSpec(tx_power=10.0, sensitivity=-95.0, max_range=45.0),
        shadowing=ShadowingModel(1.5),
        environment=ChannelEnvironment(tuple(
            InterfererProfile(WifiChannel(w), -72.0 - w, 0.2 + 0.03 * w)
            for w in (1, 4, 6, 9, 11, 13)), noise_floor=-97.0),
        scan=ScanConfig(samples_per_channel=4),
        kalman=KALMAN_CONFIGS[1],
        aggregation_window=5,
    )
    seeds = list(range(20, 30))
    got, expected = batch_sweep(s, seeds), oracle_sweep(s, seeds)
    assert_same_runs(got, expected)
    assert sum(len(set(r.channel.tolist())) > 1 for r in got[0]) >= 3


@pytest.mark.parametrize("seeds", [[0], [1, 2, 3], [7, 8, 9, 10]])
def test_run_batch_stops_at_the_first_divergence(seeds):
    # a diverged seed stays stopped while the others run on, so the error
    # names its first divergence step, as the per-step loop does
    s = dataclasses.replace(triangle_scenario(seed=0, steps=40, sigma=2.0),
                            kalman=KALMAN_CONFIGS[2])
    with np.errstate(all="ignore"):
        got, expected = batch_sweep(s, seeds), oracle_sweep(s, seeds)
    assert expected[1] is not None
    assert_same_runs(got, expected)


def test_divergence_keeps_the_runs_before_it(monkeypatch):
    # the second of three seeds diverges at step 5: the batch first yields
    # the first seed's run, as a lone run computes it, then raises there
    real = kernels.ekf_step
    s = triangle_scenario(seed=0, steps=12, sigma=2.0)
    # every step of this scenario resolves, so the filter steps at steps 1
    # to 11 of each seed, and its 11 + 5th call is step 5 of the second seed
    calls = iter(range(1, 1000))

    def diverge_second_seed_at_step_five(*args):
        status, *state = real(*args)
        return (2 if next(calls) == 11 + 5 else status), *state

    alone = run_scenario(dataclasses.replace(s, seed=7))
    assert not alone.status.any()
    monkeypatch.setattr(kernels, "ekf_step", diverge_second_seed_at_step_five)
    runs = run_batch(s, [7, 8, 9])
    first = next(runs)
    for name in ("raw", "averaged", "kalman", "channel", "rssi", "status"):
        assert getattr(first, name).tobytes() == getattr(alone, name).tobytes()
    with pytest.raises(FilterDivergenceError, match="diverged at step 5"):
        next(runs)


def counted_seeds(monkeypatch):
    """Record the seed of each call to simulate._run_seed."""
    calls = []
    real = simulate._run_seed

    def run_seed(s, seed, *shared):
        calls.append(seed)
        return real(s, seed, *shared)

    monkeypatch.setattr(simulate, "_run_seed", run_seed)
    return calls


def test_run_batch_runs_one_seed_per_yield(monkeypatch):
    # the first run arrives after one seed has run, and each later seed
    # runs only when its run is asked for
    calls = counted_seeds(monkeypatch)
    runs = run_batch(triangle_scenario(seed=0, steps=6, sigma=2.0), [3, 4, 5])
    next(runs)
    assert calls == [3]
    assert len(list(runs)) == 2 and calls == [3, 4, 5]


def test_run_batch_rejects_a_negative_seed_before_running(monkeypatch):
    calls = counted_seeds(monkeypatch)
    with pytest.raises(ValueError, match="seeds must be >= 0"):
        next(run_batch(triangle_scenario(seed=0, steps=4), [0, -1]))
    assert calls == []


def test_status_names_each_missing_estimate():
    # 1: far beacons are unheard; 2: three collinear beacons; 3: a filter
    # whose prediction is always anchor (0, 0)
    def run(beacons, **kw):
        return run_scenario(Scenario(roi=Rect(-50, -50, 50, 50), beacons=beacons,
                                     trajectory=((12.0, 9.0),) * 6, seed=3,
                                     shadowing=ShadowingModel(1.0), **kw))

    unheard = run(TRIANGLE, radio=RadioSpec(sensitivity=-60.0))
    assert unheard.status.tolist() == [1] * 6
    assert (np.count_nonzero(~np.isnan(unheard.rssi), axis=1) < 3).all()
    collinear = run(tuple(AnchorNode(i, Point2D(15.0 * i - 20.0, 0.0)) for i in range(3)))
    assert collinear.status.tolist() == [2] * 6
    assert not np.isnan(collinear.rssi).any() and np.isnan(collinear.averaged).all()
    on_anchor = run(TRIANGLE, kalman=KalmanConfig(state_transition=np.zeros((2, 2))))
    assert on_anchor.status.tolist() == [0] + [3] * 5
    assert not np.isnan(on_anchor.averaged).any()
    assert np.isnan(on_anchor.kalman[1:]).all() and not np.isnan(on_anchor.kalman[0]).any()
    assert on_anchor.status.dtype == np.int8


def test_batch_buffers_stay_within_their_bounds(monkeypatch):
    # the reading windows of each step block hold at most
    # STEP_BLOCK_READINGS readings, or one step, as a per-step loop does,
    # and the blocks cover the steps in order; 16 beacons with a window at
    # its cap (cli.py) hold more than the default bound in one step, and
    # a bound of 20 splits most scenes into blocks of one or a few steps;
    # each block solves both flavors in one lateration pass
    from rssiloc.cli import MAX_SAMPLES

    assert simulate.STEP_BLOCK_READINGS <= 1 << 13
    shapes = []
    solves = []
    real_censored, real_lateration = kernels.censored, kernels.lateration_batch

    def censored(readings, sensitivity):
        shapes.append(readings.shape)
        return real_censored(readings, sensitivity)

    def lateration_batch(ax, ay, d):
        solves.append(d.shape)
        return real_lateration(ax, ay, d)

    monkeypatch.setattr(kernels, "censored", censored)
    monkeypatch.setattr(kernels, "lateration_batch", lateration_batch)
    for bound in (simulate.STEP_BLOCK_READINGS, 20):
        monkeypatch.setattr(simulate, "STEP_BLOCK_READINGS", bound)
        for n_beacons in (3, 16):
            beacons = tuple(AnchorNode(i, Point2D(10.0 * (i % 4), 10.0 * (i // 4)))
                            for i in range(n_beacons))
            for n_steps in (1, 7, 40):
                for window in (1, 10, MAX_SAMPLES):
                    shapes.clear()
                    solves.clear()
                    run_scenario(Scenario(roi=Rect(0, 0, 30, 30), beacons=beacons,
                                          trajectory=((12.0, 9.0),) * n_steps,
                                          seed=1, aggregation_window=window))
                    assert sum(steps for steps, _, _ in shapes) == n_steps
                    assert len(solves) == len(shapes)
                    for steps, beacon_rows, samples in shapes:
                        assert (beacon_rows, samples) == (n_beacons, window) and steps >= 1
                        assert steps * n_beacons * window <= bound or steps == 1


# ---------------------------------------------------------------------------
# metrics


def test_metrics_single_step():
    res = run_scenario(triangle_scenario(seed=2, steps=1))
    m = compute_metrics(res, "kalman")
    assert m.rmse == m.max_error == m.mean_error
    assert m.resolved_steps == 1 and m.unresolved_steps == 0


def test_metrics_hand_values():
    est = np.array([[3.0, 0.0], [0.0, 4.0]])
    result = RunResult(
        true=np.zeros((2, 2)), raw=np.full((2, 2), np.nan), averaged=est, kalman=est,
        channel=np.array([11, 11]), rssi=np.empty((2, 0)), status=np.zeros(2, dtype=np.int8),
    )
    m = compute_metrics(result, "kalman")
    assert m.rmse == pytest.approx(3.5355339059327378)
    assert m.mean_error == pytest.approx(3.5)
    assert m.max_error == 4.0
    assert m.error_cdf == (3.0, 4.0)
    # no step carries a raw estimate, but the run resolved
    raw = compute_metrics(result, "raw")
    assert (raw.rmse, raw.mean_error, raw.max_error, raw.error_cdf) == (None, None, None, ())
    assert raw.resolved_steps == 0 and raw.unresolved_steps == 2


def test_metrics_zero_error():
    res = run_scenario(triangle_scenario(seed=2, steps=8))
    m = compute_metrics(res, "averaged")
    assert m.rmse < 1e-9
    assert m.max_error < 1e-9


def flavor_metrics(result):
    """Metrics of the raw, averaged and kalman flavors of one run."""
    return tuple(compute_metrics(result, flavor) for flavor in FLAVORS)


def test_compare_zero_noise_all_exact():
    raw, avg, kf = flavor_metrics(run_scenario(triangle_scenario(seed=4, steps=30)))
    assert raw.rmse < 1e-6 and avg.rmse < 1e-6 and kf.rmse < 1e-6


def test_compare_noise_suppression_ordering():
    raw, avg, kf = flavor_metrics(run_scenario(triangle_scenario(seed=0, steps=200, sigma=2.0)))
    assert raw.rmse > 1.05 * avg.rmse
    assert avg.rmse > 1.05 * kf.rmse


@pytest.mark.parametrize("sigma", [1.0, 2.0, 4.0])
def test_smoothing_ordering_across_seeds(sigma):
    # run_batch gives each seed the run of that seed alone
    wins = 0
    for result in run_batch(triangle_scenario(seed=0, steps=200, sigma=sigma), range(100)):
        raw, avg, kf = flavor_metrics(result)
        if raw.rmse >= avg.rmse >= kf.rmse:
            wins += 1
    assert wins >= 95
