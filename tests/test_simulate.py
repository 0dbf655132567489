import dataclasses
import math

import numpy as np
import pytest

from rssiloc import kernels
from rssiloc.channel import ScanConfig
from rssiloc.errors import CapacityError, NoResolvedStepsError
from rssiloc.geometry import AnchorNode, Point2D, Rect
from rssiloc.radio import PathLossParams, RadioSpec, ShadowingModel
from rssiloc.simulate import (
    DeploymentPlan,
    RunResult,
    Scenario,
    _lattice_1d,
    compare_pipelines,
    compute_metrics,
    plan_square_grid_deployment,
    run_scenario,
    verify_three_coverage,
)
from rssiloc.spectrum import ChannelEnvironment, InterfererProfile, WifiChannel
from rssiloc.tracking import KalmanConfig

TRIANGLE = (
    AnchorNode(0, Point2D(0, 0)),
    AnchorNode(1, Point2D(30, 0)),
    AnchorNode(2, Point2D(15, 30)),
)


def triangle_scenario(seed, steps=60, sigma=0.0, env=None, target=(12.0, 9.0)):
    return Scenario(
        roi=Rect(0, 0, 30, 30),
        beacons=TRIANGLE,
        trajectory=(Point2D(*target),) * steps,
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
    assert set((p.x, p.y) for p in plan.positions) == {(0, 0), (2, 0), (0, 3), (2, 3)}


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


def test_verifier_lattice_capacity_limit():
    plan = plan_square_grid_deployment(Rect(0, 0, 1000, 1000), 25.0)
    for step in (0.001, 5e-324):  # 1e12 points, and an infinite count
        with pytest.raises(CapacityError):
            verify_three_coverage(plan, Rect(0, 0, 1000, 1000), 25.0, grid_step=step)


def test_verifier_pair_capacity_limit():
    # 16,129 beacons x ~2.57e6 lattice points: the lattice alone is allowed
    roi = Rect(0, 0, 400, 400)
    plan = plan_square_grid_deployment(roi, 5.0)
    with pytest.raises(CapacityError, match="point-beacon pairs"):
        verify_three_coverage(plan, roi, 5.0)


def test_planner_validation():
    with pytest.raises(ValueError):
        plan_square_grid_deployment(Rect(0, 0, 0, 10), 25.0)
    with pytest.raises(ValueError):
        plan_square_grid_deployment(Rect(0, 0, 10, 10), -1.0)
    with pytest.raises(ValueError):
        plan_square_grid_deployment(Rect(0, 0, 10, 10), 25.0, safety=0.0)


# ---------------------------------------------------------------------------
# coverage verification


def test_boundary_distance_counts_as_covered():
    # three beacons all at exactly radio range from the sample point
    plan = DeploymentPlan((Point2D(0, 0), Point2D(6, 0), Point2D(3, 3)), 0.0, 0.0)
    ok, uncovered = verify_three_coverage(plan, Rect(3, 0, 3, 0), 3.0, grid_step=1.0)
    assert ok and uncovered == []


def test_two_beacons_cover_nothing():
    plan = DeploymentPlan((Point2D(0, 0), Point2D(1, 0)), 0.0, 0.0)
    ok, uncovered = verify_three_coverage(plan, Rect(0, 0, 1, 1), 100.0, grid_step=0.5)
    assert not ok
    assert len(uncovered) == 9  # full 3x3 lattice


def test_triangle_over_bounding_box_needs_far_corner_reach():
    # with exactly three beacons every box point must reach all three;
    # the binding distance is corner (30,30) to (0,0) = sqrt(1800) = 42.4264 m,
    # so 35 m fails and 43 m passes
    plan = DeploymentPlan(tuple(a.position for a in TRIANGLE), 0.0, 0.0)
    box = Rect(0, 0, 30, 30)
    assert math.hypot(30, 30) == pytest.approx(42.42640687119285)
    ok35, uncovered35 = verify_three_coverage(plan, box, 35.0)
    assert not ok35
    assert any(p.x == 30.0 and p.y == 30.0 for p in uncovered35)
    ok43, uncovered43 = verify_three_coverage(plan, box, 43.0)
    assert ok43 and uncovered43 == []


def meshgrid_uncovered(plan, roi, radio_range, grid_step=0.25):
    """Reference uncovered list: the point-list kernel over the raveled
    meshgrid of the verifier's lattice, in that order."""
    xs = _lattice_1d(roi.x_min, roi.x_max, grid_step)
    ys = _lattice_1d(roi.y_min, roi.y_max, grid_step)
    gx, gy = np.meshgrid(xs, ys)
    px, py = gx.ravel(), gy.ravel()
    bx = np.array([p.x for p in plan.positions])
    by = np.array([p.y for p in plan.positions])
    counts = kernels.coverage_counts(px, py, bx, by, float(radio_range), 3)
    return [Point2D(float(px[i]), float(py[i])) for i in np.flatnonzero(counts < 3)]


def test_uncovered_points_keep_the_meshgrid_order():
    # five scattered beacons over a ragged 20 x 13.1 m floor leave most of
    # it uncovered; coverage.json writes the first 100, so order is output
    plan = DeploymentPlan((Point2D(2, 3), Point2D(9.5, 1), Point2D(5, 8),
                           Point2D(25, 6.5), Point2D(14, 12)), 0.0, 0.0)
    roi = Rect(-1, 0.3, 19, 13.4)
    for radio_range in (7.0, 9.7, 12.0):
        ok, uncovered = verify_three_coverage(plan, roi, radio_range)
        expected = meshgrid_uncovered(plan, roi, radio_range)
        assert not ok and 100 < len(uncovered) < 81 * 54  # 81 x 54 points
        assert uncovered == expected
        assert all(type(p.x) is float and type(p.y) is float for p in uncovered)


def test_lattice_includes_ragged_boundary():
    plan = DeploymentPlan((Point2D(0, 0), Point2D(0.9, 0), Point2D(0, 0.9)), 0.0, 0.0)
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
        trajectory=(Point2D(12, 9),) * 5,
        seed=0,
        shadowing=ShadowingModel(0.0),
    )
    res = run_scenario(s)
    assert not res.resolved.any()
    assert np.isnan(res.raw).all() and np.isnan(res.kalman).all()
    with pytest.raises(NoResolvedStepsError):
        compute_metrics(res, "kalman")


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
        trajectory=tuple(Point2D(5 + 0.5 * i, 5 + 0.35 * i) for i in range(40)),
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
                 trajectory=(Point2D(20, 20),), seed=1)  # outside roi
    with pytest.raises(ValueError):
        Scenario(roi=Rect(0, 0, 30, 30),
                 beacons=(TRIANGLE[0], AnchorNode(0, Point2D(1, 1)), TRIANGLE[2]),
                 trajectory=(Point2D(5, 5),), seed=1)  # duplicate id
    with pytest.raises(ValueError):
        Scenario(roi=Rect(0, 0, 30, 30), beacons=TRIANGLE,
                 trajectory=(Point2D(5, 5),), seed=1, aggregation_window=0)
    with pytest.raises(ValueError):
        Scenario(roi=Rect(0, 0, 30, 30), beacons=TRIANGLE,
                 trajectory=(Point2D(5, 5), Point2D(30, 0)), seed=1)  # on a beacon
    with pytest.raises(ValueError):
        Scenario(roi=Rect(0, 0, 30, 30), beacons=TRIANGLE,
                 trajectory=(Point2D(5, 5),), seed=-1)  # no generator takes it


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
        channel=np.array([11, 11]), rssi=np.empty((2, 0)),
    )
    m = compute_metrics(result, "kalman")
    assert m.rmse == pytest.approx(3.5355339059327378)
    assert m.mean_error == pytest.approx(3.5)
    assert m.max_error == 4.0
    assert m.error_cdf == (3.0, 4.0)


def test_metrics_zero_error():
    res = run_scenario(triangle_scenario(seed=2, steps=8))
    m = compute_metrics(res, "averaged")
    assert m.rmse < 1e-9
    assert m.max_error < 1e-9


def test_compare_zero_noise_all_exact():
    raw, avg, kf = compare_pipelines(triangle_scenario(seed=4, steps=30))
    assert raw.rmse < 1e-6 and avg.rmse < 1e-6 and kf.rmse < 1e-6


def test_compare_noise_suppression_ordering():
    raw, avg, kf = compare_pipelines(triangle_scenario(seed=0, steps=200, sigma=2.0))
    assert raw.rmse > 1.05 * avg.rmse
    assert avg.rmse > 1.05 * kf.rmse


@pytest.mark.slow
@pytest.mark.parametrize("sigma", [1.0, 2.0, 4.0])
def test_smoothing_ordering_across_seeds(sigma):
    wins = 0
    for seed in range(100):
        raw, avg, kf = compare_pipelines(
            triangle_scenario(seed=seed, steps=200, sigma=sigma)
        )
        if raw.rmse >= avg.rmse >= kf.rmse:
            wins += 1
    assert wins >= 95
