"""Acceptance checks for the full artifact, one test per criterion.

Each test prints a single `ACCEPTANCE <n> [PASS|FAIL]` line with the
measured quantities before asserting, so a plain `pytest -s` run yields
a per-criterion scoreboard.
"""

import json
import math
import time

import numpy as np
import pytest

from rssiloc import kernels
from rssiloc.channel import ChannelMonitor, ScanConfig, scan_all_channels, select_channel
from rssiloc.cli import EXIT_OK, main
from rssiloc.geometry import AnchorNode, Point2D, Rect
from rssiloc.radio import ShadowingModel
from rssiloc.simulate import (
    Scenario,
    compute_metrics,
    plan_square_grid_deployment,
    run_batch,
    verify_three_coverage,
)
from rssiloc.spectrum import (
    ZIGBEE_CHANNELS,
    ChannelEnvironment,
    InterfererProfile,
    WifiChannel,
    ZigbeeChannel,
    channels_overlap,
    packet_success,
)
from rssiloc.tracking import (
    KalmanConfig,
    KalmanState,
    RangeMeasurement,
    filter_step,
    gain,
    observation_jacobian,
    update,
)

TRIANGLE = (
    AnchorNode(0, Point2D(0, 0)),
    AnchorNode(1, Point2D(30, 0)),
    AnchorNode(2, Point2D(15, 30)),
)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} [{'PASS' if ok else 'FAIL'}] {detail}")


# ---------------------------------------------------------------------------
# 1. exact-range recovery over random geometries


def test_criterion_1_trilateration_exactness():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        while True:
            pts = rng.uniform(0.0, 100.0, (3, 2))
            area = 0.5 * abs(
                (pts[1, 0] - pts[0, 0]) * (pts[2, 1] - pts[0, 1])
                - (pts[2, 0] - pts[0, 0]) * (pts[1, 1] - pts[0, 1])
            )
            if area >= 100.0:  # non-collinear: exclude slivers
                break
        w = rng.random(3)
        target = (w / w.sum()) @ pts  # interior point
        d = np.linalg.norm(pts - target, axis=1)
        status, x, y = kernels.lateration_solve(
            np.ascontiguousarray(pts[:, 0]), np.ascontiguousarray(pts[:, 1]), d
        )
        assert status == 0
        worst = max(worst, math.hypot(x - target[0], y - target[1]))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 1.0
    report(1, ok, f"exact-range recovery: worst error {worst:.2e} m over 1000 "
                  f"random triples, {elapsed:.2f}s")
    assert worst < 1e-9
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 2. equal-reading snapshot


def test_criterion_2_equal_reading_snapshot():
    from rssiloc.localization import TrilaterationProblem, trilaterate
    from rssiloc.radio import PathLossParams, distance_from_rssi

    d = distance_from_rssi(PathLossParams(rssi_at_ref=-45.0, ref_distance=1.0, exponent=2.0), -60.0)
    est = trilaterate(TrilaterationProblem(TRIANGLE, (d, d, d))).position
    err = math.hypot(est.x - 15.0, est.y - 11.25)
    ok = err < 1e-6
    report(2, ok, f"equal -60 dBm readings -> ({est.x:.8f}, {est.y:.8f}), "
                  f"target (15, 11.25), error {err:.2e} m")
    assert err < 1e-6


# ---------------------------------------------------------------------------
# 3 + 4. noisy-surrogate sweep (shared runs, paired draws)


@pytest.fixture(scope="module")
def surrogate_sweep():
    scenario = Scenario(
        roi=Rect(0, 0, 30, 30),
        beacons=TRIANGLE,
        trajectory=((12.0, 9.0),) * 200,
        seed=0,
        shadowing=ShadowingModel(2.0),
    )

    t0 = time.perf_counter()
    rows = []
    for result in run_batch(scenario, range(100)):
        tail = [
            math.hypot(kx - tx, ky - ty)
            for (kx, ky), (tx, ty) in zip(result.kalman[-50:].tolist(), result.true[-50:].tolist())
        ]
        rows.append({
            "resolved": bool(result.resolved.all()),
            "kalman_finite": bool(np.isfinite(result.kalman).all()),
            "status_resolved": bool((result.status == 0).all()),
            "tail_rmse": float(np.sqrt(np.mean(np.square(tail)))),
            "raw": compute_metrics(result, "raw").rmse,
            "averaged": compute_metrics(result, "averaged").rmse,
            "kalman": compute_metrics(result, "kalman").rmse,
        })
    return rows, time.perf_counter() - t0


def test_criterion_3_tail_accuracy_across_seeds(surrogate_sweep):
    rows, elapsed = surrogate_sweep
    passing = sum(r["tail_rmse"] < 0.5 for r in rows)
    ok = passing >= 95 and elapsed < 10.0
    report(3, ok, f"kalman tail RMSE < 0.5 m on {passing}/100 seeds "
                  f"(need >= 95), sweep {elapsed:.2f}s")
    assert elapsed < 10.0
    assert passing >= 95, (
        f"{passing}/100 seeds under 0.5 m; the filter constants pinned here "
        f"(process noise 0.01 m^2, unit range noise, 2 dB shadowing over "
        f"10-sample windows) yield a ~90% per-seed rate"
    )


def test_criterion_4_pipeline_error_ordering(surrogate_sweep):
    rows, _ = surrogate_sweep
    passing = sum(
        r["raw"] > 1.05 * r["averaged"] and r["averaged"] > 1.05 * r["kalman"]
        for r in rows
    )
    ok = passing >= 95
    report(4, ok, f"raw > averaged > kalman RMSE with >=5% gaps on "
                  f"{passing}/100 seeds (need >= 95)")
    assert passing >= 95


# ---------------------------------------------------------------------------
# 5. channel selection under the non-overlapping WiFi trio


def test_criterion_5_channel_selection():
    t0 = time.perf_counter()
    env = ChannelEnvironment(
        interferers=tuple(InterfererProfile(WifiChannel(w), -70.0, 1.0) for w in (1, 6, 11)),
        noise_floor=-100.0,
    )
    clean = {
        z for z in ZIGBEE_CHANNELS
        if not any(channels_overlap(ZigbeeChannel(z), i.wifi_channel) for i in env.interferers)
    }
    report_obj = scan_all_channels(env, ScanConfig(), np.random.default_rng(5))
    selected = select_channel(report_obj)
    elapsed = time.perf_counter() - t0
    ok = selected.index == 15 and clean == {15, 20, 25, 26} and elapsed < 1.0
    report(5, ok, f"selected channel {selected.index} (want 15), clean set "
                  f"{sorted(clean)}, {elapsed:.2f}s")
    assert selected.index == 15
    assert clean == {15, 20, 25, 26}
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 6. rescan liveness on interference onset


def test_criterion_6_rescan_liveness():
    onset = ChannelEnvironment(interferers=(InterfererProfile(WifiChannel(1), -70.0, 1.0),))
    successes = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        mon = ChannelMonitor(select_channel(scan_all_channels(ChannelEnvironment(), ScanConfig(), rng)))
        rescanned = False
        for _ in range(20):
            mon.record_packet_outcome(packet_success(onset, mon.active_channel, rng))
            if mon.should_rescan():
                rescanned = True
                break
        if not rescanned:
            continue
        mon.switch_to(select_channel(scan_all_channels(onset, ScanConfig(), rng)))
        landed_clean = not any(
            channels_overlap(mon.active_channel, i.wifi_channel) for i in onset.interferers
        )
        successes += landed_clean
    ok = successes == 100
    report(6, ok, f"interference onset -> rescan within 20 packets onto a "
                  f"clean channel in {successes}/100 trials")
    assert successes == 100


# ---------------------------------------------------------------------------
# 7. filter invariants


def test_criterion_7_kalman_invariant_suite():
    rng = np.random.default_rng(7)
    cfg = KalmanConfig()
    state = KalmanState(np.array([12.0, 9.0]), np.zeros((2, 2)))
    sym_ok = True
    psd_ok = True
    for _ in range(10_000):
        target = rng.uniform(2.0, 28.0, 2)
        ranges = np.array([
            math.hypot(target[0] - a.position.x, target[1] - a.position.y)
            for a in TRIANGLE
        ]) * np.exp(rng.normal(0.0, 0.05, 3))
        state = filter_step(state, RangeMeasurement(TRIANGLE, ranges), cfg)
        cov = state.covariance
        sym_ok &= bool(np.allclose(cov, cov.T, atol=1e-12))
        psd_ok &= bool(np.linalg.eigvalsh(cov).min() >= -1e-9)

    # zero innovation leaves the position exactly fixed
    target = (11.0, 13.0)
    fixed = KalmanState(np.array(target), 0.4 * np.eye(2))
    ranges = np.array([
        math.hypot(target[0] - a.position.x, target[1] - a.position.y) for a in TRIANGLE
    ])
    updated = update(fixed, RangeMeasurement(TRIANGLE, ranges), cfg)
    zero_innov_ok = bool(np.array_equal(updated.position, fixed.position))

    # certain prediction ignores the measurement
    h = observation_jacobian(np.array([12.0, 9.0]),
                             np.array([[0.0, 0.0], [30.0, 0.0], [15.0, 30.0]]))
    zero_gain_ok = bool(np.array_equal(gain(np.zeros((2, 2)), h, np.eye(3)), np.zeros((2, 3))))

    # gain scales down ~1e6 when R scales up 1e6
    k1 = gain(np.eye(2), h, np.eye(3))
    k2 = gain(np.eye(2), h, 1e6 * np.eye(3))
    ratio = np.linalg.norm(k1) / np.linalg.norm(k2)
    gain_scale_ok = 0.3e6 < ratio < 3e6

    ok = sym_ok and psd_ok and zero_innov_ok and zero_gain_ok and gain_scale_ok
    report(7, ok, f"10^4 steps symmetric={sym_ok} psd={psd_ok}, "
                  f"zero-innovation fixed={zero_innov_ok}, zero-gain={zero_gain_ok}, "
                  f"gain ratio {ratio:.3g} under 1e6 R scaling")
    assert ok


# ---------------------------------------------------------------------------
# 8. deployment planner soundness


def test_criterion_8_deployment_soundness():
    rng = np.random.default_rng(8)
    t0 = time.perf_counter()
    failures = []
    for _ in range(100):
        w, h = rng.uniform(10.0, 100.0, 2)
        radio_range = float(rng.uniform(10.0, 60.0))
        roi = Rect(0.0, 0.0, float(w), float(h))
        plan = plan_square_grid_deployment(roi, radio_range)
        covered, uncovered = verify_three_coverage(plan, roi, radio_range)
        if not covered:
            failures.append((w, h, radio_range, uncovered[:2]))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    report(8, ok, f"planner three-coverage verified on {100 - len(failures)}/100 "
                  f"random roi/range cases, {elapsed:.2f}s")
    assert not failures, failures[:3]
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 9. CLI determinism


def test_criterion_9_cli_determinism(tmp_path):
    scenario = {
        "seed": 123456789,
        "roi_m": {"x_min": 0, "y_min": 0, "x_max": 30, "y_max": 30},
        "beacons": [
            {"id": 0, "x_m": 0, "y_m": 0},
            {"id": 1, "x_m": 30, "y_m": 0},
            {"id": 2, "x_m": 15, "y_m": 30},
        ],
        "trajectory_m": {"static": [12, 9], "steps": 50},
        "shadowing": {"sigma_db": 2.0},
    }
    scn = tmp_path / "scenario.json"
    scn.write_text(json.dumps(scenario))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    rc_a = main(["simulate", "--scenario", str(scn), "--out", str(out_a)])
    rc_b = main(["simulate", "--scenario", str(scn), "--out", str(out_b)])
    steps_equal = (out_a / "steps.csv").read_bytes() == (out_b / "steps.csv").read_bytes()
    summary_equal = (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()
    ok = rc_a == rc_b == EXIT_OK and steps_equal and summary_equal
    report(9, ok, f"two simulate runs byte-identical: steps={steps_equal}, "
                  f"summary={summary_equal}")
    assert ok


# ---------------------------------------------------------------------------


def test_run_records_are_complete(surrogate_sweep):
    # companion sanity for the sweep: every surrogate step resolved, carries
    # a finite filtered estimate and says so in its status
    rows, _ = surrogate_sweep
    assert len(rows) == 100
    assert all(r["resolved"] for r in rows)
    assert all(r["kalman_finite"] for r in rows)
    assert all(r["status_resolved"] for r in rows)
