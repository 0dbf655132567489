import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rssiloc import kernels
from rssiloc.simulate import _lattice_1d
from rssiloc.tracking import KalmanConfig, KalmanState, RangeMeasurement, filter_step
from rssiloc.geometry import AnchorNode, Point2D


def python_coverage_oracle(px, py, bx, by, radius, cap):
    counts = []
    for x, y in zip(px, py):
        c = 0
        for ax, ay in zip(bx, by):
            if (x - ax) ** 2 + (y - ay) ** 2 <= radius * radius:
                c += 1
        counts.append(min(c, cap))
    return np.array(counts, dtype=np.int64)


def test_coverage_counts_paths_agree_with_oracle():
    rng = np.random.default_rng(0)
    px = rng.uniform(0, 100, 500)
    py = rng.uniform(0, 100, 500)
    bx = rng.uniform(0, 100, 40)
    by = rng.uniform(0, 100, 40)
    expected = python_coverage_oracle(px, py, bx, by, 20.0, 3)
    assert np.array_equal(kernels.coverage_counts(px, py, bx, by, 20.0, 3), expected)


def test_coverage_counts_chunks_bound_pairs(monkeypatch):
    # a pair budget below one row of beacons still makes progress, one row
    # per chunk, and the counts match the unchunked oracle
    rng = np.random.default_rng(1)
    px, py, bx, by = (rng.uniform(0, 50, n) for n in (300, 300, 30, 30))
    expected = python_coverage_oracle(px, py, bx, by, 12.0, 3)
    for budget in (7, 64, 1000):
        monkeypatch.setattr(kernels, "_COVERAGE_ELEMENTS", budget)
        assert np.array_equal(kernels.coverage_counts(px, py, bx, by, 12.0, 3), expected)


def test_coverage_counts_closed_ball():
    px = np.array([3.0])
    py = np.array([0.0])
    bx = np.array([0.0, 6.0, 3.0])
    by = np.array([0.0, 0.0, 3.0])
    # all three beacons at exactly distance 3
    assert kernels.coverage_counts(px, py, bx, by, 3.0, 3)[0] == 3


@st.composite
def lattice_axis(draw):
    """An ascending axis: a verifier lattice (its ragged last point and
    single-point spans included) or sorted distinct floats."""
    if draw(st.booleans()):
        lo = draw(st.floats(-50, 50))
        step = draw(st.floats(0.05, 5))
        span = draw(st.one_of(st.just(0.0), st.floats(0, 40 * step)))
        return _lattice_1d(lo, lo + span, step)
    values = draw(st.lists(st.floats(-50, 50), min_size=1, max_size=40, unique=True))
    return np.array(sorted(values))


@st.composite
def lattice_scene(draw):
    xs, ys = draw(lattice_axis()), draw(lattice_axis())
    span = max(xs[-1] - xs[0], ys[-1] - ys[0], 1.0)
    # radii below the axis spacing as often as radii past the lattice span
    scale = draw(st.sampled_from((0.01, 0.1, 1.0)))
    radius = draw(st.one_of(st.just(0.0), st.floats(0, 3 * scale * span), st.just(1e200)))
    beacons = []
    for _ in range(draw(st.integers(0, 40))):
        if draw(st.booleans()):  # anywhere, the lattice's surroundings included
            beacons.append((draw(st.floats(xs[0] - 2 * span, xs[-1] + 2 * span)),
                            draw(st.floats(ys[0] - 2 * span, ys[-1] + 2 * span))))
            continue
        # radius away from a lattice point along one axis, on the closed ball
        x = xs[draw(st.integers(0, len(xs) - 1))]
        y = ys[draw(st.integers(0, len(ys) - 1))]
        sign = draw(st.sampled_from((-1.0, 1.0)))
        beacons.append((x + sign * radius, y) if draw(st.booleans()) else (x, y + sign * radius))
    bx = np.array([b[0] for b in beacons])
    by = np.array([b[1] for b in beacons])
    cap = draw(st.one_of(st.integers(1, 5), st.integers(6, 10**9)))
    return xs, ys, bx, by, radius, cap


@given(lattice_scene())
def test_lattice_coverage_counts_match_point_list(scene):
    xs, ys, bx, by, radius, cap = scene
    gx, gy = np.meshgrid(xs, ys)
    with np.errstate(over="ignore"):  # a 1e200 radius squares to inf
        counts = kernels.lattice_coverage_counts(xs, ys, bx, by, radius, cap)
        expected = kernels.coverage_counts(gx.ravel(), gy.ravel(), bx, by, radius, cap)
    assert counts.shape == (len(ys), len(xs)) and counts.dtype == np.int64
    assert np.array_equal(counts.ravel(), expected)


# ---------------------------------------------------------------------------
# ranging, windows, aggregation, ordering


@given(st.floats(min_value=0.1, max_value=1e3), st.floats(-90, -20),
       st.floats(0.1, 10), st.floats(0.5, 6))
def test_path_loss_round_trip(d, ref, d0, n):
    rssi = kernels.path_loss_rssi(d, ref, d0, n)
    assert kernels.path_loss_range(rssi, ref, d0, n) == pytest.approx(d, rel=1e-9)


def test_path_loss_vectorizes_elementwise():
    d = np.array([0.5, 1.0, 10.0, 42.0])
    vec = kernels.path_loss_rssi(d, -45.0, 1.0, 2.0)
    assert vec.tolist() == [kernels.path_loss_rssi(v, -45.0, 1.0, 2.0) for v in d]
    assert vec[1] == -45.0
    back = kernels.path_loss_range(vec, -45.0, 1.0, 2.0)
    assert back.tolist() == [kernels.path_loss_range(v, -45.0, 1.0, 2.0) for v in vec]


def test_shadowed_readings_draw_row_major():
    means = np.array([-50.0, -60.0, -70.0])
    block = kernels.shadowed_readings(means, 2.0, -200.0, np.random.default_rng(9), 5)
    rng = np.random.default_rng(9)
    rows = [kernels.shadowed_readings(m, 2.0, -200.0, rng, 5) for m in means]
    assert block.shape == (3, 5)
    assert np.array_equal(block, np.stack(rows))


def test_shadowed_readings_censor_below_sensitivity():
    out = kernels.shadowed_readings(np.array([-60.0, -90.0]), 0.0, -75.0,
                                    np.random.default_rng(0), 3)
    assert out[0].tolist() == [-60.0] * 3
    assert np.isnan(out[1]).all()


def test_db_mean_skips_missing_readings():
    readings = np.array([
        [-60.0, -62.0, -64.0],
        [np.nan, -70.0, np.nan],
        [np.nan, np.nan, np.nan],
    ])
    agg = kernels.db_mean(readings)
    assert agg[:2].tolist() == [-62.0, -70.0]
    assert np.isnan(agg[2])


window = st.lists(st.one_of(st.floats(-100, -30), st.just(math.nan)), min_size=1, max_size=20)


@given(window)
def test_db_mean_matches_mean_of_present(values):
    present = [v for v in values if not math.isnan(v)]
    got = kernels.db_mean(np.array(values))
    if present:
        assert got == pytest.approx(math.fsum(present) / len(present), rel=1e-12)
    else:
        assert np.isnan(got)


def test_top_k_ties_to_lower_id():
    ids = np.array([7, 4, 2, 1])
    rssi = np.array([-60.0, -60.0, -55.0, -50.0])
    assert kernels.top_k(ids, rssi, 3).tolist() == [3, 2, 1]


@given(st.lists(st.tuples(st.integers(0, 50), st.floats(-90, -30)), min_size=1, max_size=12,
                unique_by=lambda t: t[0]),
       st.integers(1, 5))
def test_top_k_matches_sorted_oracle(items, k):
    ids = np.array([i for i, _ in items])
    rssi = np.array([r for _, r in items])
    expected = sorted(range(len(items)), key=lambda j: (-rssi[j], ids[j]))[:k]
    assert kernels.top_k(ids, rssi, k).tolist() == expected


# ---------------------------------------------------------------------------
# lateration


def test_lateration_paths_agree():
    # the accumulated 2x2 normal equations against the same system built
    # as matrices and solved by numpy, four anchors (overdetermined)
    rng = np.random.default_rng(1)
    for _ in range(200):
        ax = rng.uniform(-50, 50, 4)
        ay = rng.uniform(-50, 50, 4)
        d = rng.uniform(0.5, 80, 4)
        status, x, y = kernels.lateration_solve(ax, ay, d)
        assert status == 0
        a_mat = np.column_stack([2 * (ax[1:] - ax[0]), 2 * (ay[1:] - ay[0])])
        b_vec = d[0] ** 2 - d[1:] ** 2 + ax[1:] ** 2 + ay[1:] ** 2 - ax[0] ** 2 - ay[0] ** 2
        ref = np.linalg.solve(a_mat.T @ a_mat, a_mat.T @ b_vec)
        assert (x, y) == pytest.approx(tuple(ref), rel=1e-9, abs=1e-9)


def test_lateration_against_lstsq_oracle():
    rng = np.random.default_rng(2)
    for _ in range(100):
        ax = rng.uniform(-50, 50, 3)
        ay = rng.uniform(-50, 50, 3)
        if abs((ax[1] - ax[0]) * (ay[2] - ay[0]) - (ax[2] - ax[0]) * (ay[1] - ay[0])) < 5.0:
            continue
        d = rng.uniform(1, 80, 3)
        status, x, y = kernels.lateration_solve(ax, ay, d)
        assert status == 0
        a_mat = np.column_stack([2 * (ax[1:] - ax[0]), 2 * (ay[1:] - ay[0])])
        b_vec = d[0] ** 2 - d[1:] ** 2 + ax[1:] ** 2 + ay[1:] ** 2 - ax[0] ** 2 - ay[0] ** 2
        ref = np.linalg.lstsq(a_mat, b_vec, rcond=None)[0]
        assert (x, y) == pytest.approx(tuple(ref), rel=1e-9, abs=1e-9)


def test_lateration_flags_collinear():
    ax = np.array([0.0, 10.0, 20.0])
    ay = np.array([0.0, 0.0, 0.0])
    d = np.array([5.0, 5.0, 5.0])
    assert kernels.lateration_solve(ax, ay, d)[0] == 1


def test_lateration_flags_non_finite_solution():
    # a range whose square leaves the float range has no finite fix
    ax = np.array([0.0, 30.0, 15.0])
    ay = np.array([0.0, 0.0, 30.0])
    with np.errstate(over="ignore", invalid="ignore"):
        assert kernels.lateration_solve(ax, ay, np.array([1e200, 5.0, 5.0])) == (1, 0.0, 0.0)


# ---------------------------------------------------------------------------
# range EKF

ANCHORS = (AnchorNode(0, Point2D(0, 0)), AnchorNode(1, Point2D(30, 0)), AnchorNode(2, Point2D(15, 30)))
EKF_AX = np.array([0.0, 30.0, 15.0])
EKF_AY = np.array([0.0, 0.0, 30.0])


def _random_ekf_inputs(rng):
    pos = rng.uniform(2, 28, 2)
    a = rng.uniform(0.1, 1.0, (2, 2))
    cov = a @ a.T
    z = rng.uniform(5, 40, 3)
    return pos, cov, z


def matrix_form_filter_step(pos, cov, anchors_xy, z, st, ctrl, q, r):
    """Reference predict/correct written out in matrix form: Jacobian
    rows from vector norms, gain through an explicit inverse."""
    pred = st @ pos + ctrl
    pcov = st @ cov @ st.T + q
    diff = pred[None, :] - anchors_xy
    ranges = np.linalg.norm(diff, axis=1)
    h = diff / ranges[:, None]
    k = pcov @ h.T @ np.linalg.inv(h @ pcov @ h.T + r)
    new_pos = pred + k @ (z - ranges)
    new_cov = (np.eye(2) - k @ h) @ pcov
    return new_pos, 0.5 * (new_cov + new_cov.T)


def test_ekf_step_paths_agree():
    # the simulator's fused kernel call and the public predict/update
    # pair give bit-identical states
    rng = np.random.default_rng(3)
    cfg = KalmanConfig()
    for _ in range(100):
        pos, cov, z = _random_ekf_inputs(rng)
        status, kpos, kcov = kernels.ekf_step(
            pos, cov, EKF_AX, EKF_AY, z,
            cfg.state_transition, cfg.control, cfg.process_noise, cfg.measurement_noise,
        )
        assert status == 0
        ref = filter_step(KalmanState(pos, cov), RangeMeasurement(ANCHORS, z), cfg)
        assert np.array_equal(kpos, ref.position)
        assert np.array_equal(kcov, ref.covariance)


def test_ekf_step_matches_public_filter_step():
    rng = np.random.default_rng(4)
    cfg = KalmanConfig()
    anchors_xy = np.column_stack([EKF_AX, EKF_AY])
    args = (np.eye(2), np.zeros(2), 0.01 * np.eye(2), np.eye(3))
    for _ in range(50):
        pos, cov, z = _random_ekf_inputs(rng)
        ref_pos, ref_cov = matrix_form_filter_step(pos, cov, anchors_xy, z, *args)
        status, kpos, kcov = kernels.ekf_step(pos, cov, EKF_AX, EKF_AY, z, *args)
        assert status == 0
        assert kpos == pytest.approx(ref_pos, rel=1e-9, abs=1e-12)
        assert kcov == pytest.approx(ref_cov, rel=1e-9, abs=1e-12)
        public = filter_step(KalmanState(pos, cov), RangeMeasurement(ANCHORS, z), cfg)
        assert public.position == pytest.approx(ref_pos, rel=1e-9, abs=1e-12)
        assert public.covariance == pytest.approx(ref_cov, rel=1e-9, abs=1e-12)


def test_ekf_step_flags_anchor_coincidence():
    out = kernels.ekf_step(
        np.array([0.0, 0.0]), np.eye(2),
        np.array([0.0, 30.0, 15.0]), np.array([0.0, 0.0, 30.0]),
        np.array([1.0, 2.0, 3.0]),
        np.eye(2), np.zeros(2), np.zeros((2, 2)), np.eye(3),
    )
    assert out[0] == 1


@pytest.mark.parametrize("cov, z, r", [
    (np.zeros((2, 2)), np.array([5.0, 6.0, 7.0]), np.zeros((3, 3))),  # singular H E H^T + R
    (np.eye(2), np.array([5.0, 6.0, np.inf]), np.eye(3)),  # non-finite correction
])
def test_ekf_correct_flags_divergence(cov, z, r):
    pred = np.array([10.0, 10.0])
    status, pos, out_cov = kernels.ekf_correct(pred, cov, EKF_AX, EKF_AY, z, r)
    assert status == 2
    assert pos is pred and out_cov is cov


def test_range_jacobian_rows_and_ranges():
    status, h, ranges = kernels.range_jacobian(np.array([3.0, 4.0]), EKF_AX, EKF_AY)
    assert status == 0
    assert ranges[0] == 5.0
    assert h[0].tolist() == [0.6, 0.8]
    assert np.linalg.norm(h, axis=1) == pytest.approx([1.0, 1.0, 1.0], abs=1e-12)
