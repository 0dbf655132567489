import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def test_coverage_counts_memory_is_per_point():
    # one pass per beacon holds a few point-sized arrays, not a points x
    # beacons matrix (80 MB of float64 per operand here)
    rng = np.random.default_rng(1)
    px, py = rng.uniform(0, 500, (2, 10_000))
    bx, by = rng.uniform(0, 500, (2, 1_000))
    tracemalloc.start()
    try:
        kernels.coverage_counts(px, py, bx, by, 30.0, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


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
        span = draw(st.one_of(st.just(0.0), st.floats(0, 10)))
        return _lattice_1d(lo, lo + span)
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


def shadowed_readings(means, sigma, sensitivity, rng, n):
    """n readings around each mean as the simulator draws a step's
    windows: one (beacons, n) normal draw, then censoring."""
    return kernels.censored(means[:, None] + rng.normal(0.0, sigma, (means.size, n)), sensitivity)


def test_shadowed_readings_draw_row_major():
    # one (k, n) draw consumes the generator exactly like k windows of n
    # drawn one after another
    means = np.array([-50.0, -60.0, -70.0])
    block = shadowed_readings(means, 2.0, -200.0, np.random.default_rng(9), 5)
    rng = np.random.default_rng(9)
    rows = [shadowed_readings(np.array([m]), 2.0, -200.0, rng, 5)[0] for m in means]
    assert block.shape == (3, 5)
    assert np.array_equal(block, np.stack(rows))


def test_shadowed_readings_censor_below_sensitivity():
    out = shadowed_readings(np.array([-60.0, -90.0]), 0.0, -75.0, np.random.default_rng(0), 3)
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


def scalar_lateration(ax, ay, d):
    """The one-anchor-set solve with Python-scalar sums, as the package
    computed it before lateration_batch: (status, x, y)."""
    x0 = ax[0]
    y0 = ay[0]
    c0 = d[0] * d[0] - x0 * x0 - y0 * y0
    s11 = 0.0
    s12 = 0.0
    s22 = 0.0
    t1 = 0.0
    t2 = 0.0
    for i in range(1, ax.shape[0]):
        a1 = 2.0 * (ax[i] - x0)
        a2 = 2.0 * (ay[i] - y0)
        b = c0 - d[i] * d[i] + ax[i] * ax[i] + ay[i] * ay[i]
        s11 += a1 * a1
        s12 += a1 * a2
        s22 += a2 * a2
        t1 += a1 * b
        t2 += a2 * b
    det = s11 * s22 - s12 * s12
    scale = 0.5 * (s11 + s22)
    if det <= 1e-12 * scale * scale:
        return 1, 0.0, 0.0
    x = (s22 * t1 - s12 * t2) / det
    y = (s11 * t2 - s12 * t1) / det
    if not (math.isfinite(x) and math.isfinite(y)):
        return 1, 0.0, 0.0
    return 0, x, y


def normal_equation_reference(ax, ay, d):
    """The same linear system built as matrices and solved by numpy."""
    a_mat = np.column_stack([2 * (ax[1:] - ax[0]), 2 * (ay[1:] - ay[0])])
    b_vec = d[0] ** 2 - d[1:] ** 2 + ax[1:] ** 2 + ay[1:] ** 2 - ax[0] ** 2 - ay[0] ** 2
    return a_mat, b_vec


def test_lateration_paths_agree():
    # the accumulated 2x2 normal equations against the same system built
    # as matrices and solved by numpy, four anchors (overdetermined), 200
    # anchor sets in one batch
    rng = np.random.default_rng(1)
    ax = rng.uniform(-50, 50, (200, 4))
    ay = rng.uniform(-50, 50, (200, 4))
    d = rng.uniform(0.5, 80, (200, 4))
    status, x, y = kernels.lateration_batch(ax, ay, d)
    assert status.shape == (200,) and not status.any()
    for i in range(200):
        a_mat, b_vec = normal_equation_reference(ax[i], ay[i], d[i])
        ref = np.linalg.solve(a_mat.T @ a_mat, a_mat.T @ b_vec)
        assert (x[i], y[i]) == pytest.approx(tuple(ref), rel=1e-9, abs=1e-9)


def test_lateration_against_lstsq_oracle():
    rng = np.random.default_rng(2)
    ax = rng.uniform(-50, 50, (100, 3))
    ay = rng.uniform(-50, 50, (100, 3))
    d = rng.uniform(1, 80, (100, 3))
    keep = np.abs((ax[:, 1] - ax[:, 0]) * (ay[:, 2] - ay[:, 0])
                  - (ax[:, 2] - ax[:, 0]) * (ay[:, 1] - ay[:, 0])) >= 5.0
    status, x, y = kernels.lateration_batch(ax[keep], ay[keep], d[keep])
    assert not status.any()
    for i, (row_x, row_y, row_d) in enumerate(zip(ax[keep], ay[keep], d[keep])):
        ref = np.linalg.lstsq(*normal_equation_reference(row_x, row_y, row_d), rcond=None)[0]
        assert (x[i], y[i]) == pytest.approx(tuple(ref), rel=1e-9, abs=1e-9)


def test_lateration_flags_collinear():
    ax = np.array([0.0, 10.0, 20.0])
    ay = np.array([0.0, 0.0, 0.0])
    d = np.array([5.0, 5.0, 5.0])
    assert kernels.lateration_solve(ax, ay, d)[0] == 1
    assert kernels.lateration_batch(ax[None], ay[None], d[None])[0].tolist() == [1]


def test_lateration_flags_non_finite_solution():
    # a range whose square leaves the float range has no finite fix
    ax = np.array([0.0, 30.0, 15.0])
    ay = np.array([0.0, 0.0, 30.0])
    assert kernels.lateration_solve(ax, ay, np.array([1e200, 5.0, 5.0])) == (1, 0.0, 0.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 12), st.sampled_from([(1,), (40,), (6, 7)]), st.integers(0, 2**32 - 1))
def test_lateration_batch_matches_scalar_loop(k, lead, seed):
    # every row of a (..., k) batch carries the scalar loop's status and
    # bits, with collinear, coincident and non-finite rows mixed in
    rng = np.random.default_rng(seed)
    ax = rng.uniform(-50, 50, lead + (k,))
    ay = rng.uniform(-50, 50, lead + (k,))
    d = rng.uniform(0.1, 80, lead + (k,))
    flat = (ax.reshape(-1, k), ay.reshape(-1, k), d.reshape(-1, k))
    for row in range(0, flat[0].shape[0], 3):
        kind = rng.integers(5)
        if kind == 0:  # anchors on one line
            t = rng.uniform(-20, 20, k)
            flat[0][row], flat[1][row] = 3.0 + 2.0 * t, -1.0 + 0.5 * t
        elif kind == 1:  # every anchor at one point
            flat[0][row], flat[1][row] = 7.0, -4.0
        elif kind == 2:  # a range whose square overflows
            flat[2][row, rng.integers(k)] = 1e200
        elif kind == 3:  # a missing reading
            flat[2][row, rng.integers(k)] = math.nan
    status, x, y = kernels.lateration_batch(ax, ay, d)
    assert status.shape == x.shape == y.shape == lead and status.dtype == np.int8
    with np.errstate(all="ignore"):
        expected = np.array([scalar_lateration(*row) for row in zip(*flat)])
    assert status.ravel().tolist() == expected[:, 0].astype(int).tolist()
    assert x.ravel().tobytes() == expected[:, 1].tobytes()
    assert y.ravel().tobytes() == expected[:, 2].tobytes()
    assert 0 < status.sum() < status.size or status.size == 1


# ---------------------------------------------------------------------------
# range EKF

ANCHORS = (AnchorNode(0, Point2D(0, 0)), AnchorNode(1, Point2D(30, 0)), AnchorNode(2, Point2D(15, 30)))
EKF_AX = np.array([0.0, 30.0, 15.0])
EKF_AY = np.array([0.0, 0.0, 30.0])


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


def scalar_ekf_step(pos, cov, ax, ay, z, st, ctrl, q, r):
    """One filter's predict/correct on numpy arrays, with a Python loop for
    the Jacobian and LAPACK's inverse: (status, pos, cov), statuses as
    kernels.ekf_step gives them."""
    pred, pcov = st @ pos + ctrl, st @ cov @ st.T + q
    h = np.empty((ax.shape[0], 2))
    ranges = np.empty(ax.shape[0])
    for i in range(ax.shape[0]):
        dx = pred[0] - ax[i]
        dy = pred[1] - ay[i]
        ri = math.sqrt(dx * dx + dy * dy)
        if ri < 1e-9:
            return 1, pred, pcov
        ranges[i] = ri
        h[i, 0] = dx / ri
        h[i, 1] = dy / ri
    try:
        k = pcov @ h.T @ np.linalg.inv(h @ pcov @ h.T + r)
    except np.linalg.LinAlgError:
        return 2, pred, pcov
    new_pos = pred + k @ (z - ranges)
    if not (math.isfinite(new_pos[0]) and math.isfinite(new_pos[1])):
        return 2, pred, pcov
    new_cov = (np.eye(2) - k @ h) @ pcov
    return 0, new_pos, 0.5 * (new_cov + new_cov.T)


def flat(m):
    """A matrix as the row-major float tuple the filter kernels take."""
    return tuple(np.asarray(m, dtype=float).ravel().tolist())


def kernel_step(pos, cov, ax, ay, z, st, ctrl, q, r):
    """kernels.ekf_step on numpy arguments: (status, pos, cov) as arrays."""
    status, px, py, out_cov = kernels.ekf_step(
        *pos.tolist(), flat(cov), ax.tolist(), ay.tolist(), z.tolist(),
        flat(st), flat(ctrl), flat(q), flat(r))
    return status, np.array([px, py]), np.array(out_cov).reshape(2, 2)


def _random_ekf_batch(rng, n):
    pos = rng.uniform(2, 28, (n, 2))
    a = rng.uniform(0.1, 1.0, (n, 2, 2))
    return pos, a @ a.transpose(0, 2, 1), rng.uniform(5, 40, (n, 3))


def test_ekf_step_paths_agree():
    # the simulator's step and the public predict/update pair give
    # bit-identical states
    rng = np.random.default_rng(3)
    cfg = KalmanConfig()
    pos, cov, z = _random_ekf_batch(rng, 100)
    for i in range(100):
        status, kpos, kcov = kernel_step(pos[i], cov[i], EKF_AX, EKF_AY, z[i],
                                         cfg.state_transition, cfg.control,
                                         cfg.process_noise, cfg.measurement_noise)
        assert status == 0
        ref = filter_step(KalmanState(pos[i], cov[i]), RangeMeasurement(ANCHORS, z[i]), cfg)
        assert kpos.tobytes() == ref.position.tobytes()
        assert kcov.tobytes() == ref.covariance.tobytes()


def test_ekf_step_matches_public_filter_step():
    rng = np.random.default_rng(4)
    cfg = KalmanConfig()
    anchors_xy = np.column_stack([EKF_AX, EKF_AY])
    args = (np.eye(2), np.zeros(2), 0.01 * np.eye(2), np.eye(3))
    pos, cov, z = _random_ekf_batch(rng, 50)
    for i in range(50):
        status, kpos, kcov = kernel_step(pos[i], cov[i], EKF_AX, EKF_AY, z[i], *args)
        assert status == 0
        ref_pos, ref_cov = matrix_form_filter_step(pos[i], cov[i], anchors_xy, z[i], *args)
        assert kpos == pytest.approx(ref_pos, rel=1e-9, abs=1e-12)
        assert kcov == pytest.approx(ref_cov, rel=1e-9, abs=1e-12)
        public = filter_step(KalmanState(pos[i], cov[i]), RangeMeasurement(ANCHORS, z[i]), cfg)
        assert public.position == pytest.approx(ref_pos, rel=1e-9, abs=1e-12)
        assert public.covariance == pytest.approx(ref_cov, rel=1e-9, abs=1e-12)


def assert_close(got, ref, rel=1e-12):
    """Every cell within rel of the largest reference cell."""
    assert np.abs(got - ref).max() <= rel * np.abs(ref).max(), (got, ref)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["ok", "anchor", "singular", "inf"]))
def test_ekf_step_matches_the_matrix_form_oracle(seed, kind):
    # a random SPD covariance, transition, control, Q and R, and anchors
    # anywhere: the closed form agrees with the matrix form to rounding,
    # and with the numpy step on every status: a prediction on an anchor
    # (1), a singular H E H^T + R or an infinite range (2)
    rng = np.random.default_rng(seed)
    pos, cov, z = (v[0] for v in _random_ekf_batch(rng, 1))
    ax, ay = rng.uniform(0, 30, 3), rng.uniform(0, 30, 3)
    tr = np.eye(2) + rng.uniform(-0.1, 0.1, (2, 2))
    ctrl = rng.uniform(-1.0, 1.0, 2)
    a = rng.uniform(-0.3, 0.3, (2, 2))
    q = a @ a.T
    b = rng.normal(size=(3, 3))
    r = b @ b.T + 0.1 * np.eye(3)
    if kind == "anchor":
        ax[1], ay[1] = tr @ pos + ctrl
    elif kind == "singular":  # with E = Q = 0, H E H^T + R = R
        cov, q = np.zeros((2, 2)), np.zeros((2, 2))
        r[2], r[:, 2] = 0.0, 0.0
    elif kind == "inf":
        z[2] = np.inf
    status, kpos, kcov = kernel_step(pos, cov, ax, ay, z, tr, ctrl, q, r)
    with np.errstate(all="ignore"):
        ref = scalar_ekf_step(pos, cov, ax, ay, z, tr, ctrl, q, r)
    assert status == ref[0] == {"ok": 0, "anchor": 1, "singular": 2, "inf": 2}[kind]
    # a failed step returns the prediction
    assert_close(kpos, ref[1])
    assert_close(kcov, ref[2])
    if status == 0:
        ref_pos, ref_cov = matrix_form_filter_step(pos, cov, np.column_stack([ax, ay]), z,
                                                   tr, ctrl, q, r)
        assert_close(kpos, ref_pos)
        assert_close(kcov, ref_cov)


def test_ekf_step_flags_anchor_coincidence():
    out = kernels.ekf_step(0.0, 0.0, (1.0, 0.0, 0.0, 1.0), [0.0, 30.0, 15.0], [0.0, 0.0, 30.0],
                           [1.0, 2.0, 3.0], (1.0, 0.0, 0.0, 1.0), (0.0, 0.0), (0.0,) * 4,
                           flat(np.eye(3)))
    assert out == (1, 0.0, 0.0, (1.0, 0.0, 0.0, 1.0))


@pytest.mark.parametrize("cov, z, r", [
    (np.zeros((2, 2)), np.array([5.0, 6.0, 7.0]), np.zeros((3, 3))),  # singular H E H^T + R
    (np.eye(2), np.array([5.0, 6.0, np.inf]), np.eye(3)),  # non-finite correction
])
def test_ekf_correct_flags_divergence(cov, z, r):
    out = kernels.ekf_correct(10.0, 10.0, flat(cov), EKF_AX.tolist(), EKF_AY.tolist(),
                              z.tolist(), flat(r))
    assert out == (2, 10.0, 10.0, flat(cov))


def test_range_jacobian_rows_and_ranges():
    status, h, ranges = kernels.range_jacobian(3.0, 4.0, EKF_AX.tolist(), EKF_AY.tolist())
    assert status == 0
    assert ranges[0] == 5.0
    assert h[0] == (0.6, 0.8)
    assert np.linalg.norm(h, axis=1) == pytest.approx([1.0, 1.0, 1.0], abs=1e-12)
    assert kernels.range_jacobian(30.0, 0.0, EKF_AX.tolist(), EKF_AY.tolist()) == (1, None, None)
