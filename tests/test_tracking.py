import math

import numpy as np
import pytest

from rssiloc import kernels
from rssiloc.errors import FilterDivergenceError, SingularGeometryError
from rssiloc.geometry import AnchorNode, Point2D
from rssiloc.tracking import (
    KalmanConfig,
    KalmanState,
    RangeMeasurement,
    filter_step,
    gain,
    observation_jacobian,
    predict,
    update,
)

ANCHORS = (
    AnchorNode(0, Point2D(0, 0)),
    AnchorNode(1, Point2D(30, 0)),
    AnchorNode(2, Point2D(15, 30)),
)


def measurement_at(target):
    ranges = [
        math.hypot(target[0] - a.position.x, target[1] - a.position.y) for a in ANCHORS
    ]
    return RangeMeasurement(ANCHORS, np.array(ranges))


# ---------------------------------------------------------------------------
# predict


def test_predict_degenerate_is_identity():
    cfg = KalmanConfig(process_noise=np.zeros((2, 2)))
    state = KalmanState(np.array([3.0, 4.0]), np.eye(2))
    out = predict(state, cfg)
    assert np.array_equal(out.position, state.position)
    assert np.array_equal(out.covariance, state.covariance)


def test_predict_injects_process_noise_from_zero_covariance():
    cfg = KalmanConfig()
    state = KalmanState(np.array([1.0, 2.0]), np.zeros((2, 2)))
    out = predict(state, cfg)
    assert np.array_equal(out.covariance, 0.01 * np.eye(2))


def test_predict_scales_covariance_through_transition():
    cfg = KalmanConfig(state_transition=2.0 * np.eye(2), process_noise=np.zeros((2, 2)))
    state = KalmanState(np.zeros(2), np.eye(2))
    out = predict(state, cfg)
    assert np.array_equal(out.covariance, 4.0 * np.eye(2))


# ---------------------------------------------------------------------------
# jacobian


def test_jacobian_axis_aligned():
    h = observation_jacobian(np.array([10.0, 0.0]), np.array([[0.0, 0.0]]))
    assert h.tolist() == [[1.0, 0.0]]


def test_jacobian_345_triangle():
    h = observation_jacobian(np.array([3.0, 4.0]), np.array([[0.0, 0.0]]))
    assert h[0] == pytest.approx([0.6, 0.8])


def test_jacobian_rows_are_unit_vectors():
    rng = np.random.default_rng(0)
    for _ in range(100):
        pos = rng.uniform(-50, 50, 2)
        anchors = rng.uniform(-50, 50, (3, 2))
        if np.min(np.linalg.norm(anchors - pos, axis=1)) < 1e-6:
            continue
        h = observation_jacobian(pos, anchors)
        assert np.linalg.norm(h, axis=1) == pytest.approx([1.0, 1.0, 1.0], abs=1e-12)


def test_jacobian_rejects_anchor_coincidence():
    with pytest.raises(SingularGeometryError):
        observation_jacobian(np.array([0.0, 0.0]), np.array([[0.0, 0.0], [1.0, 0.0]]))


# ---------------------------------------------------------------------------
# gain


def test_zero_covariance_gives_zero_gain():
    h = observation_jacobian(np.array([10.0, 10.0]), np.array([[0.0, 0.0], [30.0, 0.0], [15.0, 30.0]]))
    k = gain(np.zeros((2, 2)), h, np.eye(3))
    assert np.array_equal(k, np.zeros((2, 3)))


def test_scalar_gain_analogue():
    k = gain(np.eye(2), np.array([[1.0, 0.0]]), np.eye(1))
    assert k[:, 0] == pytest.approx([0.5, 0.0])


def test_gain_shrinks_with_measurement_distrust():
    h = observation_jacobian(np.array([12.0, 9.0]), np.array([[0.0, 0.0], [30.0, 0.0], [15.0, 30.0]]))
    k1 = gain(np.eye(2), h, np.eye(3))
    k2 = gain(np.eye(2), h, 1e6 * np.eye(3))
    ratio = np.linalg.norm(k1) / np.linalg.norm(k2)
    assert 0.3e6 < ratio < 3e6


def test_public_gain_is_the_kernel_gain():
    # tracking.gain is kernels.ekf_gain on the matrices' row-major float
    # tuples: the same bits for three rows and for one, and a singular
    # H E H^T + R raises
    rng = np.random.default_rng(5)
    a = rng.uniform(-1.0, 1.0, (50, 2, 2))
    cov = a @ a.transpose(0, 2, 1)
    h = rng.normal(size=(50, 3, 2))
    b = rng.normal(size=(3, 3))
    r = b @ b.T + np.eye(3)
    for i in range(50):
        for rows, noise in ((h[i], r), (h[i, :1], r[:1, :1])):
            singular, k = kernels.ekf_gain(tuple(cov[i].ravel().tolist()),
                                           list(map(tuple, rows.tolist())),
                                           tuple(noise.ravel().tolist()))
            assert not singular
            assert gain(cov[i], rows, noise).tobytes() == np.array(k).tobytes()
    with pytest.raises(np.linalg.LinAlgError):
        gain(np.zeros((2, 2)), h[0], np.zeros((3, 3)))
    with pytest.raises(np.linalg.LinAlgError):
        gain(np.zeros((2, 2)), h[0, :1], np.zeros((1, 1)))


@pytest.mark.parametrize("exponent", [-900, -360, 360, 1000])
def test_gain_is_invariant_to_the_scale_of_e_and_r(exponent):
    # E and R times 2**exponent give the same gain, bit for bit, through
    # the cofactor form (three rows) and the elimination (two rows), where
    # det(H E H^T + R) alone would overflow or underflow
    rng = np.random.default_rng(6)
    c = 2.0 ** exponent
    for _ in range(20):
        a = rng.uniform(-1.0, 1.0, (2, 2))
        cov = a @ a.T + 0.1 * np.eye(2)
        h = rng.normal(size=(3, 2))
        b = rng.normal(size=(3, 3))
        r = b @ b.T + np.eye(3)
        for rows, noise in ((h, r), (h[:2], r[:2, :2])):
            assert gain(c * cov, rows, c * noise).tobytes() == gain(cov, rows, noise).tobytes()


@pytest.mark.parametrize("scale", [1e110, 1e300])
def test_gain_under_a_huge_r_matches_numpy(scale):
    # a measurement noise that distrusts the ranges is no singular
    # innovation covariance
    h = observation_jacobian(np.array([12.0, 9.0]), np.array([[0.0, 0.0], [30.0, 0.0], [15.0, 30.0]]))
    cov = np.array([[0.5, 0.1], [0.1, 0.3]])
    for rows in (h, h[:2]):
        r = scale * np.eye(len(rows))
        ref = cov @ rows.T @ np.linalg.inv(rows @ cov @ rows.T + r)
        assert gain(cov, rows, r) == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_gain_continuity_in_r():
    rng = np.random.default_rng(1)
    h = observation_jacobian(np.array([12.0, 9.0]), np.array([[0.0, 0.0], [30.0, 0.0], [15.0, 30.0]]))
    cov = np.eye(2)
    r = np.eye(3)
    k0 = gain(cov, h, r)
    for scale in (1e-6, 1e-5, 1e-4):
        dr = scale * np.diag(rng.uniform(0.5, 1.0, 3))
        dk = np.linalg.norm(gain(cov, h, r + dr) - k0)
        assert dk <= 10.0 * np.linalg.norm(dr)


# ---------------------------------------------------------------------------
# update / filter_step


def test_zero_innovation_fixes_position():
    target = (12.0, 9.0)
    state = KalmanState(np.array(target), 0.5 * np.eye(2))
    out = update(state, measurement_at(target), KalmanConfig())
    assert np.array_equal(out.position, state.position)
    assert np.trace(out.covariance) <= np.trace(state.covariance) + 1e-12


def test_static_target_convergence():
    # filter consistency: exact ranges every step pull a 1 m-offset start
    # onto the target
    target = (12.0, 9.0)
    cfg = KalmanConfig()
    state = KalmanState(np.array([13.0, 9.0]), np.zeros((2, 2)))
    meas = measurement_at(target)
    for _ in range(50):
        state = filter_step(state, meas, cfg)
    assert math.hypot(state.position[0] - target[0], state.position[1] - target[1]) < 0.01


def test_infinite_measurement_noise_freezes_prediction():
    cfg = KalmanConfig(process_noise=np.zeros((2, 2)), measurement_noise=1e12 * np.eye(3))
    state = KalmanState(np.array([10.0, 10.0]), np.eye(2))
    out = filter_step(state, measurement_at((14.0, 11.0)), cfg)
    assert np.linalg.norm(out.position - state.position) < 1e-6


def test_filter_step_is_update_after_predict():
    cfg = KalmanConfig()
    state = KalmanState(np.array([10.0, 12.0]), 0.3 * np.eye(2))
    meas = measurement_at((11.0, 11.0))
    composed = update(predict(state, cfg), meas, cfg)
    fused = filter_step(state, meas, cfg)
    assert np.array_equal(fused.position, composed.position)
    assert np.array_equal(fused.covariance, composed.covariance)


def test_zero_covariance_zero_process_noise_ignores_measurement():
    cfg = KalmanConfig(process_noise=np.zeros((2, 2)))
    state = KalmanState(np.array([10.0, 10.0]), np.zeros((2, 2)))
    out = filter_step(state, measurement_at((20.0, 5.0)), cfg)
    assert np.array_equal(out.position, state.position)


def test_filter_step_deterministic():
    cfg = KalmanConfig()
    state = KalmanState(np.array([10.0, 10.0]), np.eye(2))
    meas = measurement_at((11.0, 12.0))
    a = filter_step(state, meas, cfg)
    b = filter_step(state, meas, cfg)
    assert np.array_equal(a.position, b.position)
    assert np.array_equal(a.covariance, b.covariance)


def test_covariance_stays_symmetric_psd_under_random_steps():
    rng = np.random.default_rng(42)
    cfg = KalmanConfig()
    state = KalmanState(np.array([12.0, 9.0]), np.zeros((2, 2)))
    for _ in range(500):
        target = rng.uniform(2, 28, 2)
        ranges = np.array(
            [math.hypot(*(target - [a.position.x, a.position.y])) for a in ANCHORS]
        )
        noisy = ranges * np.exp(rng.normal(0, 0.05, 3))
        state = filter_step(state, RangeMeasurement(ANCHORS, noisy), cfg)
        cov = state.covariance
        assert np.allclose(cov, cov.T, atol=1e-12)
        assert np.linalg.eigvalsh(cov).min() >= -1e-9


def test_update_never_raises_uncertainty():
    rng = np.random.default_rng(7)
    cfg = KalmanConfig()
    for _ in range(200):
        pos = rng.uniform(2, 28, 2)
        cov = rng.uniform(0.01, 2.0) * np.eye(2)
        state = KalmanState(pos, cov)
        predicted = predict(state, cfg)
        corrected = update(predicted, measurement_at(rng.uniform(2, 28, 2)), cfg)
        assert np.trace(corrected.covariance) <= np.trace(predicted.covariance) + 1e-12


def test_config_validation():
    with pytest.raises(ValueError):
        KalmanConfig(process_noise=np.array([[1.0, 2.0], [0.0, 1.0]]))  # asymmetric
    with pytest.raises(ValueError):
        KalmanConfig(measurement_noise=np.zeros((3, 3)))  # not positive definite
    with pytest.raises(ValueError):
        KalmanConfig(process_noise=-np.eye(2))  # negative semidefinite


@pytest.mark.parametrize("r", [np.eye(4), np.eye(2), np.ones(3), 1.0, np.eye(3)[None]],
                         ids=["4x4", "2x2", "vector", "scalar", "stacked"])
def test_measurement_noise_must_fit_three_ranges(r):
    # the filter corrects with three ranges, so any other R would only
    # fail later, inside a run's filter stage
    with pytest.raises(ValueError, match="three ranges"):
        KalmanConfig(measurement_noise=r)


def test_update_raises_on_divergence():
    # an infinite range leaves no finite correction
    state = KalmanState(np.array([10.0, 12.0]), np.eye(2))
    meas = RangeMeasurement(ANCHORS, np.array([5.0, 6.0, np.inf]))
    with pytest.raises(FilterDivergenceError):
        update(state, meas, KalmanConfig())


@pytest.mark.parametrize("position, covariance, transition", [
    ([1e200, 1.0], np.eye(2), 1e200),  # the position overflows
    ([1.0, 1.0], 1e300 * np.eye(2), 1e10),  # the covariance overflows
], ids=["position", "covariance"])
def test_predict_raises_on_divergence(position, covariance, transition):
    # a finite state the transition carries outside the float range is a
    # diverged filter, as the simulator's status 2 reports it, not bad input
    state = KalmanState(np.array(position), covariance)
    cfg = KalmanConfig(state_transition=transition * np.eye(2))
    with pytest.raises(FilterDivergenceError):
        predict(state, cfg)
    with pytest.raises(FilterDivergenceError):
        filter_step(state, measurement_at((12.0, 9.0)), cfg)


@pytest.mark.parametrize("build", [
    lambda: KalmanState(np.array([np.nan, 1.0]), np.eye(2)),
    lambda: KalmanState(np.array([1.0, np.nan]), np.eye(2)),
    lambda: RangeMeasurement(ANCHORS, np.array([np.nan, 6.0, 7.0])),
    lambda: RangeMeasurement(ANCHORS, np.array([5.0, 6.0, np.nan])),
], ids=["state_x", "state_y", "range_first", "range_last"])
def test_nan_is_rejected(build):
    with pytest.raises(ValueError, match="NaN|> 0"):
        build()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("field, position, covariance", [
    ("position", [np.inf, 1.0], np.eye(2)),
    ("position", [1.0, -np.inf], np.eye(2)),
    ("covariance", [1.0, 1.0], np.full((2, 2), np.inf)),
    ("covariance", [1.0, 1.0], [[1.0, np.nan], [np.nan, 1.0]]),
], ids=["position_inf", "position_minus_inf", "covariance_inf", "covariance_nan"])
def test_non_finite_state_is_rejected(field, position, covariance):
    # rejected where it is built, naming the field, before any arithmetic
    # can warn about it
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        KalmanState(np.array(position), np.array(covariance))


def test_measurement_validation():
    with pytest.raises(ValueError):
        RangeMeasurement(ANCHORS, np.array([1.0, -2.0, 3.0]))
    with pytest.raises(ValueError):
        RangeMeasurement(ANCHORS[:2], np.array([1.0, 2.0]))
