"""Planar Kalman tracker driven by anchor-range measurements.

Prediction propagates position through the state-transition matrix and
inflates covariance with the process noise. Correction linearizes the
anchor-range map at the predicted position (extended-filter style): the
observation matrix is the Jacobian whose rows are unit vectors from
each anchor to the prediction, the gain is E H^T (H E H^T + R)^-1, and
the innovation is measured ranges minus ranges predicted from the
state. The covariance update (I - K H) E is symmetrized afterwards to
guard against drift.

Each function hands its matrices to the scalar filter kernels
(kernels.ekf_predict, range_jacobian, ekf_gain and ekf_correct) as
row-major float tuples, the pieces the simulator's kernels.ekf_step is
built from, so these functions compute what a simulated run computes,
bit for bit. The kernels report an anchor hit, a singular innovation
covariance or a non-finite state by status; these functions raise
SingularGeometryError, LinAlgError or FilterDivergenceError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import FilterDivergenceError, SingularGeometryError
from .geometry import AnchorNode, frozen_array

__all__ = [
    "KalmanConfig",
    "KalmanState",
    "RangeMeasurement",
    "predict",
    "observation_jacobian",
    "gain",
    "update",
    "filter_step",
]


def _check_symmetric(m: np.ndarray, name: str) -> None:
    if not np.allclose(m, m.T, atol=1e-12):
        raise ValueError(f"{name} must be symmetric")


@dataclass(frozen=True, eq=False)
class KalmanConfig:
    """Filter matrices: transition, control offset, process noise Q and
    measurement noise R. Defaults model a quasi-static target with
    0.01 m^2 process noise and 1 m range-measurement noise."""

    state_transition: np.ndarray = field(default_factory=lambda: np.eye(2))
    control: np.ndarray = field(default_factory=lambda: np.zeros(2))
    process_noise: np.ndarray = field(default_factory=lambda: 0.01 * np.eye(2))
    measurement_noise: np.ndarray = field(default_factory=lambda: np.eye(3))

    def __post_init__(self):
        object.__setattr__(self, "state_transition", frozen_array(self.state_transition, (2, 2)))
        object.__setattr__(self, "control", frozen_array(self.control, (2,)))
        object.__setattr__(self, "process_noise", frozen_array(self.process_noise, (2, 2)))
        object.__setattr__(self, "measurement_noise", frozen_array(self.measurement_noise))
        if self.measurement_noise.shape != (3, 3):
            raise ValueError("measurement_noise must be 3 x 3, as the filter takes three "
                             f"ranges, got shape {self.measurement_noise.shape}")
        for name in ("state_transition", "control", "process_noise", "measurement_noise"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        _check_symmetric(self.process_noise, "process_noise")
        _check_symmetric(self.measurement_noise, "measurement_noise")
        if np.linalg.eigvalsh(self.process_noise).min() < -1e-9:
            raise ValueError("process_noise must be positive semidefinite")
        if np.linalg.eigvalsh(self.measurement_noise).min() <= 0.0:
            raise ValueError("measurement_noise must be positive definite")


@dataclass(frozen=True, eq=False)
class KalmanState:
    """Position estimate with its error covariance."""

    position: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "position", frozen_array(self.position, (2,)))
        object.__setattr__(self, "covariance", frozen_array(self.covariance, (2, 2)))
        for name in ("position", "covariance"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite, not NaN or infinite")
        _check_symmetric(self.covariance, "covariance")
        if np.linalg.eigvalsh(self.covariance).min() < -1e-9:
            raise ValueError("covariance must be (numerically) positive semidefinite")


@dataclass(frozen=True, eq=False)
class RangeMeasurement:
    """Measured distances to three anchors, from inverted aggregated RSSI."""

    anchors: tuple[AnchorNode, AnchorNode, AnchorNode]
    ranges: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "anchors", tuple(self.anchors))
        object.__setattr__(self, "ranges", frozen_array(self.ranges, (len(self.anchors),)))
        if len(self.anchors) != 3:
            raise ValueError(f"measurement takes exactly 3 anchors, got {len(self.anchors)}")
        # NaN fails the comparison; an infinite range passes, and the update
        # reports the divergence it causes
        if not np.all(self.ranges > 0.0):
            raise ValueError("ranges must be > 0")

    def anchor_xy(self) -> np.ndarray:
        return np.array([[a.position.x, a.position.y] for a in self.anchors])


def _flat(m: np.ndarray) -> tuple:
    """A matrix as the row-major float tuple the filter kernels take."""
    return tuple(m.ravel().tolist())


def predict(state: KalmanState, cfg: KalmanConfig) -> KalmanState:
    """Prediction phase: propagate position, inflate covariance with Q.
    A prediction outside the float range is a diverged filter."""
    px, py = state.position.tolist()
    px, py, cov = kernels.ekf_predict(px, py, _flat(state.covariance),
                                      _flat(cfg.state_transition), _flat(cfg.control),
                                      _flat(cfg.process_noise))
    if not all(map(math.isfinite, (px, py, *cov))):
        raise FilterDivergenceError("predicted state not finite")
    return KalmanState(np.array([px, py]), np.array(cov))


def observation_jacobian(predicted: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Jacobian of the anchor-range map at `predicted`.

    Row i is the unit vector from anchor i toward the predicted
    position; undefined (raises) when the prediction sits on an anchor.
    """
    px, py = np.asarray(predicted, dtype=float).tolist()
    anchors = np.asarray(anchors, dtype=float).reshape(-1, 2)
    status, h, _ = kernels.range_jacobian(px, py, anchors[:, 0].tolist(), anchors[:, 1].tolist())
    if status != 0:
        raise SingularGeometryError("predicted position coincides with an anchor")
    return np.array(h, dtype=float).reshape(-1, 2)


def gain(covariance: np.ndarray, h: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Kalman gain E H^T (H E H^T + R)^-1 for the three rows of H, as a
    (2, 3) array. H must be 3 x 2 and R 3 x 3, as the filter takes three
    ranges; LinAlgError if H E H^T + R is singular."""
    h = np.asarray(h, dtype=float)
    r = np.asarray(r, dtype=float)
    if h.shape != (3, 2) or r.shape != (3, 3):
        raise ValueError(f"gain takes H of shape (3, 2) and R of shape (3, 3), "
                         f"got {h.shape} and {r.shape}")
    singular, k = kernels.ekf_gain(_flat(np.asarray(covariance, dtype=float)),
                                   list(map(tuple, h.tolist())), _flat(r))
    if singular:
        raise np.linalg.LinAlgError("innovation covariance H E H^T + R is singular")
    return np.array(k, dtype=float)


def update(predicted: KalmanState, meas: RangeMeasurement, cfg: KalmanConfig) -> KalmanState:
    """Correction phase against measured anchor ranges.

    The innovation is the measured range triple minus the ranges the
    predicted state implies, so a measurement that matches the
    prediction leaves the position exactly unchanged.
    """
    px, py = predicted.position.tolist()
    anchors = meas.anchor_xy()
    status, px, py, cov = kernels.ekf_correct(
        px, py, _flat(predicted.covariance), anchors[:, 0].tolist(), anchors[:, 1].tolist(),
        meas.ranges.tolist(), _flat(cfg.measurement_noise),
    )
    if status == 2:
        raise FilterDivergenceError("innovation covariance singular or state not finite")
    if status != 0:
        raise SingularGeometryError("predicted position coincides with an anchor")
    return KalmanState(np.array([px, py]), np.array(cov))


def filter_step(state: KalmanState, meas: RangeMeasurement, cfg: KalmanConfig) -> KalmanState:
    """One full predict-then-correct cycle."""
    return update(predict(state, cfg), meas, cfg)
