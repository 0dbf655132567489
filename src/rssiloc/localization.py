"""RSSI aggregation, anchor selection, and least-squares lateration.

Position is recovered from anchor ranges by linearizing the squared
range differences against the first anchor and solving the resulting
2-unknown system through its normal equations; with exactly three
anchors this is the classic trilateration closed form, and the same
construction extends row-by-row to more anchors.

Aggregation averages in the dB domain: RSSI readings are dBm values and
the windowed mean is taken directly over them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DegenerateGeometryError, InsufficientAnchorsError
from .geometry import AnchorNode, Dbm, Point2D

__all__ = [
    "RssiObservation",
    "TrilaterationProblem",
    "PositionEstimate",
    "aggregate_rssi",
    "select_anchors",
    "trilaterate",
    "least_squares_multilaterate",
]


@dataclass(frozen=True)
class RssiObservation:
    """One aggregation window of readings from a single anchor."""

    anchor: AnchorNode
    samples: tuple[Dbm, ...]

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))
        if not self.samples:
            raise ValueError("observation needs at least one sample")
        if not all(math.isfinite(v) for v in self.samples):
            raise ValueError("observation samples must be finite")


@dataclass(frozen=True)
class TrilaterationProblem:
    """Anchors and measured ranges, index-aligned. Collinearity is
    checked at solve time."""

    anchors: tuple[AnchorNode, ...]
    ranges: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "anchors", tuple(self.anchors))
        object.__setattr__(self, "ranges", tuple(float(r) for r in self.ranges))
        if len(self.anchors) != len(self.ranges):
            raise ValueError("anchors and ranges must be index-aligned")
        if len(self.anchors) < 3:
            raise InsufficientAnchorsError(
                f"need >= 3 anchors, got {len(self.anchors)}"
            )


@dataclass(frozen=True)
class PositionEstimate:
    position: Point2D


def aggregate_rssi(obs: RssiObservation) -> Dbm:
    """Arithmetic mean of the window's dBm readings."""
    return float(kernels.db_mean(np.array(obs.samples)))


def select_anchors(
    observations: list[tuple[AnchorNode, Dbm]], k: int = 3
) -> list[tuple[AnchorNode, Dbm]]:
    """The k strongest observations, ordered by descending RSSI; ties go
    to the lower node id."""
    if len(observations) < k:
        raise InsufficientAnchorsError(
            f"need >= {k} observations, got {len(observations)}"
        )
    ids = np.array([anchor.id for anchor, _ in observations])
    rssi = np.array([value for _, value in observations], dtype=float)
    return [observations[i] for i in kernels.top_k(ids, rssi, k)]


def _solve(anchors: tuple[AnchorNode, ...], ranges: tuple[float, ...]) -> PositionEstimate:
    ax = np.array([a.position.x for a in anchors])
    ay = np.array([a.position.y for a in anchors])
    d = np.array(ranges)
    status, x, y = kernels.lateration_solve(ax, ay, d)
    if status != 0:
        raise DegenerateGeometryError(
            "anchors are collinear or ranges exceed the float range; "
            "position underdetermined"
        )
    return PositionEstimate(Point2D(x, y))


def trilaterate(problem: TrilaterationProblem) -> PositionEstimate:
    """Closed-form three-anchor solve."""
    if len(problem.anchors) != 3:
        raise InsufficientAnchorsError(
            f"trilaterate takes exactly 3 anchors, got {len(problem.anchors)}"
        )
    return _solve(problem.anchors, problem.ranges)


def least_squares_multilaterate(
    anchors: list[AnchorNode], ranges: list[float]
) -> PositionEstimate:
    """Same linear construction with k - 1 rows for k >= 3 anchors;
    identical to trilaterate when k = 3."""
    problem = TrilaterationProblem(tuple(anchors), tuple(ranges))
    return _solve(problem.anchors, problem.ranges)
