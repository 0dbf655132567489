"""Least-squares lateration from anchor ranges.

Position is recovered from anchor ranges by linearizing the squared
range differences against the first anchor and solving the resulting
2-unknown system through its normal equations; with exactly three
anchors this is the classic trilateration closed form, and the same
construction extends row-by-row to more anchors.

The simulator aggregates readings (kernels.db_mean) and picks the three
strongest beacons (kernels.top_k) itself; these functions validate a
problem and solve it with kernels.lateration_solve, the simulator's
batch solve on one anchor set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DegenerateGeometryError, InsufficientAnchorsError
from .geometry import AnchorNode, Point2D

__all__ = [
    "TrilaterationProblem",
    "PositionEstimate",
    "trilaterate",
    "least_squares_multilaterate",
]


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
