"""Shared spatial and signal-strength value types.

Units are fixed across the whole package: distances in meters, powers in
dBm, frequencies in MHz. Conversions to anything else happen at I/O
boundaries only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Dbm",
    "NodeId",
    "Point2D",
    "Rect",
    "AnchorNode",
    "dbm_to_milliwatts",
]

# Received/transmitted power in decibel-milliwatts. Plain floats; named for
# readability in signatures.
Dbm = float

# Node identifier, unique non-negative integer within one scenario.
NodeId = int


@dataclass(frozen=True)
class Point2D:
    """Planar position in meters."""

    x: float
    y: float

    def __post_init__(self):
        # coerce numpy scalars so downstream repr/serialization stays plain
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite coordinates ({self.x}, {self.y})")


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle, used for regions of interest."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        for v in (self.x_min, self.y_min, self.x_max, self.y_max):
            if not math.isfinite(v):
                raise ValueError("non-finite rectangle bound")
        if self.x_max < self.x_min or self.y_max < self.y_min:
            raise ValueError("inverted rectangle bounds")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    def contains(self, p: Point2D) -> bool:
        return self.x_min <= p.x <= self.x_max and self.y_min <= p.y <= self.y_max


@dataclass(frozen=True)
class AnchorNode:
    """Beacon node of known position."""

    id: NodeId
    position: Point2D

    def __post_init__(self):
        if self.id < 0:
            raise ValueError(f"node id must be non-negative, got {self.id}")


def frozen_array(values, shape=None, dtype=float) -> np.ndarray:
    """A read-only `dtype` copy of `values`, reshaped to `shape` if given."""
    arr = np.array(values, dtype=dtype)
    if shape is not None:
        arr = arr.reshape(shape)
    arr.flags.writeable = False
    return arr


def dbm_to_milliwatts(p: Dbm) -> float:
    """Convert dBm to linear milliwatts."""
    return 10.0 ** (p / 10.0)

