import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rssiloc import kernels
from rssiloc.geometry import AnchorNode, Point2D, Rect, dbm_to_milliwatts
from rssiloc.simulate import RunResult, step_errors

coord = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
points = st.builds(Point2D, coord, coord)


def distance(a, b):
    """The program's distance between two points: the step error
    (simulate.step_errors) of an estimate at b for a true position a."""
    est = np.array([[b.x, b.y]])
    run = RunResult(np.array([[a.x, a.y]]), est, est, est, np.zeros(1, dtype=np.int64),
                    np.zeros((1, 0)), np.zeros(1, dtype=np.int8))
    return float(step_errors(run, "raw")[0])


def scanned_dbm(mw):
    """A floor of mw milliwatts with no interferer, read back in dBm as
    an energy scan reads it."""
    none = np.zeros(0, dtype=bool)
    return float(kernels.energy_scan(none, none, np.zeros(0), mw))


def test_distance_identity():
    assert distance(Point2D(0, 0), Point2D(0, 0)) == 0.0


def test_distance_pythagorean_triple():
    assert distance(Point2D(0, 0), Point2D(3, 4)) == 5.0


def test_distance_hand_value():
    # sqrt(15^2 + 30^2) = sqrt(1125)
    assert distance(Point2D(0, 0), Point2D(15, 30)) == pytest.approx(
        33.54101966249684, abs=1e-5
    )


@given(points, points)
def test_distance_symmetric_nonnegative(a, b):
    d = distance(a, b)
    assert d >= 0.0
    assert d == distance(b, a)


@given(points, points, points)
def test_triangle_inequality(a, b, c):
    assert distance(a, c) <= (
        distance(a, b) + distance(b, c) + 1e-9
    )


def test_dbm_definitions():
    assert dbm_to_milliwatts(0.0) == 1.0
    assert dbm_to_milliwatts(-30.0) == pytest.approx(0.001, rel=1e-12)


def test_dbm_round_trip_example():
    assert dbm_to_milliwatts(scanned_dbm(2.5)) == pytest.approx(2.5, rel=1e-12)


@given(st.floats(min_value=1e-12, max_value=1e3, allow_nan=False))
def test_dbm_round_trip_property(mw):
    assert dbm_to_milliwatts(scanned_dbm(mw)) == pytest.approx(mw, rel=1e-12)


@pytest.mark.parametrize("x,y", [(math.nan, 0), (0, math.inf), (-math.inf, 1)])
def test_nonfinite_point_rejected(x, y):
    with pytest.raises(ValueError):
        Point2D(x, y)


def test_negative_node_id_rejected():
    with pytest.raises(ValueError):
        AnchorNode(-1, Point2D(0, 0))


def test_rect_basics():
    r = Rect(0, 0, 30, 20)
    assert r.width == 30 and r.height == 20
    assert r.contains(Point2D(30, 20))
    assert not r.contains(Point2D(30.1, 20))
    with pytest.raises(ValueError):
        Rect(1, 0, 0, 5)
