import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rssiloc import kernels
from rssiloc.errors import DegenerateGeometryError, InsufficientAnchorsError
from rssiloc.geometry import AnchorNode, Point2D
from rssiloc.localization import TrilaterationProblem, least_squares_multilaterate, trilaterate
from rssiloc.radio import PathLossParams, RadioSpec, distance_from_rssi


def anchor(i, x, y):
    return AnchorNode(i, Point2D(x, y))


TRIANGLE = (anchor(0, 0, 0), anchor(1, 30, 0), anchor(2, 15, 30))


def exact_ranges(anchors, target):
    return tuple(math.hypot(a.position.x - target[0], a.position.y - target[1]) for a in anchors)


def aggregate(samples):
    """The simulator's window aggregate: the dB-domain mean."""
    return float(kernels.db_mean(np.array(samples)))


def strongest(observations, k=3):
    """The simulator's anchor choice: the k strongest (anchor, rssi) pairs,
    RSSI descending, ties to the lower node id."""
    ids = np.array([a.id for a, _ in observations])
    rssi = np.array([r for _, r in observations], dtype=float)
    return [observations[i] for i in kernels.top_k(ids, rssi, k)]


# ---------------------------------------------------------------------------
# aggregation


def test_aggregate_singleton():
    assert aggregate((-60.0,)) == -60.0


def test_aggregate_symmetric_pair():
    assert aggregate((-58.0, -62.0)) == -60.0


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_aggregate_concentrates_noisy_window(seed):
    # 10 readings at sigma=2 dB around -60: the window mean should sit
    # well inside +-2 dB (3.16 sigma of the mean) for any fixed seed
    params = PathLossParams()
    d = distance_from_rssi(params, -60.0)
    mean = kernels.path_loss_rssi(d, params.rssi_at_ref, params.ref_distance, params.exponent)
    samples = kernels.censored(mean + np.random.default_rng(seed).normal(0.0, 2.0, 10),
                               RadioSpec().sensitivity)
    assert abs(aggregate(samples) - (-60.0)) < 2.0


# ---------------------------------------------------------------------------
# anchor selection


def test_select_exactly_three():
    obs = [(TRIANGLE[i], -60.0 - i) for i in range(3)]
    assert strongest(obs) == obs


def test_select_strongest_three_sorted():
    a, b, c, d = (anchor(i, i, 0) for i in range(4))
    obs = [(a, -60.0), (b, -55.0), (c, -70.0), (d, -58.0)]
    assert [o[0] for o in strongest(obs, 3)] == [b, d, a]


def test_select_tie_breaks_to_lower_id():
    a4, a7 = anchor(4, 0, 0), anchor(7, 1, 0)
    obs = [(anchor(1, 2, 0), -50.0), (anchor(2, 3, 0), -55.0), (a7, -60.0), (a4, -60.0)]
    chosen = strongest(obs, 3)
    assert chosen[-1][0] == a4


@given(st.lists(st.tuples(st.integers(0, 50), st.floats(-90, -30)), min_size=3, max_size=10,
                unique_by=lambda t: t[0]))
def test_selected_rssi_dominates_excluded(items):
    obs = [(anchor(i, float(i), 0.0), r) for i, r in items]
    chosen = strongest(obs, 3)
    floor = min(r for _, r in chosen)
    excluded = [r for a, r in obs if (a, r) not in chosen]
    assert all(r <= floor for r in excluded)


# ---------------------------------------------------------------------------
# lateration


def test_equal_readings_put_node_at_circumcenter():
    # three bench anchors reporting the same -60 dBm (-45 dBm reference at
    # 1 m, exponent 2) -> equal ranges -> the circumcenter (15, 11.25)
    d = distance_from_rssi(PathLossParams(), -60.0)
    est = trilaterate(TrilaterationProblem(TRIANGLE, (d, d, d)))
    assert est.position.x == pytest.approx(15.0, abs=1e-6)
    assert est.position.y == pytest.approx(11.25, abs=1e-6)


def test_exact_ranges_recover_target():
    ranges = exact_ranges(TRIANGLE, (10.0, 10.0))
    assert ranges == pytest.approx((14.142135623730951, 22.360679774997898, 20.615528128088304))
    est = trilaterate(TrilaterationProblem(TRIANGLE, ranges))
    assert est.position.x == pytest.approx(10.0, abs=1e-9)
    assert est.position.y == pytest.approx(10.0, abs=1e-9)


def test_collinear_anchors_rejected():
    problem = TrilaterationProblem(
        (anchor(0, 0, 0), anchor(1, 10, 0), anchor(2, 20, 0)), (5.0, 5.0, 5.0)
    )
    with pytest.raises(DegenerateGeometryError):
        trilaterate(problem)


def test_too_few_anchors_rejected():
    with pytest.raises(InsufficientAnchorsError):
        TrilaterationProblem((TRIANGLE[0], TRIANGLE[1]), (1.0, 1.0))


def test_multilaterate_matches_trilaterate_for_three():
    ranges = exact_ranges(TRIANGLE, (7.0, 12.0))
    a = trilaterate(TrilaterationProblem(TRIANGLE, ranges)).position
    b = least_squares_multilaterate(list(TRIANGLE), list(ranges)).position
    assert (a.x, a.y) == (b.x, b.y)


SQUARE = (anchor(0, 0, 0), anchor(1, 30, 0), anchor(2, 30, 30), anchor(3, 0, 30))


def test_four_anchor_square_center():
    ranges = exact_ranges(SQUARE, (15.0, 15.0))
    est = least_squares_multilaterate(list(SQUARE), list(ranges))
    assert est.position.x == pytest.approx(15.0, abs=1e-9)
    assert est.position.y == pytest.approx(15.0, abs=1e-9)


def grid_search_oracle(anchors, ranges, center, half_width, step):
    """Brute-force residual minimizer: scan a dense candidate grid for the
    point whose anchor distances best match the ranges (squared residuals)."""
    best = None
    best_cost = math.inf
    xs = np.arange(center[0] - half_width, center[0] + half_width + step / 2, step)
    ys = np.arange(center[1] - half_width, center[1] + half_width + step / 2, step)
    for x in xs:
        for y in ys:
            cost = sum(
                (math.hypot(x - a.position.x, y - a.position.y) - r) ** 2
                for a, r in zip(anchors, ranges)
            )
            if cost < best_cost:
                best_cost = cost
                best = (x, y)
    return best


def test_perturbed_square_against_grid_search():
    true = (15.0, 15.0)
    ranges = [r + 0.1 for r in exact_ranges(SQUARE, true)]
    est = least_squares_multilaterate(list(SQUARE), ranges).position
    assert math.hypot(est.x - true[0], est.y - true[1]) < 0.2
    oracle = grid_search_oracle(SQUARE, ranges, true, 1.0, 0.02)
    assert math.hypot(est.x - oracle[0], est.y - oracle[1]) < 0.05


# ---------------------------------------------------------------------------
# properties

coord = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)


def triangle_area(ax, ay, bx, by, cx, cy):
    return 0.5 * abs((bx - ax) * (cy - ay) - (cx - ax) * (by - ay))


# near-collinear slivers are excluded: the closed-form normal-equation
# solve amplifies roundoff by the squared condition number, so sub-1e-9
# recovery is only meaningful away from the degenerate boundary
noncollinear_triples = st.tuples(*(coord,) * 6).filter(
    lambda t: triangle_area(*t) >= 100.0
)


@settings(max_examples=200, deadline=None)
@given(noncollinear_triples, coord, coord)
def test_exact_range_recovery_property(tri, tx, ty):
    anchors = (anchor(0, tri[0], tri[1]), anchor(1, tri[2], tri[3]), anchor(2, tri[4], tri[5]))
    if any(math.hypot(a.position.x - tx, a.position.y - ty) == 0.0 for a in anchors):
        return
    est = trilaterate(TrilaterationProblem(anchors, exact_ranges(anchors, (tx, ty)))).position
    assert math.hypot(est.x - tx, est.y - ty) < 1e-9


@settings(max_examples=100, deadline=None)
@given(noncollinear_triples, coord, coord,
       st.floats(-200, 200), st.floats(-200, 200))
def test_translation_equivariance(tri, tx, ty, ox, oy):
    anchors = (anchor(0, tri[0], tri[1]), anchor(1, tri[2], tri[3]), anchor(2, tri[4], tri[5]))
    ranges = exact_ranges(anchors, (tx, ty))
    if any(r == 0.0 for r in ranges):
        return
    base = trilaterate(TrilaterationProblem(anchors, ranges)).position
    moved = tuple(anchor(a.id, a.position.x + ox, a.position.y + oy) for a in anchors)
    shifted = trilaterate(TrilaterationProblem(moved, ranges)).position
    assert math.hypot(shifted.x - (base.x + ox), shifted.y - (base.y + oy)) < 1e-9


@given(st.floats(min_value=0.5, max_value=60.0))
def test_pipeline_consistency_ranging_of_aggregated_cleans_samples(d):
    params = PathLossParams()
    rssi = params.rssi_at_ref - 10 * params.exponent * math.log10(d / params.ref_distance)
    assert distance_from_rssi(params, aggregate((rssi,) * 10)) == pytest.approx(d, rel=1e-9)
