import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from rssiloc import kernels
from rssiloc.errors import DegenerateGeometryError
from rssiloc.geometry import AnchorNode, Point2D
from rssiloc.localization import TrilaterationProblem, trilaterate
from rssiloc.radio import PathLossParams, RadioSpec, ShadowingModel, distance_from_rssi

DEFAULTS = PathLossParams()


def noise_free_rssi(params, d):
    """The simulator's noise-free received power at distance d."""
    return kernels.path_loss_rssi(d, params.rssi_at_ref, params.ref_distance, params.exponent)


def measured_window(params, spec, d, shadow, rng, n):
    """n readings at distance d drawn as the simulator draws a window:
    shadowing normals, then NaN below sensitivity."""
    return kernels.censored(noise_free_rssi(params, d) + rng.normal(0.0, shadow.sigma, n),
                            spec.sensitivity)


def test_reference_distance_gives_reference_power():
    assert noise_free_rssi(DEFAULTS, 1.0) == -45.0


def test_decade_attenuation():
    # -45 - 10*2*log10(10)
    assert noise_free_rssi(DEFAULTS, 10.0) == pytest.approx(-65.0, abs=1e-12)


@given(
    st.floats(min_value=-90, max_value=-20),
    st.floats(min_value=0.1, max_value=10),
    st.floats(min_value=0.5, max_value=6),
)
def test_reference_point_for_any_params(ref_rssi, d0, n):
    params = PathLossParams(ref_rssi, d0, n)
    assert noise_free_rssi(params, d0) == pytest.approx(ref_rssi, abs=1e-9)


def test_ranging_hand_value():
    # 10^((-45 + 60) / 20)
    assert distance_from_rssi(DEFAULTS, -60.0) == pytest.approx(5.62341, abs=1e-5)


def test_ranging_reference_point():
    assert distance_from_rssi(DEFAULTS, -45.0) == 1.0


def test_ranging_beyond_the_float_range_is_inf():
    # 10 ** ((-45 + 1e5) / 20) overflows a float: the range is inf, as the
    # simulator's array path gives, and lateration reports it as degenerate
    d = distance_from_rssi(DEFAULTS, -1e5)
    assert d == math.inf
    anchors = (AnchorNode(0, Point2D(0.0, 0.0)), AnchorNode(1, Point2D(10.0, 0.0)),
               AnchorNode(2, Point2D(0.0, 10.0)))
    with pytest.raises(DegenerateGeometryError):
        trilaterate(TrilaterationProblem(anchors, (d, 5.0, 5.0)))


@given(st.floats(min_value=0.1, max_value=100))
def test_ranging_round_trip(d):
    assert distance_from_rssi(DEFAULTS, noise_free_rssi(DEFAULTS, d)) == pytest.approx(
        d, rel=1e-9
    )


@given(
    st.floats(min_value=1e-3, max_value=1e4),
    st.floats(min_value=1e-3, max_value=1e4),
)
@example(15.0, math.nextafter(15.0, math.inf))
def test_monotone_decay(d1, d2):
    # log10 rounds adjacent distances such as 15.0 and its successor to one
    # value, so the decay is strict only beyond that rounding
    lo, hi = sorted((d1, d2))
    rssi_lo, rssi_hi = noise_free_rssi(DEFAULTS, lo), noise_free_rssi(DEFAULTS, hi)
    assert rssi_lo >= rssi_hi
    if hi > lo * (1 + 1e-9):
        assert rssi_lo > rssi_hi


def test_zero_noise_measurement():
    got = measured_window(DEFAULTS, RadioSpec(), 1.0, ShadowingModel(0.0),
                          np.random.default_rng(1), 1)
    assert got.tolist() == [-45.0]


def test_out_of_range_is_absent():
    # noise-free reading drops below -107 dBm sensitivity beyond
    # 10^((107-45)/20) = 1258.925... m
    threshold = 10 ** ((107.0 - 45.0) / 20.0)
    assert threshold == pytest.approx(1258.9254117941675)
    spec = RadioSpec()
    rng = np.random.default_rng(2)
    assert np.isnan(measured_window(DEFAULTS, spec, threshold * 1.01, ShadowingModel(0.0), rng, 1)[0])
    assert not np.isnan(measured_window(DEFAULTS, spec, threshold * 0.99, ShadowingModel(0.0), rng, 1)[0])


def test_measurement_determinism():
    a = measured_window(DEFAULTS, RadioSpec(), 10.0, ShadowingModel(2.0), np.random.default_rng(7), 1)
    b = measured_window(DEFAULTS, RadioSpec(), 10.0, ShadowingModel(2.0), np.random.default_rng(7), 1)
    assert a.tolist() == b.tolist()


def test_shadowing_sample_mean():
    sigma = 2.0
    n = 100_000
    rng = np.random.default_rng(11)
    samples = measured_window(DEFAULTS, RadioSpec(), 10.0, ShadowingModel(sigma), rng, n)
    assert not np.any(np.isnan(samples))
    assert abs(samples.mean() - noise_free_rssi(DEFAULTS, 10.0)) < 3 * sigma / math.sqrt(n)


def test_window_matches_repeated_single_samples():
    # a window of n normals consumes the generator exactly like n single
    # draws, so the simulator's block and per-step draws give the same
    # readings for the same seed
    window = measured_window(DEFAULTS, RadioSpec(), 5.0, ShadowingModel(2.0), np.random.default_rng(3), 8)
    rng = np.random.default_rng(3)
    singles = [
        measured_window(DEFAULTS, RadioSpec(), 5.0, ShadowingModel(2.0), rng, 1)[0]
        for _ in range(8)
    ]
    assert window.tolist() == singles


def test_param_validation():
    with pytest.raises(ValueError):
        PathLossParams(ref_distance=0.0)
    with pytest.raises(ValueError):
        PathLossParams(exponent=-1.0)
    with pytest.raises(ValueError):
        ShadowingModel(-0.5)
    with pytest.raises(ValueError):
        RadioSpec(tx_power=-120.0)
