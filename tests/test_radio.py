import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from rssiloc.radio import (
    PathLossParams,
    RadioSpec,
    ShadowingModel,
    distance_from_rssi,
    rssi_at_distance,
    sample_measured_rssi,
    sample_rssi_window,
)

DEFAULTS = PathLossParams()


def test_reference_distance_gives_reference_power():
    assert rssi_at_distance(DEFAULTS, 1.0) == -45.0


def test_decade_attenuation():
    # -45 - 10*2*log10(10)
    assert rssi_at_distance(DEFAULTS, 10.0) == pytest.approx(-65.0, abs=1e-12)


@given(
    st.floats(min_value=-90, max_value=-20),
    st.floats(min_value=0.1, max_value=10),
    st.floats(min_value=0.5, max_value=6),
)
def test_reference_point_for_any_params(ref_rssi, d0, n):
    params = PathLossParams(ref_rssi, d0, n)
    assert rssi_at_distance(params, d0) == pytest.approx(ref_rssi, abs=1e-9)


@pytest.mark.parametrize("d", [0.0, -1.0])
def test_nonpositive_distance_rejected(d):
    with pytest.raises(ValueError):
        rssi_at_distance(DEFAULTS, d)
    with pytest.raises(ValueError):
        sample_measured_rssi(DEFAULTS, RadioSpec(), d, ShadowingModel(0.0), np.random.default_rng(0))


def test_ranging_hand_value():
    # 10^((-45 + 60) / 20)
    assert distance_from_rssi(DEFAULTS, -60.0) == pytest.approx(5.62341, abs=1e-5)


def test_ranging_reference_point():
    assert distance_from_rssi(DEFAULTS, -45.0) == 1.0


@given(st.floats(min_value=0.1, max_value=100))
def test_ranging_round_trip(d):
    assert distance_from_rssi(DEFAULTS, rssi_at_distance(DEFAULTS, d)) == pytest.approx(
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
    rssi_lo, rssi_hi = rssi_at_distance(DEFAULTS, lo), rssi_at_distance(DEFAULTS, hi)
    assert rssi_lo >= rssi_hi
    if hi > lo * (1 + 1e-9):
        assert rssi_lo > rssi_hi


def test_zero_noise_measurement():
    got = sample_measured_rssi(
        DEFAULTS, RadioSpec(), 1.0, ShadowingModel(0.0), np.random.default_rng(1)
    )
    assert got == -45.0


def test_out_of_range_is_absent():
    # noise-free reading drops below -107 dBm sensitivity beyond
    # 10^((107-45)/20) = 1258.925... m
    threshold = 10 ** ((107.0 - 45.0) / 20.0)
    assert threshold == pytest.approx(1258.9254117941675)
    spec = RadioSpec()
    rng = np.random.default_rng(2)
    assert sample_measured_rssi(DEFAULTS, spec, threshold * 1.01, ShadowingModel(0.0), rng) is None
    assert sample_measured_rssi(DEFAULTS, spec, threshold * 0.99, ShadowingModel(0.0), rng) is not None


def test_measurement_determinism():
    a = sample_measured_rssi(DEFAULTS, RadioSpec(), 10.0, ShadowingModel(2.0), np.random.default_rng(7))
    b = sample_measured_rssi(DEFAULTS, RadioSpec(), 10.0, ShadowingModel(2.0), np.random.default_rng(7))
    assert a == b


def test_shadowing_sample_mean():
    sigma = 2.0
    n = 100_000
    rng = np.random.default_rng(11)
    samples = sample_rssi_window(DEFAULTS, RadioSpec(), 10.0, ShadowingModel(sigma), rng, n)
    assert not np.any(np.isnan(samples))
    assert abs(samples.mean() - rssi_at_distance(DEFAULTS, 10.0)) < 3 * sigma / math.sqrt(n)


def test_window_matches_repeated_single_samples():
    # the vectorized window consumes the generator exactly like repeated
    # single draws, so both give the same readings for the same seed
    window = sample_rssi_window(DEFAULTS, RadioSpec(), 5.0, ShadowingModel(2.0), np.random.default_rng(3), 8)
    rng = np.random.default_rng(3)
    singles = [
        sample_measured_rssi(DEFAULTS, RadioSpec(), 5.0, ShadowingModel(2.0), rng)
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
