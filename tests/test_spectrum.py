import math

import numpy as np
import pytest

from rssiloc.channel import ScanConfig, scan_all_channels
from rssiloc.spectrum import (
    ZIGBEE_CHANNELS,
    ChannelEnvironment,
    InterfererProfile,
    WifiChannel,
    ZigbeeChannel,
    channels_overlap,
    packet_success,
)


def scan_means(env, rng, samples=1):
    """Mean energy per ZigBee channel index from one scan; with one sample
    a channel's mean is its single reading."""
    report = scan_all_channels(env, ScanConfig(samples_per_channel=samples), rng)
    return dict(zip(ZIGBEE_CHANNELS, report.mean_energy))


def test_channel_centers():
    assert ZigbeeChannel(11).center_mhz == 2405.0
    assert ZigbeeChannel(20).center_mhz == 2450.0
    assert WifiChannel(6).center_mhz == 2437.0


def test_channel_index_validation():
    for bad in (10, 27):
        with pytest.raises(ValueError):
            ZigbeeChannel(bad)
    for bad in (0, 14):
        with pytest.raises(ValueError):
            WifiChannel(bad)


def test_overlap_examples():
    assert channels_overlap(ZigbeeChannel(13), WifiChannel(1))       # |2415-2412| = 3
    assert not channels_overlap(ZigbeeChannel(15), WifiChannel(1))   # |2425-2412| = 13
    assert not channels_overlap(ZigbeeChannel(20), WifiChannel(6))   # |2450-2437| = 13


def test_overlap_partition_against_nonoverlapping_wifi_trio():
    # brute force over all 16 x 3 pairs
    overlap_sets = {
        w: {z for z in ZIGBEE_CHANNELS if channels_overlap(ZigbeeChannel(z), WifiChannel(w))}
        for w in (1, 6, 11)
    }
    assert overlap_sets[1] == {11, 12, 13, 14}
    assert overlap_sets[6] == {16, 17, 18, 19}
    assert overlap_sets[11] == {21, 22, 23, 24}
    clean = set(ZIGBEE_CHANNELS) - overlap_sets[1] - overlap_sets[6] - overlap_sets[11]
    assert clean == {15, 20, 25, 26}


def test_environment_tables_stay_out_of_equality_and_repr():
    def make():
        return ChannelEnvironment((InterfererProfile(WifiChannel(1), -70.0, 0.5),), -95.0)

    a, b = make(), make()
    assert a == b and hash(a) == hash(b)
    assert "overlap" not in repr(a)
    assert a.overlap.shape == (16, 1) and not a.overlap.flags.writeable
    assert {z for z in ZIGBEE_CHANNELS if a.overlap[z - 11, 0]} == {11, 12, 13, 14}
    assert ChannelEnvironment().overlap.shape == (16, 0)


def test_energy_empty_environment_is_floor():
    env = ChannelEnvironment(noise_floor=-100.0)
    rng = np.random.default_rng(0)
    assert scan_means(env, rng)[11] == -100.0


def test_energy_single_always_on_interferer():
    env = ChannelEnvironment(
        interferers=(InterfererProfile(WifiChannel(1), -70.0, 1.0),),
        noise_floor=-100.0,
    )
    expected = 10 * math.log10(10**-7 + 10**-10)  # powers summed in milliwatts
    assert expected == pytest.approx(-69.99565922520682)
    got = scan_means(env, np.random.default_rng(0))[12]
    assert got == pytest.approx(expected, abs=1e-4)


def test_energy_ignores_nonoverlapping_interferer():
    env = ChannelEnvironment(
        interferers=(InterfererProfile(WifiChannel(1), -70.0, 1.0),),
        noise_floor=-100.0,
    )
    got = scan_means(env, np.random.default_rng(0))[20]
    assert got == -100.0


def test_energy_never_below_floor():
    rng = np.random.default_rng(5)
    env = ChannelEnvironment(
        interferers=tuple(
            InterfererProfile(WifiChannel(w), -75.0, 0.5) for w in (1, 6, 11)
        ),
        noise_floor=-100.0,
    )
    for _ in range(50):
        assert all(mean >= -100.0 for mean in scan_means(env, rng).values())


def test_interfered_channel_reads_hotter_than_clean():
    rng = np.random.default_rng(9)
    env = ChannelEnvironment(
        interferers=(InterfererProfile(WifiChannel(1), -70.0, 0.5),),
        noise_floor=-100.0,
    )
    means = scan_means(env, rng, samples=10_000)
    assert means[12] > means[20] + 10.0


def test_packet_always_succeeds_without_interference():
    env = ChannelEnvironment()
    rng = np.random.default_rng(0)
    assert all(packet_success(env, ZigbeeChannel(11), rng) for _ in range(100))


def test_packet_always_fails_under_saturated_interferer():
    env = ChannelEnvironment(interferers=(InterfererProfile(WifiChannel(1), -70.0, 1.0),))
    rng = np.random.default_rng(0)
    assert not any(packet_success(env, ZigbeeChannel(11), rng) for _ in range(100))


def test_packet_success_rate_is_duty_complement():
    env = ChannelEnvironment(interferers=(InterfererProfile(WifiChannel(1), -70.0, 0.3),))
    rng = np.random.default_rng(17)
    n = 100_000
    rate = sum(packet_success(env, ZigbeeChannel(11), rng) for _ in range(n)) / n
    assert rate == pytest.approx(0.7, abs=0.01)


def test_duty_cycle_validation():
    with pytest.raises(ValueError):
        InterfererProfile(WifiChannel(1), -70.0, 1.5)
    with pytest.raises(ValueError):
        InterfererProfile(WifiChannel(1), -70.0, -0.1)


def test_power_levels_stay_within_milliwatt_range():
    # beyond +-3000 dBm the milliwatt sum would leave the float range
    for bad in (3083.0, -3300.0, math.nan):
        with pytest.raises(ValueError):
            InterfererProfile(WifiChannel(1), bad, 0.5)
        with pytest.raises(ValueError):
            ChannelEnvironment(noise_floor=bad)
    env = ChannelEnvironment((InterfererProfile(WifiChannel(1), 3000.0, 1.0),), -3000.0)
    rng = np.random.default_rng(0)
    means = scan_means(env, rng)
    assert means[11] == pytest.approx(3000.0)
    assert means[26] == pytest.approx(-3000.0)
