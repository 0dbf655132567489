import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rssiloc.channel import (
    ChannelMonitor,
    ScanConfig,
    ScanReport,
    scan_all_channels,
    select_channel,
)
from rssiloc.geometry import dbm_to_milliwatts
from rssiloc.spectrum import (
    ZIGBEE_CHANNELS,
    ChannelEnvironment,
    InterfererProfile,
    WifiChannel,
    ZigbeeChannel,
    channels_overlap,
    packet_success,
)

WIFI_TRIO = ChannelEnvironment(
    interferers=tuple(InterfererProfile(WifiChannel(w), -70.0, 1.0) for w in (1, 6, 11)),
    noise_floor=-100.0,
)


def clean_channels(env: ChannelEnvironment) -> set[int]:
    return {
        z
        for z in ZIGBEE_CHANNELS
        if not any(channels_overlap(ZigbeeChannel(z), i.wifi_channel) for i in env.interferers)
    }


def test_scan_quiet_environment():
    report = scan_all_channels(ChannelEnvironment(), ScanConfig(), np.random.default_rng(0))
    assert report.mean_energy == (-100.0,) * 16
    assert report.variance == (0.0,) * 16


def test_scan_wifi_trio_partition():
    report = scan_all_channels(WIFI_TRIO, ScanConfig(), np.random.default_rng(0))
    clean = clean_channels(WIFI_TRIO)
    assert clean == {15, 20, 25, 26}
    for index, mean in zip(ZIGBEE_CHANNELS, report.mean_energy):
        if index in clean:
            assert mean == -100.0
        else:
            assert mean == pytest.approx(-70.0, abs=0.01)


def oracle_active(env, rng):
    return rng.random(len(env.interferers)) < np.array([i.duty_cycle for i in env.interferers])


def oracle_reading(env, ch, rng):
    """One energy reading, summed interferer by interferer in scalars."""
    total = dbm_to_milliwatts(env.noise_floor)
    for interferer, on in zip(env.interferers, oracle_active(env, rng)):
        if on and channels_overlap(ch, interferer.wifi_channel):
            total += dbm_to_milliwatts(interferer.rx_power)
    return 10 * math.log10(total)


def oracle_packet(env, ch, rng):
    return not any(on and channels_overlap(ch, i.wifi_channel)
                   for i, on in zip(env.interferers, oracle_active(env, rng)))


def oracle_scan(env, cfg, rng):
    """The per-sample scan: channels ascending, one draw per reading."""
    stats = []
    for index in ZIGBEE_CHANNELS:
        ch = ZigbeeChannel(index)
        samples = np.array([oracle_reading(env, ch, rng) for _ in range(cfg.samples_per_channel)])
        stats.append((float(samples.mean()), float(samples.var())))
    return stats


interferer_profiles = st.builds(
    InterfererProfile,
    st.builds(WifiChannel, st.integers(1, 13)),
    st.floats(-150.0, 30.0),
    st.floats(0.0, 1.0),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(interferer_profiles, max_size=10), st.floats(-150.0, 30.0),
       st.integers(1, 60), st.integers(0, 2**32 - 1), st.sampled_from(ZIGBEE_CHANNELS))
def test_scan_matches_per_sample_oracle(interferers, floor, samples, seed, index):
    # bit-equal statistics and generator state: the array scan consumes the
    # stream and rounds exactly as one reading at a time does
    env = ChannelEnvironment(tuple(interferers), floor)
    cfg = ScanConfig(samples_per_channel=samples)
    ch = ZigbeeChannel(index)
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    report = scan_all_channels(env, cfg, rng)
    assert list(zip(report.mean_energy, report.variance)) == oracle_scan(env, cfg, ref)
    assert packet_success(env, ch, rng) == oracle_packet(env, ch, ref)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_scan_determinism():
    a = scan_all_channels(WIFI_TRIO, ScanConfig(), np.random.default_rng(4))
    b = scan_all_channels(WIFI_TRIO, ScanConfig(), np.random.default_rng(4))
    assert a == b


def test_select_all_equal_breaks_tie_low():
    report = scan_all_channels(ChannelEnvironment(), ScanConfig(), np.random.default_rng(0))
    assert select_channel(report).index == 11


def test_select_lowest_clean_channel():
    report = scan_all_channels(WIFI_TRIO, ScanConfig(), np.random.default_rng(0))
    assert select_channel(report).index == 15


def test_select_when_only_channel_20_is_clean():
    # interferers chosen so their overlap sets cover every channel but 20;
    # verified by brute force below
    env = ChannelEnvironment(
        interferers=tuple(
            InterfererProfile(WifiChannel(w), -70.0, 1.0) for w in (1, 4, 6, 11, 12, 13)
        ),
        noise_floor=-100.0,
    )
    assert clean_channels(env) == {20}
    report = scan_all_channels(env, ScanConfig(), np.random.default_rng(2))
    assert select_channel(report).index == 20


def test_selected_channel_has_minimal_mean():
    rng = np.random.default_rng(3)
    env = ChannelEnvironment(
        interferers=tuple(
            InterfererProfile(WifiChannel(w), p, d)
            for w, p, d in ((1, -72.0, 0.8), (5, -80.0, 0.4), (11, -65.0, 0.9))
        )
    )
    report = scan_all_channels(env, ScanConfig(), rng)
    chosen = select_channel(report)
    chosen_mean = report.mean_energy[ZIGBEE_CHANNELS.index(chosen.index)]
    assert all(chosen_mean <= mean for mean in report.mean_energy)


# A few levels, signed zeros among them, so most reports tie on their
# minimum; the pick is the (mean, index) minimum.
@given(st.lists(st.sampled_from([-90.0, -90.0 + 1e-9, -0.0, 0.0, 5.0]), min_size=16, max_size=16),
       st.lists(st.floats(0.0, 100.0), min_size=16, max_size=16))
def test_select_takes_the_first_minimum(means, variances):
    report = ScanReport(tuple(means), tuple(variances))
    assert select_channel(report) == ZigbeeChannel(min(zip(means, ZIGBEE_CHANNELS))[1])


@pytest.mark.parametrize("means, variances", [
    ((-100.0,) * 15, (0.0,) * 15),
    ((-100.0,) * 16, (0.0,) * 17),
    ((), ()),
])
def test_report_needs_one_entry_per_channel(means, variances):
    with pytest.raises(ValueError):
        ScanReport(means, variances)


def test_monitor_empty_window():
    mon = ChannelMonitor(ZigbeeChannel(11))
    assert mon.failure_ratio() == 0.0
    mon.record_packet_outcome(True)
    assert mon.failure_ratio() == 0.0


def test_monitor_all_failures():
    mon = ChannelMonitor(ZigbeeChannel(11))
    for _ in range(20):
        mon.record_packet_outcome(False)
    assert mon.failure_ratio() == 1.0


@given(st.lists(st.one_of(st.booleans(), st.just("switch")), max_size=80))
def test_monitor_ratio_counts_the_window(events):
    # the running failure count equals a count over the Fig.-3 window of
    # the last 20 outcomes
    window = 20
    monitor = ChannelMonitor(ZigbeeChannel(11))
    outcomes = []
    for event in events:
        if event == "switch":
            monitor.switch_to(ZigbeeChannel(12))
            outcomes = []
        else:
            monitor.record_packet_outcome(event)
            outcomes = (outcomes + [event])[-window:]
        expected = outcomes.count(False) / len(outcomes) if outcomes else 0.0
        assert monitor.failure_ratio() == expected
        assert monitor.should_rescan() == (len(outcomes) == window and expected > 0.2)


def test_monitor_evicts_oldest():
    mon = ChannelMonitor(ZigbeeChannel(11))
    mon.record_packet_outcome(False)
    for _ in range(20):
        mon.record_packet_outcome(True)
    # the single failure fell out of the 20-slot window
    assert mon.failure_ratio() == 0.0


def test_rescan_requires_ratio_strictly_above_threshold():
    mon = ChannelMonitor(ZigbeeChannel(11))
    for i in range(20):
        mon.record_packet_outcome(i >= 5)  # 5 failures / 20 = 0.25
    assert mon.should_rescan()

    mon = ChannelMonitor(ZigbeeChannel(11))
    for i in range(20):
        mon.record_packet_outcome(i >= 4)  # 4 failures / 20 = 0.20, not above
    assert not mon.should_rescan()


def test_rescan_needs_full_window():
    mon = ChannelMonitor(ZigbeeChannel(11))
    for _ in range(10):
        mon.record_packet_outcome(False)
    assert not mon.should_rescan()


@pytest.mark.parametrize("seed", range(10))
def test_interference_onset_forces_move_to_clean_channel(seed):
    # end-to-end loop: quiet scan picks a channel, an interferer then parks
    # on it, the failure window trips within 20 packets, and the rescan
    # lands outside every interfered band
    rng = np.random.default_rng(seed)
    report = scan_all_channels(ChannelEnvironment(), ScanConfig(), rng)
    mon = ChannelMonitor(select_channel(report))
    assert mon.active_channel.index == 11

    onset = ChannelEnvironment(
        interferers=(InterfererProfile(WifiChannel(1), -70.0, 1.0),)
    )
    from rssiloc.spectrum import packet_success

    for packets in range(1, 21):
        mon.record_packet_outcome(packet_success(onset, mon.active_channel, rng))
        if mon.should_rescan():
            break
    assert mon.should_rescan()

    mon.switch_to(select_channel(scan_all_channels(onset, ScanConfig(), rng)))
    assert mon.active_channel.index in clean_channels(onset)
    assert mon.failure_ratio() == 0.0
