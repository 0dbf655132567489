"""Channel selection state machine.

Scan all 16 channels, average the sampled energy per channel, pick the
quietest one, then watch the packet failure ratio on the active channel
and trigger a rescan once it crosses the Fig.-3 threshold. Variance
is recorded alongside the mean for reporting; selection itself uses the
mean only.

A scan is array work: one (16, samples, interferers) uniform draw, laid
out as channel by channel, sample by sample, readings through
kernels.energy_scan over the environment's overlap table, and the
per-channel statistics along the sample axis. Its report is those
statistics as they come out, 16 means and 16 variances in ascending
channel order; the only channel object a scan builds is the one
select_channel returns.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import kernels
from .geometry import Dbm
from .spectrum import ZIGBEE_CHANNELS, ChannelEnvironment, ZigbeeChannel

__all__ = [
    "ScanConfig",
    "ScanReport",
    "ChannelMonitor",
    "scan_all_channels",
    "select_channel",
]

# The Fig.-3 rescan rule: the last 20 packets, more than 20 % of them failed.
WINDOW_SIZE = 20
FAILURE_THRESHOLD = 0.2


@dataclass(frozen=True)
class ScanConfig:
    """Energy-scan parameters. The sample interval is bookkeeping only;
    the simulator advances virtual time."""

    samples_per_channel: int = 10
    sample_interval_ms: float = 100.0

    def __post_init__(self):
        if self.samples_per_channel < 1:
            raise ValueError("samples_per_channel must be >= 1")
        if not 0.0 <= self.sample_interval_ms < math.inf:
            raise ValueError(
                f"sample_interval_ms must be finite and >= 0, got {self.sample_interval_ms}"
            )


@dataclass(frozen=True)
class ScanReport:
    """Energy statistics of one scan as two 16-tuples in ascending channel
    order, entry i for channel ZIGBEE_CHANNELS[i]: the mean energy in dBm
    and the population variance of the readings in dB^2."""

    mean_energy: tuple[Dbm, ...]
    variance: tuple[float, ...]

    def __post_init__(self):
        if not len(self.mean_energy) == len(self.variance) == len(ZIGBEE_CHANNELS):
            raise ValueError("report needs one mean and one variance per channel 11..26")


def scan_all_channels(
    env: ChannelEnvironment, cfg: ScanConfig, rng: np.random.Generator
) -> ScanReport:
    """Sample every channel `samples_per_channel` times, ascending index,
    and record mean and population variance of the energy readings."""
    active = env.draw_active(rng, (len(ZIGBEE_CHANNELS), cfg.samples_per_channel))
    readings = kernels.energy_scan(active, env.overlap[:, None, :], env.powers_mw, env.floor_mw)
    return ScanReport(tuple(readings.mean(axis=1).tolist()), tuple(readings.var(axis=1).tolist()))


def select_channel(report: ScanReport) -> ZigbeeChannel:
    """Channel with minimum mean energy; ties go to the lowest index."""
    means = report.mean_energy
    return ZigbeeChannel(ZIGBEE_CHANNELS[means.index(min(means))])


class ChannelMonitor:
    """Sliding-window packet-failure watcher for the active channel.

    Single-owner mutable state; a rescan is requested only once the
    window of WINDOW_SIZE outcomes is full and the failure ratio strictly
    exceeds FAILURE_THRESHOLD, the Fig.-3 window and ratio.
    """

    def __init__(self, active_channel: ZigbeeChannel):
        self.active_channel = active_channel
        self._outcomes: deque[bool] = deque(maxlen=WINDOW_SIZE)

    def record_packet_outcome(self, success: bool) -> None:
        self._outcomes.append(success)

    def failure_ratio(self) -> float:
        if not self._outcomes:
            return 0.0
        return self._outcomes.count(False) / len(self._outcomes)

    def should_rescan(self) -> bool:
        if len(self._outcomes) < WINDOW_SIZE:
            return False
        return self.failure_ratio() > FAILURE_THRESHOLD

    def switch_to(self, channel: ZigbeeChannel) -> None:
        """Activate a new channel and clear the packet window."""
        self.active_channel = channel
        self._outcomes.clear()
