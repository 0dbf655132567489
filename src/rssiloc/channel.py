"""Channel selection state machine.

Scan all 16 channels, average the sampled energy per channel, pick the
quietest one, then watch the packet failure ratio on the active channel
and trigger a rescan once it crosses the Fig.-3 threshold. Variance
is recorded alongside the mean for reporting; selection itself uses the
mean only.

A scan is array work: one (16, samples, interferers) uniform draw, laid
out as channel by channel, sample by sample, readings through
kernels.energy_scan over the environment's overlap table, and the
per-channel statistics along the sample axis.
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
    "ChannelRecord",
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
class ChannelRecord:
    channel: ZigbeeChannel
    mean_energy: Dbm
    variance: float  # dB^2


@dataclass(frozen=True)
class ScanReport:
    """Energy statistics for all 16 channels, ascending index."""

    records: tuple[ChannelRecord, ...]

    def __post_init__(self):
        indices = [r.channel.index for r in self.records]
        if indices != list(ZIGBEE_CHANNELS):
            raise ValueError("report must cover channels 11..26 exactly once, ascending")


def scan_all_channels(
    env: ChannelEnvironment, cfg: ScanConfig, rng: np.random.Generator
) -> ScanReport:
    """Sample every channel `samples_per_channel` times, ascending index,
    and record mean and population variance of the energy readings."""
    active = env.draw_active(rng, (len(ZIGBEE_CHANNELS), cfg.samples_per_channel))
    readings = kernels.energy_scan(active, env.overlap[:, None, :], env.powers_mw, env.floor_mw)
    stats = zip(ZIGBEE_CHANNELS, readings.mean(axis=1).tolist(), readings.var(axis=1).tolist())
    return ScanReport(tuple(ChannelRecord(ZigbeeChannel(index), mean, var)
                            for index, mean, var in stats))


def select_channel(report: ScanReport) -> ZigbeeChannel:
    """Channel with minimum mean energy; ties go to the lowest index."""
    best = min(report.records, key=lambda r: (r.mean_energy, r.channel.index))
    return best.channel


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
