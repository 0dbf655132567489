"""2.4 GHz channel geometry and cross-technology interference sampling.

802.15.4 channels 11-26 sit on 2405 + 5*(k-11) MHz and are 2 MHz wide;
802.11 channels 1-13 sit on 2412 + 5*(k-1) MHz and are 22 MHz wide. Two
channels interfere when their bands intersect, i.e. when the center
separation is strictly below (2 + 22) / 2 = 12 MHz; edge-touching
spectra do not overlap.

Interferers are modeled as independent on/off sources: during any one
energy sample or packet, each is active with probability equal to its
duty cycle, decided by one uniform draw per interferer. Active
overlapping interferers add power in linear milliwatts on top of the
noise floor.

A ChannelEnvironment holds its interference landscape as arrays, built
once: the 16 x n table of which interferer overlaps which ZigBee
channel, the interferers' powers in milliwatts and their duty cycles.
Energy scans (channel.scan_all_channels, which sums the milliwatts in
kernels.energy_scan) and packet outcomes are array lookups into that
table, so a whole scan is one draw.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import Dbm, dbm_to_milliwatts, frozen_array

__all__ = [
    "ZIGBEE_BANDWIDTH_MHZ",
    "WIFI_BANDWIDTH_MHZ",
    "ZIGBEE_CHANNELS",
    "ZigbeeChannel",
    "WifiChannel",
    "InterfererProfile",
    "ChannelEnvironment",
    "channels_overlap",
    "packet_success",
]

ZIGBEE_BANDWIDTH_MHZ = 2.0
WIFI_BANDWIDTH_MHZ = 22.0

# Center separation below which a ZigBee and a WiFi band intersect.
_OVERLAP_THRESHOLD_MHZ = (ZIGBEE_BANDWIDTH_MHZ + WIFI_BANDWIDTH_MHZ) / 2.0

ZIGBEE_CHANNELS = tuple(range(11, 27))

# Powers add in milliwatts, and 10 ** (p / 10) stays a normal positive
# float for |p| up to about 3080 dBm.
_POWER_LIMIT_DBM = 3000.0


def _check_power(p: Dbm, name: str) -> None:
    if not -_POWER_LIMIT_DBM <= p <= _POWER_LIMIT_DBM:
        raise ValueError(f"{name} must be within +-{_POWER_LIMIT_DBM:g} dBm, got {p}")


@dataclass(frozen=True, order=True)
class ZigbeeChannel:
    """One of the 16 802.15.4 channels, index 11-26."""

    index: int

    def __post_init__(self):
        if not 11 <= self.index <= 26:
            raise ValueError(f"ZigBee channel index must be in [11, 26], got {self.index}")

    @property
    def center_mhz(self) -> float:
        return 2405.0 + 5.0 * (self.index - 11)


@dataclass(frozen=True, order=True)
class WifiChannel:
    """One of the 802.11 2.4 GHz channels, index 1-13."""

    index: int

    def __post_init__(self):
        if not 1 <= self.index <= 13:
            raise ValueError(f"WiFi channel index must be in [1, 13], got {self.index}")

    @property
    def center_mhz(self) -> float:
        return 2412.0 + 5.0 * (self.index - 1)


@dataclass(frozen=True)
class InterfererProfile:
    """A co-located WiFi transmitter as seen by the sensing node."""

    wifi_channel: WifiChannel
    rx_power: Dbm
    duty_cycle: float

    def __post_init__(self):
        if not 0.0 <= self.duty_cycle <= 1.0:
            raise ValueError(f"duty_cycle must be in [0, 1], got {self.duty_cycle}")
        _check_power(self.rx_power, "rx_power")


@dataclass(frozen=True)
class ChannelEnvironment:
    """Interference landscape: WiFi interferers over a thermal noise floor.

    `interferers` and `noise_floor` are the inputs. The other fields are
    derived from them once and take no part in equality, hashing or repr:

    overlap : (16, n) bool, row c - 11 marks the interferers whose band
        intersects ZigBee channel c
    powers_mw : (n,) interferer powers in milliwatts
    duty_cycles : (n,) interferer duty cycles
    floor_mw : the noise floor in milliwatts
    """

    interferers: tuple[InterfererProfile, ...] = ()
    noise_floor: Dbm = -100.0
    overlap: np.ndarray = field(init=False, repr=False, compare=False)
    powers_mw: np.ndarray = field(init=False, repr=False, compare=False)
    duty_cycles: np.ndarray = field(init=False, repr=False, compare=False)
    floor_mw: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        interferers = tuple(self.interferers)
        object.__setattr__(self, "interferers", interferers)
        _check_power(self.noise_floor, "noise_floor")
        overlap = [[channels_overlap(ZigbeeChannel(z), i.wifi_channel) for i in interferers]
                   for z in ZIGBEE_CHANNELS]
        object.__setattr__(self, "overlap", frozen_array(overlap, dtype=bool))
        # scalar conversions: np.power need not match them bit for bit
        object.__setattr__(self, "powers_mw", frozen_array(
            [dbm_to_milliwatts(i.rx_power) for i in interferers]))
        object.__setattr__(self, "duty_cycles", frozen_array([i.duty_cycle for i in interferers]))
        object.__setattr__(self, "floor_mw", dbm_to_milliwatts(self.noise_floor))

    def draw_active(self, rng: np.random.Generator, shape: tuple[int, ...] = ()) -> np.ndarray:
        """Which interferers are on, shape + (n,): one uniform per interferer
        and draw (whatever its duty cycle), so every reading or packet
        consumes the generator alike."""
        return rng.random(shape + (len(self.interferers),)) < self.duty_cycles


def channels_overlap(z: ZigbeeChannel, w: WifiChannel) -> bool:
    """True when the 2 MHz ZigBee band intersects the 22 MHz WiFi band."""
    return abs(z.center_mhz - w.center_mhz) < _OVERLAP_THRESHOLD_MHZ


def packet_success(
    env: ChannelEnvironment, z: ZigbeeChannel, rng: np.random.Generator
) -> bool:
    """Whether a packet on channel z survives: it fails iff any overlapping
    interferer is active during the transmission."""
    return not np.count_nonzero(env.draw_active(rng) & env.overlap[z.index - ZIGBEE_CHANNELS[0]])
