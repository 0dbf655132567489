"""2.4 GHz channel geometry and cross-technology interference sampling.

802.15.4 channels 11-26 sit on 2405 + 5*(k-11) MHz and are 2 MHz wide;
802.11 channels 1-13 sit on 2412 + 5*(k-1) MHz and are 22 MHz wide. Two
channels interfere when their bands intersect, i.e. when the center
separation is strictly below (2 + 22) / 2 = 12 MHz; edge-touching
spectra do not overlap.

Interferers are modeled as independent on/off sources: during any one
energy sample or packet, each is active with probability equal to its
duty cycle. Active overlapping interferers add power in linear
milliwatts on top of the noise floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Dbm, dbm_to_milliwatts, milliwatts_to_dbm

__all__ = [
    "ZIGBEE_BANDWIDTH_MHZ",
    "WIFI_BANDWIDTH_MHZ",
    "ZIGBEE_CHANNELS",
    "ZigbeeChannel",
    "WifiChannel",
    "InterfererProfile",
    "ChannelEnvironment",
    "zigbee_center_mhz",
    "wifi_center_mhz",
    "channels_overlap",
    "channel_energy_sample",
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
    """Interference landscape: WiFi interferers over a thermal noise floor."""

    interferers: tuple[InterfererProfile, ...] = ()
    noise_floor: Dbm = -100.0

    def __post_init__(self):
        object.__setattr__(self, "interferers", tuple(self.interferers))
        _check_power(self.noise_floor, "noise_floor")


def zigbee_center_mhz(c: ZigbeeChannel) -> float:
    return c.center_mhz


def wifi_center_mhz(w: WifiChannel) -> float:
    return w.center_mhz


def channels_overlap(z: ZigbeeChannel, w: WifiChannel) -> bool:
    """True when the 2 MHz ZigBee band intersects the 22 MHz WiFi band."""
    return abs(z.center_mhz - w.center_mhz) < _OVERLAP_THRESHOLD_MHZ


def _active_mask(env: ChannelEnvironment, rng: np.random.Generator) -> np.ndarray:
    # One uniform per interferer (regardless of duty cycle), so the stream
    # consumption per sample/packet is fixed and runs stay reproducible.
    draws = rng.random(len(env.interferers))
    duties = np.array([i.duty_cycle for i in env.interferers])
    return draws < duties


def channel_energy_sample(
    env: ChannelEnvironment, z: ZigbeeChannel, rng: np.random.Generator
) -> Dbm:
    """One energy reading on channel z: floor plus active overlapping interferers.

    Powers add in linear milliwatts; the result is converted back to dBm.
    """
    active = _active_mask(env, rng)
    total_mw = dbm_to_milliwatts(env.noise_floor)
    for interferer, is_active in zip(env.interferers, active):
        if is_active and channels_overlap(z, interferer.wifi_channel):
            total_mw += dbm_to_milliwatts(interferer.rx_power)
    return milliwatts_to_dbm(total_mw)


def packet_success(
    env: ChannelEnvironment, z: ZigbeeChannel, rng: np.random.Generator
) -> bool:
    """Whether a packet on channel z survives: it fails iff any overlapping
    interferer is active during the transmission."""
    active = _active_mask(env, rng)
    for interferer, is_active in zip(env.interferers, active):
        if is_active and channels_overlap(z, interferer.wifi_channel):
            return False
    return True
