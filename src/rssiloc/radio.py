"""Log-distance path-loss model, its inverse, and the radio parameters.

The deterministic part is the classic log-distance relation: received
power RSSI(d0) at reference distance d0, falling by 10 n dB per decade
of distance for path-loss exponent n (kernels.path_loss_rssi holds the
formula). Measurements add zero-mean Gaussian shadowing in the dB
domain (log-normal in linear power); a noisy reading that falls below
receiver sensitivity is reported as absent, mirroring a receiver that
hears nothing. The simulator draws those readings itself, with
rng.normal and kernels.censored; this module holds the parameters and
the path-loss inversion that ranging uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import kernels
from .geometry import Dbm

__all__ = [
    "PathLossParams",
    "RadioSpec",
    "ShadowingModel",
    "distance_from_rssi",
]

# 200 ft indoor range of a typical 802.15.4 module, converted once to meters.
DEFAULT_INDOOR_RANGE_M = 60.96


@dataclass(frozen=True)
class PathLossParams:
    """Parameters of the log-distance model.

    rssi_at_ref : power at the reference distance, dBm
    ref_distance : reference distance d0, meters
    exponent : path-loss exponent n (2 in free space, higher indoors)
    """

    rssi_at_ref: Dbm = -45.0
    ref_distance: float = 1.0
    exponent: float = 2.0

    def __post_init__(self):
        if not math.isfinite(self.rssi_at_ref):
            raise ValueError(f"rssi_at_ref must be finite, got {self.rssi_at_ref}")
        if not 0.0 < self.ref_distance < math.inf:
            raise ValueError(f"ref_distance must be finite and > 0, got {self.ref_distance}")
        if not 0.0 < self.exponent < math.inf:
            raise ValueError(f"exponent must be finite and > 0, got {self.exponent}")


@dataclass(frozen=True)
class RadioSpec:
    """Transceiver limits used for planning and link dropout."""

    tx_power: Dbm = 20.0
    sensitivity: Dbm = -107.0
    max_range: float = DEFAULT_INDOOR_RANGE_M

    def __post_init__(self):
        if not (math.isfinite(self.tx_power) and math.isfinite(self.sensitivity)):
            raise ValueError(
                f"tx_power and sensitivity must be finite, got {self.tx_power}, {self.sensitivity}"
            )
        if self.sensitivity >= self.tx_power:
            raise ValueError("sensitivity must be below tx_power")
        if not 0.0 < self.max_range < math.inf:
            raise ValueError(f"max_range must be finite and > 0, got {self.max_range}")


@dataclass(frozen=True)
class ShadowingModel:
    """Zero-mean Gaussian dB-domain fluctuation of received power."""

    sigma: float = 2.0

    def __post_init__(self):
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")
        # -0.0 passes the check, but a generator rejects a scale signed negative
        object.__setattr__(self, "sigma", abs(self.sigma))


def distance_from_rssi(params: PathLossParams, rssi: Dbm) -> float:
    """Invert the path-loss model: distance that produces the given RSSI.

    Readings above the reference power legitimately map to distances
    below the reference distance. A reading so far below it that the
    distance exceeds the float range gives math.inf, as the simulator's
    array path does; lateration reports such a range as degenerate.
    """
    if not math.isfinite(rssi):
        raise ValueError(f"rssi must be finite, got {rssi}")
    try:
        return float(kernels.path_loss_range(rssi, params.rssi_at_ref, params.ref_distance,
                                             params.exponent))
    except OverflowError:  # Python float power raises where numpy's gives inf
        return math.inf

