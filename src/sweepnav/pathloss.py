"""Log-distance path-loss ranging.

Received power is mapped to a transmitter distance through the standard
log-distance model with a free-space reference at one meter. The forward
direction (distance to expected RSS) lives here too so the simulator and
the inverter share one set of constants. The pipeline computes each
selected band's reference loss once, then inverts per sweep:
``invert_distance(tx_power_dbm - rss_dbm, free_space_pl0(fc_mhz), params)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError
from .sweeps import MAX_ABS_DB

_EXPONENT_RANGE = (1.5, 6.0)


@dataclass(frozen=True)
class PathLossParams:
    """Propagation model parameters.

    ``tx_power_dbm`` is the assumed nominal transmit power; opportunistic
    transmitters never advertise theirs. A wrong value scales every range
    by 10^(error / (10 * exponent)), which a fixed anchor frame does not
    absorb: on the benchmark routes with the true anchor layout, 40 or
    46 dBm against the true 43 raised the segment error from 12.5% to 40.5%
    or 59.7%. Like a sweep cell, it lies within +-MAX_ABS_DB; the bound on
    every range this admits is derived at ``sweeps.MIN_CENTER_MHZ``.
    """

    exponent: float = 2.8
    tx_power_dbm: float = 43.0

    def __post_init__(self):
        lo, hi = _EXPONENT_RANGE
        if not lo <= self.exponent <= hi:
            raise ConfigError(f"path-loss exponent {self.exponent} outside [{lo}, {hi}]")
        if not abs(self.tx_power_dbm) <= MAX_ABS_DB:
            raise ConfigError(f"tx_power_dbm {self.tx_power_dbm} outside [-{MAX_ABS_DB:g}, {MAX_ABS_DB:g}]")


def free_space_pl0(fc_mhz: float) -> float:
    """Free-space loss at the one-meter reference, in dB: 20*log10(fc_mhz) - 27.55."""
    if fc_mhz <= 0:
        raise ValueError("center frequency must be positive")
    return 20.0 * math.log10(fc_mhz) - 27.55


def invert_distance(pl_db: float, pl0_db: float, params: PathLossParams) -> float:
    """Distance whose modeled loss equals ``pl_db``.

    d = 10^((PL - PL0) / (10 * exponent)) meters, strictly increasing in the
    loss so that weaker signals always map to larger distances. Raises
    OverflowError when the distance is beyond the float range.
    """
    return 10.0 ** ((pl_db - pl0_db) / (10.0 * params.exponent))


def rss_at_distance(
    distance_m: float,
    fc_mhz: float,
    params: PathLossParams,
    *,
    tx_power_dbm: float | None = None,
    shadow_db: float = 0.0,
) -> float:
    """Forward model: received power at a given distance.

    ``tx_power_dbm`` overrides the nominal power (the simulator passes each
    transmitter's true power); ``shadow_db`` is an additive shadowing draw.
    """
    if distance_m <= 0:
        raise ValueError("distance must be positive")
    power = params.tx_power_dbm if tx_power_dbm is None else tx_power_dbm
    loss = free_space_pl0(fc_mhz) + 10.0 * params.exponent * math.log10(distance_m)
    return power - loss + shadow_db
