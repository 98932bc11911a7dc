"""Plant-level generation models.

Converts site weather into plant output: global horizontal irradiance to
photovoltaic power, and hub-height wind speed to turbine-farm power with
cut-in/cut-out clamping. Power is expressed in MW; under the one-day tick
convention a constant MW output over a day equals the same number in MWd.

Each curve takes a float or an array and returns the same kind, from one
formula: the engine computes a source's whole series in one call, and every
element carries the bits of a scalar call on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

W_PER_MW = 1e6

# Betz limit: no rotor extracts more than 16/27 of the kinetic energy flux.
BETZ_LIMIT = 16.0 / 27.0
# A cap on a farm's turbines, so that a count too large for a float exits
# as a bad input rather than overflowing the power curve.
MAX_TURBINE_COUNT = 1_000_000


@dataclass(frozen=True)
class SolarPlantParams:
    """Photovoltaic plant: collector area in m^2 and panel efficiency in (0, 1]."""

    area_m2: float
    efficiency: float

    def __post_init__(self) -> None:
        if self.area_m2 <= 0:
            raise ValueError(f"solar plant area must be positive, got {self.area_m2}")
        if not 0 < self.efficiency <= 1:
            raise ValueError(f"panel efficiency must be in (0, 1], got {self.efficiency}")


@dataclass(frozen=True)
class WindPlantParams:
    """Wind plant: identical turbines described by rotor disc and power coefficient."""

    power_coefficient: float = 0.4
    air_density: float = 1.225      # kg/m^3
    rotor_area_m2: float = 10_000.0  # frontal area per turbine
    turbine_count: int = 1
    cut_in_ms: float = 3.0
    cut_out_ms: float = 25.0

    def __post_init__(self) -> None:
        if not 0 < self.power_coefficient <= BETZ_LIMIT:
            raise ValueError(
                f"power coefficient must be in (0, {BETZ_LIMIT:.6f}], got {self.power_coefficient}"
            )
        if self.air_density <= 0:
            raise ValueError(f"air density must be positive, got {self.air_density}")
        if self.rotor_area_m2 <= 0:
            raise ValueError(f"rotor area must be positive, got {self.rotor_area_m2}")
        if self.turbine_count < 1:
            raise ValueError(f"turbine count must be >= 1, got {self.turbine_count}")
        if self.turbine_count > MAX_TURBINE_COUNT:
            raise ValueError(f"turbine count must be <= {MAX_TURBINE_COUNT}, "
                             f"got {self.turbine_count}")
        if self.cut_in_ms < 0 or self.cut_out_ms <= self.cut_in_ms:
            raise ValueError(
                f"need 0 <= cut-in < cut-out, got {self.cut_in_ms}, {self.cut_out_ms}"
            )


# Each source kind and the parameter class its plant takes.
PLANTS = {"solar": SolarPlantParams, "wind": WindPlantParams}


def _require_non_negative(x, what: str) -> None:
    negative = np.asarray(x)[np.less(x, 0)]
    if negative.size:
        raise ValueError(f"{what} must be >= 0, got {negative[0]}")


def solar_power(irradiance_w_m2, params: SolarPlantParams):
    """PV plant output in MW for an irradiance in W/m^2. Takes a float or an
    array of them and returns the same kind, with the same bits per element."""
    _require_non_negative(irradiance_w_m2, "irradiance")
    with np.errstate(over="ignore"):
        return irradiance_w_m2 * params.area_m2 * params.efficiency / W_PER_MW


def wind_power(speed_ms, params: WindPlantParams):
    """Wind farm output in MW at a wind speed in m/s. Takes a float or an array
    of them and returns the same kind, with the same bits per element.

    Output is exactly zero below cut-in and above cut-out; both boundary
    speeds themselves produce power. Between the cuts each turbine delivers
    Cp * rho * A * v^3 / 2 watts. The cube is libm's pow, per element, as
    Python's float ** takes it: numpy's ** may differ in the last bit.
    """
    _require_non_negative(speed_ms, "wind speed")
    v = np.asarray(speed_ms, dtype=float)
    off = (v < params.cut_in_ms) | (v > params.cut_out_ms)
    # A speed outside the cuts is cubed as 0, so it cannot overflow pow.
    on = np.where(off, 0.0, v).ravel().tolist()
    cube = np.fromiter(map(pow, on, repeat(3)), float, v.size).reshape(v.shape)
    cp_rho_a = params.power_coefficient * params.air_density * params.rotor_area_m2
    with np.errstate(over="ignore", invalid="ignore"):
        mw = np.where(off, 0.0, params.turbine_count * (cp_rho_a * cube / 2.0) / W_PER_MW)
    return float(mw) if v.ndim == 0 else mw
