"""Seeded synthetic weather and demand series.

Both generators are deterministic in (seed, stream): every site and load
draws from its own numpy Generator keyed by the run seed, a stream tag, and
a stable hash of the site name or load id, so adding a site never perturbs
another site's series.

Daily irradiance follows a seasonal envelope scaled by a multiplicative
cloud factor in [cloud_floor, 1]. The cloud factor is a Gaussian copula: the
standard normal CDF, 0.5 * erfc(-x / sqrt(2)) from the standard library's
math.erfc, maps a unit-variance AR(1) latent to a uniform marginal. Wind
speed follows a seasonal sine plus (optionally autocorrelated) noise, floored
at zero. Demand follows a per-load base level shaped by a weekly profile and
multiplicative noise.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from .forecast import WeatherSample

_WEATHER_STREAM = 1
_DEMAND_STREAM = 2
_WEAR_STREAM = 3

DAYS_PER_YEAR = 365.0

DEFAULT_WEEKLY_SHAPE = (1.05, 1.05, 1.0, 1.0, 1.0, 0.9, 0.85)


def _rng(seed: int, stream: int, key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), stream, key]))


def _site_key(site: str) -> int:
    return zlib.crc32(site.encode("utf-8"))


_SQRT2 = math.sqrt(2.0)


def normal_cdf(x) -> np.ndarray:
    """The standard normal CDF of each element of the 1-d array x."""
    return np.array([0.5 * math.erfc(-v / _SQRT2) for v in x.tolist()])


def _ar1_noise(rng: np.random.Generator, days: int, rho: float) -> np.ndarray:
    """Unit-variance gaussian noise with lag-1 autocorrelation rho."""
    g = rng.standard_normal(days)
    if rho <= 0 or days == 0:
        return g
    # The recurrence runs on Python floats: the same bits as numpy scalars, faster.
    out = g.tolist()
    scale = math.sqrt(1.0 - rho * rho)
    for t in range(1, days):
        out[t] = rho * out[t - 1] + scale * out[t]
    return np.array(out)


@dataclass(frozen=True)
class SynthWeatherParams:
    """Documented generator constants for one weather site."""

    ghi_base: float = 600.0
    ghi_seasonal_amplitude: float = 0.25
    cloud_floor: float = 0.1
    cloud_power: float = 2.0
    cloud_ar: float = 0.0
    wind_base: float = 8.0
    wind_seasonal_amplitude: float = 2.0
    wind_phase: float = 0.0
    wind_noise_sd: float = 2.5
    wind_ar: float = 0.0

    def __post_init__(self) -> None:
        if self.ghi_base < 0 or self.wind_noise_sd < 0:
            raise ValueError("generator scales must be non-negative")
        if not 0.0 < self.cloud_floor <= 1.0:
            raise ValueError(f"cloud floor must be in (0, 1], got {self.cloud_floor}")
        if not 0.0 <= self.cloud_ar < 1.0 or not 0.0 <= self.wind_ar < 1.0:
            raise ValueError("autocorrelation coefficients must be in [0, 1)")


def synth_weather(
    seed: int,
    days: int,
    site: str,
    params: SynthWeatherParams = SynthWeatherParams(),
) -> list[WeatherSample]:
    """Deterministic daily weather for one site."""
    if days < 0:
        raise ValueError(f"days must be >= 0, got {days}")
    rng = _rng(seed, _WEATHER_STREAM, _site_key(site))
    d = np.arange(days, dtype=float)

    season = 1.0 + params.ghi_seasonal_amplitude * np.sin(2.0 * np.pi * d / DAYS_PER_YEAR)
    cloud_latent = _ar1_noise(rng, days, params.cloud_ar)
    u = normal_cdf(cloud_latent)  # uniform marginal regardless of autocorrelation
    cloud = 1.0 - (1.0 - params.cloud_floor) * u**params.cloud_power
    ghi = np.maximum(0.0, params.ghi_base * season * cloud)

    wind_season = params.wind_seasonal_amplitude * np.sin(
        2.0 * np.pi * d / DAYS_PER_YEAR + params.wind_phase
    )
    noise = params.wind_noise_sd * _ar1_noise(rng, days, params.wind_ar)
    wind = np.maximum(0.0, params.wind_base + wind_season + noise)

    return [
        WeatherSample(site, t, float(ghi[t]), float(wind[t]))
        for t in range(days)
    ]


@dataclass(frozen=True)
class SynthDemandParams:
    """Documented generator constants for the synthetic demand series."""

    weekly_shape: tuple[float, ...] = DEFAULT_WEEKLY_SHAPE
    noise_sd: float = 0.05  # fractional, multiplicative
    gen_fraction: float | None = None  # scale mean total demand to this share of generation

    def __post_init__(self) -> None:
        if len(self.weekly_shape) != 7:
            raise ValueError("weekly shape needs exactly 7 factors")
        if any(f < 0 for f in self.weekly_shape):
            raise ValueError("weekly shape factors must be >= 0")
        if self.noise_sd < 0:
            raise ValueError("noise sd must be >= 0")
        if self.gen_fraction is not None and self.gen_fraction <= 0:
            raise ValueError("gen_fraction must be positive when set")


def synth_demand(
    seed: int,
    days: int,
    base_by_load: dict[int, float],
    params: SynthDemandParams = SynthDemandParams(),
) -> dict[int, np.ndarray]:
    """Deterministic daily demand per load, before any generation scaling."""
    if days < 0:
        raise ValueError(f"days must be >= 0, got {days}")
    shape = np.array(params.weekly_shape, dtype=float)
    out: dict[int, np.ndarray] = {}
    for lid, base in sorted(base_by_load.items()):
        if base < 0:
            raise ValueError(f"load {lid}: negative base demand {base}")
        rng = _rng(seed, _DEMAND_STREAM, int(lid))
        noise = 1.0 + params.noise_sd * rng.standard_normal(days)
        weekly = shape[np.arange(days) % 7]
        out[lid] = np.maximum(0.0, base * weekly * noise)
    return out


def wear_multipliers(seed: int, system_id: int, n_units: int, spread: float) -> np.ndarray:
    """Per-unit degradation-rate multipliers, deterministic in (seed, system).

    spread 0 gives a uniform fleet; spread r draws multipliers uniformly from
    [1 - r, 1 + r] (floored at 0.05) so some units wear faster than others.
    """
    if not 0.0 <= spread:
        raise ValueError(f"rate spread must be >= 0, got {spread}")
    if spread == 0.0:
        return np.ones(n_units)
    rng = _rng(seed, _WEAR_STREAM, int(system_id))
    return np.maximum(0.05, 1.0 + spread * rng.uniform(-1.0, 1.0, n_units))
