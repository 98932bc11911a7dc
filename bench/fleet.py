"""Seeded input generator for the wide-fleet workload.

From one seed it writes the three files the program reads: an explicit
topology scenario JSON, a weather CSV and a demand CSV. The grid is three
weather sites, each with one wind farm and one solar plant feeding its own
cluster of systems plus the first system of the next cluster, and loads
wired to three randomly chosen systems each. Demand is sized to a fixed
share of the mean generation the written weather yields, so storage
neither saturates nor stays empty for the whole run.

Floats are written with ``repr``, which round-trips exactly, so the program
parses back the very values the checkers recompute from.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checks import generation_by_source

SITES = ("north", "south", "east")
SYSTEMS = 21
UNITS_PER_SYSTEM = 40
UNIT_CAPACITY_MWD = 100.0
LOADS = 24
DAYS = 120
REFIT_INTERVAL_DAYS = 365
INITIAL_SOC_PCT = 50.0
DEMAND_SHARE_OF_GENERATION = 0.9
WEEKLY_SHAPE = (1.05, 1.05, 1.0, 1.0, 1.0, 0.9, 0.85)

SOLAR_AREA_M2 = 2_000_000.0
SOLAR_EFFICIENCY = 0.2
WIND_TURBINES = 60
WIND_CP, WIND_RHO, WIND_ROTOR_M2 = 0.4, 1.225, 10_000.0
WIND_CUT_IN, WIND_CUT_OUT = 3.0, 25.0


@dataclass(frozen=True)
class FleetInputs:
    scenario_path: Path
    sources: list[dict]  # as written to the scenario
    ghi: dict[str, np.ndarray]  # site -> per-day irradiance, W/m^2
    wind: dict[str, np.ndarray]  # site -> per-day wind speed, m/s
    demand: np.ndarray  # [load, day] MWd
    capacity_mwd: dict[int, float]  # system id -> capacity
    days: int = DAYS
    initial_soc_pct: float = INITIAL_SOC_PCT

    @property
    def unit_days(self) -> int:
        return self.days * SYSTEMS * UNITS_PER_SYSTEM


def _weather(rng: np.random.Generator, days: int, phase: float):
    d = np.arange(days, dtype=float)
    season = 1.0 + 0.25 * np.sin(2.0 * np.pi * d / 365.0 + phase)
    cloud = 1.0 - 0.9 * rng.uniform(0.0, 1.0, days) ** 2
    ghi = 600.0 * season * cloud
    noise = np.empty(days)
    noise[0] = rng.standard_normal()
    for t in range(1, days):
        noise[t] = 0.5 * noise[t - 1] + np.sqrt(0.75) * rng.standard_normal()
    wind = np.maximum(0.0, 8.0 + 2.0 * np.sin(2.0 * np.pi * d / 365.0 - phase) + 2.5 * noise)
    return ghi, wind


def _sources() -> list[dict]:
    cluster = SYSTEMS // len(SITES)
    out = []
    for k, site in enumerate(SITES):
        fed = [k * cluster + j + 1 for j in range(cluster)]
        fed.append((k + 1) % len(SITES) * cluster + 1)
        out.append({
            "id": 2 * k + 1, "kind": "wind", "site": site, "connected_systems": fed,
            "turbine_count": WIND_TURBINES, "power_coefficient": WIND_CP,
            "air_density": WIND_RHO, "rotor_area_m2": WIND_ROTOR_M2,
            "cut_in_ms": WIND_CUT_IN, "cut_out_ms": WIND_CUT_OUT,
        })
        out.append({
            "id": 2 * k + 2, "kind": "solar", "site": site, "connected_systems": fed,
            "area_m2": SOLAR_AREA_M2, "efficiency": SOLAR_EFFICIENCY,
        })
    return out


def generate(seed: int, out_dir: Path) -> FleetInputs:
    """Write scenario.json, weather.csv and demand.csv for one seed."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xF1EE7]))
    out_dir.mkdir(parents=True, exist_ok=True)
    ghi, wind = {}, {}
    for k, site in enumerate(SITES):
        ghi[site], wind[site] = _weather(rng, DAYS, 2.0 * np.pi * k / len(SITES))
    sources = _sources()
    mean_gen = float(np.mean(sum(generation_by_source(sources, ghi, wind).values())))
    weights = rng.uniform(0.5, 1.5, LOADS)
    base = DEMAND_SHARE_OF_GENERATION * mean_gen * weights / weights.sum()
    shape = np.array(WEEKLY_SHAPE)[np.arange(DAYS) % 7]
    noise = np.maximum(0.0, 1.0 + 0.05 * rng.standard_normal((LOADS, DAYS)))
    demand = base[:, None] * shape[None, :] * noise

    loads = [
        {"id": i, "connected_systems": sorted(int(x) + 1 for x in rng.choice(SYSTEMS, 3, replace=False))}
        for i in range(LOADS)
    ]

    weather_path = out_dir / "weather.csv"
    demand_path = out_dir / "demand.csv"
    scenario_path = out_dir / "scenario.json"
    lines = ["site_id,day_index,ghi_w_m2,wind_speed_ms"]
    for site in SITES:
        for t, (g, w) in enumerate(zip(ghi[site].tolist(), wind[site].tolist())):
            lines.append(f"{site},{t},{g!r},{w!r}")
    weather_path.write_text("\n".join(lines) + "\n")
    lines = ["load_id,day_index,demand_mwd"]
    for i, row in enumerate(demand.tolist()):
        lines.append("\n".join(f"{i},{t},{v!r}" for t, v in enumerate(row)))
    demand_path.write_text("\n".join(lines) + "\n")

    doc = {
        "topology": {
            "initial_soc_pct": INITIAL_SOC_PCT,
            "systems": [
                {"id": sid, "unit_count": UNITS_PER_SYSTEM, "unit_capacity_mwd": UNIT_CAPACITY_MWD}
                for sid in range(1, SYSTEMS + 1)
            ],
        },
        "sources": sources,
        "loads": {"kind": "csv", "path": str(demand_path), "centers": loads},
        "weather": {"kind": "csv", "path": str(weather_path)},
        "degradation": {"r_charge": 0.2, "r_discharge": 0.25, "rate_spread": 0.5},
        "forecasting": {"refit_interval_days": REFIT_INTERVAL_DAYS, "train_window_days": 365},
        "run": {"days": DAYS, "seed": int(seed), "priority_enabled": True, "health_enabled": True},
    }
    scenario_path.write_text(json.dumps(doc, indent=1) + "\n")
    return FleetInputs(
        scenario_path=scenario_path,
        sources=sources,
        ghi=ghi,
        wind=wind,
        demand=demand,
        capacity_mwd={sid: UNITS_PER_SYSTEM * UNIT_CAPACITY_MWD for sid in range(1, SYSTEMS + 1)},
    )
