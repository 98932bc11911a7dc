"""Scenario configuration: one JSON document describing a full experiment.

Sections: topology, sources, loads, forecasting, degradation, weather, run.
The topology section either names the built-in reference grid or lists
systems explicitly; sources and loads may then be listed explicitly too.
Weather and demand each come from a CSV file or a documented seeded
generator. See README for the full schema and a worked example.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .forecast import DEFAULT_ORDERS, SarimaOrders
from .generation import SolarPlantParams, WindPlantParams
from .health import DEFAULT_R_CHARGE, DEFAULT_R_DISCHARGE, DEFAULT_W_SOC, DEFAULT_W_SOH
from .model import (
    BatteryUnit,
    EnergySource,
    GridTopology,
    LoadCenter,
    StorageSystem,
    reference_topology,
)
from .synth import SynthDemandParams, SynthWeatherParams, wear_multipliers


@dataclass(frozen=True)
class ForecastingConfig:
    orders: SarimaOrders = DEFAULT_ORDERS
    refit_interval_days: int = 30
    train_window_days: int = 365

    def __post_init__(self) -> None:
        if self.refit_interval_days < 1:
            raise ValueError("refit interval must be >= 1 day")
        if self.train_window_days < self.orders.min_series_length():
            raise ValueError(
                f"train window shorter than the fit minimum "
                f"({self.orders.min_series_length()} days)"
            )


@dataclass(frozen=True)
class DegradationConfig:
    r_charge: float = DEFAULT_R_CHARGE
    r_discharge: float = DEFAULT_R_DISCHARGE
    rate_spread: float = 0.0

    def __post_init__(self) -> None:
        if self.r_charge < 0 or self.r_discharge < 0:
            raise ValueError("degradation rates must be >= 0")
        if self.rate_spread < 0:
            raise ValueError("rate spread must be >= 0")


@dataclass(frozen=True)
class ScoreWeights:
    soh: float = DEFAULT_W_SOH
    soc: float = DEFAULT_W_SOC
    charge_full_first: bool = False

    def __post_init__(self) -> None:
        if self.soh < 0 or self.soc < 0 or abs(self.soh + self.soc - 1.0) > 1e-9:
            raise ValueError("score weights must be non-negative and sum to 1")


@dataclass(frozen=True)
class WeatherConfig:
    kind: str  # "synthetic" | "csv"
    path: str | None = None
    site_params: dict[str, SynthWeatherParams] = field(default_factory=dict)
    default_params: SynthWeatherParams = SynthWeatherParams()

    def params_for(self, site: str) -> SynthWeatherParams:
        return self.site_params.get(site, self.default_params)


@dataclass(frozen=True)
class DemandConfig:
    kind: str  # "synthetic" | "csv"
    path: str | None = None
    base_by_load: dict[int, float] = field(default_factory=dict)
    params: SynthDemandParams = SynthDemandParams()


@dataclass
class ScenarioConfig:
    days: int
    seed: int
    priority_enabled: bool = True
    health_enabled: bool = True
    forecasting: ForecastingConfig = ForecastingConfig()
    degradation: DegradationConfig = DegradationConfig()
    weights: ScoreWeights = ScoreWeights()
    weather: WeatherConfig = WeatherConfig(kind="synthetic")
    demand: DemandConfig = DemandConfig(kind="synthetic")
    initial_soc_pct: float = 50.0
    initial_soh_pct: float = 100.0
    raw: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.days < 0:
            raise ValueError("days must be >= 0")
        if not 0.0 <= self.initial_soc_pct <= 100.0:
            raise ValueError("initial SoC must be in [0, 100]")
        if not 0.0 <= self.initial_soh_pct <= 100.0:
            raise ValueError("initial SoH must be in [0, 100]")


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ValueError(f"{where}: missing required key {key!r}")
    return section[key]


def _flag(section: dict, key: str, default: bool, where: str) -> bool:
    value = section.get(key, default)
    if not isinstance(value, bool):
        raise ValueError(f"{where}.{key} must be a JSON boolean (true/false), got {value!r}")
    return value


def _parse_source(entry: dict) -> EnergySource:
    kind = _require(entry, "kind", "source")
    sid = int(_require(entry, "id", "source"))
    site = str(_require(entry, "site", "source"))
    connected = tuple(int(x) for x in _require(entry, "connected_systems", f"source {sid}"))
    if kind == "solar":
        params = SolarPlantParams(
            area_m2=float(_require(entry, "area_m2", f"source {sid}")),
            efficiency=float(_require(entry, "efficiency", f"source {sid}")),
        )
    elif kind == "wind":
        params = WindPlantParams(
            power_coefficient=float(entry.get("power_coefficient", 0.4)),
            air_density=float(entry.get("air_density", 1.225)),
            rotor_area_m2=float(entry.get("rotor_area_m2", 10_000.0)),
            turbine_count=int(_require(entry, "turbine_count", f"source {sid}")),
            cut_in_ms=float(entry.get("cut_in_ms", 3.0)),
            cut_out_ms=float(entry.get("cut_out_ms", 25.0)),
        )
    else:
        raise ValueError(f"source {sid}: unknown kind {kind!r}")
    return EnergySource(sid, kind, params, connected, site)


def _build_topology(doc: dict, cfg: ScenarioConfig) -> GridTopology:
    topo = doc.get("topology", {"reference": True})
    soc0 = float(topo.get("initial_soc_pct", cfg.initial_soc_pct))
    soh0 = float(topo.get("initial_soh_pct", cfg.initial_soh_pct))
    cfg.initial_soc_pct, cfg.initial_soh_pct = soc0, soh0
    deg = cfg.degradation

    if topo.get("reference", False):
        t = reference_topology(soc0, soh0, deg.r_charge, deg.r_discharge)
    else:
        systems = []
        for entry in _require(topo, "systems", "topology"):
            sid = int(_require(entry, "id", "topology.systems"))
            count = int(entry.get("unit_count", 10))
            cap = float(entry.get("unit_capacity_mwd", 100.0))
            units = [
                BatteryUnit(
                    id=k,
                    capacity_mwd=cap,
                    energy_mwd=cap * soc0 / 100.0,
                    soh_pct=soh0,
                    r_charge=deg.r_charge,
                    r_discharge=deg.r_discharge,
                )
                for k in range(count)
            ]
            systems.append(StorageSystem(id=sid, units=units))
        loads = [
            LoadCenter(
                id=int(_require(e, "id", "loads")),
                connected_systems=tuple(int(x) for x in _require(e, "connected_systems", "loads")),
            )
            for e in _require(doc, "loads", "config")["centers"]
        ]
        sources = [_parse_source(e) for e in _require(doc, "sources", "config")]
        t = GridTopology(systems=systems, loads=loads, sources=sources)

    if deg.rate_spread > 0:
        for system in t.systems:
            mult = wear_multipliers(cfg.seed, system.id, len(system.units), deg.rate_spread)
            for unit, m in zip(system.units, mult):
                unit.r_charge = deg.r_charge * float(m)
                unit.r_discharge = deg.r_discharge * float(m)
    return t


def _parse_weather(section: dict) -> WeatherConfig:
    kind = section.get("kind", "synthetic")
    if kind == "csv":
        return WeatherConfig(kind="csv", path=str(_require(section, "path", "weather")))
    if kind != "synthetic":
        raise ValueError(f"weather kind must be synthetic or csv, got {kind!r}")
    site_params = {
        site: SynthWeatherParams(**params)
        for site, params in section.get("sites", {}).items()
    }
    default = SynthWeatherParams(**section.get("default", {}))
    return WeatherConfig(kind="synthetic", site_params=site_params, default_params=default)


def _parse_demand(section: dict) -> DemandConfig:
    kind = section.get("kind", "synthetic")
    if kind == "csv":
        return DemandConfig(kind="csv", path=str(_require(section, "path", "loads")))
    if kind != "synthetic":
        raise ValueError(f"loads kind must be synthetic or csv, got {kind!r}")
    base = section.get("base_mwd", {})
    if isinstance(base, dict):
        base_by_load = {int(k): float(v) for k, v in base.items()}
    else:
        raise ValueError("loads.base_mwd must map load id to base demand")
    params = SynthDemandParams(
        weekly_shape=tuple(section.get("weekly_shape", SynthDemandParams().weekly_shape)),
        noise_sd=float(section.get("noise_sd", SynthDemandParams().noise_sd)),
        gen_fraction=(
            float(section["gen_fraction"]) if section.get("gen_fraction") is not None else None
        ),
    )
    return DemandConfig(kind="synthetic", base_by_load=base_by_load, params=params)


def parse_scenario(doc: dict) -> tuple[ScenarioConfig, GridTopology]:
    """Build the run configuration and topology from a parsed JSON document."""
    run = doc.get("run", {})
    fc_section = doc.get("forecasting", {})
    orders = (
        SarimaOrders.from_sequence(fc_section["orders"])
        if "orders" in fc_section
        else DEFAULT_ORDERS
    )
    forecasting = ForecastingConfig(
        orders=orders,
        refit_interval_days=int(fc_section.get("refit_interval_days", 30)),
        train_window_days=int(fc_section.get("train_window_days", 365)),
    )
    deg_section = doc.get("degradation", {})
    degradation = DegradationConfig(
        r_charge=float(deg_section.get("r_charge", DEFAULT_R_CHARGE)),
        r_discharge=float(deg_section.get("r_discharge", DEFAULT_R_DISCHARGE)),
        rate_spread=float(deg_section.get("rate_spread", 0.0)),
    )
    weights_section = run.get("score_weights", {})
    weights = ScoreWeights(
        soh=float(weights_section.get("soh", DEFAULT_W_SOH)),
        soc=float(weights_section.get("soc", DEFAULT_W_SOC)),
        charge_full_first=_flag(weights_section, "charge_full_first", False, "run.score_weights"),
    )

    cfg = ScenarioConfig(
        days=int(run.get("days", 365)),
        seed=int(run.get("seed", 0)),
        priority_enabled=_flag(run, "priority_enabled", True, "run"),
        health_enabled=_flag(run, "health_enabled", True, "run"),
        forecasting=forecasting,
        degradation=degradation,
        weights=weights,
        weather=_parse_weather(doc.get("weather", {})),
        demand=_parse_demand(doc.get("loads", {})),
        raw=doc,
    )
    topology = _build_topology(doc, cfg)
    return cfg, topology


def load_scenario(path, run_overrides=None) -> tuple[ScenarioConfig, GridTopology]:
    """Read and parse a scenario JSON file; run_overrides replace keys of its run section."""
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: top level must be a JSON object")
    if run_overrides:
        doc["run"] = {**doc.get("run", {}), **run_overrides}
    return parse_scenario(doc)
