"""Scenario configuration: one JSON document describing a full experiment.

Sections: topology, sources, loads, forecasting, degradation, weather, run.
The topology section either names the built-in reference grid or lists
systems explicitly; sources and loads may then be listed explicitly too.
Weather and demand each come from a CSV file or a documented seeded
generator. Every section accepts only its documented keys, and every number
must be finite. See README for the full schema and a worked example.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
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
    as_int,
    reference_topology,
)
from .synth import SynthDemandParams, SynthWeatherParams, wear_multipliers

# The keys each section of a scenario document may hold.
_TOP_KEYS = ("topology", "sources", "loads", "forecasting", "degradation", "weather", "run")
_TOPOLOGY_KEYS = ("reference", "initial_soc_pct", "initial_soh_pct", "systems")
_SYSTEM_KEYS = ("id", "unit_count", "unit_capacity_mwd")
_SOURCE_KEYS = {
    "solar": ("kind", "id", "site", "connected_systems", "area_m2", "efficiency"),
    "wind": ("kind", "id", "site", "connected_systems", "power_coefficient", "air_density",
             "rotor_area_m2", "turbine_count", "cut_in_ms", "cut_out_ms"),
}
_LOADS_KEYS = ("kind", "path", "centers", "base_mwd", "weekly_shape", "noise_sd", "gen_fraction")
_CENTER_KEYS = ("id", "connected_systems")
_FORECASTING_KEYS = ("orders", "refit_interval_days", "train_window_days")
_DEGRADATION_KEYS = ("r_charge", "r_discharge", "rate_spread")
_WEATHER_KEYS = ("kind", "path", "sites", "default")
_SITE_KEYS = tuple(f.name for f in fields(SynthWeatherParams))
_RUN_KEYS = ("days", "seed", "priority_enabled", "health_enabled", "score_weights")
_WEIGHT_KEYS = ("soh", "soc")


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


def _known(section, keys, where: str) -> dict:
    """The section itself, once it is known to be an object with only the given keys."""
    if not isinstance(section, dict):
        raise ValueError(f"{where or 'scenario'} must be a JSON object")
    for key in section:
        if key not in keys:
            raise ValueError(f"unknown key {where}.{key}" if where else f"unknown key {key}")
    return section


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ValueError(f"{where}: missing required key {key!r}")
    return section[key]


def _flag(section: dict, key: str, default: bool, where: str) -> bool:
    value = section.get(key, default)
    if not isinstance(value, bool):
        raise ValueError(f"{where}.{key} must be a JSON boolean (true/false), got {value!r}")
    return value


def _ids(values, where: str) -> tuple[int, ...]:
    return tuple(as_int(x, f"{where}[{k}]") for k, x in enumerate(values))


def _parse_source(entry: dict, where: str) -> EnergySource:
    kind = _require(entry, "kind", where)
    if kind in _SOURCE_KEYS:
        _known(entry, _SOURCE_KEYS[kind], where)
    sid = as_int(_require(entry, "id", "source"), f"{where}.id")
    site = str(_require(entry, "site", "source"))
    wired = _require(entry, "connected_systems", f"source {sid}")
    connected = _ids(wired, f"{where}.connected_systems")
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
            turbine_count=as_int(
                _require(entry, "turbine_count", f"source {sid}"), f"{where}.turbine_count"
            ),
            cut_in_ms=float(entry.get("cut_in_ms", 3.0)),
            cut_out_ms=float(entry.get("cut_out_ms", 25.0)),
        )
    else:
        raise ValueError(f"source {sid}: unknown kind {kind!r}")
    return EnergySource(sid, kind, params, connected, site)


def _build_topology(doc: dict, cfg: ScenarioConfig) -> GridTopology:
    topo = _known(doc.get("topology", {"reference": True}), _TOPOLOGY_KEYS, "topology")
    soc0 = float(topo.get("initial_soc_pct", cfg.initial_soc_pct))
    soh0 = float(topo.get("initial_soh_pct", cfg.initial_soh_pct))
    cfg.initial_soc_pct, cfg.initial_soh_pct = soc0, soh0
    deg = cfg.degradation

    if _flag(topo, "reference", False, "topology"):
        # The built-in grid brings its own plants, loads and systems.
        for listed, present in (
            ("sources", "sources" in doc),
            ("loads.centers", "centers" in doc.get("loads", {})),
            ("topology.systems", "systems" in topo),
        ):
            if present:
                raise ValueError(f"{listed} cannot be given with topology.reference: true")
        t = reference_topology(soc0, soh0, deg.r_charge, deg.r_discharge)
    else:
        systems = []
        for i, entry in enumerate(_require(topo, "systems", "topology")):
            where = f"topology.systems[{i}]"
            _known(entry, _SYSTEM_KEYS, where)
            sid = as_int(_require(entry, "id", "topology.systems"), f"{where}.id")
            count = as_int(entry.get("unit_count", 10), f"{where}.unit_count")
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
        loads = []
        for i, e in enumerate(_require(doc, "loads", "config")["centers"]):
            where = f"loads.centers[{i}]"
            _known(e, _CENTER_KEYS, where)
            lid = as_int(_require(e, "id", "loads"), f"{where}.id")
            wired = _require(e, "connected_systems", "loads")
            connected = _ids(wired, f"{where}.connected_systems")
            loads.append(LoadCenter(id=lid, connected_systems=connected))
        sources = [
            _parse_source(e, f"sources[{i}]")
            for i, e in enumerate(_require(doc, "sources", "config"))
        ]
        t = GridTopology(systems=systems, loads=loads, sources=sources)

    if deg.rate_spread > 0:
        for system in t.systems:
            mult = wear_multipliers(cfg.seed, system.id, len(system.units), deg.rate_spread)
            for unit, m in zip(system.units, mult):
                unit.r_charge = deg.r_charge * float(m)
                unit.r_discharge = deg.r_discharge * float(m)
    return t


def _parse_weather(section: dict) -> WeatherConfig:
    _known(section, _WEATHER_KEYS, "weather")
    kind = section.get("kind", "synthetic")
    if kind == "csv":
        return WeatherConfig(kind="csv", path=str(_require(section, "path", "weather")))
    if kind != "synthetic":
        raise ValueError(f"weather kind must be synthetic or csv, got {kind!r}")
    site_params = {
        site: SynthWeatherParams(**_known(params, _SITE_KEYS, f"weather.sites.{site}"))
        for site, params in section.get("sites", {}).items()
    }
    default = _known(section.get("default", {}), _SITE_KEYS, "weather.default")
    default = SynthWeatherParams(**default)
    return WeatherConfig(kind="synthetic", site_params=site_params, default_params=default)


def _parse_demand(section: dict) -> DemandConfig:
    _known(section, _LOADS_KEYS, "loads")
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
    _known(doc, _TOP_KEYS, "")
    run = _known(doc.get("run", {}), _RUN_KEYS, "run")
    fc_section = _known(doc.get("forecasting", {}), _FORECASTING_KEYS, "forecasting")
    orders = (
        SarimaOrders.from_sequence(fc_section["orders"], "forecasting.orders")
        if "orders" in fc_section
        else DEFAULT_ORDERS
    )
    forecasting = ForecastingConfig(
        orders=orders,
        refit_interval_days=as_int(
            fc_section.get("refit_interval_days", 30), "forecasting.refit_interval_days"
        ),
        train_window_days=as_int(
            fc_section.get("train_window_days", 365), "forecasting.train_window_days"
        ),
    )
    deg_section = _known(doc.get("degradation", {}), _DEGRADATION_KEYS, "degradation")
    degradation = DegradationConfig(
        r_charge=float(deg_section.get("r_charge", DEFAULT_R_CHARGE)),
        r_discharge=float(deg_section.get("r_discharge", DEFAULT_R_DISCHARGE)),
        rate_spread=float(deg_section.get("rate_spread", 0.0)),
    )
    weights_section = _known(run.get("score_weights", {}), _WEIGHT_KEYS, "run.score_weights")
    weights = ScoreWeights(
        soh=float(weights_section.get("soh", DEFAULT_W_SOH)),
        soc=float(weights_section.get("soc", DEFAULT_W_SOC)),
    )

    cfg = ScenarioConfig(
        days=as_int(run.get("days", 365), "run.days"),
        seed=as_int(run.get("seed", 0), "run.seed"),
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


def _finite(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {token}")
    return value


def load_scenario(path, run_overrides=None) -> tuple[ScenarioConfig, GridTopology]:
    """Read and parse a scenario JSON file; run_overrides replace keys of its run section."""
    text = Path(path).read_text()
    try:
        doc = json.loads(text, parse_float=_finite, parse_constant=_finite)
    except ValueError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: top level must be a JSON object")
    if run_overrides:
        doc["run"] = {**doc.get("run", {}), **run_overrides}
    return parse_scenario(doc)
