"""Scenario configuration: one JSON document describing a full experiment.

Sections: topology, sources, loads, forecasting, degradation, weather, run.
The topology section either names the built-in reference grid,
REFERENCE_GRID, or lists systems, with sources and load centers beside it;
both grids are read by the same rules.
Weather and demand each come from a CSV file (a section of just kind, path
and, for loads, centers) or a documented seeded generator. A section that
configures a parameter dataclass takes exactly its fields, each read as the
declared type: numbers must be finite JSON numbers, not booleans or strings.
Weather sites and base demands must name a site or load of the grid. See
README for the full schema and a worked example.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from .forecast import DEFAULT_ORDERS, SarimaOrders
from .generation import PLANTS
from .health import DEFAULT_R_CHARGE, DEFAULT_R_DISCHARGE, DEFAULT_W_SOC, DEFAULT_W_SOH
from .model import (
    REL_TOL,
    EnergySource,
    GridTopology,
    LoadCenter,
    StorageSystem,
    as_int,
)
from .synth import SynthDemandParams, SynthWeatherParams, wear_multipliers

# The keys of the sections no parameter dataclass describes.
_TOP_KEYS = ("topology", "sources", "loads", "forecasting", "degradation", "weather", "run")
_TOPOLOGY_KEYS = ("reference", "initial_soc_pct", "initial_soh_pct", "systems")
_SYSTEM_KEYS = ("id", "unit_count", "unit_capacity_mwd")
_CENTER_KEYS = ("id", "connected_systems")
# The run section's keys; the CLI's override flags store under the same names.
RUN_KEYS = ("days", "seed", "priority_enabled", "health_enabled", "score_weights")

# Size caps, so that a typo cannot ask for more memory than any grid needs.
# The unit caps are checked before any unit is built.
MAX_DAYS = 36_500
MAX_UNIT_COUNT = 10_000
MAX_TOTAL_UNITS = 1_000_000
MAX_UNIT_CAPACITY_MWD = 1e6
# Caps on the magnitudes of the synthetic weather scales (W/m^2, times ghi_base,
# then m/s), so that no seed's draws can overflow.
MAX_WEATHER_SCALES = {"ghi_base": 2_000.0, "ghi_seasonal_amplitude": 10.0, "wind_base": 100.0,
                      "wind_seasonal_amplitude": 100.0, "wind_noise_sd": 100.0}
# Source ids may be negative; system and load ids key seeded streams, as seeds do.
MAX_ID = 2**31 - 1
MAX_SEED = 2**32 - 1
MAX_SYSTEMS = 10_000
MAX_LOADS = 10_000
MAX_SOURCES = 10_000


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
        if self.soh < 0 or self.soc < 0 or abs(self.soh + self.soc - 1.0) > REL_TOL:
            raise ValueError("score weights must be non-negative and sum to 1")


@dataclass(frozen=True)
class WeatherConfig:
    path: str | None = None  # the CSV file to read; None runs the seeded generator
    site_params: dict[str, SynthWeatherParams] = field(default_factory=dict)
    default_params: SynthWeatherParams = SynthWeatherParams()

    def params_for(self, site: str) -> SynthWeatherParams:
        return self.site_params.get(site, self.default_params)


@dataclass(frozen=True)
class DemandConfig:
    path: str | None = None  # the CSV file to read; None runs the seeded generator
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
    weather: WeatherConfig = WeatherConfig()
    demand: DemandConfig = DemandConfig()
    initial_soc_pct: float = 50.0
    initial_soh_pct: float = 100.0
    raw: dict = field(default_factory=dict)


class _Repeats(dict):
    """A JSON object whose text gives the key `twice` more than once."""


def _object_pairs(pairs: list) -> dict:
    """load_scenario's object hook: the object, marked if its text repeats a key."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        obj = _Repeats(obj)
        obj.twice = next(key for i, key in enumerate(keys) if key in keys[:i])
    return obj


def _object(section, where: str) -> dict:
    """The section, once it is known to be an object whose text repeats no key.
    Every object of a document is read through here before its keys are."""
    if not isinstance(section, dict):
        raise ValueError(f"{where or 'scenario'} must be a JSON object")
    if isinstance(section, _Repeats):
        raise ValueError(f"{where}.{section.twice} is given twice".lstrip("."))
    return section


def _known(section, keys, where: str) -> dict:
    """The section itself, once it is known to be an object with only the given keys."""
    for key in _object(section, where):
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


def _number(value, where: str) -> float:
    """A float input field: a finite JSON number; booleans and strings are rejected."""
    # The bound also rejects NaN, the infinities and integers too large for a float.
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (
        abs(value) <= sys.float_info.max
    ):
        raise ValueError(f"{where} must be a number, got {value!r}")
    return float(value)


def _check(value, ok: bool, rule: str, where: str):
    """The value, once ok holds; else an error naming its key and the rule it breaks."""
    if not ok:
        raise ValueError(f"{where} must be {rule}, got {value!r}")
    return value


def _size(value, lo: int, hi: int, where: str) -> int:
    """An integer field in [lo, hi]; out of range, the error shows the value as written."""
    n = as_int(value, where)
    if not lo <= n <= hi:  # the rule text is built only for the error
        _check(value, n >= lo, f">= {lo}", where)
        _check(value, n <= hi, f"<= {hi}", where)
    return n


def _ref(value, where: str) -> int:
    """A source id or a wired system id; an unknown one is a topology violation."""
    return _size(value, -MAX_ID, MAX_ID, where)


def _string(value, where: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{where} must be a JSON string, got {value!r}")
    return value


def _percent(section: dict, key: str, default: float, where: str) -> float:
    value = _number(section.get(key, default), f"{where}.{key}")
    return _check(value, 0.0 <= value <= 100.0, "in [0, 100]", f"{where}.{key}")


def _items(values, read, where: str, most: int | None = None) -> tuple:
    """A list input field, each element read by read(element, its dotted path).

    A list longer than most is rejected before any element is read.
    """
    if not isinstance(values, list):
        raise ValueError(f"{where} must be a JSON list, got {values!r}")
    if most is not None and len(values) > most:
        raise ValueError(f"{where} must have at most {most} entries, got {len(values)}")
    return tuple(read(x, f"{where}[{k}]") for k, x in enumerate(values))


# How a field is read, by its annotation as written (the parameter dataclasses'
# modules postpone annotations, so a field's type is this string).
_READERS = {
    "float": _number,
    "float | None": lambda value, where: None if value is None else _number(value, where),
    "tuple[float, ...]": lambda value, where: _items(value, _number, where),
    "int": as_int,
    "SarimaOrders": lambda value, where: SarimaOrders.from_sequence(
        _items(value, as_int, where), where
    ),
}


# A section that configures a parameter dataclass takes exactly that class's
# fields as keys, besides the structural keys its caller reads itself (kind,
# id, site, ...). Each value present is read as its field's declared type; an
# absent key takes the field's default, and a field without one is required.
def _read(cls, section, where: str, structural: tuple[str, ...] = ()):
    """An instance of the dataclass cls built from one scenario section."""
    declared = fields(cls)
    _known(section, (*structural, *(f.name for f in declared)), where)
    values = {}
    for f in declared:
        if f.name in section:
            values[f.name] = _READERS[f.type](section[f.name], f"{where}.{f.name}")
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"{where}: missing required key {f.name!r}")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _parse_source(entry: dict, where: str) -> EnergySource:
    kind = _string(_require(_object(entry, where), "kind", where), f"{where}.kind")
    if kind not in PLANTS:
        raise ValueError(f"{where}: unknown kind {kind!r}")
    params = _read(PLANTS[kind], entry, where, ("kind", "id", "site", "connected_systems"))
    if kind == "wind":
        _require(entry, "turbine_count", where)  # required here, unlike in WindPlantParams
    sid = _ref(_require(entry, "id", where), f"{where}.id")
    site = _string(_require(entry, "site", where), f"{where}.site")
    wired = _require(entry, "connected_systems", where)
    connected = _items(wired, _ref, f"{where}.connected_systems")
    return EnergySource(sid, kind, params, connected, site)


def _parse_system(entry, where: str) -> tuple[int, int, float]:
    """A system's id, unit count and unit capacity; its units are built later."""
    _known(entry, _SYSTEM_KEYS, where)
    sid = _size(_require(entry, "id", where), 0, MAX_ID, f"{where}.id")
    count = _size(entry.get("unit_count", 10), 1, MAX_UNIT_COUNT, f"{where}.unit_count")
    at = f"{where}.unit_capacity_mwd"
    cap = _number(entry.get("unit_capacity_mwd", 100.0), at)
    _check(cap, cap > 0, "> 0", at)
    _check(cap, cap <= MAX_UNIT_CAPACITY_MWD, f"<= {MAX_UNIT_CAPACITY_MWD:g}", at)
    return sid, count, cap


def _parse_center(entry, where: str) -> LoadCenter:
    _known(entry, _CENTER_KEYS, where)
    lid = _size(_require(entry, "id", where), 0, MAX_ID, f"{where}.id")
    wired = _require(entry, "connected_systems", where)
    return LoadCenter(id=lid, connected_systems=_items(wired, _ref, f"{where}.connected_systems"))


# The benchmark grid of the paper's results, as an explicit document's three
# lists, read by the same rules: seven systems of the default units, eight loads
# wired to three systems each, two wind farms on systems 1-4 and two solar on 4-7.
REFERENCE_GRID = {
    "topology": {"systems": [{"id": n} for n in range(1, 8)]},
    "loads": {"centers": [
        {"id": i, "connected_systems": wired} for i, wired in enumerate(
            ([1, 2, 3], [2, 3, 4], [3, 4, 5], [4, 5, 6], [5, 6, 7], [1, 6, 7], [1, 2, 7], [2, 3, 7]))
    ]},
    "sources": [
        *({"id": k, "kind": "wind", "site": "coastal", "connected_systems": [1, 2, 3, 4],
           "turbine_count": n} for k, n in ((1, 50), (2, 100))),
        *({"id": k, "kind": "solar", "site": "inland", "connected_systems": [4, 5, 6, 7],
           "area_m2": area, "efficiency": 0.21} for k, area in ((3, 900_000.0), (4, 1_500_000.0))),
    ],
}


def _build_topology(grid: dict, soc0: float, soh0: float, seed: int,
                    deg: DegradationConfig) -> GridTopology:
    """The grid that a document's topology.systems, loads.centers and sources
    lists give, each list read right after it is required. Every unit starts
    at soc0 and soh0, with the seeded wear rates of deg."""
    sizes = _items(_require(grid["topology"], "systems", "topology"), _parse_system,
                   "topology.systems", MAX_SYSTEMS)
    counts = [count for _, count, _ in sizes]  # GridUnits pads each system to the widest
    pads = len(counts) * max(counts, default=0) - sum(counts)
    for at, n in (("the total unit_count of topology.systems", sum(counts)),
                  ("the pad units that even out topology.systems", pads)):
        _check(n, n <= MAX_TOTAL_UNITS, f"<= {MAX_TOTAL_UNITS}", at)
    centers = _require(grid.get("loads", {}), "centers", "loads")
    loads = _items(centers, _parse_center, "loads.centers", MAX_LOADS)
    sources = _items(_require(grid, "sources", "scenario"), _parse_source, "sources", MAX_SOURCES)
    systems = []
    with np.errstate(over="ignore"):  # a rate that overflows to inf fails the unit rule
        for sid, count, cap in sizes:
            mult = wear_multipliers(seed, sid, count, deg.rate_spread)
            try:
                systems.append(StorageSystem(sid, np.full(count, cap), cap * soc0 / 100.0, soh0,
                                             deg.r_charge * mult, deg.r_discharge * mult))
            except ValueError as exc:  # parsed caps, SoC and SoH hold, so a rate broke the rule
                raise ValueError(f"degradation: {exc}") from None
    return GridTopology(systems, list(loads), list(sources))


def reference_topology(initial_soc_pct: float = ScenarioConfig.initial_soc_pct,
                       initial_soh_pct: float = ScenarioConfig.initial_soh_pct) -> GridTopology:
    """REFERENCE_GRID with uniform initial unit state and no wear."""
    return _build_topology(REFERENCE_GRID, initial_soc_pct, initial_soh_pct, 0,
                           DegradationConfig(0.0, 0.0))


def _csv_path(section, where: str, keys: tuple[str, ...]) -> str | None:
    """A weather or loads section's CSV path, or None when it runs its
    generator; a CSV section takes only the given keys."""
    kind = _object(section, where).get("kind", "synthetic")
    if kind not in ("csv", "synthetic"):
        raise ValueError(f"{where} kind must be synthetic or csv, got {kind!r}")
    if kind == "synthetic":
        return None
    _known(section, keys, where)
    return _string(_require(section, "path", where), f"{where}.path")


def _parse_weather(section, sites: set[str]) -> WeatherConfig:
    if (path := _csv_path(section, "weather", ("kind", "path"))) is not None:
        return WeatherConfig(path)
    _known(section, ("kind", "sites", "default"), "weather")
    site_params = {
        site: _weather_params(params, f"weather.sites.{site}")
        for site, params in _known(section.get("sites", {}), sites, "weather.sites").items()
    }
    default = _weather_params(section.get("default", {}), "weather.default")
    return WeatherConfig(site_params=site_params, default_params=default)


def _weather_params(section, where: str) -> SynthWeatherParams:
    params = _read(SynthWeatherParams, section, where)
    for name, most in MAX_WEATHER_SCALES.items():
        value = getattr(params, name)
        _check(value, abs(value) <= most, f"in [-{most:g}, {most:g}]", f"{where}.{name}")
    return params


def _parse_demand(section, load_ids: set[str]) -> DemandConfig:
    if (path := _csv_path(section, "loads", ("kind", "path", "centers"))) is not None:
        return DemandConfig(path)
    params = _read(SynthDemandParams, section, "loads", ("kind", "centers", "base_mwd"))
    base = _known(section.get("base_mwd", {}), load_ids, "loads.base_mwd")
    base_by_load = {}
    for k, v in base.items():
        mwd = _number(v, f"loads.base_mwd.{k}")
        base_by_load[int(k)] = _check(mwd, mwd >= 0, ">= 0", f"loads.base_mwd.{k}")
    return DemandConfig(base_by_load=base_by_load, params=params)


def parse_scenario(doc: dict) -> tuple[ScenarioConfig, GridTopology]:
    """Build the run configuration and topology from a parsed JSON document."""
    _known(doc, _TOP_KEYS, "")
    run = _known(doc.get("run", {}), RUN_KEYS, "run")
    fields = dict(
        days=_size(run.get("days", 365), 0, MAX_DAYS, "run.days"),
        seed=_size(run.get("seed", 0), 0, MAX_SEED, "run.seed"),
        priority_enabled=_flag(run, "priority_enabled", ScenarioConfig.priority_enabled, "run"),
        health_enabled=_flag(run, "health_enabled", ScenarioConfig.health_enabled, "run"),
        forecasting=_read(ForecastingConfig, doc.get("forecasting", {}), "forecasting"),
        degradation=_read(DegradationConfig, doc.get("degradation", {}), "degradation"),
        weights=_read(ScoreWeights, run.get("score_weights", {}), "run.score_weights"),
    )
    topo = _known(doc.get("topology", {"reference": True}), _TOPOLOGY_KEYS, "topology")
    soc0 = _percent(topo, "initial_soc_pct", ScenarioConfig.initial_soc_pct, "topology")
    soh0 = _percent(topo, "initial_soh_pct", ScenarioConfig.initial_soh_pct, "topology")
    loads = _object(doc.get("loads", {}), "loads")
    grid = doc
    if _flag(topo, "reference", False, "topology"):
        # The built-in grid brings its own plants, loads and systems.
        for listed, present in (
            ("sources", "sources" in doc),
            ("loads.centers", "centers" in loads),
            ("topology.systems", "systems" in topo),
        ):
            if present:
                raise ValueError(f"{listed} cannot be given with topology.reference: true")
        grid = REFERENCE_GRID
    topology = _build_topology(grid, soc0, soh0, fields["seed"], fields["degradation"])
    # Weather sites and base demands must name a site or load of the built grid.
    weather = _parse_weather(doc.get("weather", {}), {s.site for s in topology.sources})
    demand = _parse_demand(loads, {str(load.id) for load in topology.loads})
    return ScenarioConfig(**fields, weather=weather, demand=demand, initial_soc_pct=soc0,
                          initial_soh_pct=soh0, raw=doc), topology


def _finite(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {token}")
    return value


def load_scenario(path, run_overrides=None) -> tuple[ScenarioConfig, GridTopology]:
    """Read and parse a scenario JSON file; run_overrides replace keys of its run section.
    A key given twice in one object, at any depth, is rejected."""
    text = Path(path).read_text()
    try:
        doc = json.loads(text, parse_float=_finite, parse_constant=_finite,
                         object_pairs_hook=_object_pairs)
    except ValueError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: top level must be a JSON object")
    if run_overrides:
        doc["run"] = {**_object(doc.get("run", {}), "run"), **run_overrides}
    return parse_scenario(doc)
