"""Daily-tick simulation engine and A/B comparison runner.

Weather, per-source generation, realized demand and the day-ahead demand
forecasts do not depend on policy. They are built once per run (forecasts on
first use, from realized demand), and compare() shares them between its two
arms. Each simulated day then dispatches charging at the grid level (priority
or equal), distributes each system's inflow across its units (health-ranked or
equal), and settles realized demand load by load against the connected
systems. Charging always precedes discharging. The engine decides
system-level amounts only; health.py moves energy through the units and
applies the wear that costs.

Runs are deterministic: a config and seed reproduce byte-identical traces.
"""

from __future__ import annotations

import copy
import os
import tempfile
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .dispatch import (
    allocate_equal,
    allocate_priority,
    compute_charge_targets,
    discharge_shares,
    prioritize,
)
from .forecast import (
    WeatherSample,
    fit_sarima,
    forecast_one,
    load_demand_csv,
    load_weather_csv,
    predict_generation,
    seasonal_naive,
)
from .health import apply_discharge, distribute_charge_equal, distribute_charge_ranked
from .model import GridTopology, system_soc, validate_topology
from .scenario import ForecastingConfig, ScenarioConfig
from .synth import synth_demand, synth_weather

# A system counts as hitting zero SoC when its end-of-day charge percentage
# is below this threshold (absorbs float dust from a full drain).
ZERO_SOC_EPS = 1e-9

DEFAULT_BASE_DEMAND_MWD = 100.0


class SimulationError(RuntimeError):
    """Raised when a run cannot proceed (exhausted data, broken topology)."""


@dataclass
class DailyRecord:
    """End-of-day snapshot of one simulated day."""

    day: int
    soc_pct: dict[int, float]
    mean_soh_pct: dict[int, float]
    charge_in_mwd: dict[int, float]
    discharge_out_mwd: dict[int, float]
    served_mwd: dict[int, float]
    unmet_mwd: dict[int, float]
    generated_mwd: dict[int, float]
    curtailed_mwd: dict[int, float]


@dataclass
class TraceSummary:
    zero_soc_events: dict[int, int]
    final_mean_soh_pct: dict[int, float]
    total_unmet_mwd: float
    total_curtailed_mwd: float


@dataclass
class SimulationTrace:
    config_echo: dict
    records: list[DailyRecord]
    summary: TraceSummary


@dataclass
class ComparisonReport:
    """Treatment-vs-baseline outcome summary; positive SoH gain favors treatment."""

    axis: str
    soh_gain_pct_points: dict[int, float]
    zero_soc_events_treatment: dict[int, int]
    zero_soc_events_baseline: dict[int, int]
    total_unmet_treatment_mwd: float
    total_unmet_baseline_mwd: float
    treatment: SimulationTrace
    baseline: SimulationTrace


class Drivers:
    """Policy-independent inputs of one run, shared by both arms of compare().

    Generation and forecasts are computed on first use, so a run whose
    dispatch never reads forecasts (the equal split) never fits a model.
    """

    def __init__(self, cfg: ScenarioConfig, topology: GridTopology) -> None:
        self.forecasting = cfg.forecasting
        self.sources = topology.sources
        self.weather_by_day = _build_weather(cfg, topology)
        self.demand_by_load = _build_demand(cfg, topology, self)

    @cached_property
    def generation(self) -> list[dict[int, float]]:
        """G[day][source] in MWd; the provider series doubles as the day-ahead forecast."""
        return [predict_generation(samples, self.sources) for samples in self.weather_by_day]

    @cached_property
    def forecasts(self) -> dict[int, list[float]]:
        """F[load][day]: the demand forecast dispatch sees on each day."""
        return {
            lid: _forecast_schedule(series.tolist(), self.forecasting)
            for lid, series in self.demand_by_load.items()
        }


def _forecast_schedule(demand: list[float], fc: ForecastingConfig) -> list[float]:
    """F[day] from the realized demand before each day: the last value, then
    seasonal-naive during warm-up, then SARIMA refit every refit_interval_days
    on the trailing window, its one-step forecast standing until the next refit."""
    o = fc.orders
    warmup = max(3 * o.s, 30, o.min_series_length())
    out = []
    last_fit = None
    for day in range(len(demand)):
        if day >= warmup:
            if last_fit is None or day - last_fit >= fc.refit_interval_days:
                model = fit_sarima(demand[max(0, day - fc.train_window_days) : day], o)
                forecast = forecast_one(model)
                last_fit = day
        elif day >= o.s:
            forecast = max(0.0, seasonal_naive(demand[day - o.s : day], o.s))
        else:
            forecast = demand[day - 1] if day else 0.0
        out.append(forecast)
    return out


@dataclass
class SimulationState:
    """Everything step_day needs; the topology is mutated in place as days tick."""

    cfg: ScenarioConfig
    topology: GridTopology
    drivers: Drivers

    @property
    def weather_by_day(self) -> list[list[WeatherSample]]:
        return self.drivers.weather_by_day

    @property
    def demand_by_load(self) -> dict[int, np.ndarray]:
        return self.drivers.demand_by_load


def step_day(state: SimulationState, day: int) -> DailyRecord:
    """Advance the grid by one day and return the end-of-day record."""
    t = state.topology
    drivers = state.drivers
    generated = drivers.generation[day]

    # 1. Grid-level dispatch; only the priority policy reads forecasts.
    if state.cfg.priority_enabled:
        forecasts = {lid: f[day] for lid, f in drivers.forecasts.items()}
        targets = compute_charge_targets(t, forecasts)
        alloc = allocate_priority(prioritize(targets), targets, generated, t)
    else:
        alloc = allocate_equal(generated, t)

    # 2. Intra-system distribution with charge wear.
    charge_in = {s.id: alloc.inflow(s.id) for s in t.systems}
    for system in t.systems:
        q = charge_in[system.id]
        if q <= 0:
            continue
        if state.cfg.health_enabled:
            w = state.cfg.weights
            distribute_charge_ranked(system, q, w.soh, w.soc)
        else:
            distribute_charge_equal(system, q)

    # 3. Settle realized demand in ascending load id; each settlement sees
    #    storage as the previous one left it.
    served = {}
    unmet = {}
    discharge_out = {s.id: 0.0 for s in t.systems}
    for load in sorted(t.loads, key=lambda l: l.id):
        demand = float(state.demand_by_load[load.id][day])
        systems = [t.system_by_id[sid] for sid in load.connected_systems]
        assignment = discharge_shares(demand, systems)
        for sid, amount in assignment.contributions.items():
            if amount > 0:
                apply_discharge(t.system_by_id[sid], amount)
                discharge_out[sid] += amount
        served[load.id] = assignment.served_mwd
        unmet[load.id] = assignment.unmet_mwd

    curtailed = {src.id: alloc.curtailed.get(src.id, 0.0) for src in t.sources}
    return DailyRecord(
        day=day,
        soc_pct={s.id: system_soc(s) for s in t.systems},
        mean_soh_pct={s.id: s.mean_soh_pct for s in t.systems},
        charge_in_mwd=charge_in,
        discharge_out_mwd=discharge_out,
        served_mwd=served,
        unmet_mwd=unmet,
        generated_mwd=generated,
        curtailed_mwd=curtailed,
    )


def _build_weather(cfg: ScenarioConfig, t: GridTopology) -> list[list[WeatherSample]]:
    sites = sorted({src.site for src in t.sources})
    if cfg.weather.kind == "csv":
        samples = load_weather_csv(cfg.weather.path)
        by_day: dict[int, dict[str, WeatherSample]] = {}
        for s in samples:
            by_day.setdefault(s.day_index, {})[s.site_id] = s
        out = []
        for day in range(cfg.days):
            row = by_day.get(day, {})
            missing = [site for site in sites if site not in row]
            if missing:
                raise SimulationError(
                    f"weather data exhausted: day {day} missing sites {missing}"
                )
            out.append([row[site] for site in sites])
        return out
    per_site = {
        site: synth_weather(cfg.seed, cfg.days, site, cfg.weather.params_for(site))
        for site in sites
    }
    return [[per_site[site][day] for site in sites] for day in range(cfg.days)]


def _build_demand(
    cfg: ScenarioConfig, t: GridTopology, drivers: Drivers
) -> dict[int, np.ndarray]:
    load_ids = [load.id for load in t.loads]
    if cfg.demand.kind == "csv":
        series = load_demand_csv(cfg.demand.path)
        out = {}
        for lid in load_ids:
            if lid not in series:
                raise SimulationError(f"demand csv has no rows for load {lid}")
            if len(series[lid]) < cfg.days:
                raise SimulationError(
                    f"demand data exhausted for load {lid}: "
                    f"{len(series[lid])} days < {cfg.days}"
                )
            out[lid] = np.asarray(series[lid][: cfg.days])
        return out

    base = {
        lid: cfg.demand.base_by_load.get(lid, DEFAULT_BASE_DEMAND_MWD) for lid in load_ids
    }
    demand = synth_demand(cfg.seed, cfg.days, base, cfg.demand.params)

    frac = cfg.demand.params.gen_fraction
    if frac is not None and cfg.days > 0:
        total_gen = 0.0
        for generated in drivers.generation:
            total_gen += sum(generated.values())
        mean_gen = total_gen / cfg.days
        mean_demand = sum(float(np.mean(d)) for d in demand.values())
        if mean_demand <= 0:
            raise SimulationError("gen_fraction scaling needs positive base demand")
        scale = frac * mean_gen / mean_demand
        demand = {lid: d * scale for lid, d in demand.items()}
    return demand


def initialize_state(cfg: ScenarioConfig, topology: GridTopology) -> SimulationState:
    """Validate inputs and build the run's drivers on a copy of the grid."""
    violations = validate_topology(topology)
    if violations:
        raise SimulationError(
            "invalid topology: " + "; ".join(str(v) for v in violations)
        )
    topology = copy.deepcopy(topology)  # runs never mutate the caller's grid
    return SimulationState(cfg=cfg, topology=topology, drivers=Drivers(cfg, topology))


def run_simulation(cfg: ScenarioConfig, topology: GridTopology) -> SimulationTrace:
    """Run the configured number of days and summarize."""
    return _run(initialize_state(cfg, topology))


def _run(state: SimulationState) -> SimulationTrace:
    cfg = state.cfg
    records = [step_day(state, day) for day in range(cfg.days)]

    zero_events = {s.id: 0 for s in state.topology.systems}
    total_unmet = 0.0
    total_curtailed = 0.0
    for rec in records:
        for sid, soc in rec.soc_pct.items():
            if soc <= ZERO_SOC_EPS:
                zero_events[sid] += 1
        total_unmet += sum(rec.unmet_mwd.values())
        total_curtailed += sum(rec.curtailed_mwd.values())

    final_soh = (
        records[-1].mean_soh_pct
        if records
        else {s.id: s.mean_soh_pct for s in state.topology.systems}
    )
    summary = TraceSummary(
        zero_soc_events=zero_events,
        final_mean_soh_pct=dict(final_soh),
        total_unmet_mwd=total_unmet,
        total_curtailed_mwd=total_curtailed,
    )
    echo = _effective_config(cfg)
    return SimulationTrace(config_echo=echo, records=records, summary=summary)


def _effective_config(cfg: ScenarioConfig) -> dict:
    o = cfg.forecasting.orders
    return {
        "source_document": cfg.raw,
        "effective": {
            "days": cfg.days,
            "seed": cfg.seed,
            "priority_enabled": cfg.priority_enabled,
            "health_enabled": cfg.health_enabled,
            "orders": [o.p, o.d, o.q, o.P, o.D, o.Q, o.s],
            "refit_interval_days": cfg.forecasting.refit_interval_days,
            "train_window_days": cfg.forecasting.train_window_days,
            "r_charge": cfg.degradation.r_charge,
            "r_discharge": cfg.degradation.r_discharge,
            "rate_spread": cfg.degradation.rate_spread,
            "score_weights": {"soh": cfg.weights.soh, "soc": cfg.weights.soc},
            "initial_soc_pct": cfg.initial_soc_pct,
            "initial_soh_pct": cfg.initial_soh_pct,
        },
    }


def compare(cfg: ScenarioConfig, topology: GridTopology, axis: str) -> ComparisonReport:
    """Run toggle-on vs toggle-off on one axis with identical data.

    axis "priority" toggles grid-level dispatch; axis "health" toggles
    unit-level ranked distribution. Everything else, including the seed,
    stays identical between the two runs, which share one set of drivers.
    """
    if axis not in ("priority", "health"):
        raise ValueError(f"axis must be 'priority' or 'health', got {axis!r}")

    def arm(flag: bool) -> ScenarioConfig:
        arm_cfg = copy.copy(cfg)
        if axis == "priority":
            arm_cfg.priority_enabled = flag
        else:
            arm_cfg.health_enabled = flag
        return arm_cfg

    on = initialize_state(arm(True), topology)
    off = SimulationState(arm(False), copy.deepcopy(topology), on.drivers)
    treatment, baseline = _run(on), _run(off)

    gain = {
        sid: treatment.summary.final_mean_soh_pct[sid]
        - baseline.summary.final_mean_soh_pct[sid]
        for sid in treatment.summary.final_mean_soh_pct
    }
    return ComparisonReport(
        axis=axis,
        soh_gain_pct_points=gain,
        zero_soc_events_treatment=dict(treatment.summary.zero_soc_events),
        zero_soc_events_baseline=dict(baseline.summary.zero_soc_events),
        total_unmet_treatment_mwd=treatment.summary.total_unmet_mwd,
        total_unmet_baseline_mwd=baseline.summary.total_unmet_mwd,
        treatment=treatment,
        baseline=baseline,
    )


# ---------------------------------------------------------------------------
# Serialization. Whole files are written atomically (temp file + rename) with
# fixed float formatting so identical runs produce byte-identical artifacts.

TRACE_HEADER = "day,system_id,soc_pct,mean_soh_pct,charge_in_mwd,discharge_out_mwd"
SUMMARY_HEADER = (
    "system_id,zero_soc_events,final_mean_soh_pct,total_unmet_mwd,total_curtailed_mwd"
)
COMPARISON_HEADER = (
    "system_id,soh_gain_pct_points,zero_soc_events_treatment,zero_soc_events_baseline,"
    "total_unmet_treatment_mwd,total_unmet_baseline_mwd"
)
SERIES_HEADER = (
    "day,system_id,soc_pct_treatment,soc_pct_baseline,"
    "mean_soh_pct_treatment,mean_soh_pct_baseline"
)


def atomic_write_text(path, text: str) -> None:
    """Write the whole file or nothing: temp file in place, then rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _f(x: float) -> str:
    return f"{x:.6f}"


def trace_csv(trace: SimulationTrace) -> str:
    lines = [TRACE_HEADER]
    for rec in trace.records:
        for sid in sorted(rec.soc_pct):
            lines.append(
                f"{rec.day},{sid},{_f(rec.soc_pct[sid])},{_f(rec.mean_soh_pct[sid])},"
                f"{_f(rec.charge_in_mwd[sid])},{_f(rec.discharge_out_mwd[sid])}"
            )
    return "\n".join(lines) + "\n"


def summary_csv(trace: SimulationTrace) -> str:
    s = trace.summary
    lines = [SUMMARY_HEADER]
    for sid in sorted(s.final_mean_soh_pct):
        lines.append(
            f"{sid},{s.zero_soc_events[sid]},{_f(s.final_mean_soh_pct[sid])},"
            f"{_f(s.total_unmet_mwd)},{_f(s.total_curtailed_mwd)}"
        )
    return "\n".join(lines) + "\n"


def comparison_csv(report: ComparisonReport) -> str:
    lines = [COMPARISON_HEADER]
    for sid in sorted(report.soh_gain_pct_points):
        lines.append(
            f"{sid},{_f(report.soh_gain_pct_points[sid])},"
            f"{report.zero_soc_events_treatment[sid]},"
            f"{report.zero_soc_events_baseline[sid]},"
            f"{_f(report.total_unmet_treatment_mwd)},"
            f"{_f(report.total_unmet_baseline_mwd)}"
        )
    return "\n".join(lines) + "\n"


def comparison_series_csv(report: ComparisonReport) -> str:
    lines = [SERIES_HEADER]
    for rec_t, rec_b in zip(report.treatment.records, report.baseline.records):
        for sid in sorted(rec_t.soc_pct):
            lines.append(
                f"{rec_t.day},{sid},{_f(rec_t.soc_pct[sid])},{_f(rec_b.soc_pct[sid])},"
                f"{_f(rec_t.mean_soh_pct[sid])},{_f(rec_b.mean_soh_pct[sid])}"
            )
    return "\n".join(lines) + "\n"
