"""Daily-tick simulation engine and A/B comparison runner.

A SimulationState is one run, or several in lockstep: one config per arm
(arms differ only in their policy toggles) over one topology. Weather,
per-source generation, realized demand, the day-ahead demand forecasts and
each system's charge want do not depend on policy, so the state builds them
once for all its arms (forecasts and wants on first use, with every SARIMA
fit of the run in one fit_sarima_many batch). One health.GridUnits holds
every arm's units as arm-major rows (row b * S + i is system i of arm b),
and step_day makes one charge call and one discharge call for the whole
batch. run_simulation is the one-arm case; compare() runs two arms. Each day
dispatches charging per arm at the grid level (priority or equal, on the
topology's Wiring index lists), distributes each system's inflow across its
units (health-ranked or equal, row by row), then settles realized demand:
each arm settles its loads in ascending id on running system totals, each
load seeing storage as the previous load of its arm left it, and the
discharge takes every arm's totals from the units. The topology is only read.

Runs are deterministic: a config and seed reproduce byte-identical traces.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .dispatch import (
    allocate_equal,
    allocate_priority,
    charge_deficits,
    charge_wants,
    discharge_shares,
    prioritize,
)
from .forecast import (
    WeatherSample,
    fit_sarima_many,
    forecast_one,
    load_demand_csv,
    load_weather_csv,
    predict_generation,
    seasonal_naive,
)
from .health import GridUnits
from .model import GridTopology, validate_topology
from .scenario import ScenarioConfig
from .synth import synth_demand, synth_weather

# A system counts as hitting zero SoC when its end-of-day charge percentage
# is below this threshold (absorbs float dust from a full drain).
ZERO_SOC_EPS = 1e-9

DEFAULT_BASE_DEMAND_MWD = 100.0


class SimulationError(RuntimeError):
    """Raised when a run cannot proceed (e.g. its CSV data is exhausted)."""


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
    treatment: SimulationTrace
    baseline: SimulationTrace


def _warmup_forecast(demand: list[float], day: int, s: int) -> float:
    """Seasonal-naive once a season of history exists, else the last value."""
    if day >= s:
        return max(0.0, seasonal_naive(demand[day - s : day], s))
    return demand[day - 1] if day else 0.0


class SimulationState:
    """One or more runs in lockstep: one config per arm (arms differ only in
    their policy toggles), the policy-independent inputs they share, and
    units with the arms stacked as arm-major rows.

    Generation, forecasts and wants are computed on first use, so a run
    whose dispatch never reads forecasts (the equal split) never fits a model.
    """

    def __init__(self, arms: list[ScenarioConfig], topology: GridTopology) -> None:
        violations = validate_topology(topology)
        if violations:
            raise ValueError("invalid topology: " + "; ".join(str(v) for v in violations))
        self.arms = arms
        self.topology = topology
        self.units = GridUnits(topology.systems * len(arms))
        self.weather_by_day = _build_weather(arms[0], topology)
        self.demand_by_load = _build_demand(arms[0], topology, self)

    @cached_property
    def generation(self) -> list[dict[int, float]]:
        """G[day][source] in MWd; the provider series doubles as the day-ahead forecast."""
        return [predict_generation(samples, self.topology.sources) for samples in self.weather_by_day]

    @cached_property
    def forecasts(self) -> dict[int, list[float]]:
        """F[load][day]: the demand forecast dispatch sees on each day, from the
        realized demand before it. A load sees its last value, then
        seasonal-naive during warm-up, then a SARIMA model refit every
        refit_interval_days on the trailing window, its one-step forecast
        standing until the next refit. All fits of the run are one batch."""
        days, fc = self.arms[0].days, self.arms[0].forecasting
        o = fc.orders
        warmup = max(3 * o.s, 30, o.min_series_length())
        fit_days = range(warmup, days, fc.refit_interval_days)
        windows = [
            series[max(0, day - fc.train_window_days) : day]
            for series in self.demand_by_load.values()
            for day in fit_days
        ]
        models = iter(fit_sarima_many(windows, o))
        out = {}
        for lid, series in self.demand_by_load.items():
            d = series.tolist()
            standing = [forecast_one(next(models)) for _ in fit_days]
            out[lid] = [
                _warmup_forecast(d, day, o.s)
                if day < warmup
                else standing[(day - warmup) // fc.refit_interval_days]
                for day in range(days)
            ]
        return out

    @cached_property
    def wants(self) -> np.ndarray:
        """W[day, system]: charge_wants over each day's forecasts."""
        want = charge_wants(self.topology, self.forecasts)
        return np.broadcast_to(want, (self.arms[0].days, len(self.topology.systems)))


def step_day(state: SimulationState, day: int) -> list[DailyRecord]:
    """Advance every run of the state by one day; one record per run."""
    t, units = state.topology, state.units
    w, ids = t.wiring, units.ids[: len(t.systems)]
    runs = [slice(b * len(ids), (b + 1) * len(ids)) for b in range(len(state.arms))]
    generated = state.generation[day]
    energy = [generated[src.id] for src in w.sources]

    # 1. Grid-level dispatch per run; only the priority policy reads forecasts.
    #    A system's inflow adds its sources' gifts in ascending source id.
    headroom = units.headroom.tolist()
    charge_in, curtailed = [], []
    for cfg, rows in zip(state.arms, runs):
        if cfg.priority_enabled:
            deficit = charge_deficits(
                units.capacity[rows], state.wants[day], units.stored[rows]
            ).tolist()
            order = prioritize(deficit, ids)
            flow, curt = allocate_priority(w, order, deficit, headroom[rows], energy)
        else:
            flow, curt = allocate_equal(w, headroom[rows], energy)
        inflow = [0.0] * len(ids)
        for gifts in flow:
            inflow = [a + b for a, b in zip(inflow, gifts)]
        charge_in += inflow
        curtailed.append(dict.fromkeys(generated, 0.0))  # in the topology's source order
        curtailed[-1].update((src.id, c) for src, c in zip(w.sources, curt))

    # 2. Intra-system distribution with charge wear, every run in one call.
    ranked = np.repeat([cfg.health_enabled for cfg in state.arms], len(ids))
    units.charge(charge_in, ranked, state.arms[0].weights.soh, state.arms[0].weights.soc)

    # 3. Each run settles its loads in ascending id on running system totals,
    #    each load seeing storage as the previous load of its run left it.
    #    One discharge then takes every run's totals. That equals the per-load
    #    draws in sequence: draws d1 then d2 take min(e_i, l1 + l2) from unit
    #    i, as one draw of d1 + d2 does, and wear is linear in the amount drawn.
    stored = units.stored.tolist()
    demand = [float(state.demand_by_load[lid][day]) for lid in w.load_ids]
    discharge_out, served, unmet = [], [{} for _ in runs], [{} for _ in runs]
    for rows, srv, short in zip(runs, served, unmet):
        left, out = stored[rows], [0.0] * len(ids)
        for lid, d, at in zip(w.load_ids, demand, w.load_rows):
            give, srv[lid] = discharge_shares(d, [left[i] for i in at])
            short[lid] = max(0.0, d - srv[lid])
            for i, amount in zip(at, give):
                left[i] -= amount
                out[i] += amount
        discharge_out += out
    units.discharge(discharge_out)

    soc, soh = units.soc_pct.tolist(), units.mean_soh_pct.tolist()
    return [
        DailyRecord(
            day=day,
            soc_pct=dict(zip(ids, soc[rows])),
            mean_soh_pct=dict(zip(ids, soh[rows])),
            charge_in_mwd=dict(zip(ids, charge_in[rows])),
            discharge_out_mwd=dict(zip(ids, discharge_out[rows])),
            served_mwd=served[b],
            unmet_mwd=unmet[b],
            generated_mwd=generated,
            curtailed_mwd=curtailed[b],
        )
        for b, rows in enumerate(runs)
    ]


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
    cfg: ScenarioConfig, t: GridTopology, state: SimulationState
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
    with np.errstate(over="ignore", invalid="ignore"):
        demand = synth_demand(cfg.seed, cfg.days, base, cfg.demand.params)
        total = sum(float(np.sum(d)) for d in demand.values())
    if not np.isfinite(total):
        raise ValueError("loads: synthetic demand summed over loads and days is not finite")

    frac = cfg.demand.params.gen_fraction
    if frac is not None and cfg.days > 0:
        total_gen = 0.0
        for generated in state.generation:
            total_gen += sum(generated.values())
        mean_gen = total_gen / cfg.days
        mean_demand = sum(float(np.mean(d)) for d in demand.values())
        if mean_demand <= 0:
            raise SimulationError("gen_fraction scaling needs positive base demand")
        scale = frac * mean_gen / mean_demand
        demand = {lid: d * scale for lid, d in demand.items()}
    return demand


def initialize_state(cfg: ScenarioConfig, topology: GridTopology) -> SimulationState:
    """Validate inputs and build one run's inputs and unit state."""
    return SimulationState([cfg], topology)


def run_simulation(cfg: ScenarioConfig, topology: GridTopology) -> SimulationTrace:
    """Run the configured number of days and summarize."""
    (trace,) = _run(initialize_state(cfg, topology))
    return trace


def _run(state: SimulationState) -> list[SimulationTrace]:
    """Run every arm of the state to the end in lockstep; one trace per arm."""
    days = [step_day(state, day) for day in range(state.arms[0].days)]
    ids = [s.id for s in state.topology.systems]
    final_soh = state.units.mean_soh_pct.tolist()
    traces = []
    for b, cfg in enumerate(state.arms):
        records = [arms[b] for arms in days]
        total_unmet = 0.0
        total_curtailed = 0.0
        for rec in records:
            total_unmet += sum(rec.unmet_mwd.values())
            total_curtailed += sum(rec.curtailed_mwd.values())
        summary = TraceSummary(
            zero_soc_events={
                sid: sum(rec.soc_pct[sid] <= ZERO_SOC_EPS for rec in records) for sid in ids
            },
            final_mean_soh_pct=dict(zip(ids, final_soh[b * len(ids) : (b + 1) * len(ids)])),
            total_unmet_mwd=total_unmet,
            total_curtailed_mwd=total_curtailed,
        )
        traces.append(SimulationTrace(_effective_config(cfg), records, summary))
    return traces


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
    stays identical between the two arms, which run in lockstep on one
    SimulationState and so share its weather, demand and forecasts.
    """
    if axis not in ("priority", "health"):
        raise ValueError(f"axis must be 'priority' or 'health', got {axis!r}")

    arms = [replace(cfg, **{f"{axis}_enabled": flag}) for flag in (True, False)]
    treatment, baseline = _run(SimulationState(arms, topology))

    final_t, final_b = treatment.summary.final_mean_soh_pct, baseline.summary.final_mean_soh_pct
    gain = {sid: final_t[sid] - final_b[sid] for sid in final_t}
    return ComparisonReport(axis, gain, treatment, baseline)


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
    on, off = report.treatment.summary, report.baseline.summary
    lines = [COMPARISON_HEADER]
    for sid in sorted(report.soh_gain_pct_points):
        lines.append(
            f"{sid},{_f(report.soh_gain_pct_points[sid])},"
            f"{on.zero_soc_events[sid]},{off.zero_soc_events[sid]},"
            f"{_f(on.total_unmet_mwd)},{_f(off.total_unmet_mwd)}"
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
