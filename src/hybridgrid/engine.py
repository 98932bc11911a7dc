"""Daily-tick simulation engine and A/B comparison runner.

A SimulationState is one run, or several in lockstep: one config and one
topology, and per arm only its (priority_enabled, health_enabled) pair.
Weather, per-source generation, realized demand, the day-ahead demand
forecasts and each system's charge target do not depend on policy, so the
state builds them once, from the config, for all its arms (SimulationState
says which at set-up). Weather is a pair of arrays per site; generation,
demand, forecasts and targets are each one [days, width] array, so none
holds per-day objects; step_day takes each day's row as floats.
One health.GridUnits holds every arm's units as arm-major rows (row b * S + i
is system i of arm b), and step_day makes one charge call and one discharge
call for the whole batch. run_simulation is
the one-arm case; compare() runs two arms. Each day dispatches charging per
arm at the grid level (priority or equal, on the topology's Wiring index
lists, one flow per wired edge, with each system's inflow summed), spreads
that inflow over its units (health-ranked or equal, row by row), then settles realized demand:
one dispatch.settle_loads call per arm settles its loads in ascending id on
running system totals, each load seeing storage as the previous load of its
arm left it, and one discharge takes every arm's totals from the units. The
dispatch functions are called by name, once per arm and day, so a tracer
that rebinds those names in this module sees every call. The topology is
only read.
step_day writes one row of the state's [days, arms x width] arrays a day; a
SimulationTrace is one arm's columns of them, and summaries add them in
day-then-column order.

Runs are deterministic: a config and seed reproduce byte-identical traces.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import asdict, astuple, dataclass, replace
from functools import cached_property
from itertools import repeat
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dispatch import (
    allocate_equal,
    allocate_priority,
    charge_deficits,
    charge_targets,
    prioritize,
    settle_loads,
)
from .forecast import (
    WeatherSample,
    fit_sarima_many,
    forecast_many,
    load_demand_csv,
    load_weather_csv,
)
from .generation import solar_power, wind_power
from .health import GridUnits
from .model import GridTopology, total, validate_topology
from .scenario import ScenarioConfig
from .synth import synth_demand, synth_weather

# A system counts as hitting zero SoC when its end-of-day charge percentage
# is below this threshold (absorbs float dust from a full drain).
ZERO_SOC_EPS = 1e-9

DEFAULT_BASE_DEMAND_MWD = 100.0


class SimulationError(RuntimeError):
    """Raised when a run cannot proceed (e.g. its CSV data is exhausted)."""


# Each per-day trace field and the topology list its columns follow.
TRACE_FIELDS = {**dict.fromkeys(["soc_pct", "mean_soh_pct", "charge_in_mwd", "discharge_out_mwd"],
                                "systems"),
                "served_mwd": "loads", "unmet_mwd": "loads", "curtailed_mwd": "sources"}


@dataclass
class DailyRecord:
    """End-of-day snapshot of one simulated day, as dicts keyed by id."""

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


@dataclass(eq=False)
class SimulationTrace:
    """One arm's run as [days, width] arrays, a row per day, columns in ascending
    id: system_ids, load_ids or source_ids (TRACE_FIELDS); generated_mwd is the
    state's [days, sources] generation."""

    config_echo: dict
    summary: TraceSummary
    system_ids: list[int]
    load_ids: list[int]
    source_ids: list[int]
    generated_mwd: np.ndarray
    soc_pct: np.ndarray
    mean_soh_pct: np.ndarray
    charge_in_mwd: np.ndarray
    discharge_out_mwd: np.ndarray
    served_mwd: np.ndarray
    unmet_mwd: np.ndarray
    curtailed_mwd: np.ndarray

    @cached_property
    def records(self) -> list[DailyRecord]:
        """The arrays as one DailyRecord per day, built on first read; only the
        benchmark's checks (bench/checks.py, bench/selftest.py) read it."""
        ids = {"systems": self.system_ids, "loads": self.load_ids, "sources": self.source_ids}
        daily = {f: [dict(zip(ids[of], row)) for row in getattr(self, f).tolist()]
                 for f, of in {**TRACE_FIELDS, "generated_mwd": "sources"}.items()}
        return [DailyRecord(day, **{f: rows[day] for f, rows in daily.items()})
                for day in range(len(self.generated_mwd))]


@dataclass
class ComparisonReport:
    """Treatment-vs-baseline outcome summary; positive SoH gain favors treatment."""

    axis: str
    soh_gain_pct_points: dict[int, float]
    treatment: SimulationTrace
    baseline: SimulationTrace


class SimulationState:
    """One or more runs in lockstep: one config, a (priority_enabled,
    health_enabled) pair per arm (by default the config's own), the
    policy-independent inputs the arms share, and units with the arms
    stacked as arm-major rows.

    Set-up builds each site's weather as (ghi, wind speed) arrays, generation
    and demand as [days, sources] and [days, loads] arrays, the units, each
    arm's slice of unit rows with a per-row ranked flag (arm_rows), and the
    TRACE_FIELDS arrays step_day writes a full row of a day, [days, arms x
    width] with arm-major columns (rows). Only the forecasts and charge
    targets wait for first use, so a run whose dispatch never reads targets
    (the equal split) never fits a model. weather_by_day and demand_by_load
    are views that only the benchmark's checks read.
    """

    def __init__(self, cfg: ScenarioConfig, topology: GridTopology,
                 arms: list[tuple[bool, bool]] | None = None) -> None:
        violations = validate_topology(topology)
        if violations:
            raise ValueError("invalid topology: " + "; ".join(str(v) for v in violations))
        self.cfg = cfg
        self.arms = [(cfg.priority_enabled, cfg.health_enabled)] if arms is None else arms
        self.topology = topology
        self.units = GridUnits(topology.systems * len(self.arms))
        self.weather = _build_weather(cfg, topology)
        self.generation = _build_generation(cfg.days, topology, self.weather)
        self.demand = _build_demand(cfg, topology, self.generation)
        n, flags = len(topology.systems), [health for _, health in self.arms]
        self.arm_rows = [slice(b * n, (b + 1) * n) for b in range(len(flags))], np.repeat(flags, n)
        self.rows = {f: np.empty((cfg.days, len(self.arms) * len(getattr(topology, of))))
                     for f, of in TRACE_FIELDS.items()}

    @cached_property
    def weather_by_day(self) -> list[list[WeatherSample]]:
        """W[day]: each day's samples in sorted-site order, built from the
        arrays on first read; only the benchmark's checks read it."""
        per_site = [map(WeatherSample, repeat(site), range(self.cfg.days),
                        ghi.tolist(), wind.tolist())
                    for site, (ghi, wind) in self.weather.items()]
        return [list(day) for day in zip(*per_site)] or [[] for _ in range(self.cfg.days)]

    @cached_property
    def forecasts(self) -> np.ndarray:
        """F[day, j]: the demand forecast dispatch sees for the topology's j-th
        load, from the realized demand before the day: 0.0 on day 0, then the
        previous day's demand, from day s forecast.seasonal_naive (demand s
        days back), and from the end of warm-up the one-step forecast of a
        SARIMA model refit every refit_interval_days on the trailing window,
        each day of the model's block evaluated on the K days before it.

        One forecast_many call evaluates every block: per load, the days each
        block's tails read are one row of a copy (the last block's padded with
        the run's last day), so day t of every block reads its K-day tail at
        one offset and meets all the models at once; padded days are cut."""
        days, fc = self.cfg.days, self.cfg.forecasting
        o, every = fc.orders, fc.refit_interval_days
        warmup = max(30, o.min_series_length())
        y = self.demand
        out = np.zeros_like(y)
        out[1:] = y[:-1]
        out[o.s :] = y[: -o.s]
        fit_days = range(warmup, days, every)
        windows = [d[max(0, day - fc.train_window_days) : day] for d in y.T for day in fit_days]
        models = fit_sarima_many(windows, o)  # model j * blocks + b: load j, block b
        if models:  # a window holds more than K days, so warmup > K
            K, n, blocks = o.K, min(every, days - warmup), len(fit_days)
            read = warmup - K + n * np.arange(blocks)[:, None] + np.arange(n + K - 1)
            spans = y.T[:, np.minimum(read, days - 1)].reshape(len(models), -1)
            tails = sliding_window_view(spans, K, axis=1).transpose(1, 0, 2)  # [n, models, K]
            by_block = forecast_many(models, tails).reshape(n, -1, blocks).transpose(2, 0, 1)
            out[warmup:] = by_block.reshape(blocks * n, -1)[: days - warmup]
        return out

    @cached_property
    def targets(self) -> np.ndarray:
        """T[day, i]: the charge targets of the day's forecasts, the stored MWd
        priority dispatch charges toward."""
        return charge_targets(self.topology, self.forecasts)

    @cached_property
    def demand_by_load(self) -> dict[int, np.ndarray]:
        """Each load's column of demand by id, built on first read; only the
        benchmark's checks (bench/run.py, bench/selftest.py) read it."""
        return {load.id: self.demand[:, j] for j, load in enumerate(self.topology.loads)}


def step_day(state: SimulationState, day: int) -> None:
    """Advance every arm of the state by one day, writing row day of state.rows."""
    t, units, (runs, ranked), out = state.topology, state.units, state.arm_rows, state.rows
    w, energy = t.wiring, state.generation[day].tolist()

    # 1. Grid-level dispatch per arm; only the priority policy reads forecasts.
    headroom, stored = units.headroom.tolist(), units.stored.tolist()
    target = state.targets[day].tolist() if any(p for p, _ in state.arms) else None
    charge_in, curtailed = [], []
    for (priority, _), rows in zip(state.arms, runs):
        if priority:
            deficit = charge_deficits(target, stored[rows])
            order = prioritize(deficit)
            _, curt, into = allocate_priority(w, order, deficit, headroom[rows], energy)
        else:
            _, curt, into = allocate_equal(w, headroom[rows], energy)
        charge_in += into
        curtailed += curt
    out["charge_in_mwd"][day] = charge_in
    out["curtailed_mwd"][day] = curtailed

    # 2. Intra-system distribution with charge wear, every arm in one call.
    units.charge(out["charge_in_mwd"][day], ranked, state.cfg.weights.soh, state.cfg.weights.soc)

    # 3. Each arm settles its loads with dispatch.settle_loads on running
    #    system totals. One discharge then takes every arm's totals. That
    #    equals the per-load draws in sequence: draws d1 then d2 take
    #    min(e_i, l1 + l2) from unit i, as one draw of d1 + d2 does, and wear
    #    is linear in the amount drawn.
    stored, demand = units.stored.tolist(), state.demand[day].tolist()
    served, unmet, drawn = [], [], []
    for rows in runs:
        arm_served, arm_unmet, took = settle_loads(w.load_rows, demand, stored[rows])
        served += arm_served
        unmet += arm_unmet
        drawn += took
    out["discharge_out_mwd"][day] = drawn
    units.discharge(out["discharge_out_mwd"][day])
    out["served_mwd"][day] = served
    out["unmet_mwd"][day] = unmet
    out["soc_pct"][day] = units.soc_pct
    out["mean_soh_pct"][day] = units.mean_soh_pct


def _build_weather(cfg: ScenarioConfig,
                   t: GridTopology) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Each site a source names, in sorted order: its (ghi, wind speed) arrays,
    one value a day."""
    sites = sorted({src.site for src in t.sources})
    if cfg.weather.path is not None:
        by_site = load_weather_csv(cfg.weather.path)
        series = {site: by_site.get(site, (np.empty(0), np.empty(0))) for site in sites}
        # A site's arrays end the day before its first missing day.
        day = min([len(ghi) for ghi, _ in series.values()], default=cfg.days)
        if day < cfg.days:
            missing = [site for site, (ghi, _) in series.items() if len(ghi) == day]
            raise SimulationError(f"weather data exhausted: day {day} missing sites {missing}")
        return {site: (ghi[: cfg.days], wind[: cfg.days]) for site, (ghi, wind) in series.items()}
    return {site: synth_weather(cfg.seed, cfg.days, site, cfg.weather.params_for(site))
            for site in sites}


def _build_generation(days: int, t: GridTopology,
                      weather: dict[str, tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """G[day, k]: the MWd the topology's k-th source makes on each day, one
    power-curve call per source over its site's series; the provider series
    doubles as the day-ahead forecast. A constant MW output over the
    one-day tick is the same number in MWd."""
    out = np.empty((days, len(t.sources)))
    for k, src in enumerate(t.sources):
        ghi, wind = weather[src.site]
        mw = solar_power(ghi, src.params) if src.kind == "solar" else wind_power(wind, src.params)
        if not np.isfinite(mw).all():
            raise ValueError(f"source {src.id}: generation is not finite")
        out[:, k] = mw
    return out


def _build_demand(cfg: ScenarioConfig, t: GridTopology, generation: np.ndarray) -> np.ndarray:
    """D[day, j]: the topology's j-th load's realized demand on each day, the
    transpose of a [loads, days] block, so each load's column is contiguous."""
    load_ids = [load.id for load in t.loads]
    if cfg.demand.path is not None:
        series = load_demand_csv(cfg.demand.path)
        block = np.empty((len(load_ids), cfg.days))
        for row, lid in zip(block, load_ids):
            if lid not in series:
                raise SimulationError(f"demand csv has no rows for load {lid}")
            if len(series[lid]) < cfg.days:
                raise SimulationError(f"demand data exhausted for load {lid}: "
                                      f"{len(series[lid])} days < {cfg.days}")
            row[:] = series[lid][: cfg.days]
        return block.T

    base = {lid: cfg.demand.base_by_load.get(lid, DEFAULT_BASE_DEMAND_MWD) for lid in load_ids}
    with np.errstate(over="ignore", invalid="ignore"):
        demand = synth_demand(cfg.seed, cfg.days, base, cfg.demand.params)
        block = np.reshape(list(demand.values()), (len(load_ids), cfg.days))
        total = _run_total(np.sum(block, axis=1)[None])  # the load totals, left to right
    if not np.isfinite(total):
        raise ValueError("loads: synthetic demand summed over loads and days is not finite")

    frac = cfg.demand.params.gen_fraction
    if frac is not None and cfg.days > 0:
        mean_gen = _run_total(generation) / cfg.days
        mean_demand = _run_total(np.mean(block, axis=1)[None])
        if mean_demand <= 0:
            raise SimulationError("gen_fraction scaling needs positive base demand")
        scale = frac * mean_gen / mean_demand
        with np.errstate(over="ignore", invalid="ignore"):
            block = block * scale
        if not np.isfinite(block).all():
            raise ValueError(f"loads.gen_fraction: demand scaled to {frac:g} of mean generation "
                             "is not finite")
    return block.T


def initialize_state(cfg: ScenarioConfig, topology: GridTopology) -> SimulationState:
    """Validate inputs and build one run's inputs and unit state."""
    return SimulationState(cfg, topology)


def run_simulation(cfg: ScenarioConfig, topology: GridTopology) -> SimulationTrace:
    """Run the configured number of days and summarize."""
    (trace,) = _run(initialize_state(cfg, topology))
    return trace


def _run(state: SimulationState) -> list[SimulationTrace]:
    """Run every arm of the state to the end in lockstep; one trace per arm."""
    cfg, t, n_arms = state.cfg, state.topology, len(state.arms)
    for day in range(cfg.days):
        step_day(state, day)
    ids, load_ids, source_ids = ([e.id for e in of] for of in (t.systems, t.loads, t.sources))
    final_soh = state.units.mean_soh_pct.tolist()
    traces = []
    for b, (priority, health) in enumerate(state.arms):
        arm = {f: a[:, b * a.shape[1] // n_arms : (b + 1) * a.shape[1] // n_arms]
               for f, a in state.rows.items()}
        zero_soc = np.count_nonzero(arm["soc_pct"] <= ZERO_SOC_EPS, axis=0).tolist()
        soh = dict(zip(ids, final_soh[b * len(ids) : (b + 1) * len(ids)]))
        summary = TraceSummary(dict(zip(ids, zero_soc)), soh, _run_total(arm["unmet_mwd"]),
                               _run_total(arm["curtailed_mwd"]))
        echo = _effective_config(replace(cfg, priority_enabled=priority, health_enabled=health))
        traces.append(SimulationTrace(echo, summary, ids, load_ids, source_ids, state.generation,
                                      **arm))
    return traces


def _run_total(a: np.ndarray) -> float:
    """Every value of a [days, width] array, added as the per-day loops did:
    each day's row left to right, then the day totals in order from 0.0."""
    return 0.0 + float(total(total(a)))


def _effective_config(cfg: ScenarioConfig) -> dict:
    return {"source_document": cfg.raw, "effective": {
        "days": cfg.days, "seed": cfg.seed,
        "priority_enabled": cfg.priority_enabled, "health_enabled": cfg.health_enabled,
        **asdict(cfg.forecasting), "orders": list(astuple(cfg.forecasting.orders)),
        **asdict(cfg.degradation), "score_weights": asdict(cfg.weights),
        "initial_soc_pct": cfg.initial_soc_pct, "initial_soh_pct": cfg.initial_soh_pct,
    }}


def compare(cfg: ScenarioConfig, topology: GridTopology, axis: str) -> ComparisonReport:
    """Run toggle-on vs toggle-off on one axis with identical data.

    axis "priority" toggles grid-level dispatch; axis "health" toggles
    unit-level ranked distribution. Everything else, including the seed,
    stays identical between the two arms, which run in lockstep on one
    SimulationState and so share its weather, demand and forecasts.
    """
    if axis not in ("priority", "health"):
        raise ValueError(f"axis must be 'priority' or 'health', got {axis!r}")

    arms = [(flag, cfg.health_enabled) if axis == "priority" else (cfg.priority_enabled, flag)
            for flag in (True, False)]
    treatment, baseline = _run(SimulationState(cfg, topology, arms))

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


def _table(header: str, fmt: str, rows) -> str:
    """The header, then fmt % row for each row: every artifact's one text form,
    with floats as %.6f and ids and counts as %d."""
    return "\n".join([header, *(fmt % tuple(row) for row in rows)]) + "\n"


def _per_system_csv(header: str, ids: list[int], *arrays: np.ndarray) -> str:
    """The header, then per day and system: day, id and four values. One row
    writes a day, the ids in its format and the day a float for %d."""
    fmt, (days, width) = "\n".join(f"%d,{i},%.6f,%.6f,%.6f,%.6f" for i in ids), arrays[0].shape
    cols = np.stack([np.broadcast_to(np.arange(days)[:, None], (days, width)), *arrays], axis=2)
    return _table(header, fmt, cols.reshape(days, 5 * width).tolist() if ids else [])


def trace_csv(trace: SimulationTrace) -> str:
    return _per_system_csv(TRACE_HEADER, trace.system_ids, trace.soc_pct, trace.mean_soh_pct,
                           trace.charge_in_mwd, trace.discharge_out_mwd)


def summary_csv(trace: SimulationTrace) -> str:
    s = trace.summary
    return _table(SUMMARY_HEADER, "%d,%d,%.6f,%.6f,%.6f", (
        (sid, s.zero_soc_events[sid], s.final_mean_soh_pct[sid], s.total_unmet_mwd,
         s.total_curtailed_mwd) for sid in trace.system_ids))


def comparison_csv(report: ComparisonReport) -> str:
    on, off = report.treatment.summary, report.baseline.summary
    return _table(COMPARISON_HEADER, "%d,%.6f,%d,%d,%.6f,%.6f", (
        (sid, gain, on.zero_soc_events[sid], off.zero_soc_events[sid], on.total_unmet_mwd,
         off.total_unmet_mwd) for sid, gain in report.soh_gain_pct_points.items()))


def comparison_series_csv(report: ComparisonReport) -> str:
    on, off = report.treatment, report.baseline
    return _per_system_csv(SERIES_HEADER, on.system_ids, on.soc_pct, off.soc_pct,
                           on.mean_soh_pct, off.mean_soh_pct)
