"""Metamorphic relations: runs of the package against runs of itself, under a
change of inputs whose effect on the run is known exactly.

The oracle tests restate each rule in plain Python, so a fault that the
restatement shares passes them: a tolerance in absolute MWd, a day that reads
a later day's input, a rule that looks past its own part of the grid. These
relations need no restatement:

- Scale: with every capacity, stored energy, generation, demand and forecast
  multiplied by 2^k, SoC and SoH are bit-identical and every MWd flow is
  exactly 2^k times its old value.
- Disjoint union: a grid of two parts with disjoint ids, each with its own
  inputs as a block of columns, gives each part its lone run, bit for bit;
  the parts are id-shifted copies of one grid, or two different grids.
- Prefix causality: the first M days of a run, forecasts included, equal an
  M-day run on the first M days of its inputs.

Arrays are compared by their raw bytes, so -0.0 and 0.0 differ.
"""

from dataclasses import replace
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_engine import DIFFERENCED_DOC
from test_oracle import DAY_MWD, run_state, run_topology, runs

from hybridgrid import SimulationState, StorageSystem
from hybridgrid.engine import TRACE_FIELDS, _run
from hybridgrid.scenario import load_scenario, parse_scenario

# Every trace array: the TRACE_FIELDS and the generation each arm carries.
FIELDS = {**TRACE_FIELDS, "generated_mwd": "sources"}
MWD_FIELDS = [f for f in FIELDS if f.endswith("_mwd")]
# Both axes' arms, stacked in one state: every (priority, health) pair.
FLAG_PAIRS = [(True, True), (True, False), (False, True), (False, False)]
# The shipped grids, and a run whose forecasts difference demand and refit
# on another schedule.
SCENARIOS = {"reference": lambda: load_scenario("scenarios/reference.json"),
             "stress": lambda: load_scenario("scenarios/stress.json"),
             "differenced": lambda: parse_scenario(DIFFERENCED_DOC)}


def bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=float).tobytes()


def scaled_systems(systems, f):
    return [StorageSystem(s.id, s.cap * f, s.energy * f, s.soh, s.r_charge, s.r_discharge)
            for s in systems]


@cache
def scenario_run(name):
    """The scenario's state with FLAG_PAIRS stacked, and its traces. The
    state keeps its inputs, forecasts included, after the run."""
    cfg, topo = SCENARIOS[name]()
    state = SimulationState(cfg, topo, FLAG_PAIRS)
    return cfg, topo, state, _run(state)


def check_scaled(base, scaled, f):
    assert len(base) == len(scaled)
    for b, s in zip(base, scaled):
        for field in ("soc_pct", "mean_soh_pct"):
            assert bits(getattr(s, field)) == bits(getattr(b, field)), field
        for field in MWD_FIELDS:
            assert bits(getattr(s, field)) == bits(getattr(b, field) * f), field
        assert s.summary.final_mean_soh_pct == b.summary.final_mean_soh_pct
        assert s.summary.zero_soc_events == b.summary.zero_soc_events


@pytest.mark.parametrize("name", ["reference", "stress"])
@settings(deadline=None, max_examples=2)
@example(k=30)
@example(k=-30)
@given(k=st.integers(-30, 30))
def test_scenarios_scaled_by_a_power_of_two_scale_every_flow_exactly(name, k):
    cfg, topo, base, traces = scenario_run(name)
    f = 2.0**k
    state = SimulationState(cfg, replace(topo, systems=scaled_systems(topo.systems, f)),
                            FLAG_PAIRS)
    state.generation, state.demand, state.forecasts = (
        a * f for a in (base.generation, base.demand, base.forecasts))
    check_scaled(traces, _run(state), f)


def scaled(state, f):
    for attr in ("generation", "demand", "targets"):
        setattr(state, attr, getattr(state, attr) * f)
    return state


# 2^k of a value near the bottom of the float range is subnormal and loses
# bits, so the relation holds only for unit values clear of it: values
# below TINY are set to 0.0.
TINY = 2.0**-200


def clear_of_subnormals(s):
    return StorageSystem(s.id, s.cap, *(np.where(a < TINY, 0.0, a)
                                         for a in (s.energy, s.soh, s.r_charge, s.r_discharge)))


@settings(deadline=None, max_examples=40)
@given(run=runs(), k=st.integers(-30, 30))
def test_runs_scaled_by_a_power_of_two_scale_every_flow_exactly(run, k):
    systems, sources, loads, per_day, arms, weights = run
    systems = [clear_of_subnormals(s) for s in systems]
    f = 2.0**k
    base = _run(run_state(run_topology(systems, sources, loads), per_day, arms, weights))
    topo = run_topology(scaled_systems(systems, f), sources, loads)
    check_scaled(base, _run(scaled(run_state(topo, per_day, arms, weights), f)), f)


SHIFT = 100  # runs() draws ids in [0, 20]


def shifted(systems, sources, loads):
    """A runs() grid with every system, source and load id moved up by SHIFT."""
    systems = [StorageSystem(s.id + SHIFT, s.cap, s.energy, s.soh, s.r_charge, s.r_discharge)
               for s in systems]
    sources, loads = ({key + SHIFT: [sid + SHIFT for sid in conn] for key, conn in wired.items()}
                      for wired in (sources, loads))
    return systems, sources, loads


def check_union(first, second, arms, weights):
    """Two (systems, sources, loads, per_day) parts with disjoint ids, run as
    one grid: each part's block of columns equals its lone run, bit for bit."""
    (systems, sources, loads, per_day), (systems2, sources2, loads2, per_day2) = first, second
    topo = run_topology(systems + systems2, {**sources, **sources2}, {**loads, **loads2})
    inputs = {name: [{**a, **b} for a, b in zip(per_day[name], per_day2[name])]
              for name in per_day}
    alone = [_run(run_state(run_topology(*part[:3]), part[3], arms, weights))
             for part in (first, second)]
    width = {"systems": len(systems), "sources": len(sources), "loads": len(loads)}
    for u, a, b in zip(_run(run_state(topo, inputs, arms, weights)), *alone):
        for field, of in FIELDS.items():
            got = getattr(u, field)
            assert bits(got[:, : width[of]]) == bits(getattr(a, field)), field
            assert bits(got[:, width[of] :]) == bits(getattr(b, field)), field
        assert u.summary.final_mean_soh_pct == {**a.summary.final_mean_soh_pct,
                                                **b.summary.final_mean_soh_pct}


@st.composite
def unions(draw):
    """A runs() draw, and a second set of day inputs for its id-shifted copy."""
    run = draw(runs())
    systems, sources, loads, per_day, _, _ = run
    keys = {"energy": sources, "demand": loads, "targets": [s.id for s in systems]}
    other = {name: [{key + SHIFT: draw(DAY_MWD) for key in keys[name]} for _ in per_day[name]]
             for name in keys}
    return run, other


@settings(deadline=None, max_examples=40)
@given(case=unions())
def test_a_disjoint_union_runs_each_copy_as_alone(case):
    (systems, sources, loads, per_day, arms, weights), other = case
    check_union((systems, sources, loads, per_day),
                (*shifted(systems, sources, loads), other), arms, weights)


@settings(deadline=None, max_examples=40)
@given(first=runs(), second=runs())
def test_a_disjoint_union_of_two_grids_runs_each_as_alone(first, second):
    # Two independent draws: where their widest systems differ in unit count,
    # GridUnits pads one grid's rows to the other's width, and each grid must
    # still run as if the other were not there. Both run the first draw's
    # arms and weights over the days both drew.
    systems, sources, loads, per_day, arms, weights = first
    n = min(len(per_day["energy"]), len(second[3]["energy"]))
    other = {name: [{key + SHIFT: v for key, v in day.items()} for day in days[:n]]
             for name, days in second[3].items()}
    check_union((systems, sources, loads, {name: days[:n] for name, days in per_day.items()}),
                (*shifted(*second[:3]), other), arms, weights)


@pytest.mark.parametrize("name", SCENARIOS)
@settings(deadline=None, max_examples=5)
@given(data=st.data())
def test_a_run_prefix_equals_the_run_of_its_inputs_prefix(name, data):
    cfg, topo, base, traces = scenario_run(name)
    m = data.draw(st.integers(1, cfg.days), label="days")
    state = SimulationState(replace(cfg, days=m), topo, FLAG_PAIRS)
    state.generation, state.demand = base.generation[:m], base.demand[:m]
    got = _run(state)
    assert bits(state.forecasts) == bits(base.forecasts[:m])
    for g, t in zip(got, traces):
        for field in FIELDS:
            assert bits(getattr(g, field)) == bits(getattr(t, field)[:m]), field
