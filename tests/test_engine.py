"""Integration tests for the daily simulation engine and its CSV emitters."""

import copy
import dataclasses
import itertools
import random
import warnings

import numpy as np
import pytest
from conftest import NO_LOADS_DOC, SHARED_SYSTEMS_DOC, records_sha256
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hybridgrid.engine as engine
from hybridgrid.engine import TRACE_FIELDS
from hybridgrid import (
    GridUnits,
    SarimaOrders,
    SimulationError,
    WeatherSample,
    atomic_write_text,
    compare,
    comparison_csv,
    comparison_series_csv,
    fit_sarima,
    forecast_one,
    initialize_state,
    load_weather_csv,
    run_simulation,
    seasonal_naive,
    step_day,
    summary_csv,
    trace_csv,
)
from hybridgrid.scenario import load_scenario, parse_scenario

TOY = "scenarios/toy.json"


def small_doc(days=30, seed=3, **extra):
    doc = {
        "topology": {"reference": True, "initial_soc_pct": 50.0},
        "loads": {"kind": "synthetic", "gen_fraction": 0.75, "noise_sd": 0.05},
        "weather": {"kind": "synthetic", "default": {"cloud_ar": 0.3, "wind_ar": 0.3}},
        "run": {"days": days, "seed": seed},
    }
    for key, value in extra.items():
        doc[key] = value
    return doc


def test_run_produces_one_record_per_day():
    cfg, topo = parse_scenario(small_doc(days=10))
    trace = run_simulation(cfg, topo)
    assert trace.system_ids == [s.id for s in topo.systems]
    assert trace.load_ids == sorted(load.id for load in topo.loads)
    assert trace.source_ids == [s.id for s in topo.sources]
    for name, of in TRACE_FIELDS.items():
        assert getattr(trace, name).shape == (10, len(getattr(topo, of)))
    assert trace.generated_mwd.shape == (10, len(topo.sources))


def test_run_does_not_mutate_input_topology():
    cfg, topo = parse_scenario(small_doc(days=5))
    before = GridUnits(topo.systems)
    run_simulation(cfg, topo)
    after = GridUnits(topo.systems)
    assert after.energy.tolist() == before.energy.tolist()
    assert after.soh.tolist() == before.soh.tolist()


def test_daily_conservation_identities():
    cfg, topo = parse_scenario(small_doc(days=60, seed=11))
    trace = run_simulation(cfg, topo)
    state = initialize_state(cfg, topo)
    prev_soc = state.units.soc_pct
    caps = state.units.capacity
    for day, generated in enumerate(trace.generated_mwd):
        # Stored-energy bookkeeping: new stored = old stored + in - out.
        expected = prev_soc / 100.0 * caps + trace.charge_in_mwd[day] - trace.discharge_out_mwd[day]
        assert trace.soc_pct[day] * caps / 100.0 == pytest.approx(expected, abs=1e-6)
        # Source-side conservation: generation = inflow + curtailment.
        assert sum(generated) == pytest.approx(
            sum(trace.charge_in_mwd[day]) + sum(trace.curtailed_mwd[day]), abs=1e-6
        )
        # Load-side conservation: discharge equals served demand.
        assert sum(trace.discharge_out_mwd[day]) == pytest.approx(
            sum(trace.served_mwd[day]), abs=1e-6
        )
        prev_soc = trace.soc_pct[day]


def test_served_plus_unmet_equals_realized_demand():
    cfg, topo = parse_scenario(small_doc(days=40, seed=13))
    state = initialize_state(cfg, topo)
    for day in range(cfg.days):
        assert step_day(state, day) is None
        served, unmet = state.rows["served_mwd"][day], state.rows["unmet_mwd"][day]
        for j in range(len(topo.loads)):
            assert served[j] + unmet[j] == pytest.approx(state.demand[day, j], abs=1e-9)


def test_identical_seeds_reproduce_exactly():
    cfg_a, topo_a = parse_scenario(small_doc(days=25, seed=9))
    cfg_b, topo_b = parse_scenario(small_doc(days=25, seed=9))
    trace_a = run_simulation(cfg_a, topo_a)
    trace_b = run_simulation(cfg_b, topo_b)
    assert trace_csv(trace_a) == trace_csv(trace_b)
    assert summary_csv(trace_a) == summary_csv(trace_b)


def reference_shaped_doc():
    """The reference grid as an explicit document: seven systems of ten
    100 MWd units, eight loads sharing them three apiece, two wind plants on
    systems 1-4 and two solar plants on systems 4-7, demand scaled to 0.85
    of generation."""
    wiring = {0: [1, 2, 3], 1: [2, 3, 4], 2: [3, 4, 5], 3: [4, 5, 6], 4: [5, 6, 7],
              5: [1, 6, 7], 6: [1, 2, 7], 7: [2, 3, 7]}
    solar = {"kind": "solar", "site": "inland", "efficiency": 0.21,
             "connected_systems": [4, 5, 6, 7]}
    return {
        "topology": {"initial_soc_pct": 50.0, "systems": [
            {"id": sid, "unit_count": 10, "unit_capacity_mwd": 100.0} for sid in range(1, 8)]},
        "sources": [
            {"id": 1, "kind": "wind", "site": "coastal", "turbine_count": 50,
             "connected_systems": [1, 2, 3, 4]},
            {"id": 2, "kind": "wind", "site": "coastal", "turbine_count": 100,
             "connected_systems": [1, 2, 3, 4]},
            {"id": 3, "area_m2": 900_000.0, **solar},
            {"id": 4, "area_m2": 1_500_000.0, **solar},
        ],
        "loads": {"kind": "synthetic", "gen_fraction": 0.85, "noise_sd": 0.05, "centers": [
            {"id": lid, "connected_systems": conn} for lid, conn in wiring.items()]},
        "degradation": {"r_charge": 0.2, "r_discharge": 0.25, "rate_spread": 0.8},
        "weather": {"kind": "synthetic", "default": {"cloud_ar": 0.5, "wind_ar": 0.45}},
        "run": {"days": 365, "seed": 3},
    }


def test_listing_order_never_changes_a_run():
    # The topology holds each list in ascending id, so a document listing
    # its systems, loads and sources in another order runs bit for bit the
    # same: the same want sums, generation mean, priority ties and trace.
    def digests(doc):
        cfg, topo = parse_scenario(doc)
        traces = [run_simulation(cfg, topo)]
        for axis in ("priority", "health"):
            report = compare(cfg, topo, axis)
            traces += [report.treatment, report.baseline]
        return [records_sha256(trace) for trace in traces]

    doc, shuffled = reference_shaped_doc(), reference_shaped_doc()
    rng = random.Random(20)
    for listed in (shuffled["topology"]["systems"], shuffled["loads"]["centers"],
                   shuffled["sources"]):
        before = list(listed)
        while listed == before:
            rng.shuffle(listed)
    assert digests(shuffled) == digests(doc)


def test_different_seeds_differ():
    cfg_a, topo_a = parse_scenario(small_doc(days=25, seed=9))
    cfg_b, topo_b = parse_scenario(small_doc(days=25, seed=10))
    assert trace_csv(run_simulation(cfg_a, topo_a)) != trace_csv(
        run_simulation(cfg_b, topo_b)
    )


def test_priority_toggle_changes_behavior():
    on, topo_on = parse_scenario(small_doc(days=30, seed=4))
    off_doc = small_doc(days=30, seed=4)
    off_doc["run"]["priority_enabled"] = False
    off, topo_off = parse_scenario(off_doc)
    assert trace_csv(run_simulation(on, topo_on)) != trace_csv(
        run_simulation(off, topo_off)
    )


def test_health_toggle_changes_soh_path():
    doc = small_doc(days=30, seed=4)
    doc["degradation"] = {"r_charge": 0.2, "r_discharge": 0.25, "rate_spread": 0.8}
    on, topo_on = parse_scenario(doc)
    off_doc = copy.deepcopy(doc)
    off_doc["run"]["health_enabled"] = False
    off, topo_off = parse_scenario(off_doc)
    trace_on = run_simulation(on, topo_on)
    trace_off = run_simulation(off, topo_off)
    assert trace_csv(trace_on) != trace_csv(trace_off)


def test_zero_generation_drains_storage():
    # Overcast, windless weather: no inflow, loads drain the fleet day by day.
    doc = small_doc(days=20, seed=2)
    doc["weather"]["default"] = {
        "ghi_base": 0.0,
        "wind_base": 0.0,
        "wind_seasonal_amplitude": 0.0,
        "wind_noise_sd": 0.0,
    }
    doc["loads"] = {"kind": "synthetic", "base_mwd": {str(i): 200.0 for i in range(8)}}
    cfg, topo = parse_scenario(doc)
    trace = run_simulation(cfg, topo)
    assert sum(trace.generated_mwd[0]) == 0.0
    assert sum(trace.soc_pct[-1]) < sum(trace.soc_pct[0])
    assert sum(trace.unmet_mwd[-1]) > 0.0


def test_abundant_generation_fills_storage():
    doc = small_doc(days=40, seed=2)
    doc["loads"] = {"kind": "synthetic", "base_mwd": {str(i): 1.0 for i in range(8)}}
    cfg, topo = parse_scenario(doc)
    trace = run_simulation(cfg, topo)
    assert min(trace.soc_pct[-1]) > 99.0
    assert sum(trace.curtailed_mwd[-1]) > 0.0


def test_loads_settle_sequentially_within_a_day():
    # Two loads share one 10 MWd system; each wants 10. The lower id drains
    # the pool first and the second load goes fully unmet.
    doc = {
        "topology": {
            "systems": [{"id": 1, "unit_count": 1, "unit_capacity_mwd": 10.0}],
            "initial_soc_pct": 100.0,
        },
        "sources": [
            {
                "id": 1,
                "kind": "solar",
                "site": "dark",
                "area_m2": 1.0,
                "efficiency": 0.01,
                "connected_systems": [1],
            }
        ],
        "loads": {
            "kind": "synthetic",
            "centers": [
                {"id": 0, "connected_systems": [1]},
                {"id": 1, "connected_systems": [1]},
            ],
            "base_mwd": {"0": 10.0, "1": 10.0},
            "weekly_shape": [1.0] * 7,
            "noise_sd": 0.0,
        },
        "weather": {"kind": "synthetic", "default": {"ghi_base": 0.0, "wind_base": 0.0}},
        "run": {"days": 1, "seed": 1},
    }
    cfg, topo = parse_scenario(doc)
    trace = run_simulation(cfg, topo)
    assert trace.load_ids == [0, 1]
    assert trace.served_mwd[0].tolist() == pytest.approx([10.0, 0.0])
    assert trace.unmet_mwd[0][1] == pytest.approx(10.0)


def test_each_system_discharges_at_most_once_a_day(monkeypatch):
    # Loads settle on system totals; the units of every system then give the
    # day's totals in one grid-wide discharge, however many loads share a system.
    calls = []
    discharge = GridUnits.discharge

    def counting_discharge(units, amounts):
        calls.append(list(amounts))
        return discharge(units, amounts)

    monkeypatch.setattr(GridUnits, "discharge", counting_discharge)
    cfg, topo = load_scenario("scenarios/reference.json")
    state = initialize_state(cfg, topo)
    for day in range(cfg.days):
        calls.clear()
        step_day(state, day)
        assert calls == [state.rows["discharge_out_mwd"][day].tolist()]
    assert state.units.ids == [s.id for s in topo.systems]


def test_grid_without_systems_runs_empty_days():
    doc = {
        "topology": {"systems": []},
        "sources": [],
        "loads": {"kind": "synthetic", "centers": []},
        "run": {"days": 3},
    }
    trace = run_simulation(*parse_scenario(doc))
    assert trace.soc_pct.shape == (3, 0) and len(trace.generated_mwd) == 3
    assert trace.summary.final_mean_soh_pct == {}


def test_generation_reads_each_source_site_in_topology_order(tmp_path):
    weather = tmp_path / "weather.csv"
    weather.write_text(
        "site_id,day_index,ghi_w_m2,wind_speed_ms\n"
        "coastal,0,0.0,10.0\ninland,0,1000.0,2.0\n"
        "coastal,1,1000.0,2.0\ninland,1,0.0,10.0\n"
    )
    doc = copy.deepcopy(SHARED_SYSTEMS_DOC)
    doc["sources"] = [
        {"id": 2, "kind": "solar", "site": "inland", "area_m2": 900_000.0, "efficiency": 0.21,
         "connected_systems": [1]},
        {"id": 1, "kind": "wind", "site": "coastal", "turbine_count": 50,
         "connected_systems": [2, 3]},
    ]
    doc["weather"] = {"kind": "csv", "path": str(weather)}
    doc["run"]["days"] = 2
    state = initialize_state(*parse_scenario(doc))
    # Columns follow the topology's sources, held in ascending id: wind 1,
    # then solar 2, though the document lists solar 2 first.
    assert [src.id for src in state.topology.sources] == [1, 2]
    day0, day1 = state.generation.tolist()
    assert day0 == [pytest.approx(122.5), pytest.approx(189.0)]
    # Day 1 swaps the sites' weather: each plant sees only its own site's.
    assert day1 == [0.0, 0.0]


def test_csv_weather_exhaustion_raises_simulation_error(tmp_path):
    weather = tmp_path / "weather.csv"
    rows = ["site_id,day_index,ghi_w_m2,wind_speed_ms"]
    for day in range(3):
        rows.append(f"coastal,{day},500.0,8.0")
        rows.append(f"inland,{day},600.0,4.0")
    weather.write_text("\n".join(rows) + "\n")
    doc = small_doc(days=10)
    doc["weather"] = {"kind": "csv", "path": str(weather)}
    cfg, topo = parse_scenario(doc)
    missing = r"weather data exhausted: day 3 missing sites \['coastal', 'inland'\]"
    with pytest.raises(SimulationError, match=missing):
        run_simulation(cfg, topo)


def test_csv_weather_gap_names_its_first_day_and_sites(tmp_path):
    # Day 1 lacks inland and day 2 lacks both sites: day 1 is named.
    weather = tmp_path / "weather.csv"
    weather.write_text("site_id,day_index,ghi_w_m2,wind_speed_ms\n"
                       "coastal,0,500.0,8.0\ninland,0,600.0,4.0\ncoastal,1,500.0,8.0\n"
                       "coastal,3,500.0,8.0\ninland,3,600.0,4.0\n")
    doc = small_doc(days=4)
    doc["weather"] = {"kind": "csv", "path": str(weather)}
    with pytest.raises(SimulationError, match=r"day 1 missing sites \['inland'\]$"):
        initialize_state(*parse_scenario(doc))


def samples_from_arrays(state):
    """The per-day samples the state's weather arrays stand for."""
    return [[WeatherSample(site, day, ghi[day], wind[day])
             for site, (ghi, wind) in state.weather.items()]
            for day in range(state.cfg.days)]


def test_weather_and_generation_are_arrays_with_samples_built_on_read(tmp_path):
    # Set-up builds each site's weather and each source's generation as
    # arrays; the per-day samples are a view made only when read.
    state = initialize_state(*load_scenario("scenarios/reference.json"))
    assert type(state.generation) is np.ndarray
    assert state.generation.dtype == np.float64 and state.generation.shape == (730, 4)
    assert list(state.weather) == ["coastal", "inland"]
    assert "weather_by_day" not in vars(state)
    assert state.weather_by_day == samples_from_arrays(state)

    weather = tmp_path / "weather.csv"
    rng = np.random.default_rng(7)
    rows = ["site_id,day_index,ghi_w_m2,wind_speed_ms"]
    for day in (3, 0, 2, 1, 4):  # out of order; day 4 lies past the run
        for site in ("ridge", "flat", "unused"):
            rows.append(f"{site},{day},{rng.uniform(0, 900)!r},{rng.uniform(0, 30)!r}")
    weather.write_text("\n".join(rows) + "\n")
    doc = copy.deepcopy(SHARED_SYSTEMS_DOC)
    doc["weather"] = {"kind": "csv", "path": str(weather)}
    doc["run"]["days"] = 4
    state = initialize_state(*parse_scenario(doc))
    assert list(state.weather) == ["flat", "ridge"]
    assert state.generation.shape == (4, 2)
    assert "weather_by_day" not in vars(state)
    by_site = load_weather_csv(weather)
    assert state.weather_by_day == samples_from_arrays(state) == [
        [WeatherSample(site, day, *(float(a[day]) for a in by_site[site]))
         for site in ("flat", "ridge")]
        for day in range(4)
    ]


def test_summary_counts_zero_soc_events():
    doc = small_doc(days=15, seed=2)
    doc["weather"]["default"] = {"ghi_base": 0.0, "wind_base": 0.0}
    doc["loads"] = {"kind": "synthetic", "base_mwd": {str(i): 500.0 for i in range(8)}}
    cfg, topo = parse_scenario(doc)
    trace = run_simulation(cfg, topo)
    assert sum(trace.summary.zero_soc_events.values()) > 0
    assert trace.summary.total_unmet_mwd > 0.0


# --- compare ----------------------------------------------------------------


def test_compare_axis_health_sign_convention():
    # Positive gain means the treatment arm (toggle on) ends healthier.
    doc = small_doc(days=30, seed=6)
    doc["degradation"] = {"r_charge": 0.2, "r_discharge": 0.25, "rate_spread": 0.8}
    cfg, topo = parse_scenario(doc)
    report = compare(cfg, topo, "health")
    for sid, gain in report.soh_gain_pct_points.items():
        expected = (
            report.treatment.summary.final_mean_soh_pct[sid]
            - report.baseline.summary.final_mean_soh_pct[sid]
        )
        assert gain == pytest.approx(expected)


def test_compare_rejects_unknown_axis():
    cfg, topo = parse_scenario(small_doc(days=3))
    with pytest.raises(ValueError):
        compare(cfg, topo, "voltage")


def test_compare_arms_share_weather_and_demand():
    cfg, topo = parse_scenario(small_doc(days=20, seed=8))
    report = compare(cfg, topo, "priority")
    on, off = report.treatment, report.baseline
    assert on.generated_mwd.tolist() == off.generated_mwd.tolist()
    assert (on.served_mwd + on.unmet_mwd) == pytest.approx(off.served_mwd + off.unmet_mwd)


def with_days(doc, days):
    doc = copy.deepcopy(doc)
    doc["run"]["days"] = days
    return doc


NO_SYSTEMS_DOC = {
    "topology": {"systems": []},
    "sources": [],
    "loads": {"kind": "synthetic", "centers": []},
    "run": {"days": 3},
}


@pytest.mark.parametrize(
    "source, axis",
    [
        ("scenarios/reference.json", "health"),
        ("scenarios/stress.json", "priority"),
        (SHARED_SYSTEMS_DOC, "health"),
        (SHARED_SYSTEMS_DOC, "priority"),
        (with_days(SHARED_SYSTEMS_DOC, 0), "health"),
        (NO_SYSTEMS_DOC, "priority"),
        (NO_LOADS_DOC, "priority"),
    ],
    ids=["reference-health", "stress-priority", "shared-health", "shared-priority", "0-days",
         "0-systems", "0-loads"],
)
def test_compare_arms_equal_their_own_runs(source, axis):
    # The arms run in lockstep on shared unit arrays; neither may see the other.
    cfg, topo = load_scenario(source) if isinstance(source, str) else parse_scenario(source)
    report = compare(cfg, topo, axis)
    for arm, flag in ((report.treatment, True), (report.baseline, False)):
        own = copy.copy(cfg)
        setattr(own, f"{axis}_enabled", flag)
        alone = run_simulation(own, topo)
        assert records_sha256(arm) == records_sha256(alone)
        assert arm.soc_pct.shape == (cfg.days, len(topo.systems))
        assert arm.served_mwd.shape == (cfg.days, len(topo.loads))
        assert arm.summary == alone.summary
        assert arm.config_echo == alone.config_echo


def test_stacked_arms_of_any_flag_pairs_equal_their_lone_runs():
    # A state holds one config and a flag pair per arm, so an arm cannot run on
    # another arm's seed or weather. Any two pairs, in either order, run as
    # each pair alone would, and each arm's echo names its own flags.
    cfg, topo = parse_scenario(SHARED_SYSTEMS_DOC)
    pairs = list(itertools.product((True, False), repeat=2))
    alone = {(p, h): run_simulation(dataclasses.replace(cfg, priority_enabled=p, health_enabled=h),
                                    topo) for p, h in pairs}
    for arms in itertools.permutations(pairs, 2):
        traces = engine._run(engine.SimulationState(cfg, topo, list(arms)))
        assert len(traces) == 2
        for trace, (p, h) in zip(traces, arms):
            assert records_sha256(trace) == records_sha256(alone[p, h])
            assert trace.summary == alone[p, h].summary
            assert trace.config_echo == alone[p, h].config_echo
            effective = trace.config_echo["effective"]
            assert (effective["priority_enabled"], effective["health_enabled"]) == (p, h)
            assert effective["seed"] == cfg.seed


def test_records_view_equals_the_arrays_bitwise():
    # The DailyRecord view is built from the arrays on first read: the same
    # floats, keyed in ascending system, load and source id. A record
    # changed in place stays changed through deepcopy.
    def bits(pairs):
        return [(key, float(value).hex()) for key, value in pairs]

    report = compare(*load_scenario("scenarios/reference.json"), "health")
    for trace in (report.treatment, report.baseline):
        records = trace.records
        assert [r.day for r in records] == list(range(730))
        keys = {"systems": trace.system_ids, "loads": trace.load_ids, "sources": trace.source_ids}
        for name, of in {**TRACE_FIELDS, "generated_mwd": "sources"}.items():
            ids, rows = keys[of], getattr(trace, name).tolist()
            assert [bits(getattr(r, name).items()) for r in records] == [
                bits(zip(ids, row)) for row in rows
            ]
        assert all(list(r.curtailed_mwd) == trace.source_ids for r in records)

    trace = report.treatment
    trace.records[100].charge_in_mwd[3] += 0.5
    copied = copy.deepcopy(trace)
    assert copied.records[100].charge_in_mwd[3] == trace.charge_in_mwd[100][2] + 0.5
    copied.records[150].soc_pct[5] = 0.0
    assert trace.records[150].soc_pct[5] == trace.soc_pct[150][4] > 0.0


@pytest.mark.parametrize("axis", ["health", "priority"])
def test_compare_makes_one_charge_and_one_discharge_call_a_day(monkeypatch, axis):
    calls = {"charge": [], "discharge": []}
    for name in calls:
        move = getattr(GridUnits, name)

        def counting(units, amounts, *args, move=move, seen=calls[name]):
            seen.append(list(amounts))
            return move(units, amounts, *args)

        monkeypatch.setattr(GridUnits, name, counting)
    doc = small_doc(days=30, seed=4)
    doc["degradation"] = {"r_charge": 0.2, "r_discharge": 0.25, "rate_spread": 0.8}
    cfg, topo = parse_scenario(doc)
    report = compare(cfg, topo, axis)
    for name, field in (("charge", "charge_in_mwd"), ("discharge", "discharge_out_mwd")):
        on, off = getattr(report.treatment, field), getattr(report.baseline, field)
        assert calls[name] == [[*t, *b] for t, b in zip(on.tolist(), off.tolist())]


def record_fit_windows(monkeypatch):
    """Swap the engine's fit_sarima_many for one that records every training
    window of each batch."""
    windows = []
    fit_many = engine.fit_sarima_many

    def recording_fit_many(batch, *args, **kwargs):
        windows.extend(tuple(series) for series in batch)
        return fit_many(batch, *args, **kwargs)

    monkeypatch.setattr(engine, "fit_sarima_many", recording_fit_many)
    return windows


def test_compare_fits_each_window_once(monkeypatch):
    windows = record_fit_windows(monkeypatch)
    cfg, topo = parse_scenario(small_doc(days=80, seed=5))
    compare(cfg, topo, "health")
    # Warm-up ends on day 32 and the model refits every 30 days: days 32 and 62.
    assert len(windows) == len(set(windows)) == 2 * len(topo.loads)


def test_initialize_state_fits_no_model(monkeypatch):
    windows = record_fit_windows(monkeypatch)
    cfg, topo = parse_scenario(small_doc(days=80, seed=5))
    assert cfg.priority_enabled
    state = initialize_state(cfg, topo)
    assert windows == []
    assert np.shape(state.targets) == (cfg.days, len(topo.systems))
    assert len(windows) == 2 * len(topo.loads)


def _neumaier_sum(values, start=0):
    """sum() of floats as CPython adds them from 3.12 on: compensated (Neumaier)."""
    total, comp = float(start), 0.0
    for v in values:
        t = total + v
        comp += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + comp


def test_demand_does_not_depend_on_how_sum_adds(monkeypatch):
    # On reference seed 2 the compensated and the plain sums of the per-load
    # means differ, so demand read through sum() would move with the Python.
    cfg, topo = load_scenario("scenarios/reference.json", {"seed": 2})
    plain = initialize_state(cfg, topo).demand.tobytes()
    monkeypatch.setattr(engine, "sum", _neumaier_sum, raising=False)
    assert initialize_state(cfg, topo).demand.tobytes() == plain


def test_day_inputs_are_built_at_set_up():
    # Set-up builds generation, demand, the arms' rows and the trace rows;
    # only the fit behind forecasts and targets, and the bench-only views,
    # wait for first use, so an equal-split run fits no model.
    cfg, topo = parse_scenario(small_doc(days=20, seed=5))
    state = engine.SimulationState(cfg, topo, [(True, True), (True, False)])
    assert {"generation", "demand", "arm_rows", "rows"} <= set(vars(state))
    assert not {"forecasts", "targets", "weather_by_day", "demand_by_load"} & set(vars(state))
    assert [state.demand_by_load[load.id].tobytes() for load in topo.loads] == [
        state.demand[:, j].tobytes() for j in range(len(topo.loads))]
    runs, ranked = state.arm_rows
    assert runs == [slice(0, 7), slice(7, 14)]
    assert ranked.tolist() == [True] * 7 + [False] * 7


def test_day_inputs_are_held_once_as_arrays(tmp_path):
    # A compare's state holds each per-day input as one [days, width] float64
    # array; step_day takes each day's row as floats, and keeps no list copy.
    # Set-up builds generation and demand as such arrays, each load's column
    # contiguous, whether demand is read from a CSV file or drawn and scaled
    # by gen_fraction.
    cfg, topo = parse_scenario(small_doc(days=40, seed=5))
    (tmp_path / "demand.csv").write_text("load_id,day_index,demand_mwd\n" + "".join(
        f"{load.id},{day},{day + load.id / 8}\n" for load in topo.loads for day in range(45)))
    from_csv = engine.SimulationState(*parse_scenario(
        small_doc(days=40, seed=5, loads={"kind": "csv", "path": str(tmp_path / "demand.csv")})))
    for state in (engine.SimulationState(cfg, topo), from_csv):
        demand = vars(state)["demand"]
        assert type(demand) is np.ndarray and demand.dtype == np.float64
        assert demand.shape == (cfg.days, len(topo.loads)) and demand.T.flags.c_contiguous
        generation = vars(state)["generation"]
        assert type(generation) is np.ndarray and generation.dtype == np.float64
        assert generation.shape == (cfg.days, len(topo.sources))
    assert from_csv.demand.T.tolist() == [[day + load.id / 8 for day in range(40)]
                                          for load in topo.loads]
    state = engine.SimulationState(cfg, topo, [(True, True), (False, True)])
    engine._run(state)
    widths = {"generation": len(topo.sources), "demand": len(topo.loads),
              "forecasts": len(topo.loads), "targets": len(topo.systems)}
    for name, width in widths.items():
        got = vars(state)[name]
        assert type(got) is np.ndarray and got.dtype == np.float64, name
        assert got.shape == (cfg.days, width), name
    assert not hasattr(state, "energy")


def test_a_negative_zero_demand_moves_no_target(tmp_path):
    # The warm-up forecast is seasonal_naive, with no floor: demand is never
    # below 0, so a CSV -0 reaches the forecasts as -0.0, and the charge
    # targets add it into a +0.0 sum, as they add a 0.
    targets = []
    for zero in ("0", "-0"):
        path = tmp_path / f"demand{zero}.csv"
        path.write_text("load_id,day_index,demand_mwd\n" + "".join(
            f"{lid},{day},{zero if day % 5 == 0 else 50.0 + day % 7}\n"
            for lid in range(8) for day in range(60)))
        cfg, topo = parse_scenario({"topology": {"reference": True}, "run": {"days": 60},
                                    "loads": {"kind": "csv", "path": str(path)}})
        state, o = engine.SimulationState(cfg, topo), cfg.forecasting.orders
        warm = state.forecasts[o.s : max(30, o.min_series_length())]  # seasonal-naive days
        assert warm.tobytes() == state.demand[: len(warm)].tobytes()
        targets.append(state.targets.tobytes())
    assert np.signbit(warm).any()
    assert targets[0] == targets[1]


def test_equal_split_run_fits_no_model(monkeypatch):
    windows = record_fit_windows(monkeypatch)
    doc = small_doc(days=80, seed=5)
    doc["run"]["priority_enabled"] = False
    run_simulation(*parse_scenario(doc))
    assert windows == []


# --- CSV emitters -------------------------------------------------------------


def test_trace_csv_shape_and_header():
    cfg, topo = load_scenario(TOY)
    trace = run_simulation(cfg, topo)
    lines = trace_csv(trace).strip().split("\n")
    assert lines[0] == "day,system_id,soc_pct,mean_soh_pct,charge_in_mwd,discharge_out_mwd"
    assert len(lines) == 1 + cfg.days * len(topo.systems)
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "1"
    float(first[2])  # numeric columns parse


def test_summary_csv_shape_and_header():
    cfg, topo = load_scenario(TOY)
    trace = run_simulation(cfg, topo)
    lines = summary_csv(trace).strip().split("\n")
    assert lines[0] == (
        "system_id,zero_soc_events,final_mean_soh_pct,total_unmet_mwd,total_curtailed_mwd"
    )
    assert len(lines) == 1 + len(topo.systems)


def test_comparison_csv_headers():
    cfg, topo = load_scenario(TOY)
    report = compare(cfg, topo, "priority")
    head = comparison_csv(report).strip().split("\n")[0]
    assert head.startswith("system_id,")
    series_head = comparison_series_csv(report).strip().split("\n")[0]
    assert series_head == (
        "day,system_id,soc_pct_treatment,soc_pct_baseline,"
        "mean_soh_pct_treatment,mean_soh_pct_baseline"
    )


@pytest.mark.parametrize(
    "path, seeds", [("scenarios/reference.json", range(1, 24)), ("scenarios/stress.json", [42])]
)
def test_shipped_scenarios_fit_without_warnings(path, seeds):
    # Every demand fit of these runs converges inside the stationary region.
    cfg, topo = load_scenario(path)
    for seed in seeds:
        state = engine.SimulationState(dataclasses.replace(cfg, seed=seed), topo)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            state.forecasts


def warmup_forecast(demand, day, s):
    """The warm-up rule: 0.0 on day 0, then the last value, then seasonal-naive."""
    if day >= s:
        return seasonal_naive(demand[day - s : day], s)
    return demand[day - 1] if day else 0.0


# d + D > 0 and p >= s, so the one-step forecast undoes differencing and
# two terms of the AR product add at lag s.
DIFFERENCED_DOC = small_doc(days=150, seed=4, forecasting={
    "orders": [7, 0, 0, 1, 1, 0, 7], "refit_interval_days": 20, "train_window_days": 120})


# Refit blocks of one day, of a week, and of 45 days with a partial last block
# (days 77-99), all evaluated in the state's one forecast pass.
REFIT_DOCS = [small_doc(days=days, forecasting={"refit_interval_days": every})
              for days, every in ((45, 1), (60, 7), (100, 45))]


@pytest.mark.parametrize("source, seed", [
    *(("scenarios/reference.json", seed) for seed in (1, 2, 3)),
    ("scenarios/stress.json", 42),
    (DIFFERENCED_DOC, 4),
    *((doc, 3) for doc in REFIT_DOCS),
], ids=["reference-1", "reference-2", "reference-3", "stress-42", "differenced",
        "refit-1", "refit-7", "refit-45-partial"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_forecasts_equal_lone_fits_and_the_warmup_rule_bitwise(source, seed):
    # From warm-up on, day t's forecast is its block's lone fit evaluated on
    # the realized demand of days t - K .. t - 1.
    cfg, topo = load_scenario(source) if isinstance(source, str) else parse_scenario(source)
    cfg = dataclasses.replace(cfg, seed=seed)
    state = engine.SimulationState(cfg, topo)
    fc = cfg.forecasting
    o, every = fc.orders, fc.refit_interval_days
    warmup = max(3 * o.s, 30, o.min_series_length())
    K = o.p + o.s * o.P + o.d + o.s * o.D
    assert state.forecasts.shape == (cfg.days, len(topo.loads))
    for j, load in enumerate(topo.loads):
        demand = state.demand[:, j].tolist()
        models = {}
        expected = []
        for day in range(cfg.days):
            if day < warmup:
                expected.append(warmup_forecast(demand, day, o.s))
                continue
            fit_day = day - (day - warmup) % every
            if fit_day not in models:
                window = demand[max(0, fit_day - fc.train_window_days) : fit_day]
                models[fit_day] = fit_sarima(window, o)
            model = models[fit_day]
            model._tail = np.array(demand[day - K : day])
            expected.append(forecast_one(model))
        got = state.forecasts[:, j].tolist()
        assert [v.hex() for v in got] == [float(v).hex() for v in expected], load.id


@settings(deadline=None, max_examples=100)
@given(
    p=st.integers(0, 8),
    P=st.integers(0, 3),
    d_D=st.sampled_from([(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]),
    s=st.integers(2, 8),
    offset=st.integers(-3, 3),
    every=st.integers(1, 4),
    extra_days=st.integers(1, 6),
)
@example(p=1, P=3, d_D=(0, 2), s=7, offset=0, every=1, extra_days=1)  # K + p + P + 2 > 3s + p + 10
def test_a_train_window_parses_exactly_when_every_fit_of_the_run_takes_it(
    p, P, d_D, s, offset, every, extra_days
):
    # Around the fit minimum, the scenario accepts a train window exactly
    # when a fit takes a window of its length, and then every fit of the run
    # takes its window, so validate and simulate agree.
    o = SarimaOrders(p, d_D[0], 0, P, d_D[1], 0, s)
    window = o.min_series_length() + offset
    days = max(30, o.min_series_length()) + extra_days
    doc = small_doc(days=days, seed=2, forecasting={
        "orders": [p, d_D[0], 0, P, d_D[1], 0, s], "refit_interval_days": every,
        "train_window_days": window})
    if window < o.min_series_length():
        with pytest.raises(ValueError, match="^forecasting: train window shorter"):
            parse_scenario(doc)
        with pytest.raises(ValueError, match="^series too short"):
            fit_sarima(np.full(window, 100.0), o)
        return
    cfg, topo = parse_scenario(doc)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        forecasts = engine.SimulationState(cfg, topo).forecasts
    assert forecasts.shape == (days, len(topo.loads))


def test_refit_interval_past_the_run_fits_once(monkeypatch):
    # A scenario may give any interval >= 1, such as 1e308; past the last
    # day it means the one fit at the end of warm-up, whose block runs to the
    # end of the run.
    windows = record_fit_windows(monkeypatch)
    forecasts = []
    for every in (10**308, 80):
        cfg, topo = parse_scenario(small_doc(days=80, seed=5, forecasting={
            "refit_interval_days": every}))
        forecasts.append(engine.SimulationState(cfg, topo).forecasts)
        assert len(windows) == len(topo.loads)
        windows.clear()
    huge, once = forecasts
    assert huge.tobytes() == once.tobytes()


def test_atomic_write_text(tmp_path):
    target = tmp_path / "out.csv"
    atomic_write_text(target, "hello\n")
    assert target.read_text() == "hello\n"
    atomic_write_text(target, "replaced\n")
    assert target.read_text() == "replaced\n"
    assert list(tmp_path.iterdir()) == [target]
