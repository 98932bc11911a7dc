"""Binding acceptance checks for the package.

Each test here is one binding requirement, with its tolerance and runtime
budget enforced inline. The conftest hook prints a one-line PASS/FAIL
digest per check at the end of the run. Nothing in this file may be weakened
to make a failing requirement pass: a red test means the requirement is not
met.
"""

import itertools
import json
import math
import time
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from hybridgrid import (
    EnergySource,
    GridTopology,
    GridUnits,
    LoadCenter,
    SarimaOrders,
    SolarPlantParams,
    StorageSystem,
    WindPlantParams,
    allocate_equal,
    allocate_priority,
    charge_deficits,
    charge_targets,
    compare,
    fit_sarima,
    forecast_one,
    prioritize,
    run_simulation,
    seasonal_naive,
    settle_loads,
)
from hybridgrid.cli import main
from hybridgrid.scenario import load_scenario, parse_scenario

REFERENCE = "scenarios/reference.json"
STRESS = "scenarios/stress.json"
TOY = "scenarios/toy.json"


def fleet_mean_soh(trace):
    """Mean SoH across all units.

    Every system in the benchmark grid has the same unit count, so the mean
    of per-system means equals the global per-unit mean.
    """
    last = trace.mean_soh_pct[-1].tolist()
    return sum(last) / len(last)


# --- 1. formula fidelity ------------------------------------------------------


def test_criterion_1_formula_fidelity():
    start = time.perf_counter()

    solar = SolarPlantParams(area_m2=900_000.0, efficiency=0.21)
    from hybridgrid import solar_power, wind_power

    assert math.isclose(solar_power(1000.0, solar), 189.0, rel_tol=1e-9)

    wind = WindPlantParams(
        power_coefficient=0.4,
        air_density=1.225,
        rotor_area_m2=10_000.0,
        turbine_count=50,
        cut_in_ms=3.0,
        cut_out_ms=25.0,
    )
    assert math.isclose(wind_power(10.0, wind), 122.5, rel_tol=1e-9)

    system = StorageSystem(id=1, cap=[100.0] * 10, energy=50.0)
    assert math.isclose(GridUnits([system]).soc_pct[0], 50.0, rel_tol=1e-9)

    units = GridUnits([StorageSystem(id=1, cap=[100.0], energy=0.0, r_charge=0.01)])
    units.charge([100.0], True)  # one full cycle's worth into the empty unit
    assert math.isclose(units.soh[0, 0], 100.0 - 0.01, rel_tol=1e-9)

    assert time.perf_counter() - start < 1.0


# --- 2. conservation fuzz -----------------------------------------------------


def _random_dispatch_instance(rng):
    n_sys = int(rng.integers(1, 6))
    n_src = int(rng.integers(1, 5))
    systems = []
    for sid in range(1, n_sys + 1):
        cap = float(rng.uniform(10.0, 500.0))
        systems.append(StorageSystem(id=sid, cap=[cap], energy=float(rng.uniform(0.0, cap))))
    sources = []
    energies = {}
    for src_id in range(1, n_src + 1):
        k = int(rng.integers(1, n_sys + 1))
        conn = tuple(
            int(x)
            for x in sorted(rng.choice(np.arange(1, n_sys + 1), size=k, replace=False))
        )
        sources.append(
            EnergySource(
                id=src_id,
                kind="solar",
                params=SolarPlantParams(area_m2=1000.0, efficiency=0.2),
                connected_systems=conn,
                site=f"s{src_id}",
            )
        )
        energies[src_id] = float(rng.uniform(0.0, 400.0))
    loads = [LoadCenter(id=0, connected_systems=tuple(s.id for s in systems))]
    topo = GridTopology(systems=systems, loads=loads, sources=sources)
    return topo, energies


def _assert_allocation_invariants(allocation, energy, headrooms, topo, tol=1e-6):
    """allocation is (flow[source][edge], curtailed per source, inflow per
    system), sources in ascending id and each source's edges in its connection
    order; energy and headrooms are what the sources and systems held before it."""
    flow, curtailed, _ = allocation
    row = {s.id: i for i, s in enumerate(topo.systems)}
    sources = sorted(topo.sources, key=lambda s: s.id)
    assert len(flow) == len(sources)
    inflow = [0.0] * len(headrooms)
    for k, gifts in enumerate(flow):
        assert len(gifts) == len(sources[k].connected_systems)
        for sid, amount in zip(sources[k].connected_systems, gifts):
            assert amount >= -tol
            inflow[row[sid]] += amount
        assert abs(sum(gifts) + curtailed[k] - energy[k]) <= tol
    for total_in, room in zip(inflow, headrooms):
        assert total_in <= room + tol


def test_criterion_2_conservation_fuzz_10000_instances():
    start = time.perf_counter()
    rng = np.random.default_rng(20240817)
    n_instances = 10_000
    for _ in range(n_instances):
        topo, energies = _random_dispatch_instance(rng)

        forecasts = [float(rng.uniform(0.0, 600.0))]
        units, w = GridUnits(topo.systems), topo.wiring
        stored = units.stored.tolist()
        deficit = charge_deficits(charge_targets(topo, forecasts).tolist(), stored)
        headrooms = units.headroom.tolist()
        energy = [energies[src.id] for src in topo.sources]
        order = prioritize(deficit)
        _assert_allocation_invariants(
            allocate_priority(w, order, deficit, list(headrooms), energy), energy, headrooms, topo
        )
        _assert_allocation_invariants(
            allocate_equal(w, list(headrooms), energy), energy, headrooms, topo
        )

        pool = sum(stored)
        demand = float(rng.uniform(0.0, pool * 1.5 + 1.0))
        _, _, contributions = settle_loads(w.load_rows, [demand], list(stored))
        assert abs(sum(contributions) - min(demand, pool)) <= 1e-6
        for given, held in zip(contributions, stored):
            assert given <= held + 1e-6

    assert time.perf_counter() - start < 30.0


# --- 3. small-instance oracle equivalence --------------------------------------


GRID_VALUES = (0.0, 25.0, 50.0, 75.0, 100.0)


def _coverage_oracle(energies, deficits, cache={}):
    """Maximum total deficit coverage, via max-flow on the bipartite graph.

    Instances here are fully connected (every source reaches every system),
    so the optimum is symmetric in each value list; memoizing on the sorted
    multisets keeps the exhaustive sweep fast.
    """
    key = (tuple(sorted(energies)), tuple(sorted(deficits)))
    if key not in cache:
        g = nx.DiGraph()
        for i, energy in enumerate(energies):
            g.add_edge("S", f"src{i}", capacity=energy)
            for j in range(len(deficits)):
                g.add_edge(f"src{i}", f"sys{j}", capacity=float("inf"))
        for j, deficit in enumerate(deficits):
            g.add_edge(f"sys{j}", "T", capacity=deficit)
        cache[key] = nx.maximum_flow_value(g, "S", "T")
    return cache[key]


def _complete_topology(n_src, deficits):
    systems = []
    for j, deficit in enumerate(deficits, start=1):
        cap = deficit + 1000.0  # slack headroom; coverage is measured vs deficit
        systems.append(StorageSystem(id=j, cap=[cap], energy=0.0))
    sources = [
        EnergySource(
            id=i,
            kind="solar",
            params=SolarPlantParams(area_m2=1000.0, efficiency=0.2),
            connected_systems=tuple(range(1, len(deficits) + 1)),
            site=f"s{i}",
        )
        for i in range(1, n_src + 1)
    ]
    loads = [LoadCenter(id=0, connected_systems=tuple(s.id for s in systems))]
    return GridTopology(systems=systems, loads=loads, sources=sources)


def test_criterion_3_priority_matches_bruteforce_coverage():
    start = time.perf_counter()
    checked = 0
    for n_src in (1, 2, 3):
        for n_sys in (1, 2, 3, 4):
            for deficits in itertools.product(GRID_VALUES, repeat=n_sys):
                # Dispatch only reads the grid, so one grid serves every energy tuple.
                topo = _complete_topology(n_src, deficits)
                units = GridUnits(topo.systems)
                order = prioritize(list(deficits))
                for energies in itertools.product(GRID_VALUES, repeat=n_src):
                    flow, _, _ = allocate_priority(
                        topo.wiring, order, list(deficits), units.headroom.tolist(), list(energies)
                    )
                    # Every source feeds every system in row order: edge j is row j.
                    inflow = [sum(gifts[j] for gifts in flow) for j in range(n_sys)]
                    coverage = sum(min(inflow[j], deficits[j]) for j in range(n_sys))
                    optimum = _coverage_oracle(energies, deficits)
                    assert abs(coverage - optimum) <= 1e-6, (
                        energies,
                        deficits,
                        coverage,
                        optimum,
                    )
                    checked += 1
    # (5 + 25 + 125) energy tuples x (5 + 25 + 125 + 625) deficit tuples
    assert checked == 155 * 780
    assert time.perf_counter() - start < 60.0


# --- 4. stress stability --------------------------------------------------------


def test_criterion_4_stress_scenario_stability():
    start = time.perf_counter()
    cfg, topo = load_scenario(STRESS)
    assert cfg.days == 365 and cfg.seed == 42
    report = compare(cfg, topo, "priority")
    for sid, events in report.treatment.summary.zero_soc_events.items():
        assert events == 0, f"system {sid} hit zero SoC with priority dispatch"
    assert sum(report.baseline.summary.zero_soc_events.values()) >= 1
    assert time.perf_counter() - start < 10.0


# --- 5. degradation gap ----------------------------------------------------------


def test_criterion_5_health_gap_across_seeds():
    start = time.perf_counter()
    doc = json.loads(Path(REFERENCE).read_text())
    gaps = []
    for seed in range(1, 11):
        doc["run"]["seed"] = seed
        cfg, topo = parse_scenario(doc)
        assert cfg.days == 730
        report = compare(cfg, topo, "health")
        on = fleet_mean_soh(report.treatment)
        off = fleet_mean_soh(report.baseline)
        assert on > off, f"seed {seed}: health-aware charging did not help"
        gaps.append(on - off)
    for seed, gap in enumerate(gaps, start=1):
        assert 1.0 <= gap <= 4.0, f"seed {seed}: fleet SoH gap {gap:.3f} pp off-band"
    assert time.perf_counter() - start < 60.0


# --- 6. forecaster quality --------------------------------------------------------


def seasonal_ar_series(n_points, seed, burn=60):
    """Documented check generator: weekly multiplicative AR around level 100.

    dev[t] = 0.6 dev[t-1] + 0.5 dev[t-7] - 0.3 dev[t-8] + e_t,  e ~ N(0, 3^2)
    (the t-8 term is the product of the two AR factors), y = 100 + dev.
    """
    rng = np.random.default_rng(seed)
    dev = np.zeros(burn + n_points)
    for t in range(8, burn + n_points):
        dev[t] = (
            0.6 * dev[t - 1]
            + 0.5 * dev[t - 7]
            - 0.3 * dev[t - 8]
            + rng.normal(0.0, 3.0)
        )
    return 100.0 + dev[burn:]


def test_criterion_6_forecaster_quality():
    start = time.perf_counter()
    series = seasonal_ar_series(550, seed=42)
    train, n_hold = series[:500], 50
    orders = SarimaOrders(p=1, d=0, q=0, P=1, D=0, Q=0, s=7)

    model = fit_sarima(train, orders)
    assert abs(model.ar_coeffs[0] - 0.6) <= 0.15

    rel_err_model, rel_err_naive = [], []
    for k in range(n_hold):
        history = series[: 500 + k]
        actual = series[500 + k]
        refit = fit_sarima(history, orders)
        rel_err_model.append(abs(forecast_one(refit) - actual) / abs(actual))
        rel_err_naive.append(abs(seasonal_naive(history, 7) - actual) / abs(actual))
    mape_model = float(np.mean(rel_err_model))
    mape_naive = float(np.mean(rel_err_naive))
    assert mape_model <= mape_naive, (mape_model, mape_naive)
    assert time.perf_counter() - start < 30.0


# --- 7. determinism -----------------------------------------------------------------


def test_criterion_7_byte_identical_reruns(tmp_path):
    start = time.perf_counter()
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", TOY, "--out", str(out_a)]) == 0
    assert main(["simulate", TOY, "--out", str(out_b)]) == 0
    assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()
    assert time.perf_counter() - start < 10.0


# --- 8. performance envelope ---------------------------------------------------------


def test_criterion_8_two_year_run_under_five_seconds():
    cfg, topo = load_scenario(REFERENCE)
    assert cfg.days == 730
    assert len(topo.systems) == 7
    assert len(topo.loads) == 8
    assert len(topo.sources) == 4
    start = time.perf_counter()
    trace = run_simulation(cfg, topo)
    elapsed = time.perf_counter() - start
    assert trace.soc_pct.shape == (730, 7)
    assert elapsed < 5.0, f"730-day run took {elapsed:.2f}s"
