"""Unit tests for charge targeting, prioritization, allocation, and discharge."""

import numpy as np
import pytest

from hybridgrid import (
    BatteryUnit,
    ChargeTarget,
    EnergySource,
    GridTopology,
    LoadCenter,
    SolarPlantParams,
    StorageSystem,
    allocate_equal,
    allocate_priority,
    compute_charge_targets,
    discharge_shares,
    prioritize,
    split_equally,
    stored_energy,
    system_headroom,
)


def make_system(system_id, capacity=1000.0, energy=0.0, n_units=10):
    per_cap = capacity / n_units
    per_energy = energy / n_units
    units = [
        BatteryUnit(id=i, capacity_mwd=per_cap, energy_mwd=per_energy)
        for i in range(n_units)
    ]
    return StorageSystem(id=system_id, units=units)


def make_topology(system_specs, source_map, load_map=None):
    """system_specs: {id: (capacity, energy)}; source_map: {id: connected ids}."""
    systems = [make_system(i, cap, en) for i, (cap, en) in system_specs.items()]
    sources = [
        EnergySource(
            id=sid,
            kind="solar",
            params=SolarPlantParams(area_m2=1000.0, efficiency=0.2),
            connected_systems=tuple(conn),
            site=f"site-{sid}",
        )
        for sid, conn in source_map.items()
    ]
    loads = [
        LoadCenter(id=lid, connected_systems=tuple(conn))
        for lid, conn in (load_map or {0: list(system_specs)}).items()
    ]
    return GridTopology(systems=systems, loads=loads, sources=sources)


# --- split_equally -------------------------------------------------------


def test_split_equally_symmetric():
    assert split_equally(90.0, [1000.0, 1000.0, 1000.0]) == pytest.approx(
        [30.0, 30.0, 30.0]
    )


def test_split_equally_water_fills_overflow():
    assert split_equally(90.0, [10.0, 100.0, 100.0]) == pytest.approx(
        [10.0, 40.0, 40.0]
    )


def test_split_equally_respects_caps_exactly():
    shares = split_equally(100.0, [5.0, 95.0])
    assert shares == pytest.approx([5.0, 95.0])


def test_split_equally_total_short_of_caps():
    shares = split_equally(10.0, [100.0])
    assert shares == pytest.approx([10.0])


def test_split_equally_fuzz_conservation_and_caps():
    rng = np.random.default_rng(101)
    for _ in range(2000):
        n = int(rng.integers(1, 8))
        caps = rng.uniform(0.0, 100.0, n)
        total = float(rng.uniform(0.0, caps.sum() * 1.2))
        shares = split_equally(total, list(caps))
        assert len(shares) == n
        for share, cap in zip(shares, caps):
            assert -1e-9 <= share <= cap + 1e-9
        assert sum(shares) == pytest.approx(min(total, caps.sum()), abs=1e-6)


# --- charge targets and priority order -----------------------------------


def test_compute_charge_targets_buffer_split():
    # One load forecasting 300 MWd over three systems: each target is
    # 1.25 x 300 / 3 = 125 MWd of desired stored energy.
    topo = make_topology(
        {1: (1000.0, 0.0), 2: (1000.0, 0.0), 3: (1000.0, 0.0)},
        {1: [1, 2, 3]},
        {0: [1, 2, 3]},
    )
    targets = compute_charge_targets(topo, {0: 300.0})
    assert [t.system_id for t in targets] == [1, 2, 3]
    assert [t.target_mwd for t in targets] == pytest.approx([125.0] * 3)
    assert [t.deficit_mwd for t in targets] == pytest.approx([125.0] * 3)


def test_compute_charge_targets_capped_by_capacity():
    topo = make_topology({1: (100.0, 0.0)}, {1: [1]}, {0: [1]})
    targets = compute_charge_targets(topo, {0: 1000.0})
    assert targets[0].target_mwd == pytest.approx(100.0)


def test_compute_charge_targets_deficit_nonnegative():
    topo = make_topology({1: (1000.0, 900.0)}, {1: [1]}, {0: [1]})
    targets = compute_charge_targets(topo, {0: 8.0})
    # Target 10 < stored 900: deficit clamps at zero.
    assert targets[0].deficit_mwd == 0.0


def test_compute_charge_targets_rejects_missing_forecast():
    topo = make_topology({1: (1000.0, 0.0)}, {1: [1]}, {0: [1]})
    with pytest.raises((KeyError, ValueError)):
        compute_charge_targets(topo, {})


def test_prioritize_deficit_descending_with_id_ties():
    targets = [
        ChargeTarget(system_id=1, target_mwd=50.0, deficit_mwd=50.0),
        ChargeTarget(system_id=2, target_mwd=80.0, deficit_mwd=80.0),
        ChargeTarget(system_id=3, target_mwd=80.0, deficit_mwd=80.0),
    ]
    assert prioritize(targets) == [2, 3, 1]


def test_prioritize_all_zero_is_ascending_ids():
    targets = [
        ChargeTarget(system_id=i, target_mwd=0.0, deficit_mwd=0.0) for i in (3, 1, 2)
    ]
    assert prioritize(targets) == [1, 2, 3]


# --- allocate_priority ----------------------------------------------------


def test_allocate_priority_two_pass_hand_trace():
    # Source 1 holds 100; the single system needs 60 and has 300 headroom:
    # pass 1 delivers 60, pass 2 delivers the remaining 40, nothing curtailed.
    topo = make_topology({1: (300.0, 0.0)}, {1: [1]})
    targets = [ChargeTarget(system_id=1, target_mwd=60.0, deficit_mwd=60.0)]
    alloc = allocate_priority([1], targets, {1: 100.0}, topo)
    assert alloc.amounts == pytest.approx({(1, 1): 100.0})
    assert alloc.total_curtailed() == pytest.approx(0.0)


def test_allocate_priority_exhausts_on_high_priority_first():
    # 100 MWd across deficits (80, 80): the higher-priority system gets 80,
    # the other gets the remaining 20.
    topo = make_topology({1: (1000.0, 0.0), 2: (1000.0, 0.0)}, {1: [1, 2]})
    targets = [
        ChargeTarget(system_id=1, target_mwd=80.0, deficit_mwd=80.0),
        ChargeTarget(system_id=2, target_mwd=80.0, deficit_mwd=80.0),
    ]
    alloc = allocate_priority([1, 2], targets, {1: 100.0}, topo)
    assert alloc.inflow(1) == pytest.approx(80.0)
    assert alloc.inflow(2) == pytest.approx(20.0)


def test_allocate_priority_curtails_when_full():
    topo = make_topology({1: (100.0, 100.0)}, {1: [1]})
    targets = [ChargeTarget(system_id=1, target_mwd=100.0, deficit_mwd=0.0)]
    alloc = allocate_priority([1], targets, {1: 100.0}, topo)
    assert alloc.inflow(1) == pytest.approx(0.0)
    assert alloc.curtailed[1] == pytest.approx(100.0)


def test_allocate_priority_pass1_draws_sources_ascending():
    # System 1 (priority) needs 50: source 1 is drained first, source 2 covers
    # the rest; pass 2 then spreads leftovers to system 2's headroom.
    topo = make_topology({1: (50.0, 0.0), 2: (1000.0, 0.0)}, {1: [1, 2], 2: [1, 2]})
    targets = [
        ChargeTarget(system_id=1, target_mwd=50.0, deficit_mwd=50.0),
        ChargeTarget(system_id=2, target_mwd=0.0, deficit_mwd=0.0),
    ]
    alloc = allocate_priority([1, 2], targets, {1: 30.0, 2: 40.0}, topo)
    assert alloc.amounts[(1, 1)] == pytest.approx(30.0)
    assert alloc.amounts[(2, 1)] == pytest.approx(20.0)
    assert alloc.amounts[(2, 2)] == pytest.approx(20.0)
    assert alloc.total_curtailed() == pytest.approx(0.0)


def test_allocate_priority_respects_adjacency():
    topo = make_topology({1: (1000.0, 0.0), 2: (1000.0, 0.0)}, {1: [1], 2: [2]})
    targets = [
        ChargeTarget(system_id=1, target_mwd=10.0, deficit_mwd=10.0),
        ChargeTarget(system_id=2, target_mwd=500.0, deficit_mwd=500.0),
    ]
    alloc = allocate_priority([2, 1], targets, {1: 100.0, 2: 100.0}, topo)
    # Source 1 only reaches system 1 even though system 2 has priority.
    assert alloc.inflow(1) == pytest.approx(100.0)
    assert alloc.inflow(2) == pytest.approx(100.0)
    assert all(sid == 1 for (src, sid) in alloc.amounts if src == 1)


# --- allocate_equal -------------------------------------------------------


def test_allocate_equal_symmetric_split():
    topo = make_topology(
        {1: (1000.0, 0.0), 2: (1000.0, 0.0), 3: (1000.0, 0.0)}, {1: [1, 2, 3]}
    )
    alloc = allocate_equal({1: 90.0}, topo)
    assert [alloc.inflow(i) for i in (1, 2, 3)] == pytest.approx([30.0, 30.0, 30.0])


def test_allocate_equal_water_fills_overflow():
    topo = make_topology(
        {1: (10.0, 0.0), 2: (100.0, 0.0), 3: (100.0, 0.0)}, {1: [1, 2, 3]}
    )
    alloc = allocate_equal({1: 90.0}, topo)
    assert [alloc.inflow(i) for i in (1, 2, 3)] == pytest.approx([10.0, 40.0, 40.0])


def test_allocate_equal_curtails_when_all_full():
    topo = make_topology({1: (100.0, 100.0), 2: (50.0, 50.0)}, {1: [1, 2]})
    alloc = allocate_equal({1: 75.0}, topo)
    assert alloc.total_curtailed() == pytest.approx(75.0)


def test_single_source_single_system_policies_agree():
    for energy, stored in [(40.0, 0.0), (500.0, 100.0), (1000.0, 900.0)]:
        topo_a = make_topology({1: (1000.0, stored)}, {1: [1]})
        topo_b = make_topology({1: (1000.0, stored)}, {1: [1]})
        targets = compute_charge_targets(topo_a, {0: 200.0})
        order = prioritize(targets)
        a = allocate_priority(order, targets, {1: energy}, topo_a)
        b = allocate_equal({1: energy}, topo_b)
        assert a.inflow(1) == pytest.approx(b.inflow(1))
        assert a.total_curtailed() == pytest.approx(b.total_curtailed())


# --- allocation fuzz ------------------------------------------------------


def random_instance(rng):
    n_sys = int(rng.integers(1, 6))
    n_src = int(rng.integers(1, 5))
    specs = {}
    for i in range(1, n_sys + 1):
        cap = float(rng.uniform(10.0, 500.0))
        specs[i] = (cap, float(rng.uniform(0.0, cap)))
    sources = {}
    for sid in range(1, n_src + 1):
        k = int(rng.integers(1, n_sys + 1))
        conn = sorted(rng.choice(np.arange(1, n_sys + 1), size=k, replace=False))
        sources[sid] = [int(c) for c in conn]
    energies = {sid: float(rng.uniform(0.0, 400.0)) for sid in sources}
    forecasts = {0: float(rng.uniform(0.0, 600.0))}
    return specs, sources, energies, forecasts


def check_allocation_invariants(alloc, energies, topo):
    headrooms = {s.id: system_headroom(s) for s in topo.systems}
    adjacency = {src.id: set(src.connected_systems) for src in topo.sources}
    inflow_by_system = {s.id: 0.0 for s in topo.systems}
    delivered_by_source = {sid: 0.0 for sid in energies}
    for (src, sid), amount in alloc.amounts.items():
        assert amount >= -1e-9
        assert sid in adjacency[src]
        inflow_by_system[sid] += amount
        delivered_by_source[src] += amount
    for sid, total_in in inflow_by_system.items():
        assert total_in <= headrooms[sid] + 1e-6
    for src, energy in energies.items():
        assert delivered_by_source[src] + alloc.curtailed.get(src, 0.0) == pytest.approx(
            energy, abs=1e-6
        )


def test_allocation_invariants_fuzz():
    rng = np.random.default_rng(2024)
    for _ in range(1500):
        specs, sources, energies, forecasts = random_instance(rng)
        topo = make_topology(specs, sources, {0: list(specs)})
        targets = compute_charge_targets(topo, forecasts)
        order = prioritize(targets)
        alloc_p = allocate_priority(order, targets, energies, topo)
        check_allocation_invariants(alloc_p, energies, topo)
        topo2 = make_topology(specs, sources, {0: list(specs)})
        alloc_e = allocate_equal(energies, topo2)
        check_allocation_invariants(alloc_e, energies, topo2)


# --- discharge ------------------------------------------------------------


def test_discharge_shares_proportional_to_stored():
    systems = [
        make_system(1, 1000.0, 200.0),
        make_system(2, 1000.0, 100.0),
        make_system(3, 1000.0, 100.0),
    ]
    out = discharge_shares(200.0, systems)
    assert out.contributions == pytest.approx({1: 100.0, 2: 50.0, 3: 50.0})
    assert out.served_mwd == pytest.approx(200.0)
    assert out.unmet_mwd == pytest.approx(0.0)


def test_discharge_shares_full_drain_is_exact():
    systems = [make_system(1, 1000.0, 123.456), make_system(2, 1000.0, 76.544)]
    pool = [stored_energy(s) for s in systems]
    out = discharge_shares(500.0, systems)
    # When demand exceeds the pool every system contributes its exact stored
    # energy, bit for bit — no proportional rounding residue.
    assert out.contributions[1] == pool[0]
    assert out.contributions[2] == pool[1]
    assert out.served_mwd == pytest.approx(200.0)
    assert out.unmet_mwd == pytest.approx(300.0)


def test_discharge_shares_zero_demand():
    systems = [make_system(1, 1000.0, 100.0)]
    out = discharge_shares(0.0, systems)
    assert out.contributions[1] == pytest.approx(0.0)
    assert out.unmet_mwd == 0.0


def test_discharge_shares_empty_pool_all_unmet():
    systems = [make_system(1, 1000.0, 0.0)]
    out = discharge_shares(50.0, systems)
    assert out.served_mwd == 0.0
    assert out.unmet_mwd == pytest.approx(50.0)


def test_discharge_shares_fuzz_conservation():
    rng = np.random.default_rng(77)
    for _ in range(2000):
        n = int(rng.integers(1, 6))
        systems = []
        stored_total = 0.0
        for i in range(1, n + 1):
            cap = float(rng.uniform(10.0, 300.0))
            en = float(rng.uniform(0.0, cap))
            stored_total += en
            systems.append(make_system(i, cap, en))
        demand = float(rng.uniform(0.0, stored_total * 1.5 + 1.0))
        out = discharge_shares(demand, systems)
        assert sum(out.contributions.values()) == pytest.approx(
            min(demand, stored_total), abs=1e-6
        )
        for system in systems:
            assert out.contributions[system.id] <= stored_energy(system) + 1e-6
        assert out.served_mwd + out.unmet_mwd == pytest.approx(demand, abs=1e-6)
