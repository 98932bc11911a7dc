"""Unit tests for grid entities, state accessors, and topology validation."""

import pytest

from hybridgrid import (
    BatteryUnit,
    EnergySource,
    GridTopology,
    LoadCenter,
    SolarPlantParams,
    StorageSystem,
    WindPlantParams,
    reference_topology,
    stored_energy,
    system_headroom,
    system_soc,
    validate_topology,
)


def make_system(system_id=1, n_units=10, capacity=100.0, energy=50.0, soh=100.0):
    units = [
        BatteryUnit(id=i, capacity_mwd=capacity, energy_mwd=energy, soh_pct=soh)
        for i in range(n_units)
    ]
    return StorageSystem(id=system_id, units=units)


def test_battery_unit_rejects_overfull():
    with pytest.raises(ValueError):
        BatteryUnit(id=0, capacity_mwd=100.0, energy_mwd=101.0)


def test_battery_unit_rejects_negative_energy():
    with pytest.raises(ValueError):
        BatteryUnit(id=0, capacity_mwd=100.0, energy_mwd=-1.0)


def test_battery_unit_rejects_bad_soh():
    with pytest.raises(ValueError):
        BatteryUnit(id=0, capacity_mwd=100.0, energy_mwd=0.0, soh_pct=101.0)


def test_battery_unit_headroom():
    unit = BatteryUnit(id=0, capacity_mwd=100.0, energy_mwd=30.0)
    assert unit.headroom_mwd == pytest.approx(70.0)


def test_system_soc_reference_case():
    # Ten units of capacity 100 MWd each holding 50 MWd -> 50%.
    assert system_soc(make_system()) == pytest.approx(50.0, rel=1e-12)


def test_system_soc_empty_and_full():
    assert system_soc(make_system(energy=0.0)) == 0.0
    assert system_soc(make_system(energy=100.0)) == pytest.approx(100.0)


def test_storage_system_rejects_empty_unit_list():
    with pytest.raises(ValueError):
        StorageSystem(id=1, units=[])


def test_stored_energy_and_headroom_sum_to_capacity():
    system = make_system(energy=37.5)
    assert stored_energy(system) + system_headroom(system) == pytest.approx(
        system.capacity_mwd
    )


def test_system_mean_soh():
    units = [
        BatteryUnit(id=0, capacity_mwd=100.0, energy_mwd=0.0, soh_pct=90.0),
        BatteryUnit(id=1, capacity_mwd=100.0, energy_mwd=0.0, soh_pct=70.0),
    ]
    assert StorageSystem(id=1, units=units).mean_soh_pct == pytest.approx(80.0)


def test_reference_topology_shape():
    topo = reference_topology()
    assert len(topo.systems) == 7
    assert len(topo.loads) == 8
    assert len(topo.sources) == 4
    assert sum(len(s.units) for s in topo.systems) == 70
    assert sum(u.capacity_mwd for s in topo.systems for u in s.units) == pytest.approx(
        7000.0
    )


def test_reference_topology_load_wiring():
    topo = reference_topology()
    wiring = {ld.id: tuple(ld.connected_systems) for ld in topo.loads}
    assert wiring == {
        0: (1, 2, 3),
        1: (2, 3, 4),
        2: (3, 4, 5),
        3: (4, 5, 6),
        4: (5, 6, 7),
        5: (1, 6, 7),
        6: (1, 2, 7),
        7: (2, 3, 7),
    }


def test_reference_topology_source_wiring():
    topo = reference_topology()
    wind = [s for s in topo.sources if s.kind == "wind"]
    solar = [s for s in topo.sources if s.kind == "solar"]
    assert len(wind) == 2 and len(solar) == 2
    assert {tuple(s.connected_systems) for s in wind} == {(1, 2, 3, 4)}
    assert {tuple(s.connected_systems) for s in solar} == {(4, 5, 6, 7)}
    assert sorted(s.params.turbine_count for s in wind) == [50, 100]
    assert sorted(s.params.area_m2 for s in solar) == [900_000.0, 1_500_000.0]


def test_reference_topology_initial_state_applied():
    topo = reference_topology(initial_soc_pct=80.0, initial_soh_pct=95.0)
    for system in topo.systems:
        assert system_soc(system) == pytest.approx(80.0)
        assert system.mean_soh_pct == pytest.approx(95.0)


def test_reference_topology_validates_clean():
    assert validate_topology(reference_topology()) == []


def solar_source(source_id=1, connected=(1,)):
    return EnergySource(
        id=source_id,
        kind="solar",
        params=SolarPlantParams(area_m2=1000.0, efficiency=0.2),
        connected_systems=connected,
        site="inland",
    )


def test_validate_topology_flags_unknown_system():
    load = LoadCenter(id=0, connected_systems=(1, 9))
    topo = GridTopology(systems=[make_system(1)], loads=[load], sources=[solar_source()])
    violations = validate_topology(topo)
    assert any(v.rule == "unknown-system" and "9" in v.detail for v in violations)


def test_validate_topology_flags_duplicate_ids():
    load = LoadCenter(id=0, connected_systems=(1,))
    topo = GridTopology(
        systems=[make_system(1), make_system(1)], loads=[load], sources=[solar_source()]
    )
    assert any(v.rule == "duplicate-id" for v in validate_topology(topo))


def test_validate_topology_flags_duplicate_unit_ids():
    system = StorageSystem(
        id=1, units=[BatteryUnit(id=0, capacity_mwd=100.0), BatteryUnit(id=0, capacity_mwd=100.0)]
    )
    load = LoadCenter(id=0, connected_systems=(1,))
    topo = GridTopology(systems=[system], loads=[load], sources=[solar_source()])
    violations = validate_topology(topo)
    assert [v.rule for v in violations] == ["duplicate-unit-id"]
    assert violations[0].entity == "system 1"


def test_validate_topology_flags_unsourced_system():
    load = LoadCenter(id=0, connected_systems=(1, 2))
    topo = GridTopology(
        systems=[make_system(1), make_system(2)], loads=[load], sources=[solar_source()]
    )
    violations = validate_topology(topo)
    assert any(v.rule == "unsourced-system" and "2" in v.entity for v in violations)


def test_validate_topology_flags_empty_connection_list():
    load = LoadCenter(id=0, connected_systems=())
    topo = GridTopology(systems=[make_system(1)], loads=[load], sources=[solar_source()])
    assert any(v.rule == "no-connected-systems" for v in validate_topology(topo))


def test_energy_source_rejects_mismatched_params():
    wind_params = WindPlantParams(
        power_coefficient=0.4,
        air_density=1.225,
        rotor_area_m2=10_000.0,
        turbine_count=50,
        cut_in_ms=3.0,
        cut_out_ms=25.0,
    )
    with pytest.raises((TypeError, ValueError)):
        EnergySource(
            id=1, kind="solar", params=wind_params, connected_systems=(1,), site="x"
        )
