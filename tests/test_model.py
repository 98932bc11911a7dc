"""Unit tests for grid entities, state accessors, and topology validation."""

import re
from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import fold

from hybridgrid import (
    EnergySource,
    GridTopology,
    GridUnits,
    LoadCenter,
    SolarPlantParams,
    StorageSystem,
    WindPlantParams,
    reference_topology,
    validate_topology,
)
from hybridgrid.model import total


TERMS = st.floats(width=64) | st.sampled_from([0.0, -0.0, 5e-324, 1e308, -1e308])


@settings(deadline=None, max_examples=200)
@given(rows=st.integers(0, 4), width=st.integers(0, 20), data=st.data())
def test_total_adds_each_row_left_to_right_bit_for_bit(rows, width, data):
    # model.total is every float total of the package. Each row's sum is a
    # loop's, from its first term: fold's (which adds from 0.0) but for the
    # sign of a zero sum, and an empty row sums to 0.0.
    values = data.draw(st.lists(st.lists(TERMS, min_size=width, max_size=width),
                                min_size=rows, max_size=rows))
    with np.errstate(over="ignore", invalid="ignore"):  # a loop overflows, and inf - inf, alike
        got = total(np.array(values, dtype=float).reshape(rows, width))
        first = [float(total(row)) for row in values[:1]]  # a 1-D array's one sum
    assert got.shape == (rows,)
    for row, t in zip(values, got.tolist()):
        assert float.hex(t) == float.hex(reduce(add, row) if row else 0.0)
        assert float.hex(0.0 + t) == float.hex(fold(row))
    assert [t.hex() for t in first] == [t.hex() for t in got.tolist()[:1]]


def make_system(system_id=1, n_units=10, capacity=100.0, energy=50.0, soh=100.0):
    return StorageSystem(system_id, np.full(n_units, capacity), energy, soh)


def test_battery_unit_rejects_overfull():
    with pytest.raises(ValueError, match=re.escape("system 1 unit 1: energy outside [0, capacity]")):
        StorageSystem(1, [100.0, 100.0], [100.0, 101.0])


def test_battery_unit_rejects_negative_energy():
    with pytest.raises(ValueError, match=re.escape("system 1 unit 0: energy outside [0, capacity]")):
        StorageSystem(1, [100.0], -1.0)


def test_battery_unit_rejects_bad_soh():
    with pytest.raises(ValueError, match=re.escape("system 1 unit 0: SoH outside [0, 100]")):
        StorageSystem(1, [100.0], 0.0, 101.0)


@pytest.mark.parametrize(
    "arrays, message",
    [
        ({"cap": [100.0, 0.0]}, "unit 1: capacity must be positive"),
        ({"cap": [100.0, -5.0]}, "unit 1: capacity must be positive"),
        ({"cap": [np.nan]}, "unit 0: capacity must be positive"),
        ({"energy": [0.0, 100.0 * (1.0 + 2e-9)]}, "unit 1: energy outside [0, capacity]"),
        ({"energy": [0.0, np.nan]}, "unit 1: energy outside [0, capacity]"),
        ({"soh": [100.0, -0.5]}, "unit 1: SoH outside [0, 100]"),
        ({"r_charge": [0.0, -1.0]}, "unit 1: degradation rates must be >= 0"),
        ({"r_discharge": [np.nan, 0.0]}, "unit 0: degradation rates must be >= 0"),
        # The first unit that breaks any rule is named, with its first rule broken.
        ({"soh": [100.0, 200.0], "energy": [0.0, -1.0], "r_charge": [-1.0, 0.0]},
         "unit 0: degradation rates must be >= 0"),
        ({"cap": [100.0, 0.0], "energy": [0.0, 5.0]}, "unit 1: capacity must be positive"),
        # The energy bound is relative to the capacity, however small it is.
        ({"cap": [100.0, 2.0**-20], "energy": [0.0, 2.0**-20 * (1.0 + 2e-9)]},
         "unit 1: energy outside [0, capacity]"),
        # A move computes every unit's wear, so a rate times its capacity is finite.
        ({"r_charge": [np.inf]}, "unit 0: degradation rates must be >= 0 and finite times capacity"),
    ],
)
def test_storage_system_checks_each_unit_array(arrays, message):
    with pytest.raises(ValueError, match=re.escape(f"system 7 {message}")):
        StorageSystem(7, **{"cap": [100.0, 100.0], **arrays})


def test_storage_system_takes_a_scalar_for_every_unit_and_copies_arrays():
    energy = np.array([10.0, 20.0, 30.0])
    s = StorageSystem(3, [100.0] * 3, energy, 90.0, r_discharge=0.5)
    energy[0] = 99.0
    assert s.energy.tolist() == [10.0, 20.0, 30.0]
    assert s.soh.tolist() == [90.0] * 3 and s.r_charge.tolist() == [0.0] * 3
    assert s.r_discharge.tolist() == [0.5] * 3 and s.capacity_mwd == 300.0
    # The benchmark-only view lists each unit with its position as its id.
    assert [u.id for u in s.units] == [0, 1, 2]
    assert s.units[1].energy_mwd == 20.0 and s.units[2].soh_pct == 90.0


def test_storage_system_rejects_misshaped_unit_arrays():
    with pytest.raises(ValueError, match=re.escape("system 1: unit arrays must have one value")):
        StorageSystem(1, [100.0, 100.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match=re.escape("system 1: needs at least one unit")):
        StorageSystem(1, [[100.0]])


def soc_pct(*systems):
    return GridUnits(list(systems)).soc_pct.tolist()


def test_soc_pct_reference_case():
    # Ten units of capacity 100 MWd each holding 50 MWd -> 50%.
    assert soc_pct(make_system()) == pytest.approx([50.0], rel=1e-12)


def test_soc_pct_empty_and_full():
    assert soc_pct(make_system(energy=0.0), make_system(energy=100.0)) == pytest.approx(
        [0.0, 100.0]
    )


def test_storage_system_rejects_empty_unit_list():
    with pytest.raises(ValueError, match="system 1: needs at least one unit"):
        StorageSystem(id=1, cap=[])


def test_stored_and_headroom_sum_to_capacity():
    units = GridUnits([make_system(energy=37.5)])
    assert units.capacity.tolist() == [1000.0]
    assert units.stored == pytest.approx([375.0])
    assert units.capacity - units.stored == pytest.approx([625.0])


def test_system_mean_soh():
    system = StorageSystem(id=1, cap=[100.0, 100.0], energy=0.0, soh=[90.0, 70.0])
    assert GridUnits([system]).mean_soh_pct == pytest.approx([80.0])


def test_reference_topology_shape():
    topo = reference_topology()
    assert len(topo.systems) == 7
    assert len(topo.loads) == 8
    assert len(topo.sources) == 4
    assert sum(len(s.cap) for s in topo.systems) == 70
    assert sum(s.capacity_mwd for s in topo.systems) == pytest.approx(7000.0)


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
    units = GridUnits(reference_topology(initial_soc_pct=80.0, initial_soh_pct=95.0).systems)
    assert units.soc_pct == pytest.approx([80.0] * 7)
    assert units.mean_soh_pct == pytest.approx([95.0] * 7)


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


def test_wiring_system_sources_match_a_scan_of_every_source():
    # The one-pass build over source_rows equals testing every row against
    # every source's rows, and each edge's slot points back at its row.
    rng = np.random.default_rng(7)
    for _ in range(300):
        n_sys, n_src = int(rng.integers(1, 9)), int(rng.integers(1, 7))
        ids = [int(x) for x in rng.permutation(40)[:n_sys]]
        sources = []
        for k in rng.permutation(n_src):
            wired = rng.permutation(ids)[: int(rng.integers(1, n_sys + 1))]
            sources.append(solar_source(int(k) * 3 - 5, tuple(int(x) for x in wired)))
        topo = GridTopology([make_system(sid, n_units=1) for sid in ids], [], sources)
        w = topo.wiring
        scanned = [[k for k, rows in enumerate(w.source_rows) if i in rows] for i in range(n_sys)]
        assert [[k for k, _ in edges] for edges in w.system_edges] == scanned
        for i, edges in enumerate(w.system_edges):
            assert [w.source_rows[k][j] for k, j in edges] == [i] * len(edges)
