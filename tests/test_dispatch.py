"""Unit tests for charge targeting, prioritization, allocation, and discharge."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridgrid import (
    EnergySource,
    GridTopology,
    GridUnits,
    LoadCenter,
    SolarPlantParams,
    StorageSystem,
    allocate_equal,
    allocate_priority,
    charge_deficits,
    charge_targets,
    prioritize,
    reference_topology,
    settle_loads,
    split_equally,
)


def make_system(system_id, capacity=1000.0, energy=0.0, n_units=10):
    return StorageSystem(system_id, np.full(n_units, capacity / n_units), energy / n_units)


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


def deficits(topo, forecasts):
    units = GridUnits(topo.systems)
    return charge_deficits(charge_targets(topo, forecasts).tolist(), units.stored.tolist())


def dense(topo, flow):
    """flow[source][edge] as a [source, system row] matrix, zero where unwired."""
    out = np.zeros((len(flow), len(topo.systems)))
    for k, (rows, gifts) in enumerate(zip(topo.wiring.source_rows, flow)):
        out[k, rows] = gifts
    return out


def column_sums(topo, flow):
    """Each system's inflow: the column sums of the dense flow matrix."""
    return dense(topo, flow).sum(axis=0).tolist()


# --- split_equally -------------------------------------------------------


def test_split_equally_symmetric():
    assert split_equally(90.0, [1000.0, 1000.0, 1000.0], range(3)) == pytest.approx(
        [30.0, 30.0, 30.0]
    )


def test_split_equally_water_fills_overflow():
    assert split_equally(90.0, [10.0, 100.0, 100.0], range(3)) == pytest.approx(
        [10.0, 40.0, 40.0]
    )


def test_split_equally_respects_caps_exactly():
    shares = split_equally(100.0, [5.0, 95.0], range(2))
    assert shares == pytest.approx([5.0, 95.0])


def test_split_equally_total_short_of_caps():
    shares = split_equally(10.0, [100.0], range(1))
    assert shares == pytest.approx([10.0])


def test_split_equally_reads_only_its_slots_in_their_order():
    caps = [10.0, 999.0, 100.0, 0.0, 100.0]
    got = split_equally(90.0, caps, [4, 0, 3, 2])
    assert got == split_equally(90.0, [100.0, 10.0, 0.0, 100.0], range(4))
    assert got == pytest.approx([40.0, 10.0, 0.0, 40.0])
    assert caps == [10.0, 999.0, 100.0, 0.0, 100.0]


def test_split_equally_fuzz_conservation_and_caps():
    rng = np.random.default_rng(101)
    for _ in range(2000):
        n = int(rng.integers(1, 8))
        caps = rng.uniform(0.0, 100.0, n)
        total = float(rng.uniform(0.0, caps.sum() * 1.2))
        shares = split_equally(total, list(caps), range(n))
        assert len(shares) == n
        for share, cap in zip(shares, caps):
            assert -1e-9 <= share <= cap + 1e-9
        assert sum(shares) == pytest.approx(min(total, caps.sum()), abs=1e-6)


# --- charge targets and priority order -----------------------------------


def test_charge_wants_buffer_split():
    # One load forecasting 300 MWd over three systems: each target is
    # 1.25 x 300 / 3 = 125 MWd of desired stored energy.
    topo = make_topology(
        {1: (1000.0, 0.0), 2: (1000.0, 0.0), 3: (1000.0, 0.0)},
        {1: [1, 2, 3]},
        {0: [1, 2, 3]},
    )
    assert charge_targets(topo, [300.0]).tolist() == pytest.approx([125.0] * 3)
    assert deficits(topo, [300.0]) == pytest.approx([125.0] * 3)


def test_charge_targets_of_many_days_equal_each_day_alone():
    # Loads share systems, so a system adds shares of several loads; the
    # last axis is the load axis whatever comes before it.
    topo = make_topology({1: (100.0, 0.0), 2: (1000.0, 0.0), 3: (50.0, 0.0)}, {1: [1, 2, 3]},
                         {0: [2, 1], 1: [3, 2], 2: [2]})
    days = np.random.default_rng(3).uniform(0.0, 200.0, (6, 3))
    rows = [charge_targets(topo, day).tolist() for day in days.tolist()]
    assert charge_targets(topo, days).tolist() == rows
    assert rows[0] == [min(100.0, 1.25 * days[0, 0] / 2),
                       min(1000.0, 1.25 * days[0, 0] / 2 + 1.25 * days[0, 1] / 2
                           + 1.25 * days[0, 2]),
                       min(50.0, 1.25 * days[0, 1] / 2)]


def test_charge_deficits_capped_by_capacity():
    topo = make_topology({1: (100.0, 0.0)}, {1: [1]}, {0: [1]})
    assert deficits(topo, [1000.0]) == pytest.approx([100.0])


def test_charge_deficits_nonnegative():
    topo = make_topology({1: (1000.0, 900.0)}, {1: [1]}, {0: [1]})
    # Target 10 < stored 900: deficit clamps at zero.
    assert deficits(topo, [8.0]) == [0.0]


def test_charge_wants_rejects_missing_forecast():
    topo = make_topology({1: (1000.0, 0.0)}, {1: [1]}, {0: [1]})
    for forecasts in ([], [1.0, 2.0], 1.0, np.ones((3, 2))):
        with pytest.raises(ValueError, match=r"need one forecast per load \(1\)"):
            charge_targets(topo, forecasts)


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf, -math.inf])
def test_charge_wants_rejects_a_forecast_that_is_negative_or_not_finite(bad):
    # NaN fails no "< 0" test, so it is caught as not finite, naming its load.
    topo = reference_topology()
    forecasts = np.full(len(topo.loads), 100.0)
    forecasts[4] = bad
    with pytest.raises(ValueError, match=r"^load 4: forecast must be finite and >= 0$"):
        charge_targets(topo, forecasts)
    # Over many days it names the first load in id order, not in day order.
    series = np.tile(forecasts, (3, 1))
    series[0, 6] = bad
    with pytest.raises(ValueError, match=r"^load 4: "):
        charge_targets(topo, series)


def test_charge_deficits_keep_a_nan_or_negative_zero_shortfall():
    got = charge_deficits([5.0, math.nan, -0.0, 1.0], [7.0, 1.0, 0.0, 0.25])
    assert [x.hex() for x in got] == ["0x0.0p+0", "nan", "-0x0.0p+0", "0x1.8000000000000p-1"]


def test_prioritize_deficit_descending_with_id_ties():
    # Returns rows: rows 1 and 2 tie on deficit and go in row order.
    assert prioritize([50.0, 80.0, 80.0]) == [1, 2, 0]


def test_prioritize_all_zero_is_ascending_ids():
    # Systems listed as 3, 1, 2 are held as rows 1, 2, 3, so rows are ids' ranks.
    topo = make_topology({3: (10.0, 0.0), 1: (10.0, 0.0), 2: (10.0, 0.0)}, {1: [1, 2, 3]})
    assert [s.id for s in topo.systems] == [1, 2, 3]
    assert prioritize([0.0, 0.0, 0.0]) == [0, 1, 2]


@settings(deadline=None, max_examples=300)
@given(deficit=st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.5]) | st.floats(0.0, 1e6),
                        max_size=12))
def test_prioritize_equals_the_deficit_then_id_key(deficit):
    # A stable reverse sort over rows ranks exactly as the key (-deficit,
    # row) does, ties and signed zeros included; a row is its id's rank.
    key = sorted(range(len(deficit)), key=lambda i: (-deficit[i], i))
    assert prioritize(deficit) == key


# --- allocate_priority ----------------------------------------------------


def test_allocate_priority_two_pass_hand_trace():
    # Source 1 holds 100; the single system needs 60 and has 300 headroom:
    # pass 1 delivers 60, pass 2 delivers the remaining 40, nothing curtailed.
    topo = make_topology({1: (300.0, 0.0)}, {1: [1]})
    room = GridUnits(topo.systems).headroom.tolist()
    flow, curtailed, _ = allocate_priority(topo.wiring, [0], [60.0], room, [100.0])
    assert dense(topo, flow) == pytest.approx(np.array([[100.0]]))
    assert curtailed == [0.0]


def test_allocate_priority_exhausts_on_high_priority_first():
    # 100 MWd across deficits (80, 80): the higher-priority system gets 80,
    # the other gets the remaining 20.
    topo = make_topology({1: (1000.0, 0.0), 2: (1000.0, 0.0)}, {1: [1, 2]})
    room = GridUnits(topo.systems).headroom.tolist()
    flow, _, _ = allocate_priority(topo.wiring, [0, 1], [80.0, 80.0], room, [100.0])
    assert column_sums(topo, flow) == pytest.approx([80.0, 20.0])


def test_allocate_priority_curtails_when_full():
    topo = make_topology({1: (100.0, 100.0)}, {1: [1]})
    room = GridUnits(topo.systems).headroom.tolist()
    flow, curtailed, _ = allocate_priority(topo.wiring, [0], [0.0], room, [100.0])
    assert column_sums(topo, flow) == pytest.approx([0.0])
    assert curtailed == pytest.approx([100.0])


def test_allocate_priority_pass1_draws_sources_ascending():
    # System 1 (priority) needs 50: source 1 is drained first, source 2 covers
    # the rest; pass 2 then spreads leftovers to system 2's headroom.
    topo = make_topology({1: (50.0, 0.0), 2: (1000.0, 0.0)}, {1: [1, 2], 2: [1, 2]})
    room = GridUnits(topo.systems).headroom.tolist()
    flow, curtailed, _ = allocate_priority(topo.wiring, [0, 1], [50.0, 0.0], room, [30.0, 40.0])
    assert dense(topo, flow) == pytest.approx(np.array([[30.0, 0.0], [20.0, 20.0]]))
    assert curtailed == pytest.approx([0.0, 0.0])


def test_allocate_priority_respects_adjacency():
    topo = make_topology({1: (1000.0, 0.0), 2: (1000.0, 0.0)}, {1: [1], 2: [2]})
    room = GridUnits(topo.systems).headroom.tolist()
    flow, _, _ = allocate_priority(topo.wiring, [1, 0], [10.0, 500.0], room, [100.0, 100.0])
    # Source 1 only reaches system 1 even though system 2 has priority.
    assert column_sums(topo, flow) == pytest.approx([100.0, 100.0])
    assert dense(topo, flow)[0][1] == 0.0


def test_allocate_priority_adds_each_gift_to_its_inflow_whole():
    # Source 2 gives system 1 part of its gift in pass 1 and the rest in pass
    # 2. A row's inflow adds each source's whole gift, sources ascending;
    # adding the two parts as they are placed would give 0.8220000000000001.
    topo = make_topology({1: (9.0, 0.0), 2: (1.5, 0.0), 3: (3.0, 0.0)},
                         {1: [1], 2: [1, 2], 3: [1, 2, 3]})
    deficit = [0.3, 0.2, 0.3]
    flow, _, into = allocate_priority(topo.wiring, prioritize(deficit), deficit,
                                      [9.0, 1.5, 3.0], [0.1, 1.0, 0.1])
    whole = [0.0, 0.0, 0.0]
    for rows, gifts in zip(topo.wiring.source_rows, flow):
        for i, amt in zip(rows, gifts):
            whole[i] += amt
    assert [x.hex() for x in into] == [x.hex() for x in whole]
    assert into[0] == 0.822


# --- allocate_equal -------------------------------------------------------


def test_allocate_equal_symmetric_split():
    topo = make_topology(
        {1: (1000.0, 0.0), 2: (1000.0, 0.0), 3: (1000.0, 0.0)}, {1: [1, 2, 3]}
    )
    flow, _, _ = allocate_equal(topo.wiring, GridUnits(topo.systems).headroom.tolist(), [90.0])
    assert column_sums(topo, flow) == pytest.approx([30.0, 30.0, 30.0])


def test_allocate_equal_water_fills_overflow():
    topo = make_topology(
        {1: (10.0, 0.0), 2: (100.0, 0.0), 3: (100.0, 0.0)}, {1: [1, 2, 3]}
    )
    flow, _, _ = allocate_equal(topo.wiring, GridUnits(topo.systems).headroom.tolist(), [90.0])
    assert column_sums(topo, flow) == pytest.approx([10.0, 40.0, 40.0])


def test_allocate_equal_curtails_when_all_full():
    topo = make_topology({1: (100.0, 100.0), 2: (50.0, 50.0)}, {1: [1, 2]})
    _, curtailed, _ = allocate_equal(topo.wiring, GridUnits(topo.systems).headroom.tolist(), [75.0])
    assert curtailed == pytest.approx([75.0])


def test_single_source_single_system_policies_agree():
    for energy, stored in [(40.0, 0.0), (500.0, 100.0), (1000.0, 900.0)]:
        topo = make_topology({1: (1000.0, stored)}, {1: [1]})
        deficit = deficits(topo, [200.0])
        order = prioritize(deficit)
        room = GridUnits(topo.systems).headroom.tolist()
        a = allocate_priority(topo.wiring, order, deficit, list(room), [energy])
        b = allocate_equal(topo.wiring, room, [energy])
        assert column_sums(topo, a[0]) == pytest.approx(column_sums(topo, b[0]))
        assert a[1] == pytest.approx(b[1])


# --- allocation properties ---------------------------------------------------


@st.composite
def grids(draw):
    """1-5 systems and 1-4 sources, each wired to a non-empty set of systems,
    with the day's energy per source and one load's forecast over all systems."""
    n_sys = draw(st.integers(1, 5))
    specs = {}
    for sid in range(1, n_sys + 1):
        cap = draw(st.floats(10.0, 500.0))
        specs[sid] = (cap, draw(st.floats(0.0, 1.0)) * cap)
    wiring = st.lists(st.integers(1, n_sys), min_size=1, unique=True).map(sorted)
    sources = {src: draw(wiring) for src in range(1, draw(st.integers(1, 4)) + 1)}
    energies = [draw(st.floats(0.0, 400.0)) for _ in sources]
    topo = make_topology(specs, sources, {0: list(specs)})
    return topo, energies, draw(st.floats(0.0, 600.0))


@settings(deadline=None, max_examples=300)
@given(grid=grids())
def test_allocation_properties(grid):
    topo, energies, forecast = grid
    units = GridUnits(topo.systems)
    w, room = topo.wiring, units.headroom.tolist()
    deficit = deficits(topo, [forecast])
    wired = {(src.id, sid) for src in topo.sources for sid in src.connected_systems}
    for flow, curtailed, into in (
        allocate_priority(w, prioritize(deficit), deficit, list(room), energies),
        allocate_equal(w, list(room), energies),
    ):
        assert all(v >= 0.0 for v in [*(v for gifts in flow for v in gifts), *curtailed])
        # Flow rows are sources in ascending id, one amount per wired system.
        sources = topo.sources
        assert [src.id for src in sources] == sorted(src.id for src in sources)
        assert [len(gifts) for gifts in flow] == [len(src.connected_systems) for src in sources]
        given = {(src.id, units.ids[i]) for src, gifts in zip(sources, dense(topo, flow))
                 for i, amount in enumerate(gifts) if amount}
        assert given <= wired
        # Summing only the wired edges equals the dense source-by-source sum
        # bit for bit: every gift is >= 0, so the zeros added nothing.
        summed = [0.0] * len(room)
        for gifts in dense(topo, flow).tolist():
            summed = [a + b for a, b in zip(summed, gifts)]
        assert into == summed
        for got, open_room in zip(summed, room):
            assert got <= open_room + 1e-6
        for row, energy, curt in zip(flow, energies, curtailed):
            assert sum(row) + curt == pytest.approx(energy, abs=1e-6)


# --- discharge ------------------------------------------------------------


def settle_one_load(demand, stored):
    """settle_loads on one load wired to every row: (draws, served, unmet)."""
    served, unmet, took = settle_loads([list(range(len(stored)))], [demand], list(stored))
    return took, served[0], unmet[0]


def test_settle_loads_proportional_to_stored():
    give, served, unmet = settle_one_load(200.0, [200.0, 100.0, 100.0])
    assert give == pytest.approx([100.0, 50.0, 50.0])
    assert served == pytest.approx(200.0)
    assert unmet == 0.0


def test_settle_loads_full_drain_is_exact():
    pool = [123.456, 76.544]
    give, served, unmet = settle_one_load(500.0, pool)
    # When demand exceeds the pool every system contributes its exact stored
    # energy, bit for bit — no proportional rounding residue.
    assert give == pool
    assert served == pytest.approx(200.0)
    assert unmet == pytest.approx(300.0)


def test_settle_loads_zero_demand():
    give, served, unmet = settle_one_load(0.0, [100.0])
    assert give == pytest.approx([0.0])
    assert served == 0.0
    assert unmet == 0.0


def test_settle_loads_empty_pool_all_unmet():
    give, served, unmet = settle_one_load(50.0, [0.0])
    assert served == 0.0
    assert give == [0.0]
    assert unmet == 50.0


@settings(deadline=None)
@given(
    stored=st.lists(st.floats(0.0, 300.0), min_size=1, max_size=5),
    share=st.floats(0.0, 1.5),
    extra=st.floats(0.0, 1.0),
)
def test_settle_loads_properties(stored, share, extra):
    pool = sum(stored)
    demand = share * pool + extra
    give, served, unmet = settle_one_load(demand, stored)
    assert sum(give) == pytest.approx(min(demand, pool), abs=1e-6)
    for amount, energy in zip(give, stored):
        assert 0.0 <= amount <= energy
    assert served == pytest.approx(min(demand, pool), abs=1e-6)
    assert served + unmet == pytest.approx(demand, abs=1e-6)
    if demand >= pool:
        # A full drain gives each system exactly what it stores, bit for bit.
        assert give == stored


def test_settle_loads_in_turn_on_running_stores():
    # Load 0 drains row 1; load 1 then finds row 1 empty and only row 2's
    # 60 MWd, so both loads are short. Row 0 is wired to no load.
    stored = [7.0, 40.0, 60.0]
    served, unmet, took = settle_loads([[1], [1, 2]], [50.0, 90.0], stored)
    assert served == [40.0, 60.0]
    assert unmet == [10.0, 30.0]
    assert took == [0.0, 40.0, 60.0]
    assert stored == [7.0, 0.0, 0.0]


def test_settle_loads_rejects_negative_demand():
    with pytest.raises(ValueError, match="demand must be >= 0"):
        settle_loads([[0]], [-1.0], [10.0])
