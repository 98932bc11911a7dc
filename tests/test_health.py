"""Unit tests for unit scoring, ranked charging, discharge, and SoH degradation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridgrid import (
    BatteryUnit,
    StorageSystem,
    apply_discharge,
    degrade_on_charge,
    degrade_on_discharge,
    distribute_charge_equal,
    distribute_charge_ranked,
    rank_units,
    stored_energy,
    system_headroom,
    unit_score,
)


def unit(uid=0, capacity=100.0, energy=0.0, soh=100.0, r_charge=0.0, r_discharge=0.0):
    return BatteryUnit(
        id=uid,
        capacity_mwd=capacity,
        energy_mwd=energy,
        soh_pct=soh,
        r_charge=r_charge,
        r_discharge=r_discharge,
    )


# --- scoring and ranking --------------------------------------------------


def test_unit_score_hand_value():
    # soh 80, SoC 0.4 with equal weights: 0.5*0.8 + 0.5*0.6 = 0.7
    u = unit(soh=80.0, energy=40.0)
    assert unit_score(u) == pytest.approx(0.7, rel=1e-12)


def test_unit_score_prefers_healthier_at_equal_soc():
    healthy = unit(uid=0, soh=100.0, energy=50.0)
    tired = unit(uid=1, soh=50.0, energy=50.0)
    assert unit_score(healthy) > unit_score(tired)


def test_unit_score_prefers_emptier_at_equal_soh():
    empty = unit(uid=0, energy=0.0)
    full = unit(uid=1, energy=100.0)
    assert unit_score(empty) > unit_score(full)


def test_rank_units_orders_by_score_then_position():
    system = StorageSystem(
        id=1,
        units=[
            unit(uid=10, soh=90.0, energy=50.0),
            unit(uid=11, soh=100.0, energy=50.0),
            unit(uid=12, soh=90.0, energy=50.0),
        ],
    )
    # Positions, not ids: the unit at position 1 (id 11) ranks first, and the
    # equal-score tie resolves by unit position, ascending.
    assert rank_units(system) == [1, 0, 2]


# --- degradation ----------------------------------------------------------


def test_degrade_on_charge_full_cycle_reference():
    u = unit(r_charge=0.01)
    degrade_on_charge(u, 100.0)  # one full capacity's worth
    assert u.soh_pct == pytest.approx(100.0 - 0.01, rel=1e-12)


def test_degrade_on_discharge_scales_with_energy():
    u = unit(energy=100.0, r_discharge=0.5)
    degrade_on_discharge(u, 50.0)
    assert u.soh_pct == pytest.approx(100.0 - 0.5 * 50.0 / 100.0, rel=1e-12)


def test_degrade_leaves_energy_untouched():
    u = unit(energy=60.0, r_charge=0.1)
    degrade_on_charge(u, 10.0)
    assert u.energy_mwd == 60.0


def test_degrade_floors_at_zero():
    u = unit(soh=0.004, r_charge=0.01)
    degrade_on_charge(u, 100.0)
    assert u.soh_pct == 0.0


def test_degrade_zero_quantity_is_noop():
    u = unit(r_charge=0.01)
    degrade_on_charge(u, 0.0)
    assert u.soh_pct == 100.0


# --- ranked distribution ---------------------------------------------------


def test_distribute_ranked_small_charge_goes_to_top_unit():
    system = StorageSystem(
        id=1,
        units=[unit(uid=0, soh=80.0), unit(uid=1, soh=100.0)],
    )
    amounts = distribute_charge_ranked(system, 40.0)
    # Unit 1 outranks unit 0 (higher SoH, same SoC) and has 100 headroom.
    assert amounts == pytest.approx([0.0, 40.0])
    assert system.units[1].energy_mwd == pytest.approx(40.0)


def test_distribute_ranked_greedy_overflow_to_next():
    # Both units are empty (equal SoC term); the healthier one outranks but
    # only has 30 MWd of headroom, so the remaining 10 cascades to the next.
    system = StorageSystem(
        id=1,
        units=[unit(uid=0, capacity=30.0, soh=100.0), unit(uid=1, soh=80.0)],
    )
    amounts = distribute_charge_ranked(system, 40.0)
    assert amounts == pytest.approx([30.0, 10.0])


def test_distribute_ranked_full_headroom_fills_everything():
    system = StorageSystem(id=1, units=[unit(uid=0, energy=20.0), unit(uid=1)])
    amounts = distribute_charge_ranked(system, system_headroom(system))
    assert amounts == pytest.approx([80.0, 100.0])
    assert all(u.energy_mwd == pytest.approx(u.capacity_mwd) for u in system.units)


def test_distribute_ranked_zero_is_noop():
    system = StorageSystem(id=1, units=[unit(uid=0, r_charge=0.1)])
    amounts = distribute_charge_ranked(system, 0.0)
    assert amounts == [0.0]
    assert system.units[0].soh_pct == 100.0


def test_distribute_ranked_applies_charge_wear():
    system = StorageSystem(id=1, units=[unit(uid=0, r_charge=0.01)])
    distribute_charge_ranked(system, 100.0)
    assert system.units[0].soh_pct == pytest.approx(99.99)


def test_distribute_ranked_rejects_overflow():
    system = StorageSystem(id=1, units=[unit(uid=0)])
    with pytest.raises(ValueError):
        distribute_charge_ranked(system, 100.1)


def test_distribute_ranked_ranks_once_not_per_mwd():
    # Even though charging the top unit lowers its score below the runner-up,
    # the day's ranking is computed once: the top unit is filled to headroom
    # before any energy reaches the next unit.
    system = StorageSystem(
        id=1, units=[unit(uid=0, soh=99.0), unit(uid=1, soh=100.0)]
    )
    amounts = distribute_charge_ranked(system, 120.0)
    assert amounts == pytest.approx([20.0, 100.0])


def test_distribute_ranked_stores_all_charge_with_duplicate_unit_ids():
    system = StorageSystem(id=1, units=[unit(uid=0), unit(uid=0)])
    amounts = distribute_charge_ranked(system, 150.0)
    assert amounts == pytest.approx([100.0, 50.0])
    assert stored_energy(system) == pytest.approx(150.0)


# --- equal distribution -----------------------------------------------------


def test_distribute_equal_symmetric():
    system = StorageSystem(id=1, units=[unit(uid=i) for i in range(10)])
    amounts = distribute_charge_equal(system, 100.0)
    assert amounts == pytest.approx([10.0] * 10)


def test_distribute_equal_water_fills():
    system = StorageSystem(
        id=1, units=[unit(uid=0, energy=95.0), unit(uid=1, energy=5.0)]
    )
    amounts = distribute_charge_equal(system, 100.0)
    assert amounts == pytest.approx([5.0, 95.0])


def test_distribute_equal_applies_wear():
    system = StorageSystem(
        id=1, units=[unit(uid=0, r_charge=0.02), unit(uid=1, r_charge=0.02)]
    )
    distribute_charge_equal(system, 100.0)
    assert all(u.soh_pct == pytest.approx(100.0 - 0.02 * 0.5) for u in system.units)


def test_distribute_equal_rejects_overflow():
    system = StorageSystem(id=1, units=[unit(uid=0)])
    with pytest.raises(ValueError):
        distribute_charge_equal(system, 101.0)


# --- discharge -------------------------------------------------------------


def test_apply_discharge_caps_at_unit_energy():
    system = StorageSystem(
        id=1,
        units=[
            unit(uid=0, energy=5.0),
            unit(uid=1, energy=95.0),
        ],
    )
    withdrawals = apply_discharge(system, 100.0)
    assert withdrawals == pytest.approx([5.0, 95.0])
    assert stored_energy(system) == pytest.approx(0.0)


def test_apply_discharge_equal_when_unconstrained():
    system = StorageSystem(id=1, units=[unit(uid=i, energy=50.0) for i in range(10)])
    withdrawals = apply_discharge(system, 100.0)
    assert withdrawals == pytest.approx([10.0] * 10)
    assert stored_energy(system) == pytest.approx(400.0)


def test_apply_discharge_rejects_overdraw():
    system = StorageSystem(id=1, units=[unit(uid=i, energy=5.0) for i in range(10)])
    with pytest.raises(ValueError):
        apply_discharge(system, 51.0)


# --- distribution fuzz ------------------------------------------------------


def test_distribution_conservation_fuzz():
    rng = np.random.default_rng(55)
    for _ in range(1500):
        n = int(rng.integers(1, 8))
        units = []
        for i in range(n):
            cap = float(rng.uniform(10.0, 200.0))
            units.append(
                unit(
                    uid=i,
                    capacity=cap,
                    energy=float(rng.uniform(0.0, cap)),
                    soh=float(rng.uniform(20.0, 100.0)),
                    r_charge=float(rng.uniform(0.0, 0.1)),
                )
            )
        ranked = rng.random() < 0.5
        system = StorageSystem(id=1, units=units)
        before = stored_energy(system)
        head = system_headroom(system)
        q = float(rng.uniform(0.0, head))
        if ranked:
            amounts = distribute_charge_ranked(system, q)
        else:
            amounts = distribute_charge_equal(system, q)
        assert sum(amounts) == pytest.approx(q, abs=1e-9)
        assert stored_energy(system) == pytest.approx(before + q, abs=1e-6)
        for u, amount in zip(system.units, amounts):
            assert -1e-9 <= amount
            assert u.energy_mwd <= u.capacity_mwd + 1e-9


# --- properties of every unit-state change ----------------------------------


@st.composite
def systems(draw):
    units = []
    for _ in range(draw(st.integers(1, 8))):
        cap = draw(st.floats(1.0, 200.0))
        units.append(
            unit(
                uid=draw(st.integers(0, 2)),  # repeated ids must not matter
                capacity=cap,
                energy=draw(st.floats(0.0, 1.0)) * cap,
                soh=draw(st.floats(0.0, 100.0)),
                r_charge=draw(st.floats(0.0, 1.0)),
                r_discharge=draw(st.floats(0.0, 1.0)),
            )
        )
    return StorageSystem(id=1, units=units)


@pytest.mark.parametrize(
    "move", [distribute_charge_ranked, distribute_charge_equal, apply_discharge]
)
@settings(deadline=None)
@given(system=systems(), share=st.floats(0.0, 1.0))
def test_unit_state_change_properties(move, system, share):
    discharging = move is apply_discharge
    sign, rate = (-1.0, "r_discharge") if discharging else (1.0, "r_charge")
    before = [(u.energy_mwd, u.soh_pct) for u in system.units]
    stored = stored_energy(system)
    amount = share * (stored if discharging else system_headroom(system))
    tol = 1e-9 * system.capacity_mwd

    moved = move(system, amount)

    assert sum(moved) == pytest.approx(amount, abs=tol)
    assert stored_energy(system) == pytest.approx(stored + sign * amount, abs=tol)
    for u, (energy, soh), m in zip(system.units, before, moved):
        assert m >= 0.0
        assert 0.0 <= u.energy_mwd <= u.capacity_mwd
        assert u.energy_mwd == pytest.approx(energy + sign * m, abs=tol)
        assert u.soh_pct <= soh
        assert u.soh_pct == max(0.0, soh - m * getattr(u, rate) / u.capacity_mwd)

