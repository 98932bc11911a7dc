"""Unit tests for unit scoring, ranked charging, discharge, and SoH degradation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridgrid import (
    GridUnits,
    StorageSystem,
    split_equally,
    split_equally_rows,
)


def unit(capacity=100.0, energy=0.0, soh=100.0, r_charge=0.0, r_discharge=0.0):
    """One unit's capacity, energy, SoH and wear rates, in StorageSystem's order."""
    return capacity, energy, soh, r_charge, r_discharge


def system(sid, units):
    """A StorageSystem of the given units, in order."""
    return StorageSystem(sid, *map(list, zip(*units)))


def grid(*systems):
    """GridUnits over systems given as lists of units, ids 1, 2, ..."""
    return GridUnits([system(i + 1, us) for i, us in enumerate(systems)])


# --- scoring and ranking --------------------------------------------------


def test_unit_score_hand_value():
    # soh 80, SoC 0.4 with equal weights: 0.5*0.8 + 0.5*0.6 = 0.7
    g = grid([unit(soh=80.0, energy=40.0)])
    assert g.scores()[0, 0] == pytest.approx(0.7, rel=1e-12)


def test_unit_score_prefers_healthier_at_equal_soc():
    score = grid([unit(soh=100.0, energy=50.0), unit(soh=50.0, energy=50.0)]).scores()
    assert score[0, 0] > score[0, 1]


def test_unit_score_prefers_emptier_at_equal_soh():
    score = grid([unit(energy=0.0), unit(energy=100.0)]).scores()
    assert score[0, 0] > score[0, 1]


def test_rank_units_orders_by_score_then_position():
    g = grid(
        [
            unit(soh=90.0, energy=50.0),
            unit(soh=100.0, energy=50.0),
            unit(soh=90.0, energy=50.0),
        ]
    )
    # Positions, not ids: the unit at position 1 (id 11) fills first, and the
    # equal-score tie resolves by unit position, ascending.
    assert g.charge([75.0], True)[0] == pytest.approx([25.0, 50.0, 0.0])


def test_padding_units_take_nothing_wherever_they_rank():
    g = grid([unit()], [unit()] * 3)
    moved = g.charge([100.0, 90.0], False)
    assert moved.tolist() == [[100.0, 0.0, 0.0], [30.0, 30.0, 30.0]]
    assert g.energy[0, 1:].tolist() == [0.0, 0.0]

    # A pad has no room, so it takes +0.0 and leaves the rest to the units
    # after it exactly as it found it: it ranks between system 1's units on
    # the ranked charge and first on the mixed one. The amounts, SoH and
    # energy are pinned by float.hex (hexes, below), row by row.
    g = grid([unit(30.0, 27.0, 50.0, 0.2), unit(70.0, 10.0, 90.0, 0.2)],
             [unit(40.0, 5.0, 95.0, 0.2), unit(40.0, 20.0, 99.0, 0.2), unit(40.0, 0.0, 70.0, 0.2)])
    assert g.scores()[0, 2] > g.scores()[0, 0]
    assert hexes(g.charge([61.7, 33.3], True)) == [
        "0x1.b333333333340p+0", "0x1.e000000000000p+5", "0x0.0p+0",
        "0x1.0a66666666666p+5", "0x0.0p+0", "0x0.0p+0"]
    assert g.scores()[0, 2] > g.scores()[0, :2].max()
    assert hexes(g.charge([1.1, 20.9], [True, False])) == [
        "0x1.199999999999ap+0", "0x0.0p+0", "0x0.0p+0",
        "0x1.b333333333340p+0", "0x1.3333333333332p+3", "0x1.3333333333332p+3"]
    assert hexes(g.soh) == [
        "0x1.8fd9c54a69217p+5", "0x1.6750750750750p+6", "0x0.0p+0",
        "0x1.7b4cccccccccdp+6", "0x1.8bced916872b0p+6", "0x1.17ced916872b0p+6"]
    assert hexes(g.energy) == [
        "0x1.dcccccccccccep+4", "0x1.1800000000000p+6", "0x0.0p+0",
        "0x1.4000000000000p+5", "0x1.d999999999999p+4", "0x1.3333333333332p+3"]


# --- degradation ----------------------------------------------------------


def test_charge_wear_full_cycle_reference():
    g = grid([unit(r_charge=0.01)])
    g.charge([100.0], False)  # one full capacity's worth
    assert g.soh[0, 0] == pytest.approx(100.0 - 0.01, rel=1e-12)


def test_degrade_on_discharge_scales_with_energy():
    g = grid([unit(energy=100.0, r_discharge=0.5)])
    g.discharge([50.0])
    assert g.soh[0, 0] == pytest.approx(100.0 - 0.5 * 50.0 / 100.0, rel=1e-12)


def test_degrade_leaves_energy_untouched():
    # Wear costs SoH only: the unit stores exactly what it was charged.
    g = grid([unit(energy=60.0, r_charge=0.1)])
    g.charge([10.0], False)
    assert g.energy[0, 0] == 70.0
    assert g.soh[0, 0] == 100.0 - 10.0 * 0.1 / 100.0


def test_degrade_floors_at_zero():
    g = grid([unit(soh=0.004, r_charge=0.01)])
    g.charge([100.0], False)
    assert g.soh[0, 0] == 0.0


def test_degrade_zero_quantity_is_noop():
    g = grid([unit(r_charge=0.01)])
    assert g.charge([0.0], False).tolist() == [[0.0]]
    assert g.soh[0, 0] == 100.0


# --- ranked distribution ---------------------------------------------------


def test_distribute_ranked_small_charge_goes_to_top_unit():
    g = grid([unit(soh=80.0), unit(soh=100.0)])
    amounts = g.charge([40.0], True)
    # Unit 1 outranks unit 0 (higher SoH, same SoC) and has 100 headroom.
    assert amounts[0] == pytest.approx([0.0, 40.0])
    assert g.energy[0, 1] == pytest.approx(40.0)


def test_distribute_ranked_greedy_overflow_to_next():
    # Both units are empty (equal SoC term); the healthier one outranks but
    # only has 30 MWd of headroom, so the remaining 10 cascades to the next.
    g = grid([unit(capacity=30.0, soh=100.0), unit(soh=80.0)])
    assert g.charge([40.0], True)[0] == pytest.approx([30.0, 10.0])


def test_distribute_ranked_full_headroom_fills_everything():
    g = grid([unit(energy=20.0), unit()])
    amounts = g.charge(g.capacity - g.stored, True)
    assert amounts[0] == pytest.approx([80.0, 100.0])
    assert g.energy[0] == pytest.approx(g.cap[0])


def test_distribute_ranked_zero_is_noop():
    g = grid([unit(r_charge=0.1)])
    assert g.charge([0.0], True).tolist() == [[0.0]]
    assert g.soh[0, 0] == 100.0


def test_distribute_ranked_applies_charge_wear():
    g = grid([unit(r_charge=0.01)])
    g.charge([100.0], True)
    assert g.soh[0, 0] == pytest.approx(99.99)


def test_distribute_ranked_rejects_overflow():
    g = grid([unit()])
    with pytest.raises(ValueError, match="system 1: charge"):
        g.charge([100.1], True)


def test_distribute_ranked_ranks_once_not_per_mwd():
    # Even though charging the top unit lowers its score below the runner-up,
    # the day's ranking is computed once: the top unit is filled to headroom
    # before any energy reaches the next unit.
    g = grid([unit(soh=99.0), unit(soh=100.0)])
    assert g.charge([120.0], True)[0] == pytest.approx([20.0, 100.0])


def test_distribute_ranked_stores_all_charge_across_identical_units():
    g = grid([unit(), unit()])
    assert g.charge([150.0], True)[0] == pytest.approx([100.0, 50.0])
    assert g.stored[0] == pytest.approx(150.0)


# --- equal distribution -----------------------------------------------------


def test_distribute_equal_symmetric():
    g = grid([unit()] * 10)
    assert g.charge([100.0], False)[0] == pytest.approx([10.0] * 10)


def test_distribute_equal_water_fills():
    g = grid([unit(energy=95.0), unit(energy=5.0)])
    assert g.charge([100.0], False)[0] == pytest.approx([5.0, 95.0])


def test_distribute_equal_applies_wear():
    g = grid([unit(r_charge=0.02), unit(r_charge=0.02)])
    g.charge([100.0], False)
    assert g.soh[0] == pytest.approx([100.0 - 0.02 * 0.5] * 2)


def test_distribute_equal_rejects_overflow():
    g = grid([unit()], [unit()])
    with pytest.raises(ValueError, match="system 2: charge"):
        g.charge([0.0, 101.0], False)


# --- discharge -------------------------------------------------------------


def test_apply_discharge_caps_at_unit_energy():
    g = grid([unit(energy=5.0), unit(energy=95.0)])
    assert g.discharge([100.0])[0] == pytest.approx([5.0, 95.0])
    assert g.stored[0] == pytest.approx(0.0)


def test_apply_discharge_equal_when_unconstrained():
    g = grid([unit(energy=50.0)] * 10)
    assert g.discharge([100.0])[0] == pytest.approx([10.0] * 10)
    assert g.stored[0] == pytest.approx(400.0)


def test_apply_discharge_rejects_overdraw():
    g = grid([unit(energy=5.0)] * 10)
    with pytest.raises(ValueError, match="system 1: discharge"):
        g.discharge([51.0])


@pytest.mark.parametrize("move", ["ranked", "equal", "discharge"])
def test_moves_reject_nan_amounts(move):
    g = grid([unit(energy=50.0)])
    what = "discharge" if move == "discharge" else "charge"
    with pytest.raises(ValueError, match=f"system 1: {what} nan outside"):
        g.discharge([np.nan]) if move == "discharge" else g.charge([np.nan], move == "ranked")


@pytest.mark.parametrize("move", ["ranked", "equal", "discharge"])
def test_moves_take_dust_above_their_limit_and_reject_more(move):
    # A request up to 1e-9 x max(1, limit) above the limit (headroom to
    # charge, stored energy to discharge) moves exactly the limit; beyond
    # that it is an error naming the limit. Below the limit the move skips
    # working out that tolerance.
    def move_by(g, amount):
        return g.discharge([amount]) if move == "discharge" else g.charge([amount], move == "ranked")

    def fresh():
        return grid([unit(capacity=300.0, energy=100.0)])

    g = fresh()
    limit = float((g.stored if move == "discharge" else g.headroom)[0])
    assert move_by(g, limit * (1.0 + 0.5e-9)).sum() == limit
    assert float(g.stored[0]) == (0.0 if move == "discharge" else 300.0)
    what = "discharge" if move == "discharge" else "charge"
    with pytest.raises(ValueError, match=f"system 1: {what} .* outside \\[0, {limit}\\]"):
        move_by(fresh(), limit * (1.0 + 2e-9))


# --- distribution fuzz ------------------------------------------------------


def test_distribution_conservation_fuzz():
    rng = np.random.default_rng(55)
    for _ in range(500):
        systems = []
        for sid in range(int(rng.integers(1, 6))):
            units = []
            for _ in range(int(rng.integers(1, 8))):
                cap = float(rng.uniform(10.0, 200.0))
                units.append(
                    unit(
                        capacity=cap,
                        energy=float(rng.uniform(0.0, cap)),
                        soh=float(rng.uniform(20.0, 100.0)),
                        r_charge=float(rng.uniform(0.0, 0.1)),
                    )
                )
            systems.append(system(sid, units))
        g = GridUnits(systems)
        before = g.stored.copy()
        q = rng.uniform(0.0, 1.0, len(systems)) * (g.capacity - g.stored)
        amounts = g.charge(q, rng.random() < 0.5)
        assert amounts.sum(axis=1) == pytest.approx(q, abs=1e-9)
        assert g.stored == pytest.approx(before + q, abs=1e-6)
        assert (amounts >= -1e-9).all()
        assert (g.energy <= g.cap + 1e-9).all()


# --- properties of every unit-state change ----------------------------------


@st.composite
def ragged_systems(draw, max_units=8, min_soh=0.0, max_rate=1.0):
    """1-4 systems of 1-max_units units each, so most grids carry padding."""
    systems = []
    for sid in range(draw(st.integers(1, 4))):
        units = []
        for _ in range(draw(st.integers(1, max_units))):
            cap = draw(st.floats(1.0, 200.0))
            units.append(
                unit(
                    capacity=cap,
                    energy=draw(st.floats(0.0, 1.0)) * cap,
                    soh=draw(st.floats(min_soh, 100.0)),
                    r_charge=draw(st.floats(0.0, max_rate)),
                    r_discharge=draw(st.floats(0.0, max_rate)),
                )
            )
        systems.append(system(sid, units))
    return systems


def fold(values) -> float:
    """Left-to-right float sum, as a plain loop (and Python's sum before 3.12) adds."""
    total = 0.0
    for v in values:
        total += v
    return total


def hexes(a: np.ndarray) -> list[str]:
    return [x.hex() for x in a.ravel().tolist()]


@settings(deadline=None)
@given(systems=ragged_systems())
def test_totals_add_units_left_to_right_bitwise(systems):
    g = GridUnits(systems)
    stored = [fold(s.energy.tolist()) for s in systems]
    assert g.stored.tolist() == stored
    assert g.soc_pct.tolist() == [e / s.capacity_mwd * 100.0 for e, s in zip(stored, systems)]
    means = [fold(s.soh.tolist()) / len(s.cap) for s in systems]
    assert g.mean_soh_pct.tolist() == means


@pytest.mark.parametrize("move", ["ranked", "equal", "mixed", "discharge"])
@settings(deadline=None)
@given(systems=ragged_systems(), data=st.data())
def test_unit_state_change_properties(move, systems, data):
    # Grids of one system, or of systems with equal unit counts, have no
    # padding; most others do.
    g = GridUnits(systems)
    n = len(systems)
    discharging = move == "discharge"
    sign, rate = (-1.0, g.r_discharge) if discharging else (1.0, g.r_charge)
    energy, soh, stored = g.energy.copy(), g.soh.copy(), g.stored.copy()
    assert hexes(g.headroom) == hexes(np.maximum(0.0, g.capacity - stored))
    limit = stored if discharging else g.capacity - stored
    # A -0.0 share asks for -0.0, which every move accepts as nothing.
    share = data.draw(st.lists(st.one_of(st.just(-0.0), st.floats(0.0, 1.0)),
                               min_size=n, max_size=n))
    amount = np.array(share) * limit
    tol = 1e-9 * g.capacity
    if move == "mixed":
        ranked = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    else:
        ranked = move == "ranked"

    moved = g.discharge(amount) if discharging else g.charge(amount, ranked)

    # headroom was read before the move, and is the moved state's after it.
    assert hexes(g.headroom) == hexes(np.maximum(0.0, g.capacity - g.stored))
    assert not np.signbit(moved).any()  # nothing moved reads +0.0, never -0.0
    assert moved.sum(axis=1) == pytest.approx(amount, abs=tol.max())
    assert np.all(np.abs(g.stored - (stored + sign * amount)) <= tol)
    assert (moved >= 0.0).all()
    assert ((0.0 <= g.energy) & (g.energy <= g.cap)).all()
    assert np.all(np.abs(g.energy - (energy + sign * moved)) <= tol[:, None])
    assert (g.soh <= soh).all()
    for i, s in enumerate(systems):
        for j, cap in enumerate(s.cap.tolist()):
            m = float(moved[i, j])
            assert g.soh[i, j] == max(0.0, soh[i, j] - m * rate[i, j] / cap)
        # Padding stays empty and untouched.
        assert not moved[i, len(s.cap) :].any()
        assert not g.energy[i, len(s.cap) :].any()


@settings(deadline=None)
@given(systems=ragged_systems(), share=st.floats(0.0, 1.0), w_soh=st.floats(0.0, 1.0))
def test_ranked_charge_reaches_a_unit_only_once_better_units_are_full(systems, share, w_soh):
    g = GridUnits(systems)
    score = g.scores(w_soh, 1.0 - w_soh)
    moved = g.charge(share * (g.capacity - g.stored), True, w_soh, 1.0 - w_soh)
    for i, s in enumerate(systems):
        for j in np.flatnonzero(moved[i] > 0):
            for k in range(len(s.cap)):
                if score[i, k] > score[i, j] or (score[i, k] == score[i, j] and k < j):
                    assert g.energy[i, k] == pytest.approx(g.cap[i, k], abs=1e-9 * g.cap[i, k])


@settings(deadline=None)
@given(
    grids=st.lists(ragged_systems(), min_size=1, max_size=3),
    flags=st.sampled_from(["all ranked", "none ranked", "mixed"]),
    data=st.data(),
)
def test_stacked_mixed_charge_equals_each_system_alone(grids, flags, data):
    # compare() stacks its runs' grids as rows of one GridUnits and charges
    # them in one call, ranked rows beside equal ones. A call whose rows are
    # all ranked skips the equal split, and one with none skips the greedy pass.
    systems = [s for grid in grids for s in grid]
    n = len(systems)
    if flags == "mixed":
        ranked = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    else:
        ranked = [flags == "all ranked"] * n
    share = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    w_soh = data.draw(st.floats(0.0, 1.0))
    stacked = GridUnits(systems)
    q = np.array(share) * (stacked.capacity - stacked.stored)
    moved = stacked.charge(q, ranked, w_soh, 1.0 - w_soh)

    for i, (s, flag) in enumerate(zip(systems, ranked)):
        alone, k = GridUnits([s]), len(s.cap)
        want = alone.charge(q[i : i + 1], flag, w_soh, 1.0 - w_soh)
        assert hexes(moved[i, :k]) == hexes(want)
        assert hexes(stacked.energy[i, :k]) == hexes(alone.energy)
        assert hexes(stacked.soh[i, :k]) == hexes(alone.soh)
        assert hexes(stacked.stored[i : i + 1]) == hexes(alone.stored)
        # Padding stays empty and untouched.
        assert not moved[i, k:].any()
        assert not stacked.energy[i, k:].any()
        assert not stacked.soh[i, k:].any()


@st.composite
def split_rows(draw):
    """1-5 rows of (total, caps). A total is anything up to 1000, often above
    the row's summed caps; or below every open cap's equal share, so the row
    finishes in one round; or zero. Sometimes every total is zero."""
    rows, all_zero = [], draw(st.booleans())
    for _ in range(draw(st.integers(1, 5))):
        caps = draw(
            st.lists(st.one_of(st.just(0.0), st.floats(0.0, 100.0)), min_size=1, max_size=8)
        )
        kind = "zero" if all_zero else draw(st.sampled_from(["any", "one round", "zero"]))
        open_caps = [cap for cap in caps if cap > 0]
        if kind == "one round" and open_caps:
            fill = draw(st.floats(0.0, 1.0, exclude_max=True))
            total = fill * min(open_caps) * len(open_caps)
        else:
            total = draw(st.floats(0.0, 1000.0)) if kind == "any" else 0.0
        rows.append((total, caps))
    return rows


@settings(deadline=None)
@given(rows=split_rows())
def test_split_equally_rows_equals_split_equally_bitwise(rows):
    width = max(len(caps) for _, caps in rows)
    padded = np.zeros((len(rows), width))
    for i, (_, caps) in enumerate(rows):
        padded[i, : len(caps)] = caps
    got = split_equally_rows(np.array([total for total, _ in rows]), padded)
    for i, (total, caps) in enumerate(rows):
        want = split_equally(total, caps, range(len(caps))) + [0.0] * (width - len(caps))
        assert [x.hex() for x in got[i].tolist()] == [x.hex() for x in want]


@st.composite
def draws_on_systems(draw):
    """Two grids of the same ragged systems and 1-6 rounds of draws that sum,
    per system, to at most its store."""
    systems = draw(ragged_systems(max_units=12, min_soh=50.0, max_rate=10.0))
    stored = GridUnits(systems).stored
    rounds = draw(st.integers(1, 6))
    weights = np.array(
        draw(st.lists(st.floats(0.0, 1.0), min_size=rounds * len(systems),
                      max_size=rounds * len(systems)))
    ).reshape(rounds, len(systems))
    fill = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=len(systems),
                                  max_size=len(systems))))
    scale = fill * stored / np.maximum(1.0, weights.sum(axis=0))
    return GridUnits(systems), GridUnits(systems), weights * scale


@settings(deadline=None)
@given(case=draws_on_systems())
def test_successive_discharges_equal_one_discharge_of_their_sum(case):
    # The engine settles a day's loads on system totals and discharges the
    # grid once; that is exact because the equal split with water-filling
    # composes and wear is linear in the amount drawn. SoH starts at 50% or
    # more and one full drain costs at most 10 points, so its floor never binds.
    stepwise, at_once, amounts = case
    for draw in amounts:
        stepwise.discharge(draw)
    at_once.discharge(amounts.sum(axis=0))
    assert stepwise.energy == pytest.approx(at_once.energy, abs=1e-9)
    assert stepwise.soh == pytest.approx(at_once.soh, abs=1e-9)
