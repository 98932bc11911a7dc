"""Battery-unit state: charging, discharging and the cycle wear they cost.

This is the only module that changes a unit's stored energy or state of
health. Every MWd pushed through a unit, in either direction, costs SoH in
proportion to the unit's cycle-wear rate. The health-aware distributor ranks
units by a weighted blend of SoH and emptiness and fills the best-ranked
first, which steers throughput away from worn units; the baseline splits
charge equally. Discharge is always split equally across units
(apply_discharge) regardless of these settings.
"""

from __future__ import annotations

from .dispatch import split_equally
from .model import BatteryUnit, StorageSystem, stored_energy, system_headroom

_REL_TOL = 1e-9

DEFAULT_W_SOH = 0.5
DEFAULT_W_SOC = 0.5

# Calibrated cycle-wear defaults: SoH percentage points lost per equivalent
# full cycle. Chosen so a two-year run on the reference scenario drives the
# fleet toward the 80% end-of-life region, where ranked and uniform charging
# become measurably different; see scenarios/reference.json.
DEFAULT_R_CHARGE = 0.2
DEFAULT_R_DISCHARGE = 0.25


def degrade_on_charge(unit: BatteryUnit, charged_mwd: float) -> None:
    """Apply cycle wear for a charge of charged_mwd; energy is untouched."""
    if charged_mwd < 0:
        raise ValueError(f"unit {unit.id}: negative charge {charged_mwd}")
    unit.soh_pct = max(0.0, unit.soh_pct - charged_mwd * unit.r_charge / unit.capacity_mwd)


def degrade_on_discharge(unit: BatteryUnit, discharged_mwd: float) -> None:
    """Apply cycle wear for a discharge of discharged_mwd; energy is untouched."""
    if discharged_mwd < 0:
        raise ValueError(f"unit {unit.id}: negative discharge {discharged_mwd}")
    unit.soh_pct = max(
        0.0, unit.soh_pct - discharged_mwd * unit.r_discharge / unit.capacity_mwd
    )


def unit_score(
    unit: BatteryUnit, w_soh: float = DEFAULT_W_SOH, w_soc: float = DEFAULT_W_SOC
) -> float:
    """Charging desirability in [0, 1]: healthy and empty scores high."""
    soc = unit.energy_mwd / unit.capacity_mwd
    return w_soh * unit.soh_pct / 100.0 + w_soc * (1.0 - soc)


def rank_units(
    system: StorageSystem, w_soh: float = DEFAULT_W_SOH, w_soc: float = DEFAULT_W_SOC
) -> list[int]:
    """Unit positions by descending score; ties keep ascending position."""
    scores = [unit_score(u, w_soh, w_soc) for u in system.units]
    return sorted(range(len(scores)), key=lambda i: -scores[i])


def _check_charge(system: StorageSystem, q: float) -> float:
    room = system_headroom(system)
    if q < 0:
        raise ValueError(f"system {system.id}: negative charge {q}")
    if q > room + _REL_TOL * max(1.0, room):
        raise ValueError(f"system {system.id}: charge {q} exceeds headroom {room}")
    return min(q, room)


def _commit_charge(system: StorageSystem, amounts: list[float]) -> list[float]:
    """Add per-unit charge amounts (unit order) and wear each unit by its amount."""
    for unit, amt in zip(system.units, amounts):
        if amt > 0:
            unit.energy_mwd = min(unit.capacity_mwd, unit.energy_mwd + amt)
            degrade_on_charge(unit, amt)
    return amounts


def distribute_charge_ranked(
    system: StorageSystem,
    q_mwd: float,
    w_soh: float = DEFAULT_W_SOH,
    w_soc: float = DEFAULT_W_SOC,
) -> list[float]:
    """Fill units greedily in rank order, wearing each by what it received.

    The ranking is computed once per call, so one day's charge lands on the
    units that looked best at the start of the day. Returns per-unit amounts
    in unit order.
    """
    left = _check_charge(system, q_mwd)
    amounts = [0.0] * len(system.units)
    for i in rank_units(system, w_soh, w_soc):
        if left <= 0:
            break
        take = min(left, system.units[i].headroom_mwd)
        amounts[i] = take
        left -= take
    return _commit_charge(system, amounts)


def distribute_charge_equal(system: StorageSystem, q_mwd: float) -> list[float]:
    """Split a day's charge equally across units, overflow re-split.

    Health-blind baseline. Returns per-unit amounts in unit order.
    """
    q_mwd = _check_charge(system, q_mwd)
    return _commit_charge(system, split_equally(q_mwd, [u.headroom_mwd for u in system.units]))


def apply_discharge(system: StorageSystem, amount_mwd: float) -> list[float]:
    """Withdraw amount from a system, split equally across its units.

    Units that would go below zero are drained and the shortfall is re-split
    among the rest. Each unit is worn by what it gave. Returns per-unit
    withdrawals in unit order.
    """
    stored = stored_energy(system)
    if amount_mwd < 0:
        raise ValueError(f"system {system.id}: negative discharge {amount_mwd}")
    if amount_mwd > stored + _REL_TOL * max(1.0, stored):
        raise ValueError(
            f"system {system.id}: discharge {amount_mwd} exceeds stored {stored}"
        )
    taken = split_equally(min(amount_mwd, stored), [u.energy_mwd for u in system.units])
    for unit, w in zip(system.units, taken):
        unit.energy_mwd = max(0.0, unit.energy_mwd - w)
        if w > 0:
            degrade_on_discharge(unit, w)
    return taken
