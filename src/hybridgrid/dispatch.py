"""Grid-level charge dispatch and load discharge.

Charging runs in two passes. Pass one walks storage systems in priority
order (largest shortfall against a demand-driven target first) and lets each
draw from its connected sources until the shortfall is covered. Pass two
spreads whatever energy each source still holds across that source's
connected systems in proportion to remaining headroom; energy that finds no
headroom is curtailed. The non-prioritized baseline splits each source
equally across its connected systems instead, re-splitting overflow among
the still-unsaturated ones.

Discharge is need-blind: a load draws from its connected systems in
proportion to how much each currently stores, so a shared pool drains evenly
toward zero rather than emptying one system first.

This module only decides system-level amounts. Moving energy into and out of
units, and the wear that costs, is health.py's job.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .model import GridTopology, StorageSystem, stored_energy

# Charge targets anticipate next-day demand with a fixed safety margin.
CHARGE_BUFFER = 1.25

_REL_TOL = 1e-9


@dataclass(frozen=True)
class ChargeTarget:
    """Per-system charging goal for one day, with its current shortfall."""

    system_id: int
    target_mwd: float
    deficit_mwd: float


@dataclass
class ChargeAllocation:
    """Result of one day's charge dispatch.

    amounts maps (source_id, system_id) to delivered MWd; only wired pairs
    with a positive amount appear. curtailed maps source_id to undeliverable
    MWd.
    """

    amounts: dict[tuple[int, int], float] = field(default_factory=dict)
    curtailed: dict[int, float] = field(default_factory=dict)

    def inflow(self, system_id: int) -> float:
        return sum(v for (_, sid), v in self.amounts.items() if sid == system_id)

    def total_curtailed(self) -> float:
        return sum(self.curtailed.values())


@dataclass
class DischargeAssignment:
    """How one load's demand was split across its connected systems."""

    contributions: dict[int, float]  # system_id -> MWd
    served_mwd: float
    unmet_mwd: float


def split_equally(total: float, caps: list[float]) -> list[float]:
    """Split total across slots with per-slot caps by iterated equal shares.

    Each round gives every unsaturated slot an equal share of what is left,
    clamped at its cap; overflow is re-split among the rest. Returns per-slot
    amounts; any residue beyond sum(caps) is left unallocated.
    """
    if total < 0:
        raise ValueError(f"cannot split a negative total: {total}")
    n = len(caps)
    alloc = [0.0] * n
    remaining = total
    active = [i for i in range(n) if caps[i] > 0]
    while remaining > 1e-12 and active:
        share = remaining / len(active)
        saturated = []
        for i in active:
            room = caps[i] - alloc[i]
            take = room if room <= share else share
            alloc[i] += take
            remaining -= take
            if room <= share:
                saturated.append(i)
        if not saturated:
            break  # everyone absorbed a full share; only float dust remains
        active = [i for i in active if i not in saturated]
    return alloc


def compute_charge_targets(
    t: GridTopology, load_forecasts: dict[int, float]
) -> list[ChargeTarget]:
    """Demand-anticipating charge target for every system, ascending id.

    Each load's buffered forecast is split equally across the systems it is
    wired to; a system's target is the sum of its shares, capped at capacity.
    The deficit is whatever the target exceeds current storage by.
    """
    for lid, f in load_forecasts.items():
        if f < 0:
            raise ValueError(f"load {lid}: negative forecast {f}")
        if lid not in t.load_by_id:
            raise ValueError(f"forecast for unknown load {lid}")

    targets = []
    for system in sorted(t.systems, key=lambda s: s.id):
        want = 0.0
        for lid in t.loads_of_system.get(system.id, []):
            fc = load_forecasts.get(lid)
            if fc is None:
                raise ValueError(f"missing forecast for load {lid}")
            want += CHARGE_BUFFER * fc / len(t.load_by_id[lid].connected_systems)
        target = min(system.capacity_mwd, want)
        deficit = max(0.0, target - stored_energy(system))
        targets.append(ChargeTarget(system.id, target, deficit))
    return targets


def prioritize(targets: list[ChargeTarget]) -> list[int]:
    """System ids ordered by descending deficit, ties by ascending id."""
    return [t.system_id for t in sorted(targets, key=lambda t: (-t.deficit_mwd, t.system_id))]


def _headrooms(t: GridTopology) -> dict[int, float]:
    return {
        s.id: max(0.0, s.capacity_mwd - stored_energy(s))
        for s in t.systems
    }


def allocate_priority(
    order: list[int],
    targets: list[ChargeTarget],
    per_source_energy: dict[int, float],
    t: GridTopology,
) -> ChargeAllocation:
    """Two-pass priority dispatch of today's generation.

    Pass one: systems in priority order draw from their connected sources
    (ascending source id) until each covers its deficit or the sources run
    dry. Pass two: every source's leftover is spread over its connected
    systems in proportion to the headroom still open after pass one;
    whatever exceeds total open headroom is curtailed.
    """
    _check_source_energy(per_source_energy, t)
    target_by_id = {tg.system_id: tg for tg in targets}
    missing = [sid for sid in order if sid not in target_by_id]
    if missing or set(order) != set(t.system_by_id):
        raise ValueError("priority order and targets must cover every system exactly once")

    remaining = dict(per_source_energy)
    headroom = _headrooms(t)
    alloc = ChargeAllocation()

    sources_of_system: dict[int, list[int]] = {sid: [] for sid in t.system_by_id}
    for src in t.sources:
        for sid in src.connected_systems:
            if sid in sources_of_system:
                sources_of_system[sid].append(src.id)

    # Pass 1: cover deficits in priority order.
    for sid in order:
        need = min(target_by_id[sid].deficit_mwd, headroom[sid])
        for src_id in sorted(sources_of_system[sid]):
            if need <= 0:
                break
            take = min(need, remaining[src_id])
            if take > 0:
                alloc.amounts[(src_id, sid)] = alloc.amounts.get((src_id, sid), 0.0) + take
                remaining[src_id] -= take
                headroom[sid] -= take
                need -= take

    # Pass 2: spread each source's leftover by remaining headroom.
    for src in sorted(t.sources, key=lambda s: s.id):
        left = remaining[src.id]
        if left <= 0:
            continue
        rooms = {sid: headroom[sid] for sid in src.connected_systems if headroom[sid] > 0}
        open_room = sum(rooms.values())
        if open_room <= 0:
            alloc.curtailed[src.id] = alloc.curtailed.get(src.id, 0.0) + left
            remaining[src.id] = 0.0
            continue
        if left >= open_room:
            give = rooms
            alloc.curtailed[src.id] = alloc.curtailed.get(src.id, 0.0) + (left - open_room)
        else:
            give = {sid: left * room / open_room for sid, room in rooms.items()}
        for sid, amt in give.items():
            if amt > 0:
                alloc.amounts[(src.id, sid)] = alloc.amounts.get((src.id, sid), 0.0) + amt
                headroom[sid] -= amt
        remaining[src.id] = 0.0

    return alloc


def allocate_equal(per_source_energy: dict[int, float], t: GridTopology) -> ChargeAllocation:
    """Need-blind baseline: each source splits equally over its systems.

    Shares beyond a system's headroom are re-split among the source's
    still-unsaturated systems; energy no system can absorb is curtailed.
    Sources are processed in ascending id, so a later source sees headroom
    already consumed by earlier ones.
    """
    _check_source_energy(per_source_energy, t)
    headroom = _headrooms(t)
    alloc = ChargeAllocation()

    for src in sorted(t.sources, key=lambda s: s.id):
        energy = per_source_energy[src.id]
        if energy <= 0:
            continue
        sids = list(src.connected_systems)
        caps = [headroom[sid] for sid in sids]
        amounts = split_equally(energy, caps)
        delivered = 0.0
        for sid, amt in zip(sids, amounts):
            if amt > 0:
                alloc.amounts[(src.id, sid)] = alloc.amounts.get((src.id, sid), 0.0) + amt
                headroom[sid] -= amt
                delivered += amt
        if energy - delivered > _REL_TOL * max(1.0, energy):
            alloc.curtailed[src.id] = energy - delivered
    return alloc


def _check_source_energy(per_source_energy: dict[int, float], t: GridTopology) -> None:
    for src_id, e in per_source_energy.items():
        if e < 0:
            raise ValueError(f"source {src_id}: negative energy {e}")
    for src in t.sources:
        if src.id not in per_source_energy:
            raise ValueError(f"missing energy entry for source {src.id}")


def discharge_shares(demand_mwd: float, systems: list[StorageSystem]) -> DischargeAssignment:
    """Split a load's demand across its systems proportional to storage.

    Serves min(demand, pooled energy); each system contributes in proportion
    to what it holds, so no contribution exceeds its stored energy and the
    pool empties together when demand exceeds it. The uncovered remainder is
    reported as unmet.
    """
    if demand_mwd < 0:
        raise ValueError(f"demand must be >= 0, got {demand_mwd}")
    pool = sum(stored_energy(s) for s in systems)
    if demand_mwd >= pool:
        # Full drain: contributions are exactly what each system holds.
        contributions = {s.id: stored_energy(s) for s in systems}
        served = pool
    else:
        served = demand_mwd
        contributions = {
            s.id: stored_energy(s) / pool * served if pool > 0 else 0.0 for s in systems
        }
    return DischargeAssignment(
        contributions=contributions,
        served_mwd=served,
        unmet_mwd=max(0.0, demand_mwd - served),
    )
