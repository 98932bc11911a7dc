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
toward zero rather than emptying one system first. The split works on
stored amounts alone, so the engine can settle a day's loads on running
system totals without touching units.

The *_rows functions do the work on a topology's Wiring index lists, as the
engine calls them each day; the dict-based functions wrap them. This module
only decides system-level amounts. Moving energy into and out of units, and
the wear that costs, is health.py's job.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import GridTopology, StorageSystem, Wiring, stored_energy

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


def charge_wants(t: GridTopology, load_forecasts: dict) -> np.ndarray:
    """Each system's demand-driven charge want, before the capacity cap.

    Each load's buffered forecast is split equally across the systems it is
    wired to; a system's want is the sum of its shares, added in load order.
    Forecasts are scalars or equal-length series; systems are the last axis.
    """
    fcs = {lid: np.asarray(f, dtype=float) for lid, f in load_forecasts.items()}
    bad = [lid for lid, f in fcs.items() if lid not in t.load_by_id or (f < 0).any()]
    missing = [load.id for load in t.loads if load.id not in fcs]
    if bad or missing:
        raise ValueError(f"need one non-negative forecast per load: bad {bad}, missing {missing}")
    want = np.zeros(np.broadcast_shapes(*(f.shape for f in fcs.values())) + (len(t.systems),))
    for load in t.loads:
        for sid in load.connected_systems:
            want[..., t.wiring.row_of[sid]] += (
                CHARGE_BUFFER * fcs[load.id] / len(load.connected_systems)
            )
    return want


def charge_deficits(capacity, want, stored) -> np.ndarray:
    """max(0, min(capacity, want) - stored): the shortfall against the target."""
    return np.maximum(0.0, np.minimum(capacity, want) - stored)


def compute_charge_targets(
    t: GridTopology, load_forecasts: dict[int, float], stored: dict[int, float] | None = None
) -> list[ChargeTarget]:
    """Demand-anticipating charge target for every system, ascending id.

    A system's target is its charge want capped at capacity; the deficit is
    what the target exceeds stored energy by: stored[id], or by default
    what the topology's units hold.
    """
    stored = _stored(t, stored)
    capacity = np.array([s.capacity_mwd for s in t.systems])
    want = charge_wants(t, load_forecasts)
    deficit = charge_deficits(capacity, want, [stored[s.id] for s in t.systems])
    targets = zip(t.systems, np.minimum(capacity, want).tolist(), deficit.tolist())
    return sorted((ChargeTarget(s.id, tg, d) for s, tg, d in targets), key=lambda c: c.system_id)


def priority_rows(deficit: list[float], ids: list[int]) -> list[int]:
    """Positions by descending deficit, ties by ascending id."""
    return sorted(range(len(ids)), key=lambda i: (-deficit[i], ids[i]))


def prioritize(targets: list[ChargeTarget]) -> list[int]:
    """System ids ordered by descending deficit, ties by ascending id."""
    ids = [t.system_id for t in targets]
    return [ids[i] for i in priority_rows([t.deficit_mwd for t in targets], ids)]


def _stored(t: GridTopology, stored: dict[int, float] | None) -> dict[int, float]:
    return {s.id: stored_energy(s) for s in t.systems} if stored is None else stored


def _headrooms(t: GridTopology, stored: dict[int, float] | None) -> list[float]:
    stored = _stored(t, stored)
    return [max(0.0, s.capacity_mwd - stored[s.id]) for s in t.systems]


def allocate_priority_rows(
    w: Wiring, order: list[int], deficit: list[float], headroom: list[float], energy: list[float]
) -> tuple[list[list[float]], list[float]]:
    """allocate_priority on the wiring's rows: order lists rows, deficit and
    headroom (used up in place) are per row, energy per source. Returns
    flow[k][i], the MWd source k gives row i, and each source's curtailment.
    """
    remaining = list(energy)
    flow = [[0.0] * len(headroom) for _ in energy]
    curtailed = [0.0] * len(energy)
    # Pass 1: cover deficits in priority order.
    for i in order:
        need = min(deficit[i], headroom[i])
        for k in w.system_sources[i]:
            if need <= 0:
                break
            take = min(need, remaining[k])
            flow[k][i] = take
            remaining[k] -= take
            headroom[i] -= take
            need -= take
    # Pass 2: spread each source's leftover by remaining headroom.
    for k, rows in enumerate(w.source_rows):
        left = remaining[k]
        if left <= 0:
            continue
        rooms = [(i, headroom[i]) for i in rows if headroom[i] > 0]
        open_room = sum(room for _, room in rooms)
        if left >= open_room:
            give = rooms
            curtailed[k] = left - open_room
        else:
            give = [(i, left * room / open_room) for i, room in rooms]
        for i, amt in give:
            flow[k][i] += amt
            headroom[i] -= amt
    return flow, curtailed


def allocate_equal_rows(
    w: Wiring, headroom: list[float], energy: list[float]
) -> tuple[list[list[float]], list[float]]:
    """allocate_equal on the wiring's rows, in and out as allocate_priority_rows."""
    flow = [[0.0] * len(headroom) for _ in energy]
    curtailed = [0.0] * len(energy)
    for k, rows in enumerate(w.source_rows):
        e = energy[k]
        if e <= 0:
            continue
        delivered = 0.0
        for i, amt in zip(rows, split_equally(e, [headroom[i] for i in rows])):
            flow[k][i] = amt
            headroom[i] -= amt
            delivered += amt
        if e - delivered > _REL_TOL * max(1.0, e):
            curtailed[k] = e - delivered
    return flow, curtailed


def allocate_priority(
    order: list[int],
    targets: list[ChargeTarget],
    per_source_energy: dict[int, float],
    t: GridTopology,
    stored: dict[int, float] | None = None,
) -> ChargeAllocation:
    """Two-pass priority dispatch of today's generation.

    Pass one: systems in priority order draw from their connected sources
    (ascending source id) until each covers its deficit or the sources run
    dry. Pass two: every source's leftover is spread over its connected
    systems in proportion to the headroom still open after pass one;
    whatever exceeds total open headroom is curtailed.
    """
    target_by_id = {tg.system_id: tg for tg in targets}
    if set(order) != set(t.system_by_id) or not set(order) <= target_by_id.keys():
        raise ValueError("priority order and targets must cover every system exactly once")
    deficit = [target_by_id[s.id].deficit_mwd for s in t.systems]
    rows = [t.wiring.row_of[sid] for sid in order]
    return _allocate(t, per_source_energy, stored, allocate_priority_rows, rows, deficit)


def allocate_equal(
    per_source_energy: dict[int, float], t: GridTopology, stored: dict[int, float] | None = None
) -> ChargeAllocation:
    """Need-blind baseline: each source splits equally over its systems.

    Shares beyond a system's headroom are re-split among the source's
    still-unsaturated systems; energy no system can absorb is curtailed.
    Sources are processed in ascending id, so a later source sees headroom
    already consumed by earlier ones.
    """
    return _allocate(t, per_source_energy, stored, allocate_equal_rows)


def _allocate(t: GridTopology, per_source_energy, stored, rows_fn, *args) -> ChargeAllocation:
    """Check the day's source energies, run rows_fn on the topology's wiring
    and return its flows as a ChargeAllocation."""
    for src_id, e in per_source_energy.items():
        if e < 0:
            raise ValueError(f"source {src_id}: negative energy {e}")
    missing = [src.id for src in t.sources if src.id not in per_source_energy]
    if missing:
        raise ValueError(f"missing energy entries for sources {missing}")
    w, ids = t.wiring, [s.id for s in t.systems]
    energy = [per_source_energy[src.id] for src in w.sources]
    flow, curtailed = rows_fn(w, *args, _headrooms(t, stored), energy)
    return ChargeAllocation(
        {(src.id, ids[i]): f for src, row in zip(w.sources, flow) for i, f in enumerate(row) if f > 0},
        {src.id: c for src, c in zip(w.sources, curtailed) if c > 0},
    )


def split_pool(demand_mwd: float, stored: list[float]) -> tuple[list[float], float]:
    """split_by_storage on a list of stored amounts: (contributions, served)."""
    if demand_mwd < 0:
        raise ValueError(f"demand must be >= 0, got {demand_mwd}")
    pool = sum(stored)
    if demand_mwd >= pool:
        return list(stored), pool  # full drain: each system gives what it holds
    return [energy / pool * demand_mwd for energy in stored], demand_mwd


def split_by_storage(demand_mwd: float, stored: dict[int, float]) -> DischargeAssignment:
    """Split a load's demand across its systems proportional to storage.

    stored maps system id to the MWd each connected system holds. Serves
    min(demand, pooled energy); each system contributes in proportion to what
    it holds, so no contribution exceeds its stored energy and the pool
    empties together when demand exceeds it. The uncovered remainder is
    reported as unmet.
    """
    give, served = split_pool(demand_mwd, list(stored.values()))
    return DischargeAssignment(dict(zip(stored, give)), served, max(0.0, demand_mwd - served))


def discharge_shares(demand_mwd: float, systems: list[StorageSystem]) -> DischargeAssignment:
    """split_by_storage over what the given systems store now."""
    return split_by_storage(demand_mwd, {s.id: stored_energy(s) for s in systems})
