"""Grid-level charge dispatch and load discharge.

A system's charge target is demand-driven: charge_targets adds each load's
buffered forecast, split equally over the load's systems, and caps the sum
at the system's capacity, for one day or for a whole run's forecasts at
once. Charging runs in two passes. Pass one walks storage systems in
priority order (largest shortfall against its target first) and lets each
draw from its connected sources, in ascending source order along its
Wiring.system_edges, until the shortfall is covered. Pass two
spreads whatever energy each source still holds across that source's
connected systems in proportion to remaining headroom; energy that finds no
headroom is curtailed. The non-prioritized baseline splits each source
equally across its connected systems instead, re-splitting overflow among
the still-unsaturated ones until nothing is left.

Discharge is need-blind: a load draws from its connected systems in
proportion to how much each currently stores, so a shared pool drains evenly
toward zero rather than emptying one system first. The split works on
stored amounts alone, so settle_loads settles a day's loads on running
system totals without touching units.

The day's functions work on plain per-system lists in a topology's row
order, ascending id, and on its Wiring index lists, as the engine calls them
each day; charge_targets, called once a run, works on arrays. Charge flows
come one per wired edge, aligned with Wiring.source_rows, so a day costs the
connections, not sources x systems; the allocators also add each row's
inflow, its gifts in ascending source order from 0.0, as they finish each
source. This module only decides system-level amounts.
Moving energy into and out of units, and the wear that costs, is health.py's job.

The engine calls these functions every day for every arm, on lists of a few
items each, so they are plain loops: no comprehension, zip or list built
only to be summed, and comparisons in place of the builtin min() and max(),
whose calls cost more than the arithmetic. Every sum adds its terms left to
right from 0, in the order the docstrings give, on every Python version.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .model import REL_TOL, GridTopology, Wiring

# Charge targets anticipate next-day demand with a fixed safety margin.
CHARGE_BUFFER = 1.25


def split_equally(total: float, caps: list[float], slots: Sequence[int]) -> list[float]:
    """Split total across the given slots of caps by iterated equal shares.

    Each round gives every unsaturated slot an equal share of what is left,
    clamped at its cap, until nothing is left or a round saturates no slot.
    Returns the amounts in slots order; any residue beyond the slots' caps
    is left unallocated.
    """
    if not total >= 0:  # NaN too
        raise ValueError(f"cannot split a negative total: {total}")
    alloc = [0.0] * len(slots)
    remaining = total
    active = []  # positions in slots
    for j, i in enumerate(slots):
        if caps[i] > 0:
            active.append(j)
    while remaining > 0.0 and active:
        share = remaining / len(active)
        unsaturated = []
        for j in active:
            room = caps[slots[j]] - alloc[j]
            if room <= share:
                alloc[j] += room
                remaining -= room
            else:
                alloc[j] += share
                remaining -= share
                unsaturated.append(j)
        if len(unsaturated) == len(active):
            break  # everyone absorbed a full share; only float dust remains
        active = unsaturated
    return alloc


def charge_targets(t: GridTopology, forecasts) -> np.ndarray:
    """Each system's charge target, the stored MWd priority dispatch charges
    toward: each load's buffered forecast split equally across the systems it
    is wired to, a system's shares added in ascending load id, and the sum
    capped at the system's capacity_mwd. forecasts holds one value per load on
    its last axis, in ascending load id; the targets hold one per system on
    theirs. A wrong width, or a forecast that is negative or not finite, is
    rejected, naming the first such load.
    """
    f = np.asarray(forecasts, dtype=float)
    if f.shape[-1:] != (len(t.loads),):
        raise ValueError(f"need one forecast per load ({len(t.loads)}), got shape {f.shape}")
    bad = np.nonzero(~((0 <= f) & (f < np.inf)))[-1]  # NaN fails both tests
    if bad.size:
        raise ValueError(f"load {t.loads[bad.min()].id}: forecast must be finite and >= 0")
    want = np.zeros(f.shape[:-1] + (len(t.systems),))
    for j, rows in enumerate(t.wiring.load_rows):
        share = CHARGE_BUFFER * f[..., j] / len(rows)
        for i in rows:
            want[..., i] += share
    return np.minimum([s.capacity_mwd for s in t.systems], want)


def charge_deficits(target: list[float], stored: list[float]) -> list[float]:
    """Each row's shortfall target - stored, floored at 0.0 by a comparison,
    so a NaN or -0.0 shortfall stays as it is."""
    deficit = []
    for tg, s in zip(target, stored):
        gap = tg - s
        deficit.append(0.0 if gap < 0.0 else gap)
    return deficit


def prioritize(deficit: list[float]) -> list[int]:
    """Rows by descending deficit, ties by row, which is ascending id. A
    stable sort keeps equal deficits, -0.0 and 0.0 among them, in row order
    under reverse=True too."""
    return sorted(range(len(deficit)), key=deficit.__getitem__, reverse=True)


def allocate_priority(
    w: Wiring, order: list[int], deficit: list[float], headroom: list[float], energy: list[float]
) -> tuple[list[list[float]], list[float], list[float]]:
    """Two-pass priority dispatch: order lists rows, deficit and headroom
    (used up in place) are per row, energy is per source of the wiring. Pass
    one covers deficits in order from each row's sources, ascending; pass two
    spreads each source's leftover by open headroom and curtails the rest.
    Returns flow[k][j], the MWd source k gives row w.source_rows[k][j], each
    curtailment, and each row's inflow.
    """
    remaining = list(energy)
    flow = []
    for rows in w.source_rows:
        flow.append([0.0] * len(rows))
    curtailed, into = [0.0] * len(energy), [0.0] * len(headroom)
    # Pass 1: cover deficits in priority order. Comparisons stand in for the
    # builtin min(): min(a, b) is b if b < a else a, NaN and -0.0 included.
    edges = w.system_edges
    for i in order:
        need, room = deficit[i], headroom[i]
        if room < need:
            need = room
        if need <= 0:
            continue
        for k, j in edges[i]:
            avail = remaining[k]
            take = avail if avail < need else need
            flow[k][j] = take
            remaining[k] -= take
            headroom[i] -= take
            need -= take
            if need <= 0:
                break
    # Pass 2: spread each source's leftover by remaining headroom. Source k's
    # gifts are final once its pass 2 ran, so inflow adds them in source order.
    for k, rows in enumerate(w.source_rows):
        left, gifts = remaining[k], flow[k]
        if left <= 0:
            for i, amt in zip(rows, gifts):
                into[i] += amt
            continue
        open_room = 0  # from int 0, left to right
        for i in rows:
            room = headroom[i]
            if room > 0:
                open_room += room
        fills = left >= open_room
        if fills:
            curtailed[k] = left - open_room
        for j, i in enumerate(rows):  # a source lists each row once
            room = headroom[i]
            if room > 0:
                amt = room if fills else left * room / open_room
                gifts[j] += amt
                headroom[i] -= amt
            into[i] += gifts[j]
    return flow, curtailed, into


def allocate_equal(
    w: Wiring, headroom: list[float], energy: list[float]
) -> tuple[list[list[float]], list[float], list[float]]:
    """Need-blind baseline: each source in turn splits equally over its rows,
    overflow re-split, and a rest above REL_TOL of its energy is curtailed;
    in and out as allocate_priority."""
    flow, curtailed, into = [], [0.0] * len(energy), [0.0] * len(headroom)
    for k, rows in enumerate(w.source_rows):
        e = energy[k]
        gifts = split_equally(e, headroom, rows)
        flow.append(gifts)
        delivered = 0  # from int 0, left to right
        for i, amt in zip(rows, gifts):
            headroom[i] -= amt
            delivered += amt
            into[i] += amt
        if e - delivered > REL_TOL * e:
            curtailed[k] = e - delivered
    return flow, curtailed, into


def settle_loads(
    load_rows: list[list[int]], demand: list[float], stored: list[float]
) -> tuple[list[float], list[float], list[float]]:
    """Serve each load in turn from its rows' stores, in proportion to what
    each holds: load_rows and demand are per load in ascending id, stored is
    per row (drawn down in place, so each load sees what the loads before it
    left). Demand beyond a load's pool drains each of its rows of exactly what
    it holds. Returns each load's served and unmet MWd and each row's draw.
    """
    served, unmet, took = [], [], [0.0] * len(stored)
    for d, rows in zip(demand, load_rows):
        if not d >= 0:  # NaN too
            raise ValueError(f"demand must be >= 0, got {d}")
        pool = 0  # from int 0, left to right
        for i in rows:
            pool += stored[i]
        if d < pool:
            # A load lists each row once, so each share reads its row's
            # store before this load draws on it.
            for i in rows:
                amount = stored[i] / pool * d
                stored[i] -= amount
                took[i] += amount
            served.append(d)
            unmet.append(0.0)
        else:
            for i in rows:
                amount = stored[i]
                stored[i] -= amount
                took[i] += amount
            served.append(pool)
            short = d - pool
            unmet.append(short if short > 0.0 else 0.0)  # max(0.0, short), NaN to 0.0
    return served, unmet, took
