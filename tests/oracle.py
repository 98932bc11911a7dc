"""The grid-level day and the unit moves as README states them, in plain Python.

A sequential statement of priority and equal-split dispatch, curtailment,
each system's inflow, load settlement and the moves of energy into and out
of a system's units, kept apart from the package: it imports neither numpy
nor hybridgrid, and works on dicts keyed by system, source and load id, and
on one system's units as lists by position, rather than on wiring index
lists and [system, unit] arrays. tests/test_oracle.py checks the package's
dispatch functions and GridUnits against it on random grids and fleets.

Each rule adds its terms from 0.0 in the order README gives: a source's
systems in its connection order, a system's gifts in ascending source id, a
load's systems in its connection order, a system's draws in ascending load
id. Every float operation therefore matches the package's bit for bit.

Arguments: sources and loads map an id to its connected system ids, in
connection order; deficit, headroom and stored map a system id to MWd;
energy maps a source id and demand a load id to MWd. A unit move takes one
system's amount in MWd and its units' energy, soh, cap and wear rate lists.
"""

from __future__ import annotations


def priority_order(deficit: dict) -> list:
    """System ids by descending deficit, ties by ascending id."""
    return sorted(deficit, key=lambda sid: (-deficit[sid], sid))


def dispatch_priority(sources: dict, deficit: dict, headroom: dict, energy: dict):
    """Two-pass priority dispatch: (gifts {(source, system): MWd}, curtailed)."""
    room, left = dict(headroom), dict(energy)
    gifts = {(k, sid): 0.0 for k in sources for sid in sources[k]}
    curtailed = {k: 0.0 for k in sources}
    # Pass 1: in priority order, each system covers its deficit, capped at its
    # room, from its sources in ascending id.
    for sid in priority_order(deficit):
        need = min(deficit[sid], room[sid])
        for k in sorted(sources):
            if sid not in sources[k]:
                continue
            if need <= 0:
                break
            take = min(need, left[k])
            gifts[k, sid] = take
            left[k] -= take
            room[sid] -= take
            need -= take
    # Pass 2: each source in ascending id spreads what it has left over its
    # systems' open room in proportion, filling it all if it can and
    # curtailing the rest.
    for k in sorted(sources):
        if left[k] <= 0:
            continue
        open_systems = [sid for sid in sources[k] if room[sid] > 0]
        open_room = 0.0
        for sid in open_systems:
            open_room += room[sid]
        fills = left[k] >= open_room
        if fills:
            curtailed[k] = left[k] - open_room
        for sid in open_systems:
            amount = room[sid] if fills else left[k] * room[sid] / open_room
            gifts[k, sid] += amount
            room[sid] -= amount
    return gifts, curtailed


def water_fill(total: float, caps: list) -> list:
    """Equal shares of what is left to every open slot, each clamped at its
    cap, overflow re-split among the rest, until nothing is left (1e-12), no
    slot is open, or a round saturates no slot."""
    alloc = [0.0] * len(caps)
    remaining = total
    active = [j for j, cap in enumerate(caps) if cap > 0]
    while remaining > 1e-12 and active:
        share = remaining / len(active)
        saturated = []
        for j in active:
            room = caps[j] - alloc[j]
            take = min(room, share)
            alloc[j] += take
            remaining -= take
            if room <= share:
                saturated.append(j)
        if not saturated:
            break
        active = [j for j in active if j not in saturated]
    return alloc


def dispatch_equal(sources: dict, headroom: dict, energy: dict):
    """Each source in ascending id water-fills its systems' room; what it
    cannot place beyond a 1e-9 relative tolerance is curtailed."""
    room = dict(headroom)
    gifts, curtailed = {}, {k: 0.0 for k in sources}
    for k in sorted(sources):
        e, conn = energy[k], sources[k]
        split = water_fill(e, [room[sid] for sid in conn]) if e > 0 else [0.0] * len(conn)
        delivered = 0.0
        for sid, amount in zip(conn, split):
            gifts[k, sid] = amount
            room[sid] -= amount
            delivered += amount
        if e - delivered > 1e-9 * max(1.0, e):
            curtailed[k] = e - delivered
    return gifts, curtailed


def inflow(sources: dict, gifts: dict) -> dict:
    """Each system's gifts added in ascending source id."""
    total = {}
    for k in sorted(sources):
        for sid in sources[k]:
            total[sid] = total.get(sid, 0.0) + gifts[k, sid]
    return total


def settle(loads: dict, demand: dict, stored: dict):
    """Loads in ascending id draw on running stores, each in proportion to
    what its systems hold, or all of it when demand reaches the pool:
    (served, unmet, drawn), drawn per system."""
    left = dict(stored)
    served, unmet, drawn = {}, {}, {sid: 0.0 for sid in stored}
    for lid in sorted(loads):
        d, conn = demand[lid], loads[lid]
        pool = 0.0
        for sid in conn:
            pool += left[sid]
        give = {sid: left[sid] / pool * d if d < pool else left[sid] for sid in conn}
        for sid in conn:
            left[sid] -= give[sid]
            drawn[sid] += give[sid]
        served[lid] = d if d < pool else pool
        unmet[lid] = max(0.0, d - served[lid])
    return served, unmet, drawn


def unit_scores(energy: list, soh: list, cap: list, w_soh: float, w_soc: float) -> list:
    """Charging desirability per unit: healthy and empty score high."""
    return [w_soh * h / 100.0 + w_soc * (1.0 - e / c) for e, h, c in zip(energy, soh, cap)]


def wear(soh: list, moved: list, rate: list, cap: list) -> list:
    """Each unit that moved energy loses rate SoH points per full cycle of its
    capacity, pro rata, floored at 0."""
    return [max(0.0, h - m * r / c) if m > 0 else h for h, m, r, c in zip(soh, moved, rate, cap)]


def charge_units(q: float, ranked: bool, energy: list, soh: list, cap: list, rate: list,
                 w_soh: float, w_soc: float):
    """Charge q into one system's units: ranked, a greedy fill by descending
    score, ties by position, each unit taking what is left up to its room;
    else the equal split over the rooms. Returns (amounts, energy, soh)."""
    room = [max(0.0, c - e) for c, e in zip(cap, energy)]
    if ranked:
        score = unit_scores(energy, soh, cap, w_soh, w_soc)
        amounts, left = [0.0] * len(cap), q
        for j in sorted(range(len(cap)), key=lambda j: -score[j]):
            amounts[j] = max(0.0, min(left, room[j]))
            left -= amounts[j]
    else:
        amounts = water_fill(q, room)
    energy = [min(c, e + a) if a > 0 else e for c, e, a in zip(cap, energy, amounts)]
    return amounts, energy, wear(soh, amounts, rate, cap)


def discharge_units(d: float, energy: list, soh: list, cap: list, rate: list):
    """Draw d from one system's units by the equal split over what each
    holds. Returns (taken, energy, soh)."""
    taken = water_fill(d, energy)
    energy = [max(0.0, e - t) for e, t in zip(energy, taken)]
    return taken, energy, wear(soh, taken, rate, cap)
