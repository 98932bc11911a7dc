"""Battery-unit state: charging, discharging and the cycle wear they cost.

GridUnits is the one API and the only writer of unit state: it holds every
unit of a grid as [system, unit] arrays and reports each system's stored
energy, SoC and mean SoH; the systems it is built from are never changed.
Shorter systems are padded with zero-capacity units, which have no room, so
every move gives them +0.0 wherever they rank. Every MWd moved through
a unit costs SoH in proportion to its cycle-wear rate. Ranked charging fills
each system's healthiest, emptiest units first, steering throughput away from
worn units; the baseline, and discharge always, split equally across units.
Every step is row by row, so compare() stacks its arms as more rows and one
charge call mixes ranked rows with equal ones.

Every step keeps the per-element arithmetic and the order of a sequential
loop over units (differences run left to right with np.subtract.accumulate,
totals with model.total), so results are bit for bit those of
dispatch.split_equally and of such loops. Arrays are small, so a step costs
its numpy calls: the equal split stops at the first round that saturates no
slot, a move writes energy and SoH in place where it moved and refreshes
stored and headroom once, and charge skips a pass that no row takes.
Returned amounts are never -0.0.
"""

from __future__ import annotations

import numpy as np

from .model import REL_TOL, UNIT_FIELDS, StorageSystem, total

DEFAULT_W_SOH = 0.5
DEFAULT_W_SOC = 0.5

# Calibrated cycle-wear defaults: SoH percentage points lost per equivalent
# full cycle. Chosen so a two-year run on the reference scenario drives the
# fleet toward the 80% end-of-life region, where ranked and uniform charging
# become measurably different; see scenarios/reference.json.
DEFAULT_R_CHARGE = 0.2
DEFAULT_R_DISCHARGE = 0.25


def split_equally_rows(totals, caps: np.ndarray) -> np.ndarray:
    """dispatch.split_equally on every row at once, each row's slots all of
    its caps, bit for bit.

    Each round gives every unsaturated slot of a row an equal share of what
    the row has left, clamped at its cap, and re-splits the overflow among
    the rest; a row stops when it has nothing left, no open slot, or no slot
    saturated in its last round, so every split ends.
    """
    room, alloc = caps, np.zeros(caps.shape)
    left = np.asarray(totals, dtype=float).reshape(-1, 1)
    active = (room > 0) & (left > 0.0)
    while np.count_nonzero(active):
        share = left / np.maximum(active.sum(axis=1, keepdims=True, dtype=float), 1.0)
        full = active & (room <= share)
        take = np.minimum(room, share, out=np.zeros(caps.shape), where=active)
        alloc += take
        if not np.count_nonzero(full):
            break
        left = np.subtract.accumulate(np.concatenate([left, take], axis=1), axis=1)[:, -1:]
        active &= ~full & full.any(axis=1, keepdims=True) & (left > 0.0)
        room = caps - alloc
    return alloc


class GridUnits:
    """Energy, SoH, capacity and wear rates of every unit as [S, U] arrays.

    Row i holds systems[i]'s units in order; stored, headroom, soc_pct and
    mean_soh_pct are per row. Each move takes one amount per row and returns
    what each unit moved.
    """

    def __init__(self, systems: list[StorageSystem]) -> None:
        self.ids = [s.id for s in systems]
        self._count = np.array([len(s.cap) for s in systems], dtype=int)
        real = np.arange(self._count.max(initial=1)) < self._count[:, None]
        state = np.zeros((5, *real.shape))
        if systems:
            for a, f in zip(state, UNIT_FIELDS):
                a[real] = np.concatenate([getattr(s, f) for s in systems])
        self.cap, self.energy, self.soh, self.r_charge, self.r_discharge = state
        self._divisor = np.where(real, self.cap, 1.0)  # pads move nothing
        self._flat = np.arange(len(systems))[:, None] * self.cap.shape[1]  # row starts
        self.capacity = total(self.cap)  # pads add +0.0, which changes no sum
        self._refresh()

    def _refresh(self) -> None:
        self.stored = total(self.energy)
        self.headroom = np.maximum(0.0, self.capacity - self.stored)

    @property
    def soc_pct(self) -> np.ndarray:
        return self.stored / self.capacity * 100.0

    @property
    def mean_soh_pct(self) -> np.ndarray:
        return total(self.soh) / self._count

    def scores(self, w_soh: float = DEFAULT_W_SOH, w_soc: float = DEFAULT_W_SOC) -> np.ndarray:
        """Charging desirability in [0, 1]: healthy and empty scores high."""
        return w_soh * self.soh / 100.0 + w_soc * (1.0 - self.energy / self._divisor)

    def _check(self, amounts, limit: np.ndarray, what: str) -> np.ndarray:
        """The amounts as an array, clipped to limit after overshoot up to REL_TOL of it."""
        amounts = np.asarray(amounts, dtype=float)
        ok = amounts >= 0  # false for NaN
        ok &= amounts <= limit  # most calls need no tolerance
        if np.count_nonzero(ok) < ok.size:
            ok = (amounts >= 0) & (amounts <= limit + REL_TOL * limit)
            if np.count_nonzero(ok) < ok.size:
                i = int(np.argmin(ok))
                raise ValueError(f"system {self.ids[i]}: {what} {amounts[i]} outside "
                                 f"[0, {limit[i]}]")
        return np.minimum(amounts, limit)

    def charge(
        self, q, ranked, w_soh: float = DEFAULT_W_SOH, w_soc: float = DEFAULT_W_SOC
    ) -> np.ndarray:
        """Charge q[i] into row i and wear each unit by what it got.

        Rows where ranked (one flag, or one per row) is true fill their units
        greedily in score order, ties by position, ranked once per call: one
        day's charge lands on the units that looked best at its start. The
        other rows split equally across their units, overflow re-split.
        """
        left = self._check(q, self.headroom, "charge")
        room = np.maximum(0.0, self.cap - self.energy)
        ranked = np.asarray(ranked)
        n_ranked = np.count_nonzero(ranked)
        mixed = 0 < n_ranked < ranked.size
        amounts = np.zeros(room.shape)
        if n_ranked < ranked.size:
            amounts = split_equally_rows(np.where(ranked, 0.0, left), room)
        if n_ranked:
            # Greedy in rank order: each unit takes what is left, up to its room.
            order = (-self.scores(w_soh, w_soc)).argsort(axis=1, kind="stable") + self._flat
            room = room.take(order)  # order holds flat indices, as take and put read them
            # + 0.0 turns a -0.0 request to +0.0, as the add below does on a mixed call.
            first = np.where(ranked, left, 0.0) if mixed else left + 0.0
            rest = np.subtract.accumulate(np.concatenate([first[:, None], room], axis=1), axis=1)
            greedy = np.maximum(0.0, np.minimum(rest[:, :-1], room, out=room), out=room)
            amounts.put(order, amounts.take(order) + greedy if mixed else greedy)
        moved = amounts > 0
        np.minimum(self.cap, self.energy + amounts, out=self.energy, where=moved)
        return self._wear(amounts, self.r_charge, moved)

    def _wear(self, amounts: np.ndarray, rate: np.ndarray, moved: np.ndarray) -> np.ndarray:
        np.maximum(0.0, self.soh - amounts * rate / self._divisor, out=self.soh, where=moved)
        self._refresh()
        return amounts

    def discharge(self, d) -> np.ndarray:
        """Withdraw d[i] from system i, split equally across its units.

        Units that would go below zero are drained and the shortfall is
        re-split among the rest. Each unit is worn by what it gave.
        """
        taken = split_equally_rows(self._check(d, self.stored, "discharge"), self.energy)
        moved = taken > 0
        np.maximum(0.0, self.energy - taken, out=self.energy, where=moved)
        return self._wear(taken, self.r_discharge, moved)
