"""Battery-unit state: charging, discharging and the cycle wear they cost.

GridUnits is the one API for unit state. It holds every unit of a grid as
[system, unit] arrays, reports each system's stored energy, SoC and mean SoH,
and is the only writer of unit state; the systems it is built from are never
changed. Shorter systems are padded with zero-capacity units. Every MWd moved
through a unit costs SoH in proportion to its cycle-wear rate. Ranked
charging fills each system's healthiest, emptiest units first, steering
throughput away from worn units; the baseline, and discharge always, split
equally across units. Every step is row by row, so compare() stacks its arms
as more rows and one charge call mixes ranked rows with equal ones.

Every step keeps the per-element arithmetic and the order of a sequential
loop over units: differences run left to right with np.subtract.accumulate
and totals with np.cumsum, which adds left to right as the loop does. So
results are bit for bit those of dispatch.split_equally and of such loops.
"""

from __future__ import annotations

import numpy as np

from .model import StorageSystem

_REL_TOL = 1e-9

DEFAULT_W_SOH = 0.5
DEFAULT_W_SOC = 0.5

# Calibrated cycle-wear defaults: SoH percentage points lost per equivalent
# full cycle. Chosen so a two-year run on the reference scenario drives the
# fleet toward the 80% end-of-life region, where ranked and uniform charging
# become measurably different; see scenarios/reference.json.
DEFAULT_R_CHARGE = 0.2
DEFAULT_R_DISCHARGE = 0.25


def _total(a: np.ndarray) -> np.ndarray:
    """Row sums added left to right, as a loop adds (np.sum adds pairwise)."""
    return np.cumsum(a, axis=1)[:, -1]


def split_equally_rows(totals, caps: np.ndarray) -> np.ndarray:
    """dispatch.split_equally on every row at once, bit for bit.

    Each round gives every unsaturated slot of a row an equal share of what
    the row has left, clamped at its cap, and re-splits the overflow among
    the rest; a row stops when it has nothing left, no open slot, or no slot
    saturated in its last round.
    """
    alloc = np.zeros_like(caps)
    steps = np.zeros((len(caps), caps.shape[1] + 1))
    steps[:, 0] = totals
    active = (caps > 0) & (steps[:, :1] > 1e-12)
    while active.any():
        share = steps[:, :1] / np.maximum(active.sum(axis=1, keepdims=True), 1)
        room = caps - alloc
        full = active & (room <= share)
        steps[:, 1:] = np.where(active, np.minimum(room, share), 0.0)
        alloc += steps[:, 1:]
        np.subtract.accumulate(steps, axis=1, out=steps)
        steps[:, 0] = steps[:, -1]
        active &= ~full & full.any(axis=1, keepdims=True) & (steps[:, :1] > 1e-12)
    return alloc


class GridUnits:
    """Energy, SoH, capacity and wear rates of every unit as [S, U] arrays.

    Row i holds systems[i]'s units in order; stored, headroom, soc_pct and
    mean_soh_pct are per row. Each move takes one amount per row and returns
    what each unit moved.
    """

    def __init__(self, systems: list[StorageSystem]) -> None:
        self.ids = [s.id for s in systems]
        state = np.zeros((len(systems), max((len(s.units) for s in systems), default=1), 5))
        for i, s in enumerate(systems):
            state[i, : len(s.units)] = [
                (u.energy_mwd, u.soh_pct, u.capacity_mwd, u.r_charge, u.r_discharge)
                for u in s.units
            ]
        state = state.transpose(2, 0, 1).copy()
        self.energy, self.soh, self.cap, self.r_charge, self.r_discharge = state
        self.real = self.cap > 0
        self._divisor = np.where(self.real, self.cap, 1.0)  # pads move nothing
        self.capacity = np.array([s.capacity_mwd for s in systems])
        self.stored = _total(self.energy)

    @property
    def soc_pct(self) -> np.ndarray:
        return self.stored / self.capacity * 100.0

    @property
    def headroom(self) -> np.ndarray:
        return np.maximum(0.0, self.capacity - self.stored)

    @property
    def mean_soh_pct(self) -> np.ndarray:
        return _total(self.soh) / self.real.sum(axis=1)

    def scores(self, w_soh: float = DEFAULT_W_SOH, w_soc: float = DEFAULT_W_SOC) -> np.ndarray:
        """Charging desirability in [0, 1]: healthy and empty scores high; pads -inf."""
        score = w_soh * self.soh / 100.0 + w_soc * (1.0 - self.energy / self._divisor)
        return np.where(self.real, score, -np.inf)

    def _check(self, amounts, limit: np.ndarray, what: str) -> np.ndarray:
        """The amounts as an array, clipped to limit after dust-sized overshoot."""
        amounts = np.asarray(amounts, dtype=float)
        bad = (amounts < 0) | (amounts > limit + _REL_TOL * np.maximum(1.0, limit))
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"system {self.ids[i]}: {what} {amounts[i]} outside [0, {limit[i]}]")
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
        headroom = np.maximum(0.0, self.cap - self.energy)
        ranked = np.reshape(ranked, (-1, 1))
        amounts = split_equally_rows(np.where(ranked[:, 0], 0.0, left), headroom)
        if ranked.any():
            order = np.argsort(-self.scores(w_soh, w_soc), axis=1, kind="stable")
            rank = (np.arange(len(self.ids))[:, None], order)
            room = headroom[rank]
            first = np.where(ranked, left[:, None], 0.0)
            steps = np.subtract.accumulate(np.concatenate([first, room], axis=1), axis=1)[:, :-1]
            greedy = np.where(steps > 0, np.minimum(steps, room), 0.0)
            amounts[rank] = np.where(ranked, greedy, amounts[rank])
        filled = np.minimum(self.cap, self.energy + amounts)
        self.energy = np.where(amounts > 0, filled, self.energy)
        return self._wear(amounts, self.r_charge)

    def _wear(self, amounts: np.ndarray, rate: np.ndarray) -> np.ndarray:
        worn = np.maximum(0.0, self.soh - amounts * rate / self._divisor)
        self.soh = np.where(amounts > 0, worn, self.soh)
        self.stored = _total(self.energy)
        return amounts

    def discharge(self, d) -> np.ndarray:
        """Withdraw d[i] from system i, split equally across its units.

        Units that would go below zero are drained and the shortfall is
        re-split among the rest. Each unit is worn by what it gave.
        """
        taken = split_equally_rows(self._check(d, self.stored, "discharge"), self.energy)
        self.energy = np.maximum(0.0, self.energy - taken)
        return self._wear(taken, self.r_discharge)
