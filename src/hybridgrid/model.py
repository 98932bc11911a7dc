"""Domain model: storage systems and their battery units, load centers,
sources, and the wiring between them. A topology's Wiring states each
connection once per direction dispatch reads it: per source and per load,
its systems' rows; per system, its (source, slot) edges.

All stored energy is tracked in MWd under the one-day tick convention.
State of charge (SoC) of a system is the stored share of total capacity in
percent; state of health (SoH) is a per-unit percentage that only ever
decreases as energy is cycled through the unit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .generation import PLANTS, SolarPlantParams, WindPlantParams


class UnitView(NamedTuple):
    """One unit of a StorageSystem, as its units view lists it."""

    id: int
    capacity_mwd: float
    energy_mwd: float
    soh_pct: float
    r_charge: float
    r_discharge: float


# The one tolerance for float dust, as a share of the quantity it guards (a
# limit, a capacity, a source's energy), so MWd scaled by 2^k run the same.
REL_TOL = 1e-9
# Each unit array's bounds, in StorageSystem field order: capacity > 0 (the
# least positive float is its lower bound), energy >= 0 (its upper bound,
# cap * (1 + REL_TOL), is checked apart), SoH in [0, 100] and wear rates
# >= 0 (times the capacity finite, checked apart: a move computes the wear of
# every unit, moved or not). Every value is finite; NaN is outside every bound.
UNIT_FIELDS = ("cap", "energy", "soh", "r_charge", "r_discharge")
_MAX = np.finfo(float).max
_UNIT_LO = np.array([[5e-324], [0.0], [0.0], [0.0], [0.0]])
_UNIT_HI = np.array([[_MAX], [_MAX], [100.0], [_MAX], [_MAX]])
_UNIT_RULES = ("capacity must be positive and finite", "energy outside [0, capacity]",
               "SoH outside [0, 100]",
               "degradation rates must be >= 0 and finite times capacity",
               "degradation rates must be >= 0 and finite times capacity")


def total(a) -> np.ndarray:
    """The sums along a's last axis, each added left to right from its first
    term as a loop adds (np.sum adds pairwise), and 0.0 for an empty axis."""
    a = np.asarray(a, dtype=float)
    return np.add.accumulate(a, axis=-1)[..., -1] if a.shape[-1] else np.zeros(a.shape[:-1])


@dataclass(eq=False)
class StorageSystem:
    """A bank of battery units operated as one grid-level storage system.

    Its units are arrays with one value per unit, and a unit's id is its
    position: cap and energy in MWd (energy defaults to empty), soh in
    percent (default 100), and r_charge / r_discharge, the SoH percentage
    points a unit loses per equivalent full cycle of charging / discharging
    (throughput equal to its capacity; default 0). A scalar stands for every
    unit. Each array is copied and checked once: cap > 0, energy in
    [0, cap * (1 + REL_TOL)], soh in [0, 100] and rates >= 0, all finite,
    and so are the capacity and stored-energy totals. An error names the
    first unit that breaks a rule and its first one.
    """

    id: int
    cap: np.ndarray
    energy: np.ndarray | float = 0.0
    soh: np.ndarray | float = 100.0
    r_charge: np.ndarray | float = 0.0
    r_discharge: np.ndarray | float = 0.0

    def __post_init__(self) -> None:
        cap = np.array(self.cap, dtype=float, ndmin=1)
        if cap.ndim != 1 or not cap.size:
            raise ValueError(f"system {self.id}: needs at least one unit")
        units = np.empty((5, cap.size))
        try:
            units[0], units[1], units[2], units[3], units[4] = (
                cap, self.energy, self.soh, self.r_charge, self.r_discharge)
        except ValueError:
            raise ValueError(f"system {self.id}: unit arrays must have one value per unit "
                             f"({cap.size})") from None
        bad = ~((units >= _UNIT_LO) & (units <= _UNIT_HI))
        with np.errstate(over="ignore", invalid="ignore"):  # overflow gives inf, inf * 0.0 NaN
            bad[1] |= units[1] > units[0] * (1.0 + REL_TOL)
            bad[3:] |= ~np.isfinite(units[3:] * units[0])
            totals = total(units[:2]).tolist()  # capacity and stored energy, as GridUnits adds them
        if np.count_nonzero(bad):
            # Name the first unit that breaks a rule, and its first rule broken.
            k = int(np.argmax(bad.any(axis=0)))
            raise ValueError(f"system {self.id} unit {k}: {_UNIT_RULES[np.argmax(bad[:, k])]}")
        if not all(map(math.isfinite, totals)):
            raise ValueError(f"system {self.id} totals: capacity and stored energy must be finite")
        self.cap, self.energy, self.soh, self.r_charge, self.r_discharge = units

    def __eq__(self, other) -> bool:
        if not isinstance(other, StorageSystem):
            return NotImplemented
        return self.id == other.id and all(
            np.array_equal(getattr(self, f), getattr(other, f)) for f in UNIT_FIELDS)

    @property
    def capacity_mwd(self) -> float:
        """The units' capacities added in order."""
        return float(total(self.cap))

    @property
    def units(self) -> tuple[UnitView, ...]:
        """The units as UnitView tuples, built on each read from the arrays;
        only the benchmark's checks (bench/checks.py, bench/run.py) read it."""
        values = (getattr(self, f).tolist() for f in UNIT_FIELDS)
        return tuple(map(UnitView, range(len(self.cap)), *values))


@dataclass
class LoadCenter:
    """A demand center drawing from a fixed set of storage systems."""

    id: int
    connected_systems: tuple[int, ...]

    def __post_init__(self) -> None:
        self.connected_systems = tuple(self.connected_systems)


@dataclass
class EnergySource:
    """A renewable plant feeding a fixed set of storage systems.

    kind is "solar" or "wind"; params must match. site names the weather
    series the plant's output is computed from.
    """

    id: int
    kind: str
    params: SolarPlantParams | WindPlantParams
    connected_systems: tuple[int, ...]
    site: str

    def __post_init__(self) -> None:
        self.connected_systems = tuple(self.connected_systems)
        if self.kind not in PLANTS:
            raise ValueError(f"source {self.id}: unknown kind {self.kind!r}")
        if not isinstance(self.params, PLANTS[self.kind]):
            raise ValueError(f"source {self.id}: params do not match kind {self.kind!r}")


class Wiring(NamedTuple):
    """A topology's connections as index lists; a row is a position in systems."""

    source_rows: list[list[int]]  # per source, its systems' rows in connection order
    system_edges: list[list[tuple[int, int]]]  # per row, (k, j) with source_rows[k][j] == row, by k
    load_rows: list[list[int]]  # per load, its systems' rows in connection order


_id = attrgetter("id")


@dataclass
class GridTopology:
    """Systems, loads, sources, and their static wiring. Each list is sorted
    by id once, here, so a row or column is an id's rank from parse to trace
    and the order a document lists them in never reaches a result."""

    systems: list[StorageSystem]
    loads: list[LoadCenter]
    sources: list[EnergySource]

    def __post_init__(self) -> None:
        self.systems = sorted(self.systems, key=_id)
        self.loads = sorted(self.loads, key=_id)
        self.sources = sorted(self.sources, key=_id)

    @cached_property
    def wiring(self) -> Wiring:
        """Built on first use, so that validate_topology can still report a
        topology wired to unknown systems."""
        row = {s.id: i for i, s in enumerate(self.systems)}
        source_rows = [[row[sid] for sid in s.connected_systems] for s in self.sources]
        system_edges = [[] for _ in self.systems]
        for k, rows in enumerate(source_rows):
            for j, i in enumerate(rows):
                system_edges[i].append((k, j))
        load_rows = [[row[sid] for sid in l.connected_systems] for l in self.loads]
        return Wiring(source_rows, system_edges, load_rows)


@dataclass(frozen=True)
class Violation:
    """One broken topology rule, naming the offending entity."""

    entity: str
    rule: str
    detail: str

    def __str__(self) -> str:
        return f"{self.entity}: {self.rule} ({self.detail})"


def as_int(value, where: str) -> int:
    """An integer input field: an integer or an integral float such as 2.0.

    Booleans, fractions and anything that is not a number are rejected
    rather than truncated, naming the field.
    """
    if type(value) is int:  # the common case, without the ABC check below
        return value
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Integral) or (isinstance(value, float) and value.is_integer())
    ):
        raise ValueError(f"{where} must be an integer, got {value!r}")
    return int(value)


def validate_topology(t: GridTopology) -> list[Violation]:
    """Static wiring checks; an empty list means the topology is sound."""
    out: list[Violation] = []
    sys_ids = [s.id for s in t.systems]
    if len(set(sys_ids)) != len(sys_ids):
        out.append(Violation("systems", "duplicate-id", f"ids {sys_ids}"))
    known = set(sys_ids)

    for kind, entities in (("load", t.loads), ("source", t.sources)):
        ids = [e.id for e in entities]
        if len(set(ids)) != len(ids):
            out.append(Violation(f"{kind}s", "duplicate-id", f"ids {ids}"))
        for e in entities:
            name = f"{kind} {e.id}"
            if not e.connected_systems:
                out.append(Violation(name, "no-connected-systems", "empty connection list"))
            if len(set(e.connected_systems)) != len(e.connected_systems):
                out.append(Violation(name, "duplicate-connection", str(e.connected_systems)))
            for sid in e.connected_systems:
                if sid not in known:
                    out.append(Violation(name, "unknown-system", f"system {sid} not defined"))

    fed = {sid for s in t.sources for sid in s.connected_systems}
    for sid in sys_ids:
        if sid not in fed:
            out.append(Violation(f"system {sid}", "unsourced-system", "no source feeds it"))
    return out
