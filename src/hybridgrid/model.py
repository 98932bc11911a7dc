"""Domain model: battery units, storage systems, load centers, sources,
and the wiring between them.

All stored energy is tracked in MWd under the one-day tick convention.
State of charge (SoC) of a system is the stored share of total capacity in
percent; state of health (SoH) is a per-unit percentage that only ever
decreases as energy is cycled through the unit.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .generation import SolarPlantParams, WindPlantParams


@dataclass
class BatteryUnit:
    """One battery unit inside a storage system.

    r_charge / r_discharge are the SoH percentage points lost per equivalent
    full cycle of charging / discharging (throughput equal to capacity).
    """

    id: int
    capacity_mwd: float
    energy_mwd: float = 0.0
    soh_pct: float = 100.0
    r_charge: float = 0.0
    r_discharge: float = 0.0

    def __post_init__(self) -> None:
        if self.capacity_mwd <= 0:
            raise ValueError(f"unit {self.id}: capacity must be positive")
        if not 0.0 <= self.energy_mwd <= self.capacity_mwd + 1e-9:
            raise ValueError(f"unit {self.id}: energy outside [0, capacity]")
        if not 0.0 <= self.soh_pct <= 100.0:
            raise ValueError(f"unit {self.id}: SoH outside [0, 100]")
        if self.r_charge < 0 or self.r_discharge < 0:
            raise ValueError(f"unit {self.id}: degradation rates must be >= 0")


@dataclass
class StorageSystem:
    """A bank of battery units operated as one grid-level storage system.

    A system's units, and so their capacities, are fixed once it is built:
    capacity_mwd is their sum, computed once here.
    """

    id: int
    units: list[BatteryUnit]
    capacity_mwd: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.units:
            raise ValueError(f"system {self.id}: needs at least one unit")
        self.capacity_mwd = sum(u.capacity_mwd for u in self.units)


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
        if self.kind not in ("solar", "wind"):
            raise ValueError(f"source {self.id}: unknown kind {self.kind!r}")
        expected = SolarPlantParams if self.kind == "solar" else WindPlantParams
        if not isinstance(self.params, expected):
            raise ValueError(f"source {self.id}: params do not match kind {self.kind!r}")


class Wiring(NamedTuple):
    """A topology's connections as index lists; a row is a position in systems."""

    row_of: dict[int, int]  # system id -> row
    sources: list[EnergySource]  # ascending id
    source_rows: list[list[int]]  # per source, its systems' rows in connection order
    system_sources: list[list[int]]  # per row, positions in sources, ascending
    system_slots: list[list[int]]  # per row, its position in each of those sources' source_rows
    load_ids: list[int]  # ascending
    load_rows: list[list[int]]  # per load, its systems' rows in connection order


@dataclass
class GridTopology:
    """Systems, loads, sources, and their static wiring."""

    systems: list[StorageSystem]
    loads: list[LoadCenter]
    sources: list[EnergySource]

    def __post_init__(self) -> None:
        self.load_by_id = {l.id: l for l in self.loads}

    @cached_property
    def wiring(self) -> Wiring:
        """Built on first use, so that validate_topology can still report a
        topology wired to unknown systems."""
        row = {s.id: i for i, s in enumerate(self.systems)}
        sources = sorted(self.sources, key=lambda s: s.id)
        source_rows = [[row[sid] for sid in s.connected_systems] for s in sources]
        system_sources = [[] for _ in self.systems]
        system_slots = [[] for _ in self.systems]
        for k, rows in enumerate(source_rows):
            for j, i in enumerate(rows):
                system_sources[i].append(k)
                system_slots[i].append(j)
        loads = sorted(self.loads, key=lambda l: l.id)
        load_rows = [[row[sid] for sid in l.connected_systems] for l in loads]
        return Wiring(row, sources, source_rows, system_sources, system_slots,
                      [l.id for l in loads], load_rows)


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
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Integral) or (isinstance(value, float) and value.is_integer())
    ):
        raise ValueError(f"{where} must be an integer, got {value!r}")
    return int(value)


def uniform_units(
    count: int, cap_mwd: float, soc_pct: float, soh_pct: float, r_charge: float, r_discharge: float
) -> list[BatteryUnit]:
    """count alike units, ids 0 to count - 1, each holding soc_pct of its capacity."""
    energy = cap_mwd * soc_pct / 100.0
    return [BatteryUnit(k, cap_mwd, energy, soh_pct, r_charge, r_discharge) for k in range(count)]


def validate_topology(t: GridTopology) -> list[Violation]:
    """Static wiring checks; an empty list means the topology is sound."""
    out: list[Violation] = []
    sys_ids = [s.id for s in t.systems]
    if len(set(sys_ids)) != len(sys_ids):
        out.append(Violation("systems", "duplicate-id", f"ids {sorted(sys_ids)}"))
    known = set(sys_ids)

    for kind, entities in (("load", t.loads), ("source", t.sources)):
        ids = [e.id for e in entities]
        if len(set(ids)) != len(ids):
            out.append(Violation(f"{kind}s", "duplicate-id", f"ids {sorted(ids)}"))
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

    for s in t.systems:
        unit_ids = [u.id for u in s.units]
        if len(set(unit_ids)) != len(unit_ids):
            out.append(Violation(f"system {s.id}", "duplicate-unit-id", f"ids {sorted(unit_ids)}"))
    return out


# Benchmark grid used throughout the test-bed scenarios: seven storage
# systems of ten 100 MWd units each, eight load centers wired to three
# systems apiece, two wind plants feeding systems 1-4 and two solar plants
# feeding systems 4-7 (system 4 touches all four plants).
_REFERENCE_LOAD_WIRING = {
    0: (1, 2, 3),
    1: (2, 3, 4),
    2: (3, 4, 5),
    3: (4, 5, 6),
    4: (5, 6, 7),
    5: (1, 6, 7),
    6: (1, 2, 7),
    7: (2, 3, 7),
}

WIND_SITE = "coastal"
SOLAR_SITE = "inland"


def reference_topology(
    initial_soc_pct: float = 50.0,
    initial_soh_pct: float = 100.0,
    r_charge: float = 0.0,
    r_discharge: float = 0.0,
) -> GridTopology:
    """Construct the benchmark grid with uniform initial unit state."""
    if not 0.0 <= initial_soc_pct <= 100.0:
        raise ValueError("initial SoC must be in [0, 100]")
    systems = [
        StorageSystem(sid, uniform_units(10, 100.0, initial_soc_pct, initial_soh_pct,
                                         r_charge, r_discharge))
        for sid in range(1, 8)
    ]

    loads = [LoadCenter(id=i, connected_systems=w) for i, w in _REFERENCE_LOAD_WIRING.items()]

    def wind_params(turbines: int) -> WindPlantParams:
        return WindPlantParams(
            power_coefficient=0.4,
            air_density=1.225,
            rotor_area_m2=10_000.0,
            turbine_count=turbines,
            cut_in_ms=3.0,
            cut_out_ms=25.0,
        )

    sources = [
        EnergySource(1, "wind", wind_params(50), (1, 2, 3, 4), WIND_SITE),
        EnergySource(2, "wind", wind_params(100), (1, 2, 3, 4), WIND_SITE),
        EnergySource(3, "solar", SolarPlantParams(area_m2=900_000.0, efficiency=0.21),
                     (4, 5, 6, 7), SOLAR_SITE),
        EnergySource(4, "solar", SolarPlantParams(area_m2=1_500_000.0, efficiency=0.21),
                     (4, 5, 6, 7), SOLAR_SITE),
    ]
    return GridTopology(systems=systems, loads=loads, sources=sources)
