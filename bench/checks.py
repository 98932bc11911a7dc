"""Independent correctness checks for the benchmark's operations.

Nothing here compares against a stored copy of earlier output. Each check
recomputes a quantity from the inputs with its own code (the plant
formulas, the energy balances) or tests a property the paper states. Every
check function returns a list of ``(check_name, message)`` failures; an
empty list means the output passed. ``selftest.py`` corrupts good outputs
and shows that each check catches its corruption.
"""

from __future__ import annotations

import csv
import io

import numpy as np

W_PER_MW = 1e6
# A system counts as empty on a day whose end-of-day SoC is at or below this
# percentage (the paper's zero-SoC event).
EMPTY_SOC_PCT = 1e-9
# Written artifacts carry six decimals, so each value is off by at most this.
HALF_ULP_6DP = 5e-7


def solar_mw(ghi: np.ndarray, area_m2: float, efficiency: float) -> np.ndarray:
    """PV output: GHI x area x efficiency."""
    return ghi * area_m2 * efficiency / W_PER_MW


def wind_mw(v: np.ndarray, cp: float, rho: float, rotor_m2: float, turbines: int,
            cut_in: float, cut_out: float) -> np.ndarray:
    """Wind farm output: Cp*rho*A*v^3/2 per turbine, zero outside [cut-in, cut-out]."""
    p = turbines * cp * rho * rotor_m2 * v**3 / 2.0 / W_PER_MW
    return np.where((v < cut_in) | (v > cut_out), 0.0, p)


def generation_by_source(sources: list[dict], ghi: dict, wind: dict) -> dict[int, np.ndarray]:
    """Per-day MWd of every source, from per-site weather arrays."""
    out = {}
    for src in sources:
        site = src["site"]
        if src["kind"] == "solar":
            out[src["id"]] = solar_mw(ghi[site], src["area_m2"], src["efficiency"])
        else:
            out[src["id"]] = wind_mw(
                wind[site], src["power_coefficient"], src["air_density"],
                src["rotor_area_m2"], src["turbine_count"], src["cut_in_ms"], src["cut_out_ms"],
            )
    return out


def source_dict(src) -> dict:
    """The plant parameters of a program ``EnergySource`` in generator form."""
    p = src.params
    d = {"id": src.id, "kind": src.kind, "site": src.site}
    if src.kind == "solar":
        d.update(area_m2=p.area_m2, efficiency=p.efficiency)
    else:
        d.update(power_coefficient=p.power_coefficient, air_density=p.air_density,
                 rotor_area_m2=p.rotor_area_m2, turbine_count=p.turbine_count,
                 cut_in_ms=p.cut_in_ms, cut_out_ms=p.cut_out_ms)
    return d


def _matrix(records, field: str, keys: list[int]) -> np.ndarray:
    return np.array([[getattr(r, field)[k] for k in keys] for r in records], dtype=float)


def _worst(name: str, err: np.ndarray, tol, what: str) -> list[tuple[str, str]]:
    bad = err > tol
    if not np.any(bad):
        return []
    idx = np.unravel_index(int(np.argmax(np.where(bad, err, -np.inf))), err.shape)
    return [(name, f"{what}: {int(bad.sum())} cells off, worst {float(err[idx]):.3g} at {idx}")]


def check_arm(trace, topology, weather_by_day, demand_by_load) -> list[tuple[str, str]]:
    """Check one in-memory simulation trace against the run's inputs.

    ``topology`` is the grid as it stood before the run (the engine copies
    it, so the caller's object keeps the initial unit state).
    """
    recs = trace.records
    sids = sorted(s.id for s in topology.systems)
    src_ids = sorted(s.id for s in topology.sources)
    load_ids = sorted(l.id for l in topology.loads)
    days = len(recs)
    fails: list[tuple[str, str]] = []

    # Generation from the weather samples with the plant formulas.
    sites = sorted({s.site for s in topology.sources})
    ghi = {site: np.empty(days) for site in sites}
    wind = {site: np.empty(days) for site in sites}
    for d in range(days):
        for sample in weather_by_day[d]:
            ghi[sample.site_id][d] = sample.ghi_w_m2
            wind[sample.site_id][d] = sample.wind_speed_ms
    expected = generation_by_source([source_dict(s) for s in topology.sources], ghi, wind)
    exp = np.stack([expected[i] for i in src_ids], axis=1)
    gen = _matrix(recs, "generated_mwd", src_ids)
    fails += _worst("generation", np.abs(gen - exp), 1e-9 * np.maximum(1.0, np.abs(exp)),
                    "generated vs plant formulas")

    # Sum of charge_in + curtailed = generated, per day.
    cin = _matrix(recs, "charge_in_mwd", sids)
    curt = _matrix(recs, "curtailed_mwd", src_ids)
    total_gen = gen.sum(axis=1)
    fails += _worst("charge_balance", np.abs(cin.sum(axis=1) + curt.sum(axis=1) - total_gen),
                    1e-6 * np.maximum(1.0, total_gen), "charge_in + curtailed vs generated")

    # served + unmet = demand, per load and day.
    served = _matrix(recs, "served_mwd", load_ids)
    unmet = _matrix(recs, "unmet_mwd", load_ids)
    demand = np.stack([np.asarray(demand_by_load[l][:days], dtype=float) for l in load_ids], axis=1)
    fails += _worst("demand_balance", np.abs(served + unmet - demand),
                    1e-6 * np.maximum(1.0, demand), "served + unmet vs demand")

    # Stored-energy change per system = charge_in - discharge_out.
    by_id = {s.id: s for s in topology.systems}
    cap = np.array([sum(u.capacity_mwd for u in by_id[s].units) for s in sids])
    stored0 = np.array([sum(u.energy_mwd for u in by_id[s].units) for s in sids])
    stored = _matrix(recs, "soc_pct", sids) / 100.0 * cap
    delta = np.diff(np.vstack([stored0, stored]), axis=0)
    dout = _matrix(recs, "discharge_out_mwd", sids)
    fails += _worst("storage_balance", np.abs(delta - (cin - dout)), 1e-6 * np.maximum(1.0, cap),
                    "stored change vs charge_in - discharge_out")

    # SoH never rises.
    soh0 = np.array([sum(u.soh_pct for u in by_id[s].units) / len(by_id[s].units) for s in sids])
    soh = np.vstack([soh0, _matrix(recs, "mean_soh_pct", sids)])
    fails += _worst("soh_monotone", np.diff(soh, axis=0), 1e-9, "mean SoH increase")

    # The summary's zero-SoC events recount from the daily SoC.
    soc = _matrix(recs, "soc_pct", sids)
    counted = (soc <= EMPTY_SOC_PCT).sum(axis=0)
    reported = np.array([trace.summary.zero_soc_events[s] for s in sids])
    if not np.array_equal(counted, reported):
        fails.append(("zero_soc_count", f"summary {reported.tolist()} vs daily SoC {counted.tolist()}"))
    return fails


def empty_system_days(trace) -> int:
    return sum(1 for r in trace.records for v in r.soc_pct.values() if v <= EMPTY_SOC_PCT)


def fleet_mean_soh(trace, topology) -> float:
    """Unit-weighted mean SoH of the whole fleet on the last day."""
    last = trace.records[-1].mean_soh_pct
    n = {s.id: len(s.units) for s in topology.systems}
    return sum(last[s] * n[s] for s in n) / sum(n.values())


def check_health_property(report, topology) -> list[tuple[str, str]]:
    """Ranked charging ends ahead of equal charging by 1.0-4.0 SoH pp."""
    gap = fleet_mean_soh(report.treatment, topology) - fleet_mean_soh(report.baseline, topology)
    if not 1.0 <= gap <= 4.0:
        return [("health_property", f"fleet SoH gap {gap:.3f} pp outside [1.0, 4.0]")]
    return []


def check_stress_property(report, _topology=None) -> list[tuple[str, str]]:
    """Priority dispatch has no empty-system day; the equal split has some."""
    on, off = empty_system_days(report.treatment), empty_system_days(report.baseline)
    if on != 0 or off < 1:
        return [("stress_property", f"empty-system days {on} with priority, {off} without")]
    return []


def _read_csv(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def check_fleet_artifacts(trace_text: str, summary_text: str, inputs) -> list[tuple[str, str]]:
    """Check the written trace.csv and summary.csv against the generated inputs.

    Every written number is rounded to six decimals, so each tolerance is
    the rounding error the compared sums can carry.
    """
    fails: list[tuple[str, str]] = []
    header, rows = _read_csv(trace_text)
    if header != ["day", "system_id", "soc_pct", "mean_soh_pct", "charge_in_mwd", "discharge_out_mwd"]:
        return [("trace_format", f"unexpected header {header}")]
    sids = sorted(inputs.capacity_mwd)
    days = inputs.days
    if len(rows) != days * len(sids):
        return [("trace_format", f"{len(rows)} rows, expected {days * len(sids)}")]
    col = {sid: k for k, sid in enumerate(sids)}
    vals = np.empty((4, days, len(sids)))
    soh_text = [[""] * len(sids) for _ in range(days)]
    for r in rows:
        d, k = int(r[0]), col[int(r[1])]
        vals[:, d, k] = [float(x) for x in r[2:]]
        soh_text[d][k] = r[3]
    soc, soh, cin, dout = vals
    cap = np.array([inputs.capacity_mwd[s] for s in sids])

    stored = np.vstack([cap * inputs.initial_soc_pct / 100.0, soc / 100.0 * cap])
    tol = 2 * HALF_ULP_6DP / 100.0 * cap + 2 * HALF_ULP_6DP + 1e-9 * cap
    fails += _worst("storage_balance", np.abs(np.diff(stored, axis=0) - (cin - dout)), tol,
                    "stored change vs charge_in - discharge_out")

    soh_all = np.vstack([np.full(len(sids), 100.0), soh])
    fails += _worst("soh_monotone", np.diff(soh_all, axis=0), 0.0, "mean SoH increase")

    sh, srows = _read_csv(summary_text)
    if sh != ["system_id", "zero_soc_events", "final_mean_soh_pct", "total_unmet_mwd",
              "total_curtailed_mwd"] or sorted(int(r[0]) for r in srows) != sids:
        return fails + [("summary_format", f"unexpected summary header or systems: {sh}")]
    srows.sort(key=lambda r: int(r[0]))
    if len({(r[3], r[4]) for r in srows}) != 1:
        fails.append(("summary_format", "run totals differ between summary rows"))
    unmet_total, curt_total = float(srows[0][3]), float(srows[0][4])

    gen = sum(generation_by_source(inputs.sources, inputs.ghi, inputs.wind).values())
    n = cin.size
    fails += _worst("charge_balance", cin.sum(axis=1) - gen, len(sids) * HALF_ULP_6DP + 1e-9 * gen,
                    "daily charge_in above generation")
    err = abs(cin.sum() + curt_total - gen.sum())
    if err > (n + 1) * HALF_ULP_6DP + 1e-9 * gen.sum():
        fails.append(("charge_balance", f"run charge_in + curtailed off generation by {err:.3g} MWd"))

    demand = inputs.demand.sum(axis=0)
    fails += _worst("demand_balance", dout.sum(axis=1) - demand,
                    len(sids) * HALF_ULP_6DP + 1e-9 * demand, "daily discharge above demand")
    err = abs(dout.sum() + unmet_total - demand.sum())
    if err > (n + 1) * HALF_ULP_6DP + 1e-9 * demand.sum():
        fails.append(("demand_balance", f"run served + unmet off demand by {err:.3g} MWd"))

    final = [soh_text[days - 1][col[int(r[0])]] for r in srows]
    if [r[2] for r in srows] != final:
        fails.append(("summary_soh", "final mean SoH differs from the last trace day"))
    counted = (soc == 0.0).sum(axis=0).tolist()
    if [int(r[1]) for r in srows] != counted:
        fails.append(("zero_soc_count", f"summary {[r[1] for r in srows]} vs trace {counted}"))
    return fails


def check_rerun(first: bytes, again: bytes) -> list[tuple[str, str]]:
    """A rerun on the same inputs writes a byte-identical trace.csv."""
    if first == again:
        return []
    at = next((i for i, (a, b) in enumerate(zip(first, again)) if a != b), min(len(first), len(again)))
    return [("rerun_identical", f"trace.csv differs from the first run at byte {at}")]
