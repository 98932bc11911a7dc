"""Trace one morning of charge dispatch on the benchmark grid.

Builds the seven-system benchmark topology, forecasts the day's demand per
load center, turns those forecasts into buffered charge targets, and shows
how deficit-priority allocation routes scarce generation compared with a
plain equal split.
"""

import numpy as np

from hybridgrid import (
    GridUnits,
    allocate_equal,
    allocate_priority,
    charge_deficits,
    charge_wants,
    inflow,
    prioritize,
    reference_topology,
)


def main():
    # Start the fleet low and uneven so the deficits differ per system.
    topo = reference_topology(initial_soc_pct=4.0)
    for system in topo.systems[3:]:
        system.energy[:] = system.cap * 0.12
    units, w = GridUnits(topo.systems), topo.wiring

    forecasts = {load.id: 95.0 for load in topo.loads}
    targets = np.minimum(units.capacity, charge_wants(topo, forecasts)).tolist()
    deficits = charge_deficits(targets, units.stored.tolist())
    order = prioritize(deficits)

    print("=== Charge targets (25% safety buffer over forecasts) ===")
    for sid, soc, target, deficit in zip(units.ids, units.soc_pct, targets, deficits):
        print(
            f"  system {sid}: SoC {soc:5.1f}%  "
            f"target {target:7.1f} MWd  deficit {deficit:7.1f} MWd"
        )
    print(f"  charge priority order: {[units.ids[i] for i in order]}")

    # A lean generation day: the wind arm has little to give.
    per_source = {1: 120.0, 2: 260.0, 3: 300.0, 4: 420.0}
    print()
    print(f"=== Dispatching {sum(per_source.values()):.0f} MWd of generation ===")

    # Flows are per source and wired system in the wiring's order; each call
    # uses up the headroom list it is given, so each gets its own.
    energy = [per_source[src.id] for src in topo.sources]
    headroom = units.headroom.tolist()
    priority_flow, priority_curtailed = allocate_priority(
        w, order, deficits, list(headroom), energy
    )
    equal_flow, equal_curtailed = allocate_equal(w, list(headroom), energy)

    print("  system   priority-inflow   equal-inflow")
    for sid, p_in, e_in in zip(units.ids, inflow(w, priority_flow), inflow(w, equal_flow)):
        print(f"  {sid:>6}   {p_in:15.1f}   {e_in:12.1f}")
    print(
        f"  curtailed: priority {sum(priority_curtailed):.1f} MWd, "
        f"equal {sum(equal_curtailed):.1f} MWd"
    )
    print()
    print("Priority dispatch pushes energy at the emptiest systems first;")
    print("the equal split ignores need and spreads each source uniformly.")


if __name__ == "__main__":
    main()
