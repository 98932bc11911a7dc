"""Run the two headline experiments end to end.

First the stress year: a grid sized so demand eats 85% of mean generation,
where deficit-priority dispatch keeps every system above zero charge while
the equal-split baseline stalls. Then the two-year wear experiment: ranked
charging versus uniform charging on the same weather, measured as the final
fleet state-of-health gap.
"""

import json

from hybridgrid import compare
from hybridgrid.scenario import load_scenario, parse_scenario


def main():
    print("=== Stress year: priority vs equal dispatch ===")
    cfg, topo = load_scenario("scenarios/stress.json")
    report = compare(cfg, topo, "priority")
    prio, equal = report.treatment.summary, report.baseline.summary
    z_on = sum(prio.zero_soc_events.values())
    z_off = sum(equal.zero_soc_events.values())
    worst = report.treatment.soc_pct.min()
    print(f"  zero-SoC events with priority dispatch : {z_on}")
    print(f"  zero-SoC events with equal split       : {z_off}")
    print(f"  lowest SoC any system touched (priority): {worst:.2f}%")
    print(
        f"  unmet demand: priority {prio.total_unmet_mwd:.0f} MWd, "
        f"equal {equal.total_unmet_mwd:.0f} MWd"
    )

    print()
    print("=== Two-year wear: ranked vs uniform charging ===")
    doc = json.loads(open("scenarios/reference.json").read())
    doc["run"]["days"] = 365  # keep the demo quick; the full check runs 730
    cfg, topo = parse_scenario(doc)
    report = compare(cfg, topo, "health")

    def fleet(trace):
        last = trace.mean_soh_pct[-1].tolist()
        return sum(last) / len(last)

    on, off = fleet(report.treatment), fleet(report.baseline)
    print(f"  fleet mean SoH, ranked charging : {on:.2f}%")
    print(f"  fleet mean SoH, uniform charging: {off:.2f}%")
    print(f"  -> health-aware gain after one year: {on - off:+.2f} SoH points")
    print()
    print("Same weather, same demand, same batteries — only the policies differ.")


if __name__ == "__main__":
    main()
