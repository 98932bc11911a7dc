"""Self-test of the benchmark's checkers.

    python3 bench/selftest.py

Produces good outputs of each kind (compare on the stress year and on the
reference grid, CLI simulate on wide-fleet inputs), shows that every check
passes on them, then corrupts one thing at a time and shows that the check
meant for it fails. Exits 1 if a clean output fails or a corruption slips
through.
"""

from __future__ import annotations

import contextlib
import copy
import io
import sys
import tempfile
from pathlib import Path

from run import ROOT, import_program

import checks
import fleet


def _ab(hg, path, axis, seed=None):
    cfg, topo = hg.scenario.load_scenario(path)
    if seed is not None:
        doc = copy.deepcopy(cfg.raw)
        doc["run"]["seed"] = seed
        cfg, topo = hg.scenario.parse_scenario(doc)
    report = hg.engine.compare(cfg, topo, axis)
    state = hg.engine.initialize_state(cfg, topo)

    def run_checks(rep):
        fails = []
        for arm in (rep.treatment, rep.baseline):
            fails += checks.check_arm(arm, topo, state.weather_by_day, state.demand_by_load)
        if axis == "priority":
            return fails + checks.check_stress_property(rep)
        return fails + checks.check_health_property(rep, topo)

    return report, run_checks


def main() -> int:
    hg = import_program()
    ok = True

    def expect(case, fails, wanted):
        nonlocal ok
        names = sorted({name for name, _ in fails})
        if wanted is None:
            good = not fails
            print(f"{'ok  ' if good else 'FAIL'} {case}: {'passes' if good else names}")
        else:
            good = wanted in names
            print(f"{'ok  ' if good else 'FAIL'} {case}: caught by {names or 'nothing'}")
        ok &= good

    stress, run_stress = _ab(hg, ROOT / "scenarios" / "stress.json", "priority")
    expect("stress compare, clean", run_stress(stress), None)

    bad = copy.deepcopy(stress)
    bad.treatment.records[100].charge_in_mwd[3] += 0.5
    expect("perturbed charge_in", run_stress(bad), "charge_balance")

    bad = copy.deepcopy(stress)
    rec = bad.treatment.records[200]
    rec.mean_soh_pct[2] = bad.treatment.records[199].mean_soh_pct[2] + 0.01
    expect("SoH that rises", run_stress(bad), "soh_monotone")

    bad = copy.deepcopy(stress)
    bad.treatment.records[150].soc_pct[5] = 0.0
    expect("extra zero-SoC day with priority on", run_stress(bad), "stress_property")

    bad = copy.deepcopy(stress)
    bad.baseline.records[40].generated_mwd[1] *= 1.001
    expect("perturbed generation", run_stress(bad), "generation")

    bad = copy.deepcopy(stress)
    bad.baseline.records[300].served_mwd[4] += 0.1
    expect("perturbed served", run_stress(bad), "demand_balance")

    health, run_health = _ab(hg, ROOT / "scenarios" / "reference.json", "health", seed=1)
    expect("health compare, clean", run_health(health), None)
    bad = copy.deepcopy(health)
    last_t, last_b = bad.treatment.records[-1], bad.baseline.records[-1]
    for sid in last_t.mean_soh_pct:
        last_t.mean_soh_pct[sid] = last_b.mean_soh_pct[sid] - 0.5
    expect("ranked charging loses", run_health(bad), "health_property")

    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        inputs = fleet.generate(1, Path(tmp) / "inputs")
        out = Path(tmp) / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = hg.cli.main(["simulate", str(inputs.scenario_path), "--out", str(out)])
        if rc != 0:
            print(f"FAIL wide-fleet simulate exited {rc}")
            return 1
        trace = (out / "trace.csv").read_text()
        summary = (out / "summary.csv").read_text()
    expect("wide-fleet artifacts, clean", checks.check_fleet_artifacts(trace, summary, inputs), None)

    lines = trace.splitlines(keepends=True)

    def with_field(row: int, col: int, fn) -> str:
        out = list(lines)
        fields = out[row].rstrip("\n").split(",")
        fields[col] = fn(fields[col])
        out[row] = ",".join(fields) + "\n"
        return "".join(out)

    row = 1 + 100 * 21 + 4  # day 100, system 5
    bad = with_field(row, 4, lambda v: f"{float(v) + 0.5:.6f}")
    expect("wide-fleet perturbed charge_in",
           checks.check_fleet_artifacts(bad, summary, inputs), "charge_balance")
    bad = with_field(row, 3, lambda v: f"{float(lines[row - 21].split(',')[3]) + 1e-6:.6f}")
    expect("wide-fleet SoH that rises",
           checks.check_fleet_artifacts(bad, summary, inputs), "soh_monotone")
    bad = with_field(row, 2, lambda v: "0.000000")
    expect("wide-fleet extra zero-SoC day",
           checks.check_fleet_artifacts(bad, summary, inputs), "zero_soc_count")

    flipped = bytearray(trace.encode())
    flipped[len(flipped) // 2] ^= 0x01
    expect("one flipped byte in a rerun", checks.check_rerun(trace.encode(), bytes(flipped)),
           "rerun_identical")
    expect("identical rerun", checks.check_rerun(trace.encode(), trace.encode()), None)

    print("all checks catch their corruption" if ok else "checker self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
