"""Steadiness mode: repeat each workload over ten seeds and report the spread.

    python3 bench/steady.py

Runs ``run.py`` on seeds 1-10 for every workload in BENCHMARK.json, one
process after another, with the run length from BENCHMARK.json. For every
end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(n=4)``) and the spread, the distance between the
quartiles as a share of the median, against the metric's bound; and the
share of failed operations. This is the evidence for the bounds in
BENCHMARK.json. Exits 1 when a run fails, an operation fails, or a spread
exceeds a third of its bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        fail_shares = []
        for seed in SEEDS:
            cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            took = time.perf_counter() - t0
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= result["correct"] and result["failed"] == 0
            fail_shares.append(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            samples = "\n    ".join(
                l for l in proc.stdout.splitlines() if l.startswith(("operation", "calibration")))
            print(f"{workload} seed {seed}: {took:.1f} s, {result['attempted']} ops, "
                  f"{result['failed']} failed, "
                  + ", ".join(f"{k}={m['value']:.5g}" for k, m in result["metrics"].items())
                  + f"\n    {samples}", flush=True)
        print(f"\n{workload}: failed share {sorted(set(fail_shares))}")
        print(f"  {'metric':18s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for m in spec["end_to_end"]:
            vals = values.get(m["name"], [])
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            steady = spread <= m["bound"] / 3
            ok &= steady
            print(f"  {m['name']:18s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
                  f"{m['bound']:6.3f} {'' if steady else 'WIDE'}")
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
