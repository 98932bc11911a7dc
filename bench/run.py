"""hybridgrid benchmark: one workload per invocation, one JSON result line.

    python3 bench/run.py --workload health-sweep --seed 1 --seconds 30 --trace 0

Run from the repository root. The program is imported from ``src/`` of the
checkout; inputs are made from ``--seed``; every operation's output is
checked (see checks.py). With ``--trace 0`` the run times whole rounds of
operations for ``--seconds`` and reports the end-to-end metrics, medians
of CPU times scaled to a reference host speed. With ``--trace 1`` it runs
a fixed number of untraced and traced rounds, so counts repeat exactly,
and reports the per-layer metrics. The last line of standard output is the
JSON result.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: the load comes from this one
# process and its one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

import checks
import fleet

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench"
SETUPS_PER_OP = 8  # set-up timings are spread between operations
CAL_ITERS = 5000  # calibrate() takes about 0.12 s of CPU on a quiet 2-CPU Xeon VM
CAL_REF_S = 0.12  # timings are reported as if calibrate() took this long
SETUP_CAL_ITERS = 250  # set-up calls are a few ms, so each gets a short calibration on either side
TRACE_PAIRS = 2  # untraced/traced round pairs of a traced run


def import_program():
    """Import the package from the checkout's src/, or exit non-zero."""
    if not (ROOT / "src" / "hybridgrid" / "__init__.py").is_file():
        sys.exit(f"error: no program at {ROOT / 'src' / 'hybridgrid'}")
    sys.path.insert(0, str(ROOT / "src"))
    import hybridgrid.cli
    import hybridgrid.engine
    import hybridgrid.scenario

    return hybridgrid


class Workload:
    """One round of operations, their checks, and the set-up that is timed alone."""

    scenario: Path  # set-up parses this file

    def setup(self) -> None:
        cfg, topo = self.hg.scenario.load_scenario(self.scenario)
        self.hg.engine.initialize_state(cfg, topo)


class ABWorkload(Workload):
    """compare() on one axis over a fixed list of scenario files per round."""

    def __init__(self, hg, axis: str, scenarios: list[Path], check_property):
        self.hg, self.axis, self.scenarios = hg, axis, scenarios
        self.scenario = scenarios[0]
        self.check_property = check_property

    def ops(self):
        return [lambda p=p: self._op(p) for p in self.scenarios]

    def _op(self, path: Path):
        cli = self.hg.cli  # names looked up per call so the tracer's wrappers apply
        cfg, topo = cli.load_scenario(path)
        report = cli.compare(cfg, topo, self.axis)
        units = sum(len(s.units) for s in topo.systems)
        return (cfg, topo, report), 2 * cfg.days * units

    def check(self, result) -> list:
        cfg, topo, report = result
        state = self.hg.engine.initialize_state(cfg, topo)
        fails = []
        for arm in (report.treatment, report.baseline):
            fails += checks.check_arm(arm, topo, state.weather_by_day, state.demand_by_load)
        return fails + self.check_property(report, topo)


class FleetWorkload(Workload):
    """In-process CLI simulate on the seeded wide-fleet inputs."""

    def __init__(self, hg, inputs, out_dir: Path):
        self.hg, self.inputs, self.out_dir = hg, inputs, out_dir
        self.scenario = inputs.scenario_path
        self.first_trace: bytes | None = None

    def ops(self):
        return [self._op]

    def _op(self):
        argv = ["simulate", str(self.inputs.scenario_path), "--out", str(self.out_dir)]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = self.hg.cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"hybridgrid simulate exited {rc}")
        return None, self.inputs.unit_days

    def check(self, _result) -> list:
        trace = (self.out_dir / "trace.csv").read_bytes()
        summary = (self.out_dir / "summary.csv").read_text()
        fails = checks.check_fleet_artifacts(trace.decode(), summary, self.inputs)
        if self.first_trace is None:
            self.first_trace = trace
        return fails + checks.check_rerun(self.first_trace, trace)


def make_workload(name: str, seed: int, hg, work: Path):
    if name == "health-sweep":
        doc = json.loads((ROOT / "scenarios" / "reference.json").read_text())
        paths = []
        for sim_seed in (2 * seed, 2 * seed + 1):
            doc["run"]["seed"] = sim_seed
            paths.append(work / f"reference-seed{sim_seed}.json")
            paths[-1].write_text(json.dumps(doc))
        return ABWorkload(hg, "health", paths, checks.check_health_property)
    if name == "stress-priority":
        # The stress year's paper property is stated for its own seed 42, so
        # this workload's inputs do not vary with --seed.
        return ABWorkload(hg, "priority", [ROOT / "scenarios" / "stress.json"],
                          checks.check_stress_property)
    return FleetWorkload(hg, fleet.generate(seed, work / "inputs"), work / "out")


WORKLOADS = ("health-sweep", "stress-priority", "wide-fleet")


class Runner:
    def __init__(self, workload):
        self.w = workload
        self.attempted = 0
        self.failed = 0

    def run_op(self, op, wrap=None):
        """Run one operation; return (CPU s, wall s, unit-days, result), or None if it raised."""
        self.attempted += 1
        try:
            c0, t0 = process_time(), perf_counter()
            result, unit_days = wrap(op) if wrap else op()
            cpu, wall = process_time() - c0, perf_counter() - t0
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None
        return cpu, wall, unit_days, result

    def verify(self, result) -> None:
        """Check one operation's output; a failed check fails the operation."""
        try:
            fails = self.w.check(result)
        except Exception as exc:  # unreadable output fails the operation, not the run
            traceback.print_exc()
            fails = [("check_error", repr(exc))]
        if fails:
            self.failed += 1
            for name, msg in fails:
                print(f"check failed: {name}: {msg}", file=sys.stderr)


_CAL_RNG = np.random.default_rng(0)
_CAL_A = _CAL_RNG.random((64, 64))
_CAL_M = _CAL_A + 64.0 * np.eye(64)


def calibrate(iters: int = CAL_ITERS) -> float:
    """CPU time of a fixed mix of Python, small-array and small-LAPACK work.

    The mix resembles the program's (Python loops over small numpy arrays,
    small solves inside the SARIMA fits) but runs none of its code, so it
    reads only how fast the host is running this process right now.
    """
    c0 = process_time()
    x, seen = _CAL_A, {}
    for i in range(iters):
        x = x * 0.5 + _CAL_A
        seen[i % 17] = float(x[i % 64, 3])
        np.linalg.solve(_CAL_M, x[:, 0])
    return process_time() - c0


def warm_up(runner: Runner) -> None:
    """Run the round's first operation once, checked but not timed."""
    out = runner.run_op(runner.w.ops()[0])
    if out:
        runner.verify(out[-1])


def _stats(xs: list[float]) -> str:
    return (f"min {min(xs):.5f} median {statistics.median(xs):.5f} "
            f"max {max(xs):.5f} over {len(xs)}")


def measure(runner: Runner, seconds: float) -> dict:
    """Time whole rounds of operations until ``seconds`` are spent.

    Every operation and set-up call is timed in process CPU time and scaled
    to a reference host speed: by CAL_REF_S over the calibration time
    measured on either side of it (a short calibration for a set-up call).
    Other tenants of a shared host slow this process by up to 3x, for
    milliseconds to minutes at a time and in CPU time as much as in wall
    time; the calibration slows with it (see README, "Scaled CPU seconds").
    """
    w = runner.w
    setup_s: list[float] = []
    op_s: list[float] = []
    raw: dict[str, list[float]] = {"operation CPU": [], "operation wall": [], "calibration": []}
    unit_days = 0.0
    warm_up(runner)
    start = perf_counter()
    round_s = 0.0
    cal_before = calibrate()
    while not op_s or perf_counter() - start + 0.5 * round_s < seconds:
        t_round = perf_counter()
        for op in w.ops():
            gc.collect()  # so the previous operation's garbage is not charged to set-up
            cal = calibrate(SETUP_CAL_ITERS) * CAL_ITERS / SETUP_CAL_ITERS
            for _ in range(SETUPS_PER_OP):
                c0 = process_time()
                w.setup()
                cpu = process_time() - c0
                cal_next = calibrate(SETUP_CAL_ITERS) * CAL_ITERS / SETUP_CAL_ITERS
                setup_s.append(cpu * CAL_REF_S / (0.5 * (cal + cal_next)))
                cal = cal_next
            out = runner.run_op(op)
            cal_after = calibrate()
            scale = CAL_REF_S / (0.5 * (cal_before + cal_after))
            raw["calibration"].append(cal_after)
            cal_before = cal_after
            if out:
                cpu, wall, op_unit_days, result = out
                op_s.append(cpu * scale)
                unit_days += op_unit_days
                raw["operation CPU"].append(cpu)
                raw["operation wall"].append(wall)
                runner.verify(result)
        round_s = perf_counter() - t_round
        if not op_s:
            return {}
    print("operation s (scaled): " + " ".join(f"{x:.3f}" for x in op_s))
    for name, xs in raw.items():
        print(f"{name} s: {_stats(xs)}")
    print(f"setup s (scaled): {_stats(setup_s)}")
    return {
        "run_s": (statistics.median(op_s), "s"),
        "unit_days_per_s": (unit_days / sum(op_s), "unit-days/s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def timed_round(runner: Runner, tracer=None) -> float:
    """Run one round, traced if a tracer is given; check it untraced; return its CPU s."""
    if tracer:
        tracer.install(runner.w.hg.engine, runner.w.hg.cli)
    try:
        c0 = process_time()
        results = [runner.run_op(op, tracer.operation if tracer else None) for op in runner.w.ops()]
        cpu = process_time() - c0
    finally:
        if tracer:
            tracer.uninstall()
    for out in results:  # checks call the program too, so they run untraced
        if out:
            runner.verify(out[-1])
    return cpu


def trace(runner: Runner, spans_path: Path) -> dict:
    """Alternate untraced and traced rounds; per-layer metrics of the fastest traced one."""
    from tracer import Tracer

    warm_up(runner)
    untraced, traced = [], []
    for _ in range(TRACE_PAIRS):
        untraced.append(timed_round(runner))
        tracer = Tracer()
        traced.append((timed_round(runner, tracer), tracer))
    traced_cpu, tracer = min(traced, key=lambda t: t[0])
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.save(spans_path)
    return tracer.metrics(overhead_s=traced_cpu - min(untraced))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    hg = import_program()
    import scipy

    print(f"host: cpus={os.cpu_count()} python={platform.python_version()} "
          f"numpy={np.__version__} scipy={scipy.__version__}")
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(make_workload(args.workload, args.seed, hg, work))
        if args.trace:
            spans = OUT / "trace" / f"{args.workload}.npz"  # the last traced run of each workload
            metrics = trace(runner, spans)
            print(f"spans: {spans}")
        else:
            metrics = measure(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"{args.workload} seed {args.seed}: {runner.attempted} operations, {runner.failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:>14.6g} {unit}")
    result = {
        "correct": runner.failed == 0 and bool(metrics),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
