"""The benchmark's self-test passes against the program in this checkout,
and the views kept for the benchmark alone stay unread by the package.

bench/selftest.py runs each workload's correctness checks on real runs and
shows that every check catches its corruption, so a program change that
breaks a name, record field or check the benchmark depends on fails here.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from hybridgrid import SimulationState, SimulationTrace, StorageSystem, engine
from hybridgrid.cli import main
from hybridgrid.scenario import load_scenario

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "bench/selftest.py"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr


# Views that only the benchmark reads, and the objects whose attribute
# "units" the package may still read: a SimulationState's GridUnits, as
# engine.py reaches it through self or state.
BENCH_ONLY_VIEWS = {"units", "records", "weather_by_day"}
STATE_UNITS = {("engine.py", "self"), ("engine.py", "state")}


def test_package_code_reads_no_bench_only_view():
    # StorageSystem.units, SimulationTrace.records and
    # SimulationState.weather_by_day exist for bench/ alone, so the next
    # benchmark change can delete them once bench/ reads the arrays instead.
    reads = []
    for path in sorted((ROOT / "src" / "hybridgrid").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Attribute) and node.attr in BENCH_ONLY_VIEWS):
                continue
            owner = node.value.id if isinstance(node.value, ast.Name) else None
            if node.attr == "units" and (path.name, owner) in STATE_UNITS:
                continue
            reads.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert reads == []


def test_runs_never_build_a_bench_only_view(tmp_path, monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("a bench-only view was read")

    for cls, name in ((StorageSystem, "units"), (SimulationTrace, "records"),
                      (SimulationState, "weather_by_day")):
        monkeypatch.setattr(cls, name, property(refuse))
    (tmp_path / "weather.csv").write_text(
        "site_id,day_index,ghi_w_m2,wind_speed_ms\n"
        + "".join(f"{site},{day},500.0,8.0\n" for site in ("coastal", "inland") for day in range(3)))
    (tmp_path / "demand.csv").write_text(
        "load_id,day_index,demand_mwd\n"
        + "".join(f"{lid},{day},50.0\n" for lid in range(8) for day in range(40)))
    doc = {"topology": {"reference": True}, "run": {"days": 3, "seed": 1},
           "degradation": {"rate_spread": 0.3},
           "weather": {"kind": "csv", "path": str(tmp_path / "weather.csv")},
           "loads": {"kind": "csv", "path": str(tmp_path / "demand.csv")}}
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    out = str(tmp_path / "out")
    assert main(["simulate", str(scenario), "--out", out]) == 0
    assert main(["compare", str(scenario), "--axis", "priority", "--out", out]) == 0
    assert main(["forecast", str(tmp_path / "demand.csv")]) == 0


def test_tracer_sees_each_dispatch_call_by_name(monkeypatch):
    # bench/tracer.py times dispatch by replacing these names in the engine's
    # namespace, so the engine must call them by name, once per arm and day;
    # otherwise dispatch.allocate_calls and _s would read 0.
    calls = {}

    def counted(name):
        fn = getattr(engine, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("allocate_priority", "allocate_equal", "prioritize"):
        monkeypatch.setattr(engine, name, counted(name))
    cfg, topo = load_scenario(ROOT / "scenarios" / "toy.json")
    engine.compare(cfg, topo, "priority")
    assert calls == {"allocate_priority": cfg.days, "allocate_equal": cfg.days,
                     "prioritize": cfg.days}
