"""Per-layer tracing from outside the program.

The engine and the CLI bind the layer functions with ``from ... import``, so
a wrapper placed in the defining module would miss every call. The tracer
instead replaces the names in the ``hybridgrid.engine`` and
``hybridgrid.cli`` namespaces, and puts the originals back on
``uninstall``. The benchmark's own operations call ``load_scenario`` and
``compare`` through ``hybridgrid.cli`` too, so those calls are seen alike.

Every wrapped call records one span (name, start, end, parent span,
operation id) in flat in-memory arrays; ``save`` writes them out once the
benchmark ends. Call counts come from the same spans. A span's self time is
its duration minus the time its child spans cover, so the layer self times
plus the self time of the operation and ``run_simulation`` spans add up to
the traced wall time exactly.
"""

from __future__ import annotations

import hashlib
import warnings
from array import array
from time import perf_counter

import numpy as np

# metric stem -> wrapped function names. Count metrics are reported for the
# stems in COUNTED; every stem gets a busy-time metric `<stem>_s`.
LAYERS = {
    "forecast.fit": ("fit_sarima",),
    "forecast.one_step": ("forecast_one", "seasonal_naive"),
    "forecast.generation": ("predict_generation",),
    "forecast.csv_ingest": ("load_weather_csv", "load_demand_csv"),
    "synth": ("synth_weather", "synth_demand"),
    "scenario.parse": ("load_scenario",),
    "dispatch.targets": ("compute_charge_targets", "prioritize"),
    "dispatch.allocate": ("allocate_priority", "allocate_equal"),
    "dispatch.discharge": ("discharge_shares", "apply_discharge"),
    "health.distribute": ("distribute_charge_ranked", "distribute_charge_equal"),
    "health.wear": ("degrade_on_discharge",),
    "engine.serialize": ("trace_csv", "summary_csv", "atomic_write_text"),
}
COUNTED = ("forecast.fit", "forecast.one_step", "dispatch.allocate", "dispatch.discharge",
           "health.distribute", "health.wear")
# Containers: spans that group layer calls but are engine time themselves.
OPERATION = "operation"
CONTAINERS = ("run_simulation",)


def _busy_name(stem: str) -> str:
    return "synth.s" if stem == "synth" else f"{stem}_s"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = [OPERATION, *CONTAINERS, *(f for fs in LAYERS.values() for f in fs)]
        self._nid = {n: i for i, n in enumerate(self.names)}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self._stack = [-1]
        self._op = -1
        self._windows: list[set] = []  # distinct fit windows, one set per operation
        self.fit_warnings = 0
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.end.append(0.0)
        self.start.append(perf_counter())
        self._stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def operation(self, fn, *args, **kwargs):
        """Run one operation under a root span with a fresh operation id."""
        self._op += 1
        self._windows.append(set())
        i = self._open(0)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(i)

    def _wrap(self, fn, fname: str):
        nid = self._nid[fname]

        def traced(*args, **kwargs):
            i = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)

        if fname != "fit_sarima":
            return traced

        def traced_fit(series, *args, **kwargs):
            self._windows[-1].add(hashlib.blake2b(np.asarray(series, dtype=float).tobytes()).digest())
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                model = traced(series, *args, **kwargs)
            self.fit_warnings += sum(issubclass(w.category, RuntimeWarning) for w in caught)
            return model

        return traced_fit

    def install(self, *modules) -> None:
        """Replace every layer and container name bound in the given modules."""
        wrapped = {}
        for mod in modules:
            for fname in self.names[1:]:
                fn = getattr(mod, fname, None)
                if fn is None:
                    continue
                if fn not in wrapped:
                    wrapped[fn] = self._wrap(fn, fname)
                self._saved.append((mod, fname, fn))
                setattr(mod, fname, wrapped[fn])

    def uninstall(self) -> None:
        for mod, fname, fn in reversed(self._saved):
            setattr(mod, fname, fn)
        self._saved.clear()

    def metrics(self, overhead_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of everything traced, with the tracing overhead measured outside."""
        name = np.frombuffer(self.name, dtype=np.uint16)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        covered = np.bincount(parent[parent >= 0], weights=dur[parent >= 0], minlength=len(dur))
        self_time = dur - covered
        wall = float(dur[name == 0].sum())
        by_fn = np.bincount(name, weights=self_time, minlength=len(self.names))
        calls = np.bincount(name, minlength=len(self.names))

        out: dict[str, tuple[float, str]] = {}
        for stem, fns in LAYERS.items():
            ids = [self._nid[f] for f in fns]
            if stem in COUNTED:
                out[f"{stem}_calls"] = (int(calls[ids].sum()), "count")
            out[_busy_name(stem)] = (float(by_fn[ids].sum()), "s")
            if stem == "forecast.fit":
                fits = int(calls[ids].sum())
                distinct = sum(len(w) for w in self._windows)
                out["forecast.fit_unique_ratio"] = (distinct / fits if fits else 0.0, "ratio")
                out["forecast.warnings"] = (self.fit_warnings, "count")
        engine_ids = [0] + [self._nid[c] for c in CONTAINERS]
        out["engine.self_s"] = (float(by_fn[engine_ids].sum()), "s")
        out["trace.overhead_s"] = (overhead_s, "s")
        for key, (value, unit) in list(out.items()):
            if unit == "s":
                out[f"{key}_share"] = (100.0 * value / wall if wall > 0 else 0.0, "%")
        return out

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.uint16),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
        )
