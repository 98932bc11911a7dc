"""Shared test tooling: the Hypothesis profile, a one-line PASS/FAIL digest
for each acceptance check, the one digest of a trace's daily values,
scenarios shared by the golden and engine tests, and a small explicit grid
the scenario and CLI tests mutate."""

import hashlib

from hypothesis import settings

# A failing example is also printed as a @reproduce_failure blob, which
# rebuilds it even when its repr is only an object's address.
settings.register_profile("blob", print_blob=True)
settings.load_profile("blob")

_ACCEPTANCE_RESULTS: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call":
        _ACCEPTANCE_RESULTS[name] = report.outcome
    elif report.when == "setup" and report.outcome != "passed":
        # Collection/setup errors and skips still deserve a digest line.
        _ACCEPTANCE_RESULTS[name] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance digest")
    for name in sorted(_ACCEPTANCE_RESULTS):
        outcome = _ACCEPTANCE_RESULTS[name]
        verdict = "PASS" if outcome == "passed" else "FAIL"
        terminalreporter.write_line(f"{verdict}  {name}")


# Systems of 1, 4 and 12 units; loads 0 and 1 share the 4-unit system and
# loads 1 and 2 the 12-unit one. Demand outruns generation, so systems run
# dry on some days and a shared system's units give to two loads a day.
SHARED_SYSTEMS_DOC = {
    "topology": {
        "initial_soc_pct": 30.0,
        "systems": [
            {"id": 1, "unit_count": 1, "unit_capacity_mwd": 120.0},
            {"id": 2, "unit_count": 4, "unit_capacity_mwd": 40.0},
            {"id": 3, "unit_count": 12, "unit_capacity_mwd": 15.0},
        ],
    },
    "sources": [
        {
            "id": 1,
            "kind": "solar",
            "site": "flat",
            "area_m2": 60000.0,
            "efficiency": 0.2,
            "connected_systems": [1, 2],
        },
        {"id": 2, "kind": "wind", "site": "ridge", "turbine_count": 4, "connected_systems": [2, 3]},
    ],
    "loads": {
        "kind": "synthetic",
        "centers": [
            {"id": 0, "connected_systems": [1, 2]},
            {"id": 1, "connected_systems": [2, 3]},
            {"id": 2, "connected_systems": [3]},
        ],
        "base_mwd": {"0": 50.0, "1": 35.0, "2": 20.0},
        "gen_fraction": 1.1,
    },
    "degradation": {"rate_spread": 0.3},
    "weather": {"kind": "synthetic", "default": {"cloud_ar": 0.6, "wind_ar": 0.6}},
    "run": {"days": 90, "seed": 5, "priority_enabled": True, "health_enabled": True},
}

# The same grid with no loads: served and unmet have no columns.
NO_LOADS_DOC = {**SHARED_SYSTEMS_DOC, "loads": {"kind": "synthetic", "centers": []}}


def explicit_doc():
    return {
        "topology": {
            "systems": [
                {"id": 1, "unit_count": 2, "unit_capacity_mwd": 50.0},
                {"id": 2, "unit_count": 4, "unit_capacity_mwd": 25.0},
            ]
        },
        "sources": [
            {
                "id": 1,
                "kind": "solar",
                "site": "roof",
                "area_m2": 2000.0,
                "efficiency": 0.2,
                "connected_systems": [1, 2],
            },
            {"id": 2, "kind": "wind", "site": "hill", "turbine_count": 3, "connected_systems": [1]},
        ],
        "loads": {
            "kind": "synthetic",
            "centers": [{"id": 0, "connected_systems": [1, 2]}],
            "base_mwd": {"0": 40.0},
            "weekly_shape": [1.0, 1.0, 1.0, 1.0, 1.0, 0.9, 0.9],
        },
        "forecasting": {"refit_interval_days": 30},
        "degradation": {"r_charge": 0.1},
        "weather": {"kind": "synthetic", "sites": {"roof": {"cloud_ar": 0.5}}, "default": {}},
        "run": {"days": 3, "seed": 2, "score_weights": {"soh": 1.0, "soc": 0.0}},
    }


def records_sha256(*traces) -> str:
    """sha256 over the exact bits of every float a trace holds for each day.

    Per day, fields in DailyRecord order and each field's values by ascending
    id. The golden CSV hashes see six decimals only; this sees every bit.
    """
    h = hashlib.sha256()
    for trace in traces:
        src = trace.source_ids
        columns = [
            ("soc_pct", trace.system_ids, trace.soc_pct.tolist()),
            ("mean_soh_pct", trace.system_ids, trace.mean_soh_pct.tolist()),
            ("charge_in_mwd", trace.system_ids, trace.charge_in_mwd.tolist()),
            ("discharge_out_mwd", trace.system_ids, trace.discharge_out_mwd.tolist()),
            ("served_mwd", trace.load_ids, trace.served_mwd.tolist()),
            ("unmet_mwd", trace.load_ids, trace.unmet_mwd.tolist()),
            ("generated_mwd", src, trace.generated_mwd.tolist()),
            ("curtailed_mwd", src, trace.curtailed_mwd.tolist()),
        ]
        for day in range(len(trace.generated_mwd)):
            for name, ids, rows in columns:
                for key, value in sorted(zip(ids, rows[day])):
                    h.update(f"{day},{name},{key},{float(value).hex()};".encode())
    return h.hexdigest()
