"""Golden traces: sha256 of the CSV artifacts of five pinned runs, of the
raw float bits of every daily value of three of them, and of the raw bits of
two scenarios' demand forecasts.

A refactor that claims bit-exact output must leave every hash unchanged; a
change that moves the numbers on purpose updates the hash and states why.
The hashes hold for the float behaviour of the numpy builds they were
recorded with (x86-64, numpy 2.x); another platform may need them re-recorded.
The CSV hashes were last re-recorded when the demand fit became an
alternating least squares solve, which moved some daily values in their sixth
decimal. The raw-float hashes were re-recorded after that, when the synthetic
cloud factor's normal CDF moved from scipy's ndtr to math.erfc: the two differ
by at most 2.2e-16 on some inputs, which moves last bits of daily records but
no CSV value. The reference-health records hash was re-recorded when both
equal splits began to stop only when nothing is left, not below 1e-12 MWd:
the dust they used to leave is now placed, which moves last bits of daily
records but no CSV value. Every hash but the toy and no-load runs' was
re-recorded when each day's demand forecast became the last refit's
one-step forecast on the days before it, instead of the fit day's forecast
held until the next refit: the forecasts between refits move, and with
them priority dispatch and the daily values of every run that reads them.
"""

import hashlib

import numpy as np
import pytest
from conftest import NO_LOADS_DOC, SHARED_SYSTEMS_DOC, records_sha256

from hybridgrid import (
    compare,
    comparison_csv,
    comparison_series_csv,
    initialize_state,
    run_simulation,
    summary_csv,
    trace_csv,
)
from hybridgrid.scenario import load_scenario, parse_scenario


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_toy_run_is_pinned():
    cfg, topo = load_scenario("scenarios/toy.json")
    trace = run_simulation(cfg, topo)
    assert sha256(trace_csv(trace)) == (
        "6efc7f4a85befa7a94526f63787eae9a825ef36e8b4ca5a4213cdbdfce547396"
    )
    assert sha256(summary_csv(trace)) == (
        "a9b6a261607a99a03b9165d350833f9b59a8895e6874068b58d2b2bcff2556d2"
    )


@pytest.mark.parametrize(
    "path, axis, comparison_hash, series_hash",
    [
        (
            "scenarios/stress.json",
            "priority",
            "03d1eecd55c4de546e9394234645cce5ae3b03e2daa0fafa721968a4ba57b272",
            "d223ee398a01c7ccf675e9775231f7a204dfcf9cfc6a21cf0d44b10325f5c167",
        ),
        (
            "scenarios/reference.json",
            "health",
            "62f66f9b5fd0c466466284cd4f44ca0db127ffb091c0a468aae68aa63387e9af",
            "b6a45e8e4fb962f1b8ae3c8189bf18b3fe63c54c7a97895001bb8b80fcfae30f",
        ),
    ],
    ids=["stress-priority", "reference-health"],
)
def test_compare_is_pinned(path, axis, comparison_hash, series_hash):
    cfg, topo = load_scenario(path)
    report = compare(cfg, topo, axis)
    assert sha256(comparison_csv(report)) == comparison_hash
    assert sha256(comparison_series_csv(report)) == series_hash


def test_shared_multi_unit_systems_run_is_pinned():
    cfg, topo = parse_scenario(SHARED_SYSTEMS_DOC)
    trace = run_simulation(cfg, topo)
    assert sum(trace.summary.zero_soc_events.values()) > 0
    assert sha256(trace_csv(trace)) == (
        "97442653918d289e77df98fea689077980c1af32d19e68be1ee8713aa433350b"
    )
    assert sha256(summary_csv(trace)) == (
        "ce415e50bdf486e0dc3d57a3baa41815da593dadb2b4cd859642f4cb6cebb062"
    )


def test_grid_without_loads_run_is_pinned():
    trace = run_simulation(*parse_scenario(NO_LOADS_DOC))
    assert trace.served_mwd.shape == (90, 0)
    assert sha256(trace_csv(trace)) == (
        "3a26cc875d869227fe33f73c7f1f4989dbe60617a763fe81dc6768b107bcf621"
    )
    assert sha256(summary_csv(trace)) == (
        "01c12b32f9d2af55942d9197dbf6115b0ce05b616cab13fccc5794b3357ec59d"
    )


def test_shared_systems_records_are_pinned_bitwise():
    cfg, topo = parse_scenario(SHARED_SYSTEMS_DOC)
    assert records_sha256(run_simulation(cfg, topo)) == (
        "bbd9df1538454283819471d8d9361cf15a63b0ddb131b74fc87856286423a0f6"
    )


@pytest.mark.parametrize(
    "path, axis, digest",
    [
        (
            "scenarios/stress.json",
            "priority",
            "4d0347c88a8628adcb787e14f85f1a85de01a8ac4277834e1f55c6de37e49060",
        ),
        (
            "scenarios/reference.json",
            "health",
            "ca0d8c529d8d9d67ae3d6222ee309d1cf9d41ba31e4ebf0c8269d1128ab03ff5",
        ),
    ],
    ids=["stress-priority", "reference-health"],
)
def test_compare_records_are_pinned_bitwise(path, axis, digest):
    cfg, topo = load_scenario(path)
    report = compare(cfg, topo, axis)
    assert records_sha256(report.treatment, report.baseline) == digest


@pytest.mark.parametrize(
    "path, digest",
    [
        ("scenarios/reference.json",
         "3600c2d0cdbd9b9829b82c57034481d1f0a91e2ec580131ac26a3f93899f4e14"),
        ("scenarios/stress.json",
         "39beeffc297ca2b1952df26e9dc674e6392cdfc99694bbfffaee7b2a1d2925f1"),
    ],
    ids=["reference-seed-1", "stress-seed-42"],
)
def test_forecasts_are_pinned_bitwise(path, digest):
    # sha256 of the raw float64 bits of the [days, loads] forecasts, recorded
    # when each day began to be forecast from the days before it. The lone-fit tests
    # compare the batch with itself, so only a pin like this one sees a
    # change that moves both.
    cfg, topo = load_scenario(path)
    forecasts = initialize_state(cfg, topo).forecasts
    assert forecasts.dtype == np.float64
    assert hashlib.sha256(np.ascontiguousarray(forecasts).tobytes()).hexdigest() == digest
