"""Golden traces: sha256 of the CSV artifacts of four pinned runs, and of
the raw float bits of every daily record of three of them.

A refactor that claims bit-exact output must leave every hash unchanged; a
change that moves the numbers on purpose updates the hash and states why.
The hashes hold for the float behaviour of the numpy builds they were
recorded with (x86-64, numpy 2.x); another platform may need them re-recorded.
The CSV hashes were last re-recorded when the demand fit became an
alternating least squares solve, which moved some daily values in their sixth
decimal. The raw-float hashes were re-recorded after that, when the synthetic
cloud factor's normal CDF moved from scipy's ndtr to math.erfc: the two differ
by at most 2.2e-16 on some inputs, which moves last bits of daily records but
no CSV value.
"""

import hashlib

import pytest
from conftest import SHARED_SYSTEMS_DOC, records_sha256

from hybridgrid import (
    compare,
    comparison_csv,
    comparison_series_csv,
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
            "88bedd42083ec609607cf3141e2061d902a856bb4ac66133fa0fa43f6c9f54c3",
            "a8c9b6bcd220c64039885fd06140f5fa95758ca8d93327d816c8ad5d18629fe0",
        ),
        (
            "scenarios/reference.json",
            "health",
            "91b68a914459ae655f7a5de53d5ee9efc24436057db000da8b2f6b48715e7aea",
            "c1824e9935fe35a3c0fc81cdadf3fd2987f096d454725019fa2b718f51dcd6af",
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
        "3ba086bd1601d6ad1e32abf3183f2c9c5c059953231f1a2598f8423f7714b0ec"
    )
    assert sha256(summary_csv(trace)) == (
        "50f4ebb68ff3774e9448db9b4508dc2d4f69603a6080ffaf2b2b265744413c10"
    )


def test_shared_systems_records_are_pinned_bitwise():
    cfg, topo = parse_scenario(SHARED_SYSTEMS_DOC)
    assert records_sha256(run_simulation(cfg, topo)) == (
        "01f39461478727aec1be7ef6d114d2d2d9445bd4ab4a66d8a7b41850c74f15d0"
    )


@pytest.mark.parametrize(
    "path, axis, digest",
    [
        (
            "scenarios/stress.json",
            "priority",
            "8b75f8d25fd3753f619d0755af4ba68b9a7a7aae8cb20893b17e5e3f3991b05f",
        ),
        (
            "scenarios/reference.json",
            "health",
            "f2b9be42287165044d4a40c1274c61a0c2d13e64967e2e893c76489471fd371a",
        ),
    ],
    ids=["stress-priority", "reference-health"],
)
def test_compare_records_are_pinned_bitwise(path, axis, digest):
    cfg, topo = load_scenario(path)
    report = compare(cfg, topo, axis)
    assert records_sha256(report.treatment, report.baseline) == digest
