"""Golden traces: sha256 of the CSV artifacts of four pinned runs, and of
the raw float bits of every daily record of three of them.

A refactor that claims bit-exact output must leave every hash unchanged; a
change that moves the numbers on purpose updates the hash and states why.
The hashes hold for the float behaviour of the numpy/scipy builds they were
recorded with (x86-64, numpy 2.x); another platform may need them re-recorded.
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
            "75d623f9837e123f8cbe75155c1c8773b4814d1c561c38967013b6b269c38416",
        ),
        (
            "scenarios/reference.json",
            "health",
            "91b68a914459ae655f7a5de53d5ee9efc24436057db000da8b2f6b48715e7aea",
            "772258cd89f2261f7d3658950c5f4122a13c8540f26ac71f8ee567d1e1985b8f",
        ),
    ],
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
        "27f9f09e44eaf45c70cd8b10d98695b2caa08e21ef93798c5036a5db124bbf72"
    )
    assert sha256(summary_csv(trace)) == (
        "50f4ebb68ff3774e9448db9b4508dc2d4f69603a6080ffaf2b2b265744413c10"
    )


def test_shared_systems_records_are_pinned_bitwise():
    cfg, topo = parse_scenario(SHARED_SYSTEMS_DOC)
    assert records_sha256(run_simulation(cfg, topo)) == (
        "59343ff79a7fd970847804d59df3c63653ec0e2c081f708c072c5c07cfec4966"
    )


@pytest.mark.parametrize(
    "path, axis, digest",
    [
        (
            "scenarios/stress.json",
            "priority",
            "d2ba90dd45df8eb89cc38bc026027611f51f177c074e7903931c360297654d31",
        ),
        (
            "scenarios/reference.json",
            "health",
            "c6df93bf2143cde5ea16a34699ee52d2672d9be3dd1df81139ac8e9614f1f745",
        ),
    ],
)
def test_compare_records_are_pinned_bitwise(path, axis, digest):
    cfg, topo = load_scenario(path)
    report = compare(cfg, topo, axis)
    assert records_sha256(report.treatment, report.baseline) == digest
