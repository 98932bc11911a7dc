"""Golden traces: sha256 of the CSV artifacts of three pinned runs.

A refactor that claims bit-exact output must leave every hash unchanged; a
change that moves the numbers on purpose updates the hash and states why.
The hashes hold for the float behaviour of the numpy/scipy builds they were
recorded with (x86-64, numpy 2.x); another platform may need them re-recorded.
"""

import hashlib

import pytest

from hybridgrid import (
    compare,
    comparison_csv,
    comparison_series_csv,
    run_simulation,
    summary_csv,
    trace_csv,
)
from hybridgrid.scenario import load_scenario


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
