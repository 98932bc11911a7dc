"""End-to-end tests for the command-line interface."""

import copy
import hashlib
import io
import json
import math
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from conftest import SHARED_SYSTEMS_DOC, explicit_doc
from hypothesis import given, settings
from hypothesis import strategies as st

import hybridgrid.cli as cli
from hybridgrid import compare, fit_sarima, forecast_one
from hybridgrid.cli import main
from hybridgrid.forecast import DEFAULT_ORDERS, SarimaOrders, load_demand_csv
from hybridgrid.scenario import load_scenario

TOY = "scenarios/toy.json"
CENTERS = SHARED_SYSTEMS_DOC["loads"]["centers"]


def write_toy_variant(tmp_path, **run_overrides):
    doc = json.loads(Path(TOY).read_text())
    doc["run"].update(run_overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


# --- validate ----------------------------------------------------------------


def test_validate_ok(capsys):
    assert main(["validate", TOY]) == 0
    out = capsys.readouterr().out
    assert "ok" in out.lower()


def test_validate_missing_file_is_io_error(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.json")]) == 2


def test_validate_bad_json_is_validation_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    assert main(["validate", str(path)]) == 1


# A topology that parses but breaks an invariant is bad input to every command.
@pytest.mark.parametrize(
    "command",
    [
        pytest.param(["validate"], id="validate"),
        pytest.param(["simulate", "--out", "out"], id="simulate"),
        pytest.param(["compare", "--axis", "priority", "--out", "out"], id="compare"),
    ],
)
def test_validate_bad_topology_reports_violations(tmp_path, capsys, command):
    doc = {
        "topology": {"systems": [{"id": 1, "unit_count": 1, "unit_capacity_mwd": 10.0}]},
        "sources": [
            {
                "id": 1,
                "kind": "solar",
                "site": "s",
                "area_m2": 10.0,
                "efficiency": 0.2,
                "connected_systems": [1],
            }
        ],
        "loads": {
            "kind": "synthetic",
            "centers": [{"id": 0, "connected_systems": [99]}],
            "base_mwd": {"0": 1.0},
        },
        "weather": {"kind": "synthetic"},
        "run": {"days": 1, "seed": 1},
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    name, *flags = command
    flags = [str(tmp_path / f) if f == "out" else f for f in flags]
    assert main([name, str(path), *flags]) == 1
    printed = capsys.readouterr()
    assert "load 0: unknown-system" in printed.out + printed.err


@pytest.mark.parametrize(
    "section, body, message",
    [
        ("degradation", {"r_charge": True}, "degradation.r_charge must be a number, got True"),
        ("degradation", {"r_charge": "0.2"}, "degradation.r_charge must be a number, got '0.2'"),
        (
            "weather",
            {"default": {"ghi_base": "600"}},
            "weather.default.ghi_base must be a number, got '600'",
        ),
        (
            "loads",
            {"kind": "csv", "path": "d.csv", "centers": CENTERS, "gen_fraction": 0.5},
            "unknown key loads.gen_fraction",
        ),
        ("loads", {"centers": CENTERS, "base_mwd": {"99": 10.0}}, "unknown key loads.base_mwd.99"),
        ("loads", {"centers": CENTERS, "base_mwd": {"x": 10.0}}, "unknown key loads.base_mwd.x"),
        ("weather", {"sites": {"costal": {}}}, "unknown key weather.sites.costal"),
        (
            "topology",
            {"reference": True, "initial_soh_pct": 150},
            "topology.initial_soh_pct must be in [0, 100], got 150.0",
        ),
        (
            "topology",
            {"reference": True, "initial_soc_pct": -5},
            "topology.initial_soc_pct must be in [0, 100], got -5.0",
        ),
        # Seeds and ids key seeded random streams, which take no negative number.
        ("run", {"seed": -1}, "run.seed must be >= 0, got -1"),
        ("topology", {"systems": [{"id": -1}]}, "topology.systems[0].id must be >= 0, got -1"),
        # List sections that are missing or not lists.
        ("loads", {"kind": "synthetic"}, "loads: missing required key 'centers'"),
        ("loads", {"centers": 5}, "loads.centers must be a JSON list, got 5"),
        ("sources", 5, "sources must be a JSON list, got 5"),
        ("topology", {"systems": {"id": 1}}, "topology.systems must be a JSON list, got {'id': 1}"),
        # Out-of-range numbers.
        (
            "topology",
            {"systems": [{"id": 1, "unit_count": 0}]},
            "topology.systems[0].unit_count must be >= 1, got 0",
        ),
        (
            "topology",
            {"systems": [{"id": 1, "unit_count": -1}]},
            "topology.systems[0].unit_count must be >= 1, got -1",
        ),
        (
            "topology",
            {"systems": [{"id": 1, "unit_capacity_mwd": 0}]},
            "topology.systems[0].unit_capacity_mwd must be > 0, got 0.0",
        ),
        (
            "topology",
            {"systems": [{"id": 1, "unit_capacity_mwd": -5}]},
            "topology.systems[0].unit_capacity_mwd must be > 0, got -5.0",
        ),
        (
            "loads",
            {"centers": CENTERS, "base_mwd": {"0": -1.0}},
            "loads.base_mwd.0 must be >= 0, got -1.0",
        ),
        # The forecaster is seasonal AR only, with orders in range.
        (
            "forecasting",
            {"orders": [1, 0, 1, 0, 0, 0, 7]},
            "forecasting.orders: moving-average orders q and Q must be 0",
        ),
        (
            "forecasting",
            {"orders": [1, 0, 0, 1, 0, 1, 7]},
            "forecasting.orders: moving-average orders q and Q must be 0",
        ),
        (
            "forecasting",
            {"orders": [-1, 0, 0, 1, 0, 0, 7]},
            "forecasting.orders: order p must be a non-negative int, got -1",
        ),
        (
            "forecasting",
            {"orders": [1, 0, 0, 1, 0, 0, 1]},
            "forecasting.orders: season length s must be an int >= 2, got 1",
        ),
        (
            "forecasting",
            {"orders": [1, 2, 0, 1, 1, 0, 7]},
            "forecasting.orders: total differencing d + D must be <= 2, got 3",
        ),
        # Sizes are capped.
        ("run", {"days": -1}, "run.days must be >= 0, got -1"),
        ("run", {"days": 1e308}, "run.days must be <= 36500, got 1e+308"),
        (
            "topology",
            {"systems": [{"id": 1, "unit_count": 1e308}]},
            "topology.systems[0].unit_count must be <= 10000, got 1e+308",
        ),
        (
            "topology",
            {"systems": [{"id": 1, "unit_capacity_mwd": 1e308}]},
            "topology.systems[0].unit_capacity_mwd must be <= 1e+06, got 1e+308",
        ),
        # A source kind is read as a string before it is looked up.
        ("sources", [{"id": 1, "kind": []}], "sources[0].kind must be a JSON string, got []"),
        ("sources", [{"id": 1, "kind": {}}], "sources[0].kind must be a JSON string, got {}"),
        # The grid's size is capped before any unit is built.
        (
            "topology",
            {"systems": [{"id": k, "unit_count": 10_000} for k in range(101)]},
            "the total unit_count of topology.systems must be <= 1000000, got 1010000",
        ),
        # Synthetic weather scales are capped, so no seed's draws overflow.
        (
            "weather",
            {"sites": {"ridge": {"wind_noise_sd": 1e308}}},
            "weather.sites.ridge.wind_noise_sd must be in [-100, 100], got 1e+308",
        ),
        (
            "weather",
            {"default": {"ghi_base": 1e308}},
            "weather.default.ghi_base must be in [-2000, 2000], got 1e+308",
        ),
        (
            "weather",
            {"default": {"wind_base": -101}},
            "weather.default.wind_base must be in [-100, 100], got -101.0",
        ),
        (
            "weather",
            {"default": {"ghi_seasonal_amplitude": -1e308}},
            "weather.default.ghi_seasonal_amplitude must be in [-10, 10], got -1e+308",
        ),
        (
            "weather",
            {"default": {"wind_seasonal_amplitude": 1e308}},
            "weather.default.wind_seasonal_amplitude must be in [-100, 100], got 1e+308",
        ),
        # Ids and the seed are bounded, and shown as written.
        ("run", {"seed": 1e308}, "run.seed must be <= 4294967295, got 1e+308"),
        (
            "topology",
            {"systems": [{"id": 1e308}]},
            "topology.systems[0].id must be <= 2147483647, got 1e+308",
        ),
        (
            "sources",
            [{**SHARED_SYSTEMS_DOC["sources"][0], "id": 1e308}],
            "sources[0].id must be <= 2147483647, got 1e+308",
        ),
        (
            "sources",
            [{**SHARED_SYSTEMS_DOC["sources"][0], "id": -1e308}],
            "sources[0].id must be >= -2147483647, got -1e+308",
        ),
        (
            "loads",
            {"centers": [{"id": 1e308, "connected_systems": [1]}]},
            "loads.centers[0].id must be <= 2147483647, got 1e+308",
        ),
        (
            "loads",
            {"centers": [{"id": 0, "connected_systems": [1e308]}]},
            "loads.centers[0].connected_systems[0] must be <= 2147483647, got 1e+308",
        ),
        # A turbine count is capped, so that it cannot overflow the power curve.
        pytest.param(
            "sources",
            [SHARED_SYSTEMS_DOC["sources"][0],
             {**SHARED_SYSTEMS_DOC["sources"][1], "turbine_count": 10**400}],
            f"sources[1]: turbine count must be <= 1000000, got {10**400}",
            id="sources[1].turbine_count-1e400",
        ),
        # GridUnits pads every system to the widest, so its pad units are capped.
        pytest.param(
            "topology",
            {"systems": [{"id": k, "unit_count": 1} for k in range(9_999)]
             + [{"id": 9_999, "unit_count": 10_000}]},
            "the pad units that even out topology.systems must be <= 1000000, got 99980001",
            id="topology.systems-padded",
        ),
        # A wear rate whose product with a unit's capacity overflows is named.
        pytest.param(
            "degradation",
            {"r_charge": 1e308},
            "degradation: system 1 unit 0: degradation rates must be >= 0 and finite times capacity",
            id="degradation.r_charge-1e308",
        ),
    ],
)
def test_validate_malformed_section_names_its_path(tmp_path, capsys, section, body, message):
    # An explicit grid, so that its sources and load centers are read too.
    doc = {**SHARED_SYSTEMS_DOC, section: body}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    assert message in capsys.readouterr().err


def test_validate_non_string_site_names_its_path(tmp_path, capsys):
    doc = json.loads(Path(TOY).read_text())
    doc["topology"] = {"systems": [{"id": 1, "unit_count": 2}]}
    doc["sources"] = [
        {"id": 1, "kind": "wind", "site": None, "turbine_count": 3, "connected_systems": [1]}
    ]
    doc["loads"]["centers"] = [{"id": 0, "connected_systems": [1]}]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 1
    assert "sources[0].site must be a JSON string, got None" in capsys.readouterr().err


# A grid with no systems, loads or sources is a valid run that does nothing.
def write_empty_grid(tmp_path):
    doc = {
        "topology": {"systems": []},
        "sources": [],
        "loads": {"kind": "synthetic", "centers": []},
        "run": {"days": 3},
    }
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    return path


def test_validate_empty_grid_is_ok(tmp_path, capsys):
    assert main(["validate", str(write_empty_grid(tmp_path))]) == 0
    assert "ok: 0 systems, 0 loads, 0 sources" in capsys.readouterr().out


# Orders whose one-step tail, K = p + s*P + d + s*D = 36 days, is longer than
# the 3s + p + 10 = 32 days seasonal identification asks for: a fit needs
# K + p + P + 2 = 42 days, and parsing checks the train window against that.
def write_long_tail_toy(tmp_path, **forecasting):
    doc = json.loads(Path(TOY).read_text())
    doc["run"]["days"] = 60
    doc["forecasting"] = {"orders": [1, 0, 0, 3, 2, 0, 7], **forecasting}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # 42-day fits may be non-stationary
def test_long_tail_orders_validate_and_simulate_alike(tmp_path, capsys):
    path = write_long_tail_toy(tmp_path)
    assert main(["validate", str(path)]) == 0
    assert main(["simulate", str(path), "--out", str(tmp_path / "run")]) == 0


def test_train_window_below_the_long_tail_minimum_is_validation_error(tmp_path, capsys):
    path = write_long_tail_toy(tmp_path, train_window_days=41)
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: invalid input: forecasting: train window shorter than the fit minimum (42 days)\n"
    )


# --- mutated documents -------------------------------------------------------

# One value replaced, deleted or added anywhere in a known-good document, from a
# fixed pool (MacIver et al., "Hypothesis", JOSS 2019). No value of the pool is a
# size the caps admit but that would build a large grid.
MUTATION_POOL = [None, True, "x", "1", -1, 0, 2.5, 1e308, [], {}]
MUTATED_DOCS = {
    "explicit": explicit_doc(),
    "shared-systems": SHARED_SYSTEMS_DOC,
    "toy": json.loads(Path(TOY).read_text()),
    "stress": json.loads(Path("scenarios/stress.json").read_text()),
}
# A rejected document is named by a dotted key (or the key a section is missing),
# by a topology violation, or by the source whose generation is not finite.
NAMES_WHERE = re.compile(
    r"(topology|sources|loads|forecasting|degradation|weather|run)\b|unknown key \S"
    r"|.*missing required key '\w+'|invalid topology: |violation: |source -?\d+: "
)


def _paths(node, at=()):
    """Every path into a JSON document, the root first."""
    yield at
    if isinstance(node, dict):
        children = node.items()
    else:
        children = enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, (*at, key))


def json_text(node, repeat=None):
    """node as JSON text; repeat = (obj, key, value) lists key twice in obj,
    value first, which json.dumps cannot write."""
    if isinstance(node, dict):
        pairs = list(node.items())
        if repeat and repeat[0] is node:
            pairs.insert(0, repeat[1:])
        return "{" + ", ".join(f"{json.dumps(k)}: {json_text(v, repeat)}" for k, v in pairs) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(json_text(v, repeat) for v in node) + "]"
    return json.dumps(node)


def dotted(at):
    """A path into a document as the parser names it: keys dotted, list positions [i]."""
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in at).lstrip(".")


@st.composite
def mutated_docs(draw):
    """A mutated document's text, and the dotted key it gives twice or None."""
    doc = copy.deepcopy(MUTATED_DOCS[draw(st.sampled_from(sorted(MUTATED_DOCS)))])
    at = draw(st.sampled_from(list(_paths(doc))))
    value = draw(st.sampled_from(MUTATION_POOL))
    parent = doc
    for key in at[:-1]:
        parent = parent[key]
    target = parent[at[-1]] if at else doc
    ops = ["replace", "delete", "add"] + (["repeat"] if isinstance(parent, dict) else [])
    op = draw(st.sampled_from(ops)) if at else "add"
    if op == "repeat":
        return json_text(doc, (parent, at[-1], value)), dotted(at)
    if op == "add" and isinstance(target, list):
        target.append(value)
    elif op == "add" and isinstance(target, dict):
        target["extra"] = value
    elif op == "delete":
        del parent[at[-1]]
    else:
        parent[at[-1]] = value
    return json.dumps(doc), None


@settings(max_examples=150, deadline=None)
@given(mutated=mutated_docs())
def test_mutated_scenario_runs_or_names_what_is_wrong(mutated):
    text, twice = mutated
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(text)
        run = ["simulate", str(path), "--out", str(Path(tmp) / "run"), "--days", "3"]
        for argv in (["validate", str(path)], run):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
            if code != 0 or twice:
                message = (out.getvalue() + err.getvalue()).strip().splitlines()[-1]
                message = message.removeprefix("error: invalid input: ")
                assert code == 1 and NAMES_WHERE.match(message), (argv[0], code, message)
                assert twice is None or message == f"{twice} is given twice"


def test_repeated_run_key_is_rejected(tmp_path, capsys):
    # The later value would win silently: this document would run 3 days.
    path = tmp_path / "scenario.json"
    path.write_text(Path(TOY).read_text().replace('"days": 3,', '"days": 999, "days": 3,'))
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err.strip() == "error: invalid input: run.days is given twice"


# --- simulate ------------------------------------------------------------------


def test_simulate_empty_grid_writes_headers(tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert main(["simulate", str(write_empty_grid(tmp_path)), "--out", str(out_dir)]) == 0
    assert (out_dir / "trace.csv").read_text() == (
        "day,system_id,soc_pct,mean_soh_pct,charge_in_mwd,discharge_out_mwd\n"
    )
    assert (out_dir / "summary.csv").read_text() == (
        "system_id,zero_soc_events,final_mean_soh_pct,total_unmet_mwd,total_curtailed_mwd\n"
    )


def test_simulate_writes_outputs(tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert main(["simulate", TOY, "--out", str(out_dir)]) == 0
    trace = (out_dir / "trace.csv").read_text()
    summary = (out_dir / "summary.csv").read_text()
    echo = json.loads((out_dir / "config-echo.json").read_text())
    assert trace.startswith(
        "day,system_id,soc_pct,mean_soh_pct,charge_in_mwd,discharge_out_mwd"
    )
    assert summary.startswith(
        "system_id,zero_soc_events,final_mean_soh_pct,total_unmet_mwd,total_curtailed_mwd"
    )
    assert "effective" in echo
    # 3 days x 7 systems + header
    assert len(trace.strip().split("\n")) == 1 + 3 * 7


def test_simulate_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", TOY, "--out", str(a)]) == 0
    assert main(["simulate", TOY, "--out", str(b)]) == 0
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()
    assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()


def test_simulate_day_override(tmp_path):
    out_dir = tmp_path / "run"
    assert main(["simulate", TOY, "--out", str(out_dir), "--days", "5"]) == 0
    trace = (out_dir / "trace.csv").read_text()
    assert len(trace.strip().split("\n")) == 1 + 5 * 7


def test_simulate_seed_override_changes_trace(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", TOY, "--out", str(a), "--seed", "1"]) == 0
    assert main(["simulate", TOY, "--out", str(b), "--seed", "2"]) == 0
    assert (a / "trace.csv").read_bytes() != (b / "trace.csv").read_bytes()


def test_simulate_negative_seed_flag_is_validation_error(tmp_path, capsys):
    assert main(["simulate", TOY, "--out", str(tmp_path / "run"), "--seed", "-1"]) == 1
    assert "--seed must be in [0, 4294967295], got -1" in capsys.readouterr().err


def test_simulate_flags_beside_a_run_that_is_not_an_object_name_it(tmp_path, capsys):
    doc = {**json.loads(Path(TOY).read_text()), "run": None}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", str(path), "--out", str(tmp_path / "run"), "--days", "3"]) == 1
    assert capsys.readouterr().err == "error: invalid input: run must be a JSON object\n"


def test_simulate_toggle_flags(tmp_path):
    on, off = tmp_path / "on", tmp_path / "off"
    assert main(["simulate", TOY, "--out", str(on), "--days", "30"]) == 0
    assert (
        main(
            ["simulate", TOY, "--out", str(off), "--days", "30", "--priority", "off"]
        )
        == 0
    )
    assert (on / "trace.csv").read_bytes() != (off / "trace.csv").read_bytes()


def test_simulate_seed_flag_matches_seed_in_file(tmp_path):
    doc = json.loads(Path(TOY).read_text())
    # A wear-rate spread makes the seed reach the topology as well as the data.
    doc["degradation"] = {"r_charge": 0.2, "r_discharge": 0.25, "rate_spread": 0.8}
    doc["run"].update(days=30, seed=1)
    flagged = tmp_path / "flagged.json"
    flagged.write_text(json.dumps(doc))
    doc["run"]["seed"] = 7
    pinned = tmp_path / "pinned.json"
    pinned.write_text(json.dumps(doc))
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", str(flagged), "--out", str(a), "--seed", "7"]) == 0
    assert main(["simulate", str(pinned), "--out", str(b)]) == 0
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()


@pytest.mark.parametrize("key", ["priority_enabled", "health_enabled"])
def test_simulate_string_boolean_is_validation_error(tmp_path, capsys, key):
    path = write_toy_variant(tmp_path, **{key: "false"})
    assert main(["simulate", str(path), "--out", str(tmp_path / "run")]) == 1
    assert f"run.{key}" in capsys.readouterr().err


def test_simulate_unknown_key_is_validation_error(tmp_path, capsys):
    path = write_toy_variant(tmp_path, priorty_enabled=False)
    assert main(["simulate", str(path), "--out", str(tmp_path / "run")]) == 1
    assert "unknown key run.priorty_enabled" in capsys.readouterr().err


def test_simulate_nan_number_is_validation_error(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(Path(TOY).read_text().replace('"noise_sd": 0.05', '"noise_sd": NaN'))
    assert main(["simulate", str(path), "--out", str(tmp_path / "run")]) == 1
    assert "non-finite number NaN" in capsys.readouterr().err


def test_simulate_days_flag_is_capped(tmp_path, capsys):
    assert main(["simulate", TOY, "--out", str(tmp_path / "run"), "--days", "36501"]) == 1
    assert "run.days must be <= 36500, got 36501" in capsys.readouterr().err


@pytest.mark.parametrize(
    "loads",
    [
        {"base_mwd": {"0": 1e308, "1": 35.0, "2": 20.0}},
        {"weekly_shape": [1e308, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]},
        {"noise_sd": 1e308},
    ],
)
def test_simulate_overflowing_synthetic_demand_is_validation_error(tmp_path, capsys, loads):
    doc = {
        **SHARED_SYSTEMS_DOC,
        "loads": {**SHARED_SYSTEMS_DOC["loads"], **loads},
        "run": {"days": 10, "seed": 5},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", str(path), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert "loads: synthetic demand summed over loads and days is not finite" in err


def test_simulate_overflowing_gen_fraction_is_validation_error(tmp_path, capsys):
    # The scale overflows the demand to inf, which the run once settled as
    # infinite unmet demand with exit 0.
    doc = {
        **SHARED_SYSTEMS_DOC,
        "loads": {**SHARED_SYSTEMS_DOC["loads"], "gen_fraction": 1e308},
        "run": {"days": 3, "seed": 5},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", str(path), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert "loads.gen_fraction: demand scaled to 1e+308 of mean generation is not finite" in err
    assert not (tmp_path / "run").exists()


NON_FINITE_GENERATION_DOCS = {
    "shared-systems": (
        {
            **SHARED_SYSTEMS_DOC,
            "sources": [{**SHARED_SYSTEMS_DOC["sources"][0], "area_m2": 1e308},
                        SHARED_SYSTEMS_DOC["sources"][1]],
            "loads": {k: v for k, v in SHARED_SYSTEMS_DOC["loads"].items() if k != "gen_fraction"},
            "run": {"days": 5, "seed": 5},
        },
        "source 1: generation is not finite",
    ),
    # Synthetic weather scales are capped at parse, so the built-in grid's
    # plants overflow only on weather read from a CSV.
    "reference": (
        {**json.loads(Path(TOY).read_text()), "weather": {"kind": "csv", "path": "weather.csv"}},
        "source 3: generation is not finite",
    ),
}
HUGE_GHI_WEATHER = "site_id,day_index,ghi_w_m2,wind_speed_ms\n" + "".join(
    f"coastal,{day},500.0,8.0\ninland,{day},1e308,8.0\n" for day in range(3)
)


@pytest.mark.parametrize("name", sorted(NON_FINITE_GENERATION_DOCS))
@pytest.mark.parametrize(
    "command", [["simulate"], ["compare", "--axis", "health"]], ids=["simulate", "compare"]
)
def test_non_finite_generation_is_validation_error(tmp_path, capsys, monkeypatch, name, command):
    doc, message = NON_FINITE_GENERATION_DOCS[name]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "weather.csv").write_text(HUGE_GHI_WEATHER)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    out_dir = tmp_path / "run"
    assert main([command[0], str(path), "--out", str(out_dir), *command[1:]]) == 1
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "weather, section",
    [
        ({"sites": {"coastal": {"wind_noise_sd": 1e308}}}, "weather.sites.coastal"),
        ({"default": {"wind_noise_sd": 1e308}}, "weather.default"),
    ],
)
def test_simulate_overflowing_synthetic_weather_names_its_section(
    tmp_path, capsys, recwarn, weather, section
):
    # The scale is capped at parse, so the run fails however few days it has.
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**json.loads(Path(TOY).read_text()), "weather": weather}))
    for days in ("3", "100"):
        assert main(["simulate", str(path), "--out", str(tmp_path / "run"), "--days", days]) == 1
        err = capsys.readouterr().err
        assert err == (
            f"error: invalid input: {section}.wind_noise_sd must be in [-100, 100], got 1e+308\n"
        )
    assert not recwarn.list


def test_simulate_fractional_days_is_validation_error(tmp_path, capsys):
    path = write_toy_variant(tmp_path, days=2.9, seed=1.7)
    assert main(["simulate", str(path), "--out", str(tmp_path / "run")]) == 1
    assert "run.days must be an integer, got 2.9" in capsys.readouterr().err


def test_simulate_sources_beside_reference_grid_is_validation_error(tmp_path, capsys):
    doc = json.loads(Path(TOY).read_text())
    doc["sources"] = [{"bogus": 1}]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", str(path), "--out", str(tmp_path / "run")]) == 1
    assert "sources cannot be given with topology.reference: true" in capsys.readouterr().err


def write_csv_scenario(tmp_path, ghi="500.0", wind="8.0", demand="50.0"):
    """Reference grid on 3 days of CSV weather and demand; day 1 carries the given values."""
    weather = ["site_id,day_index,ghi_w_m2,wind_speed_ms"]
    for day in range(3):
        for site in ("coastal", "inland"):
            bad = day == 1 and site == "coastal"
            weather.append(f"{site},{day},{ghi if bad else 500.0},{wind if bad else 8.0}")
    loads = ["load_id,day_index,demand_mwd"]
    for lid in range(8):
        loads += [f"{lid},{day},{demand if (lid, day) == (0, 1) else 50.0}" for day in range(3)]
    (tmp_path / "weather.csv").write_text("\n".join(weather) + "\n")
    (tmp_path / "demand.csv").write_text("\n".join(loads) + "\n")
    doc = {
        "topology": {"reference": True},
        "weather": {"kind": "csv", "path": str(tmp_path / "weather.csv")},
        "loads": {"kind": "csv", "path": str(tmp_path / "demand.csv")},
        "run": {"days": 3, "seed": 1},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


def test_simulate_csv_inputs_run(tmp_path):
    path = write_csv_scenario(tmp_path)
    assert main(["simulate", str(path), "--out", str(tmp_path / "run")]) == 0


@pytest.mark.parametrize(
    "bad, row",
    [
        ({"ghi": "nan"}, "row 4"),
        ({"ghi": "inf"}, "row 4"),
        ({"wind": "nan"}, "row 4"),
        ({"wind": "inf"}, "row 4"),
        ({"demand": "nan"}, "row 3"),
        ({"demand": "inf"}, "row 3"),
    ],
)
def test_simulate_non_finite_csv_value_is_validation_error(tmp_path, capsys, bad, row):
    path = write_csv_scenario(tmp_path, **bad)
    assert main(["simulate", str(path), "--out", str(tmp_path / "run")]) == 1
    assert row in capsys.readouterr().err


# --- compare --------------------------------------------------------------------


def test_compare_writes_reports(tmp_path, capsys):
    out_dir = tmp_path / "cmp"
    assert main(["compare", TOY, "--axis", "priority", "--out", str(out_dir)]) == 0
    report = compare(*load_scenario(TOY), "priority")
    on = sum(report.treatment.summary.zero_soc_events.values())
    off = sum(report.baseline.summary.zero_soc_events.values())
    assert f"zero-SoC events {on} (on) vs {off} (off)" in capsys.readouterr().out
    comparison = (out_dir / "comparison.csv").read_text()
    series = (out_dir / "series.csv").read_text()
    assert comparison.startswith("system_id,")
    assert series.startswith("day,system_id,soc_pct_treatment,soc_pct_baseline")
    # series: header + days x systems
    assert len(series.strip().split("\n")) == 1 + 3 * 7


def test_compare_grid_without_systems_writes_headers(tmp_path, capsys):
    path = write_empty_grid(tmp_path)
    out_dir = tmp_path / "cmp"
    assert main(["compare", str(path), "--axis", "health", "--out", str(out_dir)]) == 0
    assert "mean SoH gain n/a" in capsys.readouterr().out
    assert (out_dir / "comparison.csv").read_text().count("\n") == 1
    assert (out_dir / "series.csv").read_text().count("\n") == 1


def test_compare_rejects_unknown_axis(tmp_path):
    # argparse enforces the axis choices at parse time with a usage error.
    out_dir = tmp_path / "cmp"
    with pytest.raises(SystemExit) as err:
        main(["compare", TOY, "--axis", "nonsense", "--out", str(out_dir)])
    assert err.value.code != 0


# --- forecast --------------------------------------------------------------------


def make_history_csv(path, days=120, loads=(0,)):
    rows = ["load_id,day_index,demand_mwd"]
    for lid in loads:
        for day in range(days):
            value = 100.0 + 10.0 * (day % 7) + lid
            rows.append(f"{lid},{day},{value}")
    path.write_text("\n".join(rows) + "\n")


def test_forecast_prints_coefficients_and_value(tmp_path, capsys):
    history = tmp_path / "history.csv"
    make_history_csv(history)
    assert main(["forecast", str(history), "--orders", "1,0,0,1,0,0,7"]) == 0
    out = capsys.readouterr().out
    assert "forecast" in out.lower()


def test_forecast_horizon_values(tmp_path, capsys):
    history = tmp_path / "history.csv"
    make_history_csv(history)
    assert main(["forecast", str(history), "--horizon", "3"]) == 0
    out = capsys.readouterr().out
    line = [ln for ln in out.strip().split("\n") if "forecast" in ln][-1]
    values = line.split("forecast", 1)[1].split()
    assert len(values) == 3
    for v in values:
        float(v)


def test_forecast_horizon_prints_the_model_fitted_on_the_history(tmp_path, capsys):
    rng = np.random.default_rng(4)
    history = tmp_path / "history.csv"
    rows = ["load_id,day_index,demand_mwd"]
    rows += [f"0,{day},{100.0 + 10.0 * (day % 7) + rng.normal()}" for day in range(120)]
    history.write_text("\n".join(rows) + "\n")
    models = []
    for horizon in ("1", "3"):
        assert main(["forecast", str(history), "--horizon", horizon]) == 0
        models.append(capsys.readouterr().out.split(" forecast ")[0])
    assert models[0] == models[1]


def test_forecast_noise_free_weekly_history_prints_finite_numbers(tmp_path, capsys):
    # The history repeats each week exactly, so the seasonal factor is a unit
    # root and the other terms have nothing left to fit.
    history = tmp_path / "history.csv"
    make_history_csv(history)
    assert main(["forecast", str(history), "--horizon", "3"]) == 0
    out = capsys.readouterr().out
    numbers = [float(v) for v in re.findall(r"-?[\d.]+(?:e-?\d+)?|nan|inf", out)]
    assert all(math.isfinite(v) for v in numbers)
    assert out.split("forecast ")[1].split() == ["110.000000", "120.000000", "130.000000"]


def test_forecast_short_series_is_validation_error(tmp_path, capsys):
    history = tmp_path / "history.csv"
    make_history_csv(history, days=5)
    assert main(["forecast", str(history)]) == 1


def test_forecast_bad_orders_is_validation_error(tmp_path):
    history = tmp_path / "history.csv"
    make_history_csv(history)
    assert main(["forecast", str(history), "--orders", "1,0"]) == 1


def test_forecast_moving_average_orders_is_validation_error(tmp_path, capsys):
    history = tmp_path / "history.csv"
    make_history_csv(history)
    assert main(["forecast", str(history), "--orders", "1,0,1,1,0,0,7"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--orders: moving-average orders q and Q must be 0" in captured.err


def test_forecast_fractional_orders_is_validation_error(tmp_path, capsys):
    history = tmp_path / "history.csv"
    make_history_csv(history)
    assert main(["forecast", str(history), "--orders", "1,0,0,1.5,0,0,7"]) == 1
    assert "--orders[3] must be an integer, got '1.5'" in capsys.readouterr().err


def test_forecast_letter_in_orders_is_validation_error(tmp_path, capsys):
    history = tmp_path / "history.csv"
    make_history_csv(history)
    assert main(["forecast", str(history), "--orders", "x,0,0,1,0,0,7"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid input: --orders[0] must be an integer, got 'x'" in captured.err


@pytest.mark.parametrize(
    "flags",
    [
        ["simulate", TOY, "--days", "1_0"],
        ["simulate", TOY, "--seed", "\u0667"],
        ["simulate", TOY, "--days", "\uff13"],
        ["compare", TOY, "--axis", "health", "--seed", "1_2"],
        ["forecast", "{history}", "--horizon", "1_0"],
        ["forecast", "{history}", "--horizon", "\u0663"],
        ["forecast", "{history}", "--load-id", "\u0660"],
        ["forecast", "{history}", "--load-id", "0 0"],
    ],
)
def test_integer_flags_take_ascii_decimal_digits_only(tmp_path, capsys, flags):
    # int() takes underscores and any Unicode decimal digit; the scenario's
    # JSON and CSV files take neither, so a flag gets argparse's usage error.
    history = tmp_path / "history.csv"
    make_history_csv(history)
    argv = [a.format(history=history) for a in flags]
    if argv[0] != "forecast":
        argv += ["--out", str(tmp_path / "run")]
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert f"invalid int value: {flags[-1]!r}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("token", ["\u0667", "1_0", "\uff17"])
def test_forecast_orders_take_ascii_decimal_digits_only(tmp_path, capsys, token):
    history = tmp_path / "history.csv"
    make_history_csv(history)
    assert main(["forecast", str(history), "--orders", f"1,0,0,1,0,0,{token}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"invalid input: --orders[6] must be an integer, got {token!r}" in captured.err


@pytest.mark.parametrize("flags", [["--days", " 3"], ["--days", "+3"], ["--seed", "007"]])
def test_integer_flags_take_what_the_csv_readers_take(tmp_path, flags):
    assert main(["simulate", TOY, "--out", str(tmp_path / "run"), *flags]) == 0


def test_forecast_horizon_past_the_day_cap_is_validation_error(tmp_path, capsys):
    # A horizon is capped like a run's days, so a typo's horizon is refused
    # before any fit.
    history = tmp_path / "history.csv"
    make_history_csv(history)
    assert main(["forecast", str(history), "--horizon", "36501"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid input: --horizon must be in [1, 36500], got 36501" in captured.err


def test_forecast_fits_each_load_as_alone(tmp_path, capsys):
    # All loads of a step are fitted in one batch; each line matches a
    # forecast of that load's history on its own.
    rng = np.random.default_rng(8)
    history = tmp_path / "history.csv"
    rows = ["load_id,day_index,demand_mwd"]
    for lid, n in ((0, 90), (1, 120)):
        level = 80.0 + 10.0 * lid
        rows += [f"{lid},{day},{level + 5.0 * (day % 7) + rng.normal()}" for day in range(n)]
    history.write_text("\n".join(rows) + "\n")
    assert main(["forecast", str(history), "--horizon", "2"]) == 0
    together = capsys.readouterr().out.strip().split("\n")
    alone = []
    for lid in (0, 1):
        assert main(["forecast", str(history), "--horizon", "2", "--load-id", str(lid)]) == 0
        alone.append(capsys.readouterr().out.strip())
    assert together == alone


def _sum_of_ints(values, start=0):
    """The builtin sum(), refusing floats: it adds them with compensation from
    Python 3.12 on, so a float total through it would move with the Python."""
    values = list(values)
    if any(isinstance(v, float) for v in (start, *values)):
        raise AssertionError(f"sum() of floats: {values}")
    return sum(values, start)


def test_no_float_total_goes_through_sum(tmp_path, monkeypatch):
    # README: a seeded run is byte-identical on every supported Python
    # version, because every float total is added by model.total.
    history = tmp_path / "history.csv"
    write_noisy_history(history)
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "hybridgrid":
            monkeypatch.setattr(module, "sum", _sum_of_ints, raising=False)
    ref = "scenarios/reference.json"
    for argv in (["simulate", ref, "--days", "90", "--out", str(tmp_path / "run")],
                 ["compare", ref, "--axis", "priority", "--days", "90", "--out", str(tmp_path)],
                 ["compare", ref, "--axis", "health", "--days", "90", "--out", str(tmp_path)],
                 ["forecast", str(history), "--horizon", "3"]):
        assert main(argv) == 0, argv


def write_noisy_history(path):
    """Two loads' weekly histories with noise, 120 and 100 days."""
    rng = np.random.default_rng(6)
    rows = ["load_id,day_index,demand_mwd"]
    for lid, n in ((0, 120), (1, 100)):
        level = 90.0 + 10.0 * lid
        rows += [f"{lid},{day},{level + 6.0 * (day % 7) + rng.normal(0.0, 2.0)}"
                 for day in range(n)]
    path.write_text("\n".join(rows) + "\n")


DIFFERENCED_ORDERS = "7,0,0,1,1,0,7"


@pytest.mark.parametrize("flags, digest", [
    ([], "e2d527470a783e5d91eb919b6c6d07c5d6fe045fbcc9a1c3f35317b08cc28c41"),
    (["--orders", DIFFERENCED_ORDERS],
     "6a5925ba10a6c9ca8e6ea198ae1ef5f0e744ea90962931e10bfd7c29dbfb02b1"),
], ids=["default", "differenced"])
def test_forecast_one_step_output_is_pinned(tmp_path, capsys, flags, digest):
    # sha256 of stdout at --horizon 1, recorded while each horizon step still
    # refitted; the first step reads the history alone, so it did not move.
    history = tmp_path / "history.csv"
    write_noisy_history(history)
    assert main(["forecast", str(history), *flags]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("orders", [None, DIFFERENCED_ORDERS], ids=["default", "differenced"])
def test_forecast_horizon_feeds_each_step_back_bitwise(tmp_path, capsys, monkeypatch, orders):
    # Step h is forecast_one of the model fitted on the history, its tail
    # shifted by the h - 1 forecasts before it.
    history, horizon = tmp_path / "history.csv", 40
    write_noisy_history(history)
    steps, forecast_many = [], cli.forecast_many
    monkeypatch.setattr(cli, "forecast_many", lambda *a: steps.append(forecast_many(*a)) or steps[-1])
    flags = ["--orders", orders] if orders else []
    assert main(["forecast", str(history), "--horizon", str(horizon), *flags]) == 0
    printed = [line.split(" forecast ")[1].split() for line in capsys.readouterr().out.splitlines()]
    o = SarimaOrders.from_sequence(map(int, orders.split(","))) if orders else DEFAULT_ORDERS
    for j, series in enumerate(load_demand_csv(history).values()):
        model, expected = fit_sarima(series, o), []
        for _ in range(horizon):
            expected.append(forecast_one(model))
            model._tail = np.append(model._tail[1:], expected[-1])
        assert [step[j].hex() for step in steps] == [v.hex() for v in expected]
        assert printed[j] == [f"{v:.6f}" for v in expected]


def test_forecast_fits_once_for_any_horizon(tmp_path, monkeypatch):
    history = tmp_path / "history.csv"
    write_noisy_history(history)
    batches, fit_many = [], cli.fit_sarima_many
    monkeypatch.setattr(cli, "fit_sarima_many", lambda *a: batches.append(a) or fit_many(*a))
    assert main(["forecast", str(history), "--horizon", "30"]) == 0
    assert len(batches) == 1 and len(batches[0][0]) == 2


def test_forecast_history_without_rows_is_validation_error(tmp_path, capsys):
    history = tmp_path / "empty.csv"
    history.write_text("load_id,day_index,demand_mwd\n")
    assert main(["forecast", str(history)]) == 1
    assert "no rows" in capsys.readouterr().err


def test_forecast_missing_file_is_io_error(tmp_path):
    assert main(["forecast", str(tmp_path / "none.csv")]) == 2
