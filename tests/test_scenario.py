"""Unit tests for scenario parsing and topology construction from JSON docs."""

import json
import re
from pathlib import Path

import numpy as np
import pytest
from conftest import explicit_doc, records_sha256

from hybridgrid import GridUnits, compare, model, scenario, validate_topology
from hybridgrid.generation import MAX_TURBINE_COUNT
from hybridgrid.scenario import load_scenario, parse_scenario


def minimal_doc(**run_overrides):
    run = {"days": 5, "seed": 1}
    run.update(run_overrides)
    return {
        "topology": {"reference": True},
        "loads": {"kind": "synthetic", "gen_fraction": 0.75},
        "weather": {"kind": "synthetic"},
        "run": run,
    }


def test_parse_reference_topology():
    cfg, topo = parse_scenario(minimal_doc())
    assert cfg.days == 5
    assert cfg.seed == 1
    assert cfg.priority_enabled and cfg.health_enabled
    assert len(topo.systems) == 7
    assert validate_topology(topo) == []


# The reference grid written out as an explicit document, units and plants
# spelled out as README describes them.
SPELLED_OUT_REFERENCE = {
    "topology": {"initial_soc_pct": 50.0, "systems": [
        {"id": n, "unit_count": 10, "unit_capacity_mwd": 100.0} for n in range(1, 8)
    ]},
    "sources": [
        {"id": 1, "kind": "wind", "site": "coastal", "turbine_count": 50,
         "connected_systems": [1, 2, 3, 4]},
        {"id": 2, "kind": "wind", "site": "coastal", "turbine_count": 100,
         "connected_systems": [1, 2, 3, 4]},
        {"id": 3, "kind": "solar", "site": "inland", "area_m2": 900_000.0, "efficiency": 0.21,
         "connected_systems": [4, 5, 6, 7]},
        {"id": 4, "kind": "solar", "site": "inland", "area_m2": 1_500_000.0, "efficiency": 0.21,
         "connected_systems": [4, 5, 6, 7]},
    ],
    "centers": [
        {"id": 0, "connected_systems": [1, 2, 3]},
        {"id": 1, "connected_systems": [2, 3, 4]},
        {"id": 2, "connected_systems": [3, 4, 5]},
        {"id": 3, "connected_systems": [4, 5, 6]},
        {"id": 4, "connected_systems": [5, 6, 7]},
        {"id": 5, "connected_systems": [1, 6, 7]},
        {"id": 6, "connected_systems": [1, 2, 7]},
        {"id": 7, "connected_systems": [2, 3, 7]},
    ],
}


def test_reference_grid_equals_its_explicit_document():
    doc = json.loads(Path("scenarios/reference.json").read_text())
    doc["run"]["days"] = 60
    assert doc["degradation"]["rate_spread"] > 0  # the seeded wear rates are compared too
    explicit = {**doc, "topology": SPELLED_OUT_REFERENCE["topology"],
                "sources": SPELLED_OUT_REFERENCE["sources"],
                "loads": {**doc["loads"], "centers": SPELLED_OUT_REFERENCE["centers"]}}
    cfg, reference = parse_scenario(doc)
    explicit_cfg, spelled = parse_scenario(explicit)
    assert repr(spelled) == repr(reference)
    for got, want in zip(spelled.systems, reference.systems, strict=True):
        for name in model.UNIT_FIELDS:
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    for axis in ("priority", "health"):
        a, b = compare(explicit_cfg, spelled, axis), compare(cfg, reference, axis)
        assert records_sha256(a.treatment, a.baseline) == records_sha256(b.treatment, b.baseline)


def test_parse_applies_initial_soc():
    doc = minimal_doc()
    doc["topology"]["initial_soc_pct"] = 25.0
    _, topo = parse_scenario(doc)
    assert GridUnits(topo.systems).soc_pct == pytest.approx([25.0] * 7)


def test_parse_toggles():
    cfg, _ = parse_scenario(minimal_doc(priority_enabled=False, health_enabled=False))
    assert not cfg.priority_enabled
    assert not cfg.health_enabled


@pytest.mark.parametrize("key", ["priority_enabled", "health_enabled"])
@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_parse_toggles_must_be_json_booleans(key, value):
    with pytest.raises(ValueError, match=f"run.{key} must be a JSON boolean"):
        parse_scenario(minimal_doc(**{key: value}))


def test_parse_rejects_removed_charge_full_first():
    doc = minimal_doc(score_weights={"charge_full_first": True})
    with pytest.raises(ValueError, match="unknown key run.score_weights.charge_full_first"):
        parse_scenario(doc)


@pytest.mark.parametrize(
    "keys, path",
    [
        ((), "typo"),
        (("topology",), "topology.typo"),
        (("topology", "systems", 1), "topology.systems[1].typo"),
        (("sources", 0), "sources[0].typo"),
        (("loads",), "loads.typo"),
        (("loads", "centers", 0), "loads.centers[0].typo"),
        (("forecasting",), "forecasting.typo"),
        (("degradation",), "degradation.typo"),
        (("weather",), "weather.typo"),
        (("weather", "sites", "roof"), "weather.sites.roof.typo"),
        (("weather", "default"), "weather.default.typo"),
        (("run",), "run.typo"),
        (("run", "score_weights"), "run.score_weights.typo"),
    ],
)
def test_parse_rejects_unknown_keys(keys, path):
    doc = explicit_doc()
    parse_scenario(doc)  # valid as written
    section = doc
    for key in keys:
        section = section[key]
    section["typo"] = 1
    with pytest.raises(ValueError, match=re.escape(f"unknown key {path}")):
        parse_scenario(doc)


def test_parse_checks_source_keys_by_kind():
    doc = explicit_doc()
    doc["sources"][1]["area_m2"] = 10.0  # a solar key on a wind source
    with pytest.raises(ValueError, match=re.escape("unknown key sources[1].area_m2")):
        parse_scenario(doc)


def test_load_scenario_applies_run_overrides(tmp_path):
    doc = minimal_doc()
    doc["degradation"] = {"r_charge": 0.1, "r_discharge": 0.2, "rate_spread": 0.5}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    cfg, topo = load_scenario(path, {"seed": 9, "days": 2})
    doc["run"].update(seed=9, days=2)
    _, expected = parse_scenario(doc)
    assert (cfg.seed, cfg.days) == (9, 2)
    # The seed override reaches the seeded per-unit wear rates.
    assert [s.r_charge.tolist() for s in topo.systems] == [
        s.r_charge.tolist() for s in expected.systems
    ]


def test_parse_degradation_and_spread():
    doc = minimal_doc()
    doc["degradation"] = {"r_charge": 0.1, "r_discharge": 0.2, "rate_spread": 0.5}
    cfg, topo = parse_scenario(doc)
    rates = [r for s in topo.systems for r in s.r_charge.tolist()]
    # Spread perturbs per-unit rates around the base value within +/-50%.
    assert min(rates) >= 0.05 - 1e-12
    assert max(rates) <= 0.15 + 1e-12
    assert len(set(rates)) > 1


def test_parse_zero_spread_keeps_uniform_rates():
    doc = minimal_doc()
    doc["degradation"] = {"r_charge": 0.1, "r_discharge": 0.2}
    _, topo = parse_scenario(doc)
    rates = {r for s in topo.systems for r in s.r_charge.tolist()}
    assert rates == {0.1}


def test_parse_explicit_topology():
    doc = explicit_doc()
    cfg, topo = parse_scenario(doc)
    assert [s.id for s in topo.systems] == [1, 2]
    assert topo.systems[0].capacity_mwd == pytest.approx(100.0)
    assert topo.sources[0].site == "roof"
    assert validate_topology(topo) == []


def test_parse_rejects_unknown_source_kind():
    doc = minimal_doc()
    doc["topology"] = {
        "systems": [{"id": 1, "unit_count": 1, "unit_capacity_mwd": 10.0}]
    }
    doc["sources"] = [
        {"id": 1, "kind": "tidal", "site": "x", "connected_systems": [1]}
    ]
    doc["loads"] = {
        "kind": "synthetic",
        "centers": [{"id": 0, "connected_systems": [1]}],
        "base_mwd": {"0": 5.0},
    }
    with pytest.raises(ValueError):
        parse_scenario(doc)


def test_parse_missing_run_section_uses_defaults():
    doc = minimal_doc()
    del doc["run"]
    cfg, _ = parse_scenario(doc)
    assert cfg.days == 365
    assert cfg.seed == 0


def test_parse_weights_must_sum_to_one():
    doc = minimal_doc()
    doc["run"]["score_weights"] = {"soh": 0.9, "soc": 0.9}
    with pytest.raises(ValueError):
        parse_scenario(doc)


def test_load_scenario_from_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(minimal_doc()))
    cfg, topo = load_scenario(path)
    assert cfg.days == 5


def test_load_scenario_bad_json_raises_value_error(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text("{not json")
    with pytest.raises(ValueError):
        load_scenario(path)


@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e999", "-1e999"])
def test_load_scenario_rejects_non_finite_numbers(tmp_path, number):
    path = tmp_path / "scenario.json"
    path.write_text(
        '{"degradation": {"r_charge": %s}, "run": {"days": 1, "seed": 1}}' % number
    )
    with pytest.raises(ValueError, match=f"non-finite number {re.escape(number)}"):
        load_scenario(path)


def test_load_scenario_missing_file_raises_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_scenario(tmp_path / "absent.json")


def test_shipped_scenarios_parse_and_validate():
    for name in ("reference", "stress", "toy"):
        cfg, topo = load_scenario(f"scenarios/{name}.json")
        assert cfg.days > 0
        assert validate_topology(topo) == []


# --- integer fields -------------------------------------------------------------


def _set(doc, keys, value):
    section = doc
    for key in keys[:-1]:
        section = section[key]
    section[keys[-1]] = value


# (keys into explicit_doc(), dotted path, the document's valid value)
INTEGER_FIELDS = [
    (("run", "days"), "run.days", 3),
    (("run", "seed"), "run.seed", 2),
    (("forecasting", "refit_interval_days"), "forecasting.refit_interval_days", 30),
    (("forecasting", "train_window_days"), "forecasting.train_window_days", 365),
    (("topology", "systems", 1, "id"), "topology.systems[1].id", 2),
    (("topology", "systems", 0, "unit_count"), "topology.systems[0].unit_count", 2),
    (("sources", 1, "id"), "sources[1].id", 2),
    (("sources", 0, "connected_systems", 1), "sources[0].connected_systems[1]", 2),
    (("sources", 1, "turbine_count"), "sources[1].turbine_count", 3),
    (("loads", "centers", 0, "id"), "loads.centers[0].id", 0),
    (("loads", "centers", 0, "connected_systems", 0), "loads.centers[0].connected_systems[0]", 1),
]


@pytest.mark.parametrize("keys, path, valid", INTEGER_FIELDS)
@pytest.mark.parametrize("value", [2.9, 1.5, 2.5, True, "3"])
def test_parse_rejects_non_integer_fields(keys, path, valid, value):
    doc = explicit_doc()
    _set(doc, keys, value)
    with pytest.raises(ValueError, match=re.escape(f"{path} must be an integer, got {value!r}")):
        parse_scenario(doc)


@pytest.mark.parametrize("keys, path, valid", INTEGER_FIELDS)
def test_parse_accepts_integral_floats(keys, path, valid):
    as_int, as_float = explicit_doc(), explicit_doc()
    _set(as_int, keys, valid)
    _set(as_float, keys, float(valid))
    cfg_i, topo_i = parse_scenario(as_int)
    cfg_f, topo_f = parse_scenario(as_float)
    for name in ("days", "seed", "forecasting"):
        assert getattr(cfg_f, name) == getattr(cfg_i, name)
    assert topo_f == topo_i


@pytest.mark.parametrize("keys, path, valid", INTEGER_FIELDS)
def test_parse_accepts_numpy_integers(keys, path, valid):
    plain, numpy_int = explicit_doc(), explicit_doc()
    _set(plain, keys, valid)
    _set(numpy_int, keys, np.int64(valid))
    cfg_i, topo_i = parse_scenario(plain)
    cfg_n, topo_n = parse_scenario(numpy_int)
    for name in ("days", "seed", "forecasting"):
        assert getattr(cfg_n, name) == getattr(cfg_i, name)
    assert topo_n == topo_i


@pytest.mark.parametrize("value, want", [(3, 3), (np.int64(3), 3), (2.0, 2), (-4, -4)])
def test_as_int_returns_a_plain_int(value, want):
    got = model.as_int(value, "x")
    assert type(got) is int and got == want


@pytest.mark.parametrize("value", [True, False, 2.5, "3", None, float("nan"), float("inf")])
def test_as_int_rejects_what_is_not_an_integer(value):
    with pytest.raises(ValueError, match=re.escape(f"x must be an integer, got {value!r}")):
        model.as_int(value, "x")


STREAM_KEYS = ("run.seed", "topology.systems[1].id", "loads.centers[0].id")


@pytest.mark.parametrize("keys, path, valid", [f for f in INTEGER_FIELDS if f[1] in STREAM_KEYS])
@pytest.mark.parametrize("spread", [0.0, 0.5])
def test_parse_rejects_negative_seed_and_ids(keys, path, valid, spread):
    # The seed keys every synthetic stream, a load id its demand stream and a
    # system id its wear-spread stream; numpy takes no negative key.
    doc = explicit_doc()
    doc["degradation"]["rate_spread"] = spread
    _set(doc, keys, -1)
    with pytest.raises(ValueError, match=re.escape(f"{path} must be >= 0, got -1")):
        parse_scenario(doc)


# --- float fields ------------------------------------------------------------------

# (keys into explicit_doc(), dotted path, a valid integral value, or None when the
# field has none)
FLOAT_FIELDS = [
    (("topology", "initial_soc_pct"), "topology.initial_soc_pct", 50),
    (("topology", "initial_soh_pct"), "topology.initial_soh_pct", 90),
    (("topology", "systems", 1, "unit_capacity_mwd"), "topology.systems[1].unit_capacity_mwd", 25),
    (("sources", 0, "area_m2"), "sources[0].area_m2", 2000),
    (("sources", 0, "efficiency"), "sources[0].efficiency", 1),
    (("sources", 1, "power_coefficient"), "sources[1].power_coefficient", None),
    (("sources", 1, "air_density"), "sources[1].air_density", 1),
    (("sources", 1, "rotor_area_m2"), "sources[1].rotor_area_m2", 10_000),
    (("sources", 1, "cut_in_ms"), "sources[1].cut_in_ms", 3),
    (("sources", 1, "cut_out_ms"), "sources[1].cut_out_ms", 25),
    (("loads", "noise_sd"), "loads.noise_sd", 0),
    (("loads", "gen_fraction"), "loads.gen_fraction", 1),
    (("loads", "weekly_shape", 5), "loads.weekly_shape[5]", 1),
    (("loads", "base_mwd", "0"), "loads.base_mwd.0", 40),
    (("degradation", "r_charge"), "degradation.r_charge", 0),
    (("degradation", "r_discharge"), "degradation.r_discharge", 1),
    (("degradation", "rate_spread"), "degradation.rate_spread", 1),
    (("run", "score_weights", "soh"), "run.score_weights.soh", 1),
    (("run", "score_weights", "soc"), "run.score_weights.soc", 0),
    (("weather", "default", "ghi_base"), "weather.default.ghi_base", 600),
]


def _read_back(doc):
    """Everything a document parses to, as text, apart from the document itself."""
    cfg, topo = parse_scenario(doc)
    cfg.raw = None
    return repr((cfg, topo))


@pytest.mark.parametrize("keys, path, valid", FLOAT_FIELDS)
def test_parse_float_fields_take_only_json_numbers(keys, path, valid):
    for value in (True, "1.0", None):
        doc = explicit_doc()
        _set(doc, keys, value)
        if value is None and path == "loads.gen_fraction":
            assert parse_scenario(doc)[0].demand.params.gen_fraction is None  # null: unset
            continue
        with pytest.raises(ValueError, match=re.escape(f"{path} must be a number, got {value!r}")):
            parse_scenario(doc)
    if valid is not None:
        as_int, as_float = explicit_doc(), explicit_doc()
        _set(as_int, keys, valid)
        _set(as_float, keys, float(valid))
        assert _read_back(as_int) == _read_back(as_float)


def test_parse_field_range_errors_name_their_section():
    doc = explicit_doc()
    doc["weather"]["sites"]["roof"]["cloud_floor"] = 2.0
    with pytest.raises(ValueError, match=re.escape("weather.sites.roof: cloud floor must be in")):
        parse_scenario(doc)


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("loads", "gen_fraction", 0.5),
        ("loads", "base_mwd", {"0": 40.0}),
        ("loads", "weekly_shape", [1.0] * 7),
        ("loads", "noise_sd", 0.05),
        ("weather", "default", {}),
        ("weather", "sites", {"roof": {}}),
    ],
)
def test_parse_csv_sections_reject_generator_keys(section, key, value):
    doc = explicit_doc()
    doc[section] = {"kind": "csv", "path": "data.csv", key: value}
    if section == "loads":
        doc["loads"]["centers"] = explicit_doc()["loads"]["centers"]
    with pytest.raises(ValueError, match=re.escape(f"unknown key {section}.{key}")):
        parse_scenario(doc)


@pytest.mark.parametrize("value", [None, 5, ["roof"]])
def test_parse_source_site_must_be_a_json_string(value):
    doc = explicit_doc()
    doc["sources"][1]["site"] = value
    message = f"sources[1].site must be a JSON string, got {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_scenario(doc)


@pytest.mark.parametrize("section", ["loads", "weather"])
def test_parse_csv_path_must_be_a_json_string(section):
    doc = explicit_doc()
    doc[section] = {"kind": "csv", "path": None}
    if section == "loads":
        doc["loads"]["centers"] = explicit_doc()["loads"]["centers"]
    message = f"{section}.path must be a JSON string, got None"
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_scenario(doc)


@pytest.mark.parametrize("key", ["initial_soc_pct", "initial_soh_pct"])
@pytest.mark.parametrize("value", [-5, 150, 100.5])
@pytest.mark.parametrize("reference", [True, False])
def test_parse_initial_state_out_of_range_names_its_key(key, value, reference):
    doc = minimal_doc() if reference else explicit_doc()
    doc["topology"][key] = value
    message = f"topology.{key} must be in [0, 100], got {float(value)!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_scenario(doc)


@pytest.mark.parametrize("key", ["initial_soc_pct", "initial_soh_pct"])
@pytest.mark.parametrize("value", [0, 100])
def test_parse_initial_state_accepts_its_bounds(key, value):
    doc = explicit_doc()
    doc["topology"][key] = value
    cfg, topo = parse_scenario(doc)
    assert getattr(cfg, key) == value
    system = topo.systems[0]
    if key == "initial_soc_pct":
        assert (system.energy == system.cap * value / 100.0).all()
    else:
        assert (system.soh == value).all()


@pytest.mark.parametrize("section", ["loads", "weather"])
def test_parse_synthetic_sections_reject_a_path(section):
    doc = explicit_doc()
    doc[section]["path"] = "data.csv"
    with pytest.raises(ValueError, match=re.escape(f"unknown key {section}.path")):
        parse_scenario(doc)


@pytest.mark.parametrize(
    "keys, name",
    [
        (("loads", "base_mwd"), "99"),
        (("loads", "base_mwd"), "x"),
        (("weather", "sites"), "costal"),
    ],
)
def test_parse_rejects_names_not_in_the_grid(keys, name):
    doc = explicit_doc()
    _set(doc, (*keys, name), {"cloud_ar": 0.5} if keys[0] == "weather" else 10.0)
    with pytest.raises(ValueError, match=re.escape(f"unknown key {'.'.join(keys)}.{name}")):
        parse_scenario(doc)


def test_parse_reference_grid_names_its_sites_and_loads():
    doc = minimal_doc()
    doc["loads"]["base_mwd"] = {"7": 60.0}
    doc["weather"]["sites"] = {"coastal": {"wind_ar": 0.4}, "inland": {"cloud_ar": 0.4}}
    cfg, _ = parse_scenario(doc)
    assert cfg.demand.base_by_load == {7: 60.0}
    assert cfg.weather.params_for("inland").cloud_ar == 0.4
    doc["loads"]["base_mwd"] = {"8": 60.0}
    with pytest.raises(ValueError, match=re.escape("unknown key loads.base_mwd.8")):
        parse_scenario(doc)


@pytest.mark.parametrize("i, key", [(0, "area_m2"), (0, "efficiency"), (1, "turbine_count")])
def test_parse_plant_without_its_size_is_rejected(i, key):
    doc = explicit_doc()
    del doc["sources"][i][key]
    with pytest.raises(ValueError, match=re.escape(f"sources[{i}]: missing required key {key!r}")):
        parse_scenario(doc)


@pytest.mark.parametrize("count", [MAX_TURBINE_COUNT + 1, 1e308, 10**400],
                         ids=["cap+1", "1e308", "1e400"])
def test_parse_caps_turbine_count(count):
    doc = explicit_doc()
    doc["sources"][1]["turbine_count"] = MAX_TURBINE_COUNT
    parse_scenario(doc)
    doc["sources"][1]["turbine_count"] = count
    with pytest.raises(ValueError, match=re.escape(
        f"sources[1]: turbine count must be <= {MAX_TURBINE_COUNT}, got {int(count)}"
    )):
        parse_scenario(doc)


def test_parse_explicit_grid_without_sources_names_the_key():
    doc = explicit_doc()
    del doc["sources"]
    with pytest.raises(ValueError, match=re.escape("scenario: missing required key 'sources'")):
        parse_scenario(doc)


@pytest.mark.parametrize("value", [1.5, True, "1"])
def test_parse_rejects_non_integer_orders(value):
    doc = explicit_doc()
    doc["forecasting"]["orders"] = [1, 0, 0, value, 0, 0, 7]
    with pytest.raises(
        ValueError, match=re.escape(f"forecasting.orders[3] must be an integer, got {value!r}")
    ):
        parse_scenario(doc)


def test_parse_fractional_days_and_seed_are_not_truncated(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(minimal_doc(days=2.9, seed=1.7)))
    with pytest.raises(ValueError, match=re.escape("run.days must be an integer, got 2.9")):
        load_scenario(path)


# --- reference grid ---------------------------------------------------------------


@pytest.mark.parametrize("keys", [("sources",), ("loads", "centers"), ("topology", "systems")])
def test_parse_rejects_explicit_grid_beside_reference(keys):
    # explicit_doc()'s own plants, loads or systems next to "reference": true
    doc, explicit = minimal_doc(), explicit_doc()
    section = doc
    for key in keys[:-1]:
        section, explicit = section[key], explicit[key]
    section[keys[-1]] = explicit[keys[-1]]
    key = ".".join(keys)
    with pytest.raises(
        ValueError, match=re.escape(f"{key} cannot be given with topology.reference: true")
    ):
        parse_scenario(doc)


def test_parse_reference_must_be_json_boolean():
    doc = minimal_doc()
    doc["topology"]["reference"] = "false"
    with pytest.raises(ValueError, match="topology.reference must be a JSON boolean"):
        parse_scenario(doc)


def _no_units(*args):
    raise AssertionError("a storage system was built")


# Each case is over a cap by its counts alone: 101 systems of 10,000 units would
# need about 180 MB, and 10,001 list entries would each be read.
@pytest.mark.parametrize(
    "keys, value, message",
    [
        (
            ("topology", "systems"),
            [{"id": k, "unit_count": 10_000} for k in range(101)],
            "the total unit_count of topology.systems must be <= 1000000, got 1010000",
        ),
        (
            ("topology", "systems"),
            [{"id": k, "unit_count": 1} for k in range(10_001)],
            "topology.systems must have at most 10000 entries, got 10001",
        ),
        (
            ("loads", "centers"),
            [{"id": k, "connected_systems": [1]} for k in range(10_001)],
            "loads.centers must have at most 10000 entries, got 10001",
        ),
        (("sources",), [{}] * 10_001, "sources must have at most 10000 entries, got 10001"),
    ],
    ids=["total-units", "systems", "loads", "sources"],
)
def test_parse_grid_over_a_size_cap_builds_no_unit(monkeypatch, keys, value, message):
    monkeypatch.setattr(scenario, "StorageSystem", _no_units)
    doc = explicit_doc()
    section = doc
    for key in keys[:-1]:
        section = section[key]
    section[keys[-1]] = value
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_scenario(doc)


def test_parse_total_unit_cap_is_inclusive(monkeypatch):
    # explicit_doc() has 2 + 4 units.
    monkeypatch.setattr(scenario, "MAX_TOTAL_UNITS", 6)
    _, topo = parse_scenario(explicit_doc())
    assert sum(len(s.cap) for s in topo.systems) == 6
    monkeypatch.setattr(scenario, "MAX_TOTAL_UNITS", 5)
    with pytest.raises(ValueError, match=re.escape("must be <= 5, got 6")):
        parse_scenario(explicit_doc())
