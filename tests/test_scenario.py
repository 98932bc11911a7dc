"""Unit tests for scenario parsing and topology construction from JSON docs."""

import json
import re

import pytest

from hybridgrid import system_soc, validate_topology
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


def test_parse_applies_initial_soc():
    doc = minimal_doc()
    doc["topology"]["initial_soc_pct"] = 25.0
    _, topo = parse_scenario(doc)
    assert all(system_soc(s) == pytest.approx(25.0) for s in topo.systems)


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
    assert [u.r_charge for s in topo.systems for u in s.units] == [
        u.r_charge for s in expected.systems for u in s.units
    ]


def test_parse_degradation_and_spread():
    doc = minimal_doc()
    doc["degradation"] = {"r_charge": 0.1, "r_discharge": 0.2, "rate_spread": 0.5}
    cfg, topo = parse_scenario(doc)
    rates = [u.r_charge for s in topo.systems for u in s.units]
    # Spread perturbs per-unit rates around the base value within +/-50%.
    assert min(rates) >= 0.05 - 1e-12
    assert max(rates) <= 0.15 + 1e-12
    assert len(set(rates)) > 1


def test_parse_zero_spread_keeps_uniform_rates():
    doc = minimal_doc()
    doc["degradation"] = {"r_charge": 0.1, "r_discharge": 0.2}
    _, topo = parse_scenario(doc)
    rates = {u.r_charge for s in topo.systems for u in s.units}
    assert rates == {0.1}


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
        },
        "forecasting": {"refit_interval_days": 30},
        "degradation": {"r_charge": 0.1},
        "weather": {"kind": "synthetic", "sites": {"roof": {"cloud_ar": 0.5}}, "default": {}},
        "run": {"days": 3, "seed": 2, "score_weights": {"soh": 0.5, "soc": 0.5}},
    }


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
