"""Unit tests for the seasonal forecaster and the data-loading helpers."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridgrid import forecast

from hybridgrid import (
    EnergySource,
    SarimaOrders,
    SolarPlantParams,
    WeatherSample,
    WindPlantParams,
    fit_sarima,
    fit_sarima_many,
    forecast_one,
    load_demand_csv,
    load_weather_csv,
    predict_generation,
    seasonal_naive,
)

ORDERS_AR1 = SarimaOrders(p=1, d=0, q=0, P=0, D=0, Q=0, s=7)
ORDERS_WEEKLY = SarimaOrders(p=1, d=0, q=0, P=1, D=0, Q=0, s=7)


def ar1_series(phi, n, seed, mean=100.0, sd=2.0):
    rng = np.random.default_rng(seed)
    y = np.empty(n)
    level = 0.0
    for t in range(n):
        level = phi * level + rng.normal(0.0, sd)
        y[t] = mean + level
    return y


# --- order validation -------------------------------------------------------


def test_orders_reject_negative():
    with pytest.raises(ValueError):
        SarimaOrders(p=-1, d=0, q=0, P=0, D=0, Q=0, s=7)


def test_orders_reject_tiny_season():
    with pytest.raises(ValueError):
        SarimaOrders(p=1, d=0, q=0, P=0, D=0, Q=0, s=1)


def test_orders_reject_heavy_differencing():
    with pytest.raises(ValueError):
        SarimaOrders(p=0, d=2, q=0, P=0, D=1, Q=0, s=7)


@pytest.mark.parametrize("orders", [(1, 0, 1, 0, 0, 0, 7), (1, 0, 0, 1, 0, 1, 7)])
def test_orders_reject_moving_average(orders):
    with pytest.raises(ValueError, match="moving-average orders q and Q must be 0"):
        SarimaOrders(*orders)


def test_orders_from_sequence():
    orders = SarimaOrders.from_sequence([1, 0, 0, 1, 0, 0, 7])
    assert orders == ORDERS_WEEKLY


def test_orders_minimum_length_guard():
    short = np.ones(10)
    with pytest.raises(ValueError):
        fit_sarima(short, ORDERS_WEEKLY)


def test_fit_rejects_non_finite():
    series = np.ones(100)
    series[50] = np.nan
    with pytest.raises(ValueError):
        fit_sarima(series, ORDERS_AR1)


# --- fitting -----------------------------------------------------------------


def test_fit_recovers_ar1_coefficient():
    series = ar1_series(0.6, 400, seed=11)
    model = fit_sarima(series, ORDERS_AR1)
    assert model.ar_coeffs[0] == pytest.approx(0.6, abs=0.12)
    assert model.converged


def test_fit_white_noise_coefficient_near_zero():
    rng = np.random.default_rng(5)
    series = 100.0 + rng.normal(0.0, 2.0, 400)
    model = fit_sarima(series, ORDERS_AR1)
    assert abs(model.ar_coeffs[0]) < 0.15


def test_fit_constant_series_recovers_level():
    # The objective is flat in the AR direction on a constant series, so the
    # optimizer settles anywhere in the valley; the level itself is recovered
    # to optimizer tolerance.
    series = np.full(120, 100.0)
    model = fit_sarima(series, ORDERS_AR1)
    assert model.intercept == pytest.approx(100.0, abs=1e-4)
    assert forecast_one(model) == pytest.approx(100.0, abs=1e-4)


@pytest.mark.parametrize(
    "orders",
    [
        SarimaOrders(1, 0, 0, 1, 0, 0, 7),
        SarimaOrders(8, 0, 0, 1, 0, 0, 7),
        SarimaOrders(0, 0, 0, 2, 0, 0, 7),
        SarimaOrders(1, 1, 0, 1, 1, 0, 7),
    ],
)
@pytest.mark.parametrize("level", [100.0, 0.1])
def test_fit_rank_deficient_windows_are_finite(orders, level):
    # A constant window leaves every regressor constant; a noise-free weekly
    # one is cancelled exactly by a seasonal unit root.
    weekly = level * np.tile([1.0, 1.2, 1.3, 1.25, 1.1, 0.8, 0.7], 18)[:120]
    for series, expected in ((np.full(120, level), level), (weekly, weekly[-7])):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            model = fit_sarima(series, orders)
        assert np.all(np.isfinite(model.ar_coeffs))
        assert np.all(np.isfinite(model.seasonal_ar_coeffs))
        assert np.isfinite(model.intercept)
        assert forecast_one(model) == pytest.approx(expected, rel=1e-9)


def test_fit_is_deterministic():
    series = ar1_series(0.5, 300, seed=3)
    a = fit_sarima(series, ORDERS_WEEKLY)
    b = fit_sarima(series, ORDERS_WEEKLY)
    assert a.ar_coeffs == b.ar_coeffs
    assert a.seasonal_ar_coeffs == b.seasonal_ar_coeffs
    assert a.intercept == b.intercept
    assert forecast_one(a) == forecast_one(b)


def test_fit_seasonal_structure_recovered():
    # Multiplicative weekly AR: y_t deviates via 0.6*dev[t-1] + 0.5*dev[t-7]
    # - 0.3*dev[t-8] plus noise.
    rng = np.random.default_rng(42)
    n, burn = 600, 60
    dev = np.zeros(n + burn)
    for t in range(8, n + burn):
        dev[t] = (
            0.6 * dev[t - 1]
            + 0.5 * dev[t - 7]
            - 0.3 * dev[t - 8]
            + rng.normal(0.0, 3.0)
        )
    series = 100.0 + dev[burn:]
    model = fit_sarima(series, ORDERS_WEEKLY)
    assert model.ar_coeffs[0] == pytest.approx(0.6, abs=0.15)
    assert model.seasonal_ar_coeffs[0] == pytest.approx(0.5, abs=0.15)


# --- batched fitting ------------------------------------------------------------


def seasonal_series(n, seed):
    """Weekly multiplicative AR around level 100 (the check-6 generator)."""
    rng = np.random.default_rng(seed)
    dev = np.zeros(n + 60)
    for t in range(8, n + 60):
        dev[t] = 0.6 * dev[t - 1] + 0.5 * dev[t - 7] - 0.3 * dev[t - 8] + rng.normal(0.0, 3.0)
    return 100.0 + dev[60:]


def model_bits(model):
    """Every fitted number of a model as float.hex, plus its converged flag."""
    coeffs = [model.ar_coeffs, model.seasonal_ar_coeffs]
    return (
        [[float(v).hex() for v in c] for c in coeffs],
        float(model.intercept).hex(),
        model.converged,
        [t.tobytes() for t in (model._diff_tail, model._level_tail)],
    )


@pytest.mark.parametrize(
    "orders, lengths",
    [
        (SarimaOrders(1, 0, 0, 1, 0, 0, 7), (32, 365, 90, 200, 61)),
        # Regular and seasonal differencing.
        (SarimaOrders(1, 1, 0, 1, 1, 0, 7), (60, 365, 90, 45)),
        # p >= s, so lag slots are shared.
        (SarimaOrders(8, 0, 0, 1, 0, 0, 7), (60, 200, 90)),
    ],
)
# Every window converges, so a fit that hits the round cap fails the test.
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fit_many_equals_lone_fits_bitwise(orders, lengths):
    series = seasonal_series(400, seed=9)
    windows = [series[len(series) - n :] for n in lengths]
    batch = fit_sarima_many(windows, orders)
    assert [model_bits(m) for m in batch] == [model_bits(fit_sarima(w, orders)) for w in windows]


@pytest.mark.parametrize(
    "orders, coeffs, intercept",
    [
        (
            SarimaOrders(1, 0, 0, 1, 0, 0, 7),
            [["0x1.4a9a449580951p-1"], ["0x1.a120dbfee85cdp-2"]],
            "0x1.86ece1c027d7dp+6",
        ),
    ],
    ids=["weekly"],
)
def test_fit_numerics_are_pinned(orders, coeffs, intercept):
    # Recorded with the alternating least squares fit.
    bits = model_bits(fit_sarima(seasonal_series(200, seed=21), orders))
    assert bits[:3] == (coeffs, intercept, True)


def test_fit_many_warns_once_per_capped_fit(monkeypatch):
    # These windows converge after 1, 8 and 9 rounds.
    windows = [
        np.full(120, 100.0),
        100.0 + np.random.default_rng(5).normal(0.0, 2.0, 120),
        100.0 + np.random.default_rng(6).normal(0.0, 2.0, 60),
    ]
    monkeypatch.setattr(forecast, "MAX_ROUNDS", 8)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        models = fit_sarima_many(windows, ORDERS_WEEKLY)
    assert [m.converged for m in models] == [True, True, False]
    assert [str(w.message) for w in caught] == [
        "SARIMA search hit the iteration cap; returning best coefficients so far"
    ]


def css(model, series):
    """The conditional sum of squares of a fitted model, from its residuals."""
    o = model.orders
    w = forecast._difference(np.asarray(series, dtype=float), o.d, o.D, o.s)
    ar = forecast._expand(model.ar_coeffs, model.seasonal_ar_coeffs, o.s)
    L = len(ar) - 1
    e = sum(ar[k] * (w[L - k : len(w) - k] - model.intercept) for k in range(len(ar)))
    return float(e @ e)


@settings(deadline=None, max_examples=60)
@given(
    orders=st.sampled_from([SarimaOrders(1, 0, 0, 1, 0, 0, 7), SarimaOrders(2, 1, 0, 1, 0, 0, 7)]),
    n=st.integers(32, 400),
    phi=st.floats(-0.9, 0.9),
    sphi=st.floats(-0.9, 0.9),
    seed=st.integers(0, 2**32 - 1),
)
def test_fit_is_a_css_minimum(orders, n, phi, sphi, seed):
    n = max(n, orders.min_series_length())
    rng = np.random.default_rng(seed)
    dev = np.zeros(n + 60)
    for t in range(8, n + 60):
        dev[t] = phi * dev[t - 1] + sphi * dev[t - 7] - phi * sphi * dev[t - 8] + rng.normal()
    series = 100.0 + dev[60:]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        model = fit_sarima(series, orders)
    floor = css(model, series) * (1.0 - 1e-12)
    for step in (1e-6, -1e-6):
        for name in ("ar_coeffs", "seasonal_ar_coeffs"):
            for i in range(len(getattr(model, name))):
                coeffs = getattr(model, name).copy()
                coeffs[i] += step
                assert css(dataclasses.replace(model, **{name: coeffs}), series) >= floor
        assert css(dataclasses.replace(model, intercept=model.intercept + step), series) >= floor


def test_fit_many_of_nothing_is_empty():
    assert fit_sarima_many([]) == []


def test_fit_many_rejects_a_short_window():
    with pytest.raises(ValueError, match="series too short"):
        fit_sarima_many([np.ones(100), np.ones(10)], ORDERS_WEEKLY)


def test_forecast_clamps_negative_to_zero():
    # A plunging differenced series can extrapolate below zero; forecasts
    # stay physical.
    series = np.linspace(100.0, 0.5, 120)
    orders = SarimaOrders(p=1, d=1, q=0, P=0, D=0, Q=0, s=7)
    model = fit_sarima(series, orders)
    assert forecast_one(model) >= 0.0


def test_seasonal_naive_returns_one_season_back():
    series = np.arange(1.0, 11.0)
    assert seasonal_naive(series, 7) == 4.0


def test_seasonal_naive_short_series_rejected():
    with pytest.raises(ValueError):
        seasonal_naive(np.arange(5.0), 7)


# --- CSV loaders -------------------------------------------------------------


WEATHER_CSV = """site_id,day_index,ghi_w_m2,wind_speed_ms
coastal,0,500.0,8.0
coastal,1,450.0,9.5
inland,0,620.0,4.0
inland,1,580.0,3.5
"""


def test_load_weather_csv_roundtrip(tmp_path):
    path = tmp_path / "weather.csv"
    path.write_text(WEATHER_CSV)
    samples = load_weather_csv(path)
    assert len(samples) == 4
    assert samples[0] == WeatherSample(
        site_id="coastal", day_index=0, ghi_w_m2=500.0, wind_speed_ms=8.0
    )
    # Sorted by (site, day).
    assert [(s.site_id, s.day_index) for s in samples] == [
        ("coastal", 0),
        ("coastal", 1),
        ("inland", 0),
        ("inland", 1),
    ]


def test_load_weather_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "weather.csv"
    path.write_text("site,day,ghi,wind\ncoastal,0,1,2\n")
    with pytest.raises(ValueError):
        load_weather_csv(path)


def test_load_weather_csv_rejects_duplicate_key(tmp_path):
    path = tmp_path / "weather.csv"
    path.write_text(
        "site_id,day_index,ghi_w_m2,wind_speed_ms\n"
        "coastal,0,500.0,8.0\ncoastal,0,400.0,7.0\n"
    )
    with pytest.raises(ValueError):
        load_weather_csv(path)


def test_load_weather_csv_rejects_negative_values(tmp_path):
    path = tmp_path / "weather.csv"
    path.write_text("site_id,day_index,ghi_w_m2,wind_speed_ms\ncoastal,0,-5.0,8.0\n")
    with pytest.raises(ValueError):
        load_weather_csv(path)


@pytest.mark.parametrize("row", ["coastal,0,nan,8.0", "coastal,0,500.0,inf", "coastal,0,-inf,8.0"])
def test_load_weather_csv_rejects_non_finite_values(tmp_path, row):
    path = tmp_path / "weather.csv"
    path.write_text(f"site_id,day_index,ghi_w_m2,wind_speed_ms\ninland,0,1.0,1.0\n{row}\n")
    with pytest.raises(ValueError, match="row 3: .*finite"):
        load_weather_csv(path)


@pytest.mark.parametrize("field", ["ghi_w_m2", "wind_speed_ms"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_weather_sample_rejects_non_finite(field, value):
    kwargs = {"site_id": "coastal", "day_index": 0, "ghi_w_m2": 1.0, "wind_speed_ms": 1.0}
    kwargs[field] = value
    with pytest.raises(ValueError, match="finite"):
        WeatherSample(**kwargs)


def test_load_demand_csv_roundtrip(tmp_path):
    path = tmp_path / "demand.csv"
    path.write_text(
        "load_id,day_index,demand_mwd\n0,0,100.0\n0,1,110.0\n1,0,90.0\n1,1,95.0\n"
    )
    series = load_demand_csv(path)
    assert series == {0: [100.0, 110.0], 1: [90.0, 95.0]}


def test_load_demand_csv_rejects_gaps(tmp_path):
    path = tmp_path / "demand.csv"
    path.write_text("load_id,day_index,demand_mwd\n0,0,100.0\n0,2,110.0\n")
    with pytest.raises(ValueError):
        load_demand_csv(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_demand_csv_rejects_non_finite(tmp_path, value):
    path = tmp_path / "demand.csv"
    path.write_text(f"load_id,day_index,demand_mwd\n0,0,100.0\n0,1,{value}\n")
    with pytest.raises(ValueError, match="row 3: demand must be finite"):
        load_demand_csv(path)


# --- generation prediction ---------------------------------------------------


def test_predict_generation_maps_sites_to_sources():
    sources = [
        EnergySource(
            id=1,
            kind="wind",
            params=WindPlantParams(
                power_coefficient=0.4,
                air_density=1.225,
                rotor_area_m2=10_000.0,
                turbine_count=50,
                cut_in_ms=3.0,
                cut_out_ms=25.0,
            ),
            connected_systems=(1,),
            site="coastal",
        ),
        EnergySource(
            id=2,
            kind="solar",
            params=SolarPlantParams(area_m2=900_000.0, efficiency=0.21),
            connected_systems=(1,),
            site="inland",
        ),
    ]
    samples = [
        WeatherSample(site_id="coastal", day_index=0, ghi_w_m2=0.0, wind_speed_ms=10.0),
        WeatherSample(site_id="inland", day_index=0, ghi_w_m2=1000.0, wind_speed_ms=2.0),
    ]
    energy = predict_generation(samples, sources)
    assert energy[1] == pytest.approx(122.5)
    assert energy[2] == pytest.approx(189.0)


def test_predict_generation_missing_site_rejected():
    source = EnergySource(
        id=1,
        kind="solar",
        params=SolarPlantParams(area_m2=1000.0, efficiency=0.2),
        connected_systems=(1,),
        site="nowhere",
    )
    samples = [
        WeatherSample(site_id="inland", day_index=0, ghi_w_m2=100.0, wind_speed_ms=1.0)
    ]
    with pytest.raises((KeyError, ValueError)):
        predict_generation(samples, [source])
