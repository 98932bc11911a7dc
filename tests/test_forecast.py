"""Unit tests for the seasonal forecaster and the data-loading helpers."""

import dataclasses
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridgrid import forecast

from hybridgrid import (
    SarimaOrders,
    fit_sarima,
    fit_sarima_many,
    forecast_many,
    forecast_one,
    load_demand_csv,
    load_weather_csv,
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
        model._tail.tobytes(),
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
    "orders", [SarimaOrders(1, 0, 0, 1, 0, 0, 7), SarimaOrders(1, 1, 0, 1, 1, 0, 7)],
    ids=["weekly", "differenced"],
)
def test_stacked_fits_of_shuffled_windows_equal_lone_fits_bitwise(orders):
    # Windows of one length are prepared STACK at a time. More of them than
    # two stacks hold, shuffled among other lengths and each ending on its
    # own day, so a row landing on another window's model would show.
    series = seasonal_series(420, seed=11)
    rng = np.random.default_rng(3)
    lengths = [120] * (2 * forecast.STACK + 1) + [90, 90, 365, 61]
    rng.shuffle(lengths)
    windows = [series[end - n : end] for n, end in zip(lengths, rng.integers(365, 421, 99))]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        batch = fit_sarima_many(windows, orders)
        lone = [fit_sarima(w, orders) for w in windows]
    assert [model_bits(m) for m in batch] == [model_bits(m) for m in lone]


def _bad_window(kind):
    """A 120-day window that breaks one rule of SarimaOrders(1, 0, 0, 3, 2, 0, 7)."""
    if kind == "nan":
        return np.where(np.arange(120) == 60, np.nan, 100.0)
    if kind == "2-d":
        return np.full((120, 1), 100.0)
    return np.full({"short": 20, "short after differencing": 35}[kind], 100.0)


@pytest.mark.parametrize(
    "first, later, message",
    [
        ("nan", "short", "series contains non-finite values"),
        ("short", "nan", "series too short to identify orders: need >= 32, got 20"),
        ("short after differencing", "nan",
         "series too short after differencing for the given orders"),
        ("nan", "short after differencing", "series contains non-finite values"),
        ("2-d", "nan", "series must be one-dimensional"),
        ("nan", "2-d", "series contains non-finite values"),
    ],
)
@pytest.mark.parametrize("stacks", [(0, 1), (1, 2)], ids=["first-stack", "later-stack"])
def test_fit_many_names_the_first_bad_window_in_window_order(first, later, message, stacks):
    # Good 120-day windows fill three stacks. The first bad window sits in
    # the first or the second of them, the later one in the stack after it.
    windows = [np.full(120, 100.0 + i) for i in range(3 * forecast.STACK)]
    i, j = (stack * forecast.STACK + 1 for stack in stacks)
    windows[i], windows[j] = _bad_window(first), _bad_window(later)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        fit_sarima_many(windows, SarimaOrders(1, 0, 0, 3, 2, 0, 7))


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


@pytest.mark.parametrize(
    "orders, seed, intercept, value",
    [
        # p >= s: the lag-s collision of _expand, where two products add.
        (SarimaOrders(8, 0, 0, 1, 0, 0, 7), 21, "0x1.86cd273f4a047p+6", "0x1.8a08ec944179cp+6"),
        # With both differencings undone, and an intercept whose bits move
        # if phi(1) adds its coefficients in another order.
        (SarimaOrders(7, 1, 0, 1, 1, 0, 7), 21, "-0x1.1a40f56219790p-8", "0x1.83f84124523fbp+6"),
        (SarimaOrders(7, 1, 0, 1, 1, 0, 7), 24, "0x1.9c118be3c9482p-7", "0x1.87a24ffd3017bp+6"),
    ],
    ids=["p8", "differenced", "differenced-sum-order"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_high_order_intercept_and_forecast_are_pinned(orders, seed, intercept, value):
    # Recorded with the per-window intercept and the scalar one-step loop.
    model = fit_sarima(seasonal_series(200, seed=seed), orders)
    assert (model.intercept.hex(), forecast_one(model).hex()) == (intercept, value)


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


def test_fit_many_warns_per_fit_in_window_order(monkeypatch):
    # Beside a flat window, explosive windows whose fits leave the
    # stationary region in both factors or in PHI alone. With the round cap
    # at 4 the two that leave it in both also stop short.
    t = np.arange(120)
    windows = [
        100.0 * 1.03**t * (1.0 + 0.5 * (t % 7 == 0) * 1.02**t),
        np.full(120, 100.0),
        100.0 * 1.02**t + 5.0 * (-1.02) ** t,
        100.0 + np.where(t % 7 == 3, 1.04**t, 0.0),
    ]
    monkeypatch.setattr(forecast, "MAX_ROUNDS", 4)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        models = fit_sarima_many(windows, ORDERS_WEEKLY)
    cap = "SARIMA search hit the iteration cap; returning best coefficients so far"
    ar, sar = (f"fitted {name} coefficient outside the stationary region: " for name in
               ("ar", "seasonal ar"))
    a, _, c, d = models
    assert [m.converged for m in models] == [False, True, False, True]
    assert [str(w.message) for w in caught] == [
        cap, f"{ar}{a.ar_coeffs}", f"{sar}{a.seasonal_ar_coeffs}",
        cap, f"{ar}{c.ar_coeffs}", f"{sar}{c.seasonal_ar_coeffs}",
        f"{sar}{d.seasonal_ar_coeffs}",
    ]
    assert {w.filename for w in caught} == {__file__}
    assert abs(a.ar_coeffs[0]) >= 1.0 and abs(c.seasonal_ar_coeffs[0]) >= 1.0
    assert abs(d.ar_coeffs[0]) < 1.0 <= abs(d.seasonal_ar_coeffs[0])


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


def test_forecast_many_is_each_forecast_one():
    series = seasonal_series(400, seed=9)
    models = fit_sarima_many([series[-n:] for n in (60, 200, 365)], ORDERS_WEEKLY)
    assert [v.hex() for v in forecast_many(models).tolist()] == [
        forecast_one(m).hex() for m in models
    ]
    assert forecast_many([]).shape == (0,)
    with pytest.raises(ValueError, match="models of one orders"):
        forecast_many([models[0], fit_sarima(series, ORDERS_AR1)])


def forecast_by_expand(model):
    """forecast_one by each model's own _expand convolution and scalar loops,
    one model at a time, on its tail and the tail differenced."""
    o = model.orders
    ar = forecast._expand(model.ar_coeffs, model.seasonal_ar_coeffs, o.s).tolist()
    diff_tail = forecast._difference(model._tail, o.d, o.D, o.s).tolist()
    mu, level_tail = model.intercept, model._tail.tolist()
    w = 0.0
    for k in range(1, len(ar)):
        if ar[k] != 0.0:
            w = w - ar[k] * (diff_tail[-k] - mu)
    y = mu + w
    for k, c in enumerate(forecast._diff_poly(o.d, o.D, o.s).tolist()):
        if k and c != 0.0:
            y = y - c * level_tail[-k]
    return y if y > 0.0 else 0.0


@pytest.mark.parametrize(
    "orders",
    [
        SarimaOrders(1, 0, 0, 1, 0, 0, 7),  # the default orders, the only ones a workload runs
        SarimaOrders(1, 0, 0, 0, 0, 0, 7),  # p < s, P = 0
        SarimaOrders(0, 0, 0, 1, 0, 0, 7),  # p = 0
        SarimaOrders(0, 1, 0, 2, 1, 0, 7),
        SarimaOrders(6, 0, 0, 2, 0, 0, 7),  # p < s, the largest p
        SarimaOrders(8, 0, 0, 1, 0, 0, 7),  # p >= s, two products share lag s
    ],
    ids=["default", "p1-P0", "p0", "p0-differenced", "p6", "p8"],
)
def test_forecast_many_equals_the_expand_convolution_bitwise(orders):
    series = seasonal_series(400, seed=13)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        models = fit_sarima_many([series[-n:] for n in (60, 90, 200, 365, 400)], orders)
    assert [v.hex() for v in forecast_many(models).tolist()] == [
        forecast_by_expand(m).hex() for m in models
    ]


def test_seasonal_naive_returns_one_season_back():
    series = np.arange(1.0, 11.0)
    assert seasonal_naive(series, 7) == 4.0


def test_seasonal_naive_short_series_rejected():
    with pytest.raises(ValueError):
        seasonal_naive(np.arange(5.0), 7)


# --- CSV loaders -------------------------------------------------------------


WEATHER_HEADER = "site_id,day_index,ghi_w_m2,wind_speed_ms\n"
DEMAND_HEADER = "load_id,day_index,demand_mwd\n"

WEATHER_CSV = WEATHER_HEADER + """coastal,0,500.0,8.0
coastal,1,450.0,9.5
inland,1,580.0,3.5
inland,0,620.0,4.0
inland,3,610.0,3.0
"""


def arrays(by_key):
    return {key: [a.tolist() for a in value] if isinstance(value, tuple) else value.tolist()
            for key, value in by_key.items()}


def test_load_weather_csv_roundtrip(tmp_path):
    # Per site, (ghi, wind) by day from day 0 up to its first missing day:
    # inland's day 3 lies past its gap at day 2.
    path = tmp_path / "weather.csv"
    path.write_text(WEATHER_CSV)
    assert arrays(load_weather_csv(path)) == {
        "coastal": [[500.0, 450.0], [8.0, 9.5]],
        "inland": [[620.0, 580.0], [4.0, 3.5]],
    }


def test_load_weather_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "weather.csv"
    path.write_text("site,day,ghi,wind\ncoastal,0,1,2\n")
    with pytest.raises(ValueError, match="weather csv header must be"):
        load_weather_csv(path)


def test_load_weather_csv_rejects_duplicate_key(tmp_path):
    path = tmp_path / "weather.csv"
    path.write_text(WEATHER_HEADER + "coastal,0,500.0,8.0\ncoastal,0,400.0,7.0\n")
    with pytest.raises(ValueError, match="row 3: duplicate sample for site coastal day 0"):
        load_weather_csv(path)


def test_load_weather_csv_rejects_negative_values(tmp_path):
    path = tmp_path / "weather.csv"
    path.write_text(WEATHER_HEADER + "coastal,0,-5.0,8.0\n")
    with pytest.raises(ValueError, match="row 2: ghi must be finite and >= 0, got -5.0"):
        load_weather_csv(path)
    path.write_text(WEATHER_HEADER + "inland,0,1.0,1.0\ncoastal,-1,5.0,8.0\n")
    with pytest.raises(ValueError, match="row 3: day_index must be >= 0, got -1"):
        load_weather_csv(path)


@pytest.mark.parametrize("row", ["coastal,0,nan,8.0", "coastal,0,500.0,inf", "coastal,0,-inf,8.0"])
def test_load_weather_csv_rejects_non_finite_values(tmp_path, row):
    path = tmp_path / "weather.csv"
    path.write_text(f"{WEATHER_HEADER}inland,0,1.0,1.0\n{row}\n")
    with pytest.raises(ValueError, match="row 3: .*finite"):
        load_weather_csv(path)


def test_load_demand_csv_roundtrip(tmp_path):
    path = tmp_path / "demand.csv"
    path.write_text(DEMAND_HEADER + "1,1,95.0\n0,0,100.0\n0,1,110.0\n1,0,90.0\n")
    series = load_demand_csv(path)
    assert list(series) == [0, 1]
    assert arrays(series) == {0: [100.0, 110.0], 1: [90.0, 95.0]}


def test_load_demand_csv_rejects_gaps(tmp_path):
    path = tmp_path / "demand.csv"
    path.write_text(DEMAND_HEADER + "0,0,100.0\n0,2,110.0\n")
    with pytest.raises(ValueError, match="load 0: day indices must be gap-free from 0"):
        load_demand_csv(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_demand_csv_rejects_non_finite(tmp_path, value):
    path = tmp_path / "demand.csv"
    path.write_text(f"{DEMAND_HEADER}0,0,100.0\n0,1,{value}\n")
    with pytest.raises(ValueError, match="row 3: demand must be finite"):
        load_demand_csv(path)


# Each case: the file body after a good first row (file row 2) and a blank
# line (row 3), so that the bad row is file row 4 unless a case says otherwise,
# and the message its rejection must give.
WEATHER_REJECTIONS = {
    "two fields": ("inland,1", "row 4: expected 4 fields, got 2"),
    "five fields": ("inland,1,1.0,1.0,1.0", "row 4: expected 4 fields, got 5"),
    "fractional day": ("inland,1.0,1.0,1.0",
                       "row 4: day_index must be an ASCII decimal integer within 64 bits, got '1.0'"),
    "letter day": ("inland,x,1.0,1.0",
                   "row 4: day_index must be an ASCII decimal integer within 64 bits, got 'x'"),
    "underscore": ("inland,1,1_000,1.0",
                   "row 4: ghi_w_m2 must be an ASCII decimal number, got '1_000'"),
    "arabic-indic digit": ("inland,\u0661,1.0,1.0",
                           "row 4: day_index must be an ASCII decimal integer within 64 bits, "
                           "got '\u0661'"),
    "fullwidth digit": ("inland,1,1.0,\uff15",
                        "row 4: wind_speed_ms must be an ASCII decimal number, got '\uff15'"),
    "empty field": ("inland,1,,1.0", "row 4: ghi_w_m2 must be an ASCII decimal number, got ''"),
    "negative day": ("inland,-1,1.0,1.0", "row 4: day_index must be >= 0, got -1"),
    "nan": ("inland,1,nan,1.0", "row 4: ghi must be finite and >= 0, got nan"),
    "inf": ("inland,1,1.0,inf", "row 4: wind speed must be finite and >= 0, got inf"),
    "-inf": ("inland,1,-inf,1.0", "row 4: ghi must be finite and >= 0, got -inf"),
    "1e400": ("inland,1,1e400,1.0", "row 4: ghi must be finite and >= 0, got inf"),
    "negative": ("inland,1,1.0,-0.5", "row 4: wind speed must be finite and >= 0, got -0.5"),
    "duplicate": ("inland,0,1.0,1.0", "row 4: duplicate sample for site inland day 0"),
    # The first bad row is named, even when a later row does not parse.
    "bad value before unreadable row": ("inland,1,-1.0,1.0\ninland,x,1.0,1.0",
                                        "row 4: ghi must be finite and >= 0, got -1.0"),
    "unreadable row before bad value": ("inland,x,1.0,1.0\ninland,1,-1.0,1.0",
                                        "row 4: day_index must be an ASCII decimal integer"),
    "blank-only line": ("   ", "row 4: expected 4 fields, got 1"),
}

DEMAND_REJECTIONS = {
    "two fields": ("0,1", "row 4: expected 3 fields, got 2"),
    "four fields": ("0,1,1.0,1.0", "row 4: expected 3 fields, got 4"),
    "fractional day": ("0,1.0,1.0",
                       "row 4: day_index must be an ASCII decimal integer within 64 bits, got '1.0'"),
    "letter day": ("0,x,1.0",
                   "row 4: day_index must be an ASCII decimal integer within 64 bits, got 'x'"),
    "letter load": ("a,1,1.0",
                    "row 4: load_id must be an ASCII decimal integer within 64 bits, got 'a'"),
    "underscore": ("0,1,1_000", "row 4: demand_mwd must be an ASCII decimal number, got '1_000'"),
    "arabic-indic digit": ("0,\u0661,1.0",
                           "row 4: day_index must be an ASCII decimal integer within 64 bits, "
                           "got '\u0661'"),
    "day past int64": ("0,9223372036854775808,1.0",
                       "row 4: day_index must be an ASCII decimal integer within 64 bits"),
    "negative day": ("0,-1,1.0", "row 4: negative day index -1"),
    "nan": ("0,1,nan", "row 4: demand must be finite and >= 0, got nan"),
    "inf": ("0,1,inf", "row 4: demand must be finite and >= 0, got inf"),
    "-inf": ("0,1,-inf", "row 4: demand must be finite and >= 0, got -inf"),
    "1e400": ("0,1,1e400", "row 4: demand must be finite and >= 0, got inf"),
    "negative": ("0,1,-0.5", "row 4: demand must be finite and >= 0, got -0.5"),
    "duplicate": ("0,0,1.0", "row 4: duplicate day 0 for load 0"),
    "gap": ("0,2,1.0\n1,0,1.0", "load 0: day indices must be gap-free from 0"),
    "gap in a later load": ("0,1,1.0\n5,0,1.0\n5,2,1.0", "load 5: day indices must be gap-free"),
    "bad value before unreadable row": ("0,1,-1.0\n0,x,1.0",
                                        "row 4: demand must be finite and >= 0, got -1.0"),
    "blank-only line": ("   ", "row 4: expected 3 fields, got 1"),
}


@pytest.mark.parametrize("body, message", WEATHER_REJECTIONS.values(), ids=WEATHER_REJECTIONS)
def test_load_weather_csv_rejection_names_the_row(tmp_path, body, message):
    path = tmp_path / "weather.csv"
    path.write_text(f"{WEATHER_HEADER}inland,0,1.0,1.0\n\n{body}\n")
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        load_weather_csv(path)


@pytest.mark.parametrize("body, message", DEMAND_REJECTIONS.values(), ids=DEMAND_REJECTIONS)
def test_load_demand_csv_rejection_names_the_row(tmp_path, body, message):
    path = tmp_path / "demand.csv"
    path.write_text(f"{DEMAND_HEADER}0,0,1.0\n\n{body}\n")
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        load_demand_csv(path)


@pytest.mark.parametrize("loader, what, header", [
    (load_weather_csv, "weather", WEATHER_HEADER), (load_demand_csv, "demand", DEMAND_HEADER)])
@pytest.mark.parametrize("text", ["", "\n", "site_id,day\n", "load_id,day_index,demand\n0,0,1\n"])
def test_load_csv_rejects_a_bad_header(tmp_path, loader, what, header, text):
    path = tmp_path / "data.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{what} csv header must be {header.strip()}, got "):
        loader(path)


@pytest.mark.parametrize("loader", [load_weather_csv, load_demand_csv])
@pytest.mark.parametrize("tail", ["", "\n", "\n\n", "\r\n"])
def test_load_csv_header_only_file_is_empty(tmp_path, loader, tail):
    header = WEATHER_HEADER if loader is load_weather_csv else DEMAND_HEADER
    path = tmp_path / "data.csv"
    path.write_bytes((header.strip() + tail).encode())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert loader(path) == {}


def test_load_csv_reads_quoted_fields_crlf_and_blanks_around_numbers(tmp_path):
    path = tmp_path / "demand.csv"
    path.write_bytes(b'"load_id","day_index","demand_mwd"\r\n"0","0","5"\r\n 0 , +1 , 2.5e1 \r\n')
    assert arrays(load_demand_csv(path)) == {0: [5.0, 25.0]}
    path = tmp_path / "weather.csv"
    path.write_text(WEATHER_HEADER + '"hill, north",0,1.0,2.0\n')
    assert arrays(load_weather_csv(path)) == {"hill, north": [[1.0], [2.0]]}


finite = st.floats(min_value=0.0, allow_infinity=False, allow_nan=False)


@settings(deadline=None, max_examples=60)
@given(values=st.lists(st.tuples(finite, finite, finite), min_size=1, max_size=40))
def test_load_csv_round_trips_repr_floats_bit_for_bit(tmp_path_factory, values):
    # Floats written with repr load back with the same bits, as float() reads them.
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    rows = [f"{k % 3},{k // 3},{d!r}" for k, (d, _, _) in enumerate(values)]
    path.write_text(DEMAND_HEADER + "\n".join(rows) + "\n")
    loaded = load_demand_csv(path)
    want = {load: [d for k, (d, _, _) in enumerate(values) if k % 3 == load] for load in loaded}
    assert {load: [v.hex() for v in a.tolist()] for load, a in loaded.items()} == {
        load: [float(v).hex() for v in vs] for load, vs in want.items()}

    rows = [f"site{k % 2},{k // 2},{g!r},{w!r}" for k, (_, g, w) in enumerate(values)]
    path.write_text(WEATHER_HEADER + "\n".join(rows) + "\n")
    for site, (ghi, wind) in load_weather_csv(path).items():
        mine = [(g, w) for k, (_, g, w) in enumerate(values) if f"site{k % 2}" == site]
        assert [v.hex() for v in ghi.tolist()] == [g.hex() for g, _ in mine]
        assert [v.hex() for v in wind.tolist()] == [w.hex() for _, w in mine]
