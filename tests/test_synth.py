"""Unit tests for the synthetic weather, demand, and wear generators."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hybridgrid import (
    SynthDemandParams,
    SynthWeatherParams,
    synth_demand,
    synth_weather,
    wear_multipliers,
)
from hybridgrid.synth import _ar1_noise, _rng, normal_cdf

ROOT = Path(__file__).resolve().parents[1]


def test_normal_cdf_of_zero_is_one_half():
    assert normal_cdf(np.array([0.0, -0.0])).tolist() == [0.5, 0.5]


def test_normal_cdf_is_symmetric_within_two_ulp():
    x = 4.0 * np.random.default_rng(5).standard_normal(100_000)
    gap = np.abs(normal_cdf(x) + normal_cdf(-x) - 1.0)
    assert gap.max() <= 2 * np.spacing(1.0)


def test_normal_cdf_agrees_with_scipy_ndtr():
    special = pytest.importorskip("scipy.special")
    x = np.random.default_rng(7).standard_normal(100_000)
    assert np.abs(normal_cdf(x) - special.ndtr(x)).max() <= 2.3e-16


def numpy_ar1_noise(g, rho):
    """The AR(1) recurrence on numpy scalars, as a reference."""
    out = np.empty(len(g))
    scale = np.sqrt(1.0 - rho * rho)
    prev = g[0]
    out[0] = prev
    for t in range(1, len(g)):
        prev = rho * prev + scale * g[t]
        out[t] = prev
    return out


@pytest.mark.parametrize("rho", [0.1, 0.5, 0.9, 0.999])
def test_ar1_noise_matches_numpy_scalar_recurrence_bitwise(rho):
    for seed, days in [(1, 1), (2, 2), (3, 365), (4, 730), (5, 3650)]:
        g = _rng(seed, 1, 7).standard_normal(days)
        got = _ar1_noise(_rng(seed, 1, 7), days, rho)
        assert got.tobytes() == numpy_ar1_noise(g, rho).tobytes()


def test_import_loads_no_scipy():
    code = (
        "import sys, hybridgrid, hybridgrid.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_synth_weather_is_deterministic():
    a = synth_weather(seed=3, days=50, site="coastal")
    b = synth_weather(seed=3, days=50, site="coastal")
    assert [x.tolist() for x in a] == [x.tolist() for x in b]


def test_synth_weather_sites_differ():
    a = synth_weather(seed=3, days=50, site="coastal")
    b = synth_weather(seed=3, days=50, site="inland")
    assert a[0].tolist() != b[0].tolist()


def test_synth_weather_seeds_differ():
    a = synth_weather(seed=3, days=50, site="coastal")
    b = synth_weather(seed=4, days=50, site="coastal")
    assert a[1].tolist() != b[1].tolist()


def test_synth_weather_shape_and_metadata():
    # An irradiance and a wind-speed array, one float64 value a day.
    ghi, wind = synth_weather(seed=1, days=30, site="x")
    assert ghi.shape == wind.shape == (30,)
    assert ghi.dtype == wind.dtype == np.float64


def test_synth_weather_values_physical():
    params = SynthWeatherParams(cloud_ar=0.6, wind_ar=0.5)
    ghi, wind = synth_weather(seed=9, days=730, site="w", params=params)
    ceiling = params.ghi_base * (1.0 + params.ghi_seasonal_amplitude)
    assert 0.0 <= ghi.min() and ghi.max() <= ceiling + 1e-9
    assert wind.min() >= 0.0


def test_synth_weather_cloud_floor_bounds_darkening():
    # With cloud_floor f, attenuation never drops below f of the clear-sky value.
    params = SynthWeatherParams(cloud_floor=0.4, ghi_seasonal_amplitude=0.0)
    ghi, _ = synth_weather(seed=2, days=365, site="w", params=params)
    assert ghi.min() >= 0.4 * params.ghi_base - 1e-9


@pytest.mark.parametrize(
    "params, name",
    [
        (SynthWeatherParams(ghi_base=1e308, ghi_seasonal_amplitude=1.0), "ghi"),
        (SynthWeatherParams(wind_base=1e308, wind_seasonal_amplitude=1e308), "wind speed"),
    ],
)
def test_synth_weather_rejects_non_finite_series(recwarn, params, name):
    with pytest.raises(ValueError, match=f"synthetic {name} for site 'w' is not finite"):
        synth_weather(seed=1, days=365, site="w", params=params)
    assert not recwarn.list


def test_synth_demand_deterministic_and_shaped():
    base = {0: 100.0, 1: 50.0}
    a = synth_demand(seed=5, days=28, base_by_load=base)
    b = synth_demand(seed=5, days=28, base_by_load=base)
    assert set(a) == {0, 1}
    for lid in a:
        assert np.array_equal(a[lid], b[lid])
        assert len(a[lid]) == 28
        assert np.all(a[lid] >= 0.0)


def test_synth_demand_weekly_shape_visible():
    params = SynthDemandParams(
        weekly_shape=(2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.5), noise_sd=0.0
    )
    series = synth_demand(seed=1, days=14, base_by_load={0: 100.0}, params=params)[0]
    assert series[0] == pytest.approx(200.0)
    assert series[6] == pytest.approx(50.0)
    assert series[7] == pytest.approx(200.0)


def test_synth_demand_scales_with_base():
    params = SynthDemandParams(noise_sd=0.0)
    series = synth_demand(seed=1, days=7, base_by_load={0: 100.0, 1: 200.0}, params=params)
    assert np.allclose(series[1], 2.0 * series[0])


def test_wear_multipliers_deterministic_per_system():
    a = wear_multipliers(seed=7, system_id=1, n_units=10, spread=0.8)
    b = wear_multipliers(seed=7, system_id=1, n_units=10, spread=0.8)
    c = wear_multipliers(seed=7, system_id=2, n_units=10, spread=0.8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_wear_multipliers_bounded():
    m = wear_multipliers(seed=3, system_id=1, n_units=1000, spread=2.0)
    assert np.all(m >= 0.05)
    m2 = wear_multipliers(seed=3, system_id=1, n_units=1000, spread=0.5)
    assert np.all(m2 >= 0.5 - 1e-12)
    assert np.all(m2 <= 1.5 + 1e-12)


def test_wear_multipliers_zero_spread_is_unity():
    m = wear_multipliers(seed=3, system_id=1, n_units=5, spread=0.0)
    assert np.allclose(m, 1.0)
