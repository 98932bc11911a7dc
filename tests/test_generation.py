"""Unit tests for the solar and wind generation models."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridgrid import (
    BETZ_LIMIT,
    SolarPlantParams,
    WindPlantParams,
    solar_power,
    wind_power,
)

SOLAR_SMALL = SolarPlantParams(area_m2=900_000.0, efficiency=0.21)
SOLAR_LARGE = SolarPlantParams(area_m2=1_500_000.0, efficiency=0.21)
WIND_SMALL = WindPlantParams(
    power_coefficient=0.4,
    air_density=1.225,
    rotor_area_m2=10_000.0,
    turbine_count=50,
    cut_in_ms=3.0,
    cut_out_ms=25.0,
)


def test_solar_power_reference_plant():
    # 1000 W/m2 x 900,000 m2 x 0.21 = 189 MW
    assert solar_power(1000.0, SOLAR_SMALL) == pytest.approx(189.0, rel=1e-12)


def test_solar_power_scales_linearly_in_irradiance():
    base = solar_power(400.0, SOLAR_LARGE)
    assert solar_power(800.0, SOLAR_LARGE) == pytest.approx(2.0 * base, rel=1e-12)


def test_solar_power_zero_irradiance():
    assert solar_power(0.0, SOLAR_SMALL) == 0.0


def test_solar_power_rejects_negative_irradiance():
    with pytest.raises(ValueError):
        solar_power(-1.0, SOLAR_SMALL)


def test_solar_params_reject_bad_efficiency():
    with pytest.raises(ValueError):
        SolarPlantParams(area_m2=1000.0, efficiency=0.0)
    with pytest.raises(ValueError):
        SolarPlantParams(area_m2=1000.0, efficiency=1.2)
    with pytest.raises(ValueError):
        SolarPlantParams(area_m2=-5.0, efficiency=0.2)


def test_wind_power_reference_plant():
    # 0.5 x 0.4 x 1.225 x 10,000 x 10^3 = 2.45 MW per turbine; 50 turbines = 122.5 MW
    assert wind_power(10.0, WIND_SMALL) == pytest.approx(122.5, rel=1e-12)


def test_wind_power_cubic_in_speed():
    one = wind_power(5.0, WIND_SMALL)
    two = wind_power(10.0, WIND_SMALL)
    assert two == pytest.approx(8.0 * one, rel=1e-12)


def test_wind_power_cut_in_boundary_produces_power():
    assert wind_power(3.0, WIND_SMALL) > 0.0
    assert wind_power(2.999, WIND_SMALL) == 0.0


def test_wind_power_cut_out_boundary_produces_power():
    assert wind_power(25.0, WIND_SMALL) > 0.0
    assert wind_power(25.001, WIND_SMALL) == 0.0


def test_wind_power_scales_with_turbine_count():
    double = WindPlantParams(
        power_coefficient=0.4,
        air_density=1.225,
        rotor_area_m2=10_000.0,
        turbine_count=100,
        cut_in_ms=3.0,
        cut_out_ms=25.0,
    )
    assert wind_power(10.0, double) == pytest.approx(245.0, rel=1e-12)


def test_wind_power_rejects_negative_speed():
    with pytest.raises(ValueError):
        wind_power(-0.1, WIND_SMALL)


def test_wind_params_reject_super_betz_coefficient():
    with pytest.raises(ValueError):
        WindPlantParams(
            power_coefficient=BETZ_LIMIT + 0.01,
            air_density=1.225,
            rotor_area_m2=10_000.0,
            turbine_count=1,
            cut_in_ms=3.0,
            cut_out_ms=25.0,
        )


def test_wind_params_reject_inverted_cut_speeds():
    with pytest.raises(ValueError):
        WindPlantParams(
            power_coefficient=0.4,
            air_density=1.225,
            rotor_area_m2=10_000.0,
            turbine_count=1,
            cut_in_ms=10.0,
            cut_out_ms=5.0,
        )


# --- array and scalar calls -------------------------------------------------


@st.composite
def wind_plants_and_speeds(draw):
    cut_in = draw(st.floats(0.0, 10.0))
    cut_out = draw(st.floats(cut_in + 0.5, 60.0))
    params = WindPlantParams(
        power_coefficient=draw(st.floats(0.05, BETZ_LIMIT)),
        air_density=draw(st.floats(0.5, 1.5)),
        rotor_area_m2=draw(st.floats(100.0, 50_000.0)),
        turbine_count=draw(st.integers(1, 500)),
        cut_in_ms=cut_in,
        cut_out_ms=cut_out,
    )
    edges = [0.0, cut_in, cut_out]
    edges += [math.nextafter(c, to) for c in (cut_in, cut_out) for to in (0.0, math.inf)]
    speed = st.one_of(st.sampled_from(edges), st.floats(0.0, 100.0))
    return params, draw(st.lists(speed, min_size=1, max_size=60))


@st.composite
def solar_plants_and_irradiances(draw):
    params = SolarPlantParams(
        area_m2=draw(st.floats(1.0, 5e6)), efficiency=draw(st.floats(0.01, 1.0))
    )
    ghi = st.one_of(st.just(0.0), st.floats(0.0, 2_000.0))
    return params, draw(st.lists(ghi, min_size=1, max_size=60))


def hexes(values):
    return [float(v).hex() for v in values]


@settings(deadline=None, max_examples=300)
@given(wind_plants_and_speeds())
def test_wind_power_array_equals_scalar_calls_bitwise(case):
    # The engine computes a whole series in one call; each element must carry
    # the bits of a scalar call and of the formula in plain Python floats, the
    # cube included (numpy's ** is not libm's pow).
    params, speeds = case
    scalar = [wind_power(v, params) for v in speeds]
    assert all(type(mw) is float for mw in scalar)
    array = wind_power(np.array(speeds), params)
    assert array.dtype == np.float64 and array.shape == (len(speeds),)
    assert hexes(array.tolist()) == hexes(scalar)
    cp_rho_a = params.power_coefficient * params.air_density * params.rotor_area_m2
    formula = [0.0 if v < params.cut_in_ms or v > params.cut_out_ms
               else params.turbine_count * (cp_rho_a * v**3 / 2.0) / 1e6 for v in speeds]
    assert hexes(scalar) == hexes(formula)


@pytest.mark.parametrize("speed", [1e150, np.array([10.0, 1e150])], ids=["float", "array"])
def test_wind_power_raises_on_a_cube_that_overflows(speed):
    params = WindPlantParams(cut_out_ms=1e300)
    with pytest.raises(OverflowError):
        wind_power(speed, params)


@settings(deadline=None, max_examples=300)
@given(solar_plants_and_irradiances())
def test_solar_power_array_equals_scalar_calls_bitwise(case):
    params, irradiances = case
    scalar = [solar_power(g, params) for g in irradiances]
    assert all(type(mw) is float for mw in scalar)
    array = solar_power(np.array(irradiances), params)
    assert array.dtype == np.float64 and array.shape == (len(irradiances),)
    assert hexes(array.tolist()) == hexes(scalar)


@pytest.mark.parametrize("power, params", [(solar_power, SOLAR_SMALL), (wind_power, WIND_SMALL)])
def test_array_call_rejects_a_negative_element(power, params):
    with pytest.raises(ValueError, match="must be >= 0, got -0.5"):
        power(np.array([10.0, -0.5, 5.0]), params)
