"""Unit tests for the solar and wind generation models."""

import pytest

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

