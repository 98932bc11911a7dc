"""Walk through the two renewable generation models.

Shows how plant parameters turn weather into megawatts: linear irradiance
response for solar farms, cubic wind response between the cut-in and cut-out
speeds for turbine parks, and the one-day energy convention that the rest of
the package builds on.
"""

from hybridgrid import SolarPlantParams, WindPlantParams, solar_power, wind_power


def main():
    print("=== Solar farm ===")
    solar = SolarPlantParams(area_m2=900_000.0, efficiency=0.21)
    for ghi in (200.0, 600.0, 1000.0):
        mw = solar_power(ghi, solar)
        # A constant MW held over the one-day tick is the same number of MWd.
        print(f"  irradiance {ghi:6.1f} W/m2 -> {mw:7.2f} MW ({mw:7.2f} MWd over the day)")

    print()
    print("=== Wind park (50 turbines) ===")
    wind = WindPlantParams(
        power_coefficient=0.4,
        air_density=1.225,
        rotor_area_m2=10_000.0,
        turbine_count=50,
        cut_in_ms=3.0,
        cut_out_ms=25.0,
    )
    print("  power rises with the cube of wind speed inside the operating band:")
    for speed in (2.0, 3.0, 5.0, 10.0, 20.0, 25.0, 26.0):
        mw = wind_power(speed, wind)
        note = ""
        if speed < wind.cut_in_ms:
            note = "  (below cut-in: parked)"
        elif speed > wind.cut_out_ms:
            note = "  (above cut-out: feathered for safety)"
        print(f"  wind {speed:5.1f} m/s -> {mw:7.2f} MW{note}")

    print()
    print("Doubling rotor sweep or turbine count scales the park linearly;")
    print("doubling wind speed multiplies output by eight until cut-out.")


if __name__ == "__main__":
    main()
