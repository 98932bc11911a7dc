"""hybridgrid: daily-tick simulator for hybrid renewable grids with
two-level priority battery charging and unit-health-aware distribution."""

from .dispatch import (
    CHARGE_BUFFER,
    allocate_equal,
    allocate_priority,
    charge_deficits,
    charge_targets,
    prioritize,
    settle_loads,
    split_equally,
)
from .engine import (
    ComparisonReport,
    DailyRecord,
    SimulationError,
    SimulationState,
    SimulationTrace,
    TraceSummary,
    atomic_write_text,
    build_inputs,
    compare,
    comparison_csv,
    comparison_series_csv,
    initialize_state,
    run_simulation,
    step_day,
    summary_csv,
    trace_csv,
)
from .forecast import (
    DEFAULT_ORDERS,
    SarimaModel,
    SarimaOrders,
    WeatherSample,
    fit_sarima,
    fit_sarima_many,
    forecast_many,
    forecast_one,
    load_demand_csv,
    load_weather_csv,
    seasonal_naive,
)
from .generation import (
    BETZ_LIMIT,
    SolarPlantParams,
    WindPlantParams,
    solar_power,
    wind_power,
)
from .health import GridUnits, split_equally_rows
from .model import (
    EnergySource,
    GridTopology,
    LoadCenter,
    StorageSystem,
    Violation,
    validate_topology,
)
from .scenario import (
    DegradationConfig,
    DemandConfig,
    ForecastingConfig,
    ScenarioConfig,
    ScoreWeights,
    WeatherConfig,
    load_scenario,
    parse_scenario,
    reference_topology,
)
from .synth import (
    SynthDemandParams,
    SynthWeatherParams,
    synth_demand,
    synth_weather,
    wear_multipliers,
)

__version__ = "0.1.0"
