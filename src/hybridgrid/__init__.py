"""hybridgrid: daily-tick simulator for hybrid renewable grids with
two-level priority battery charging and unit-health-aware distribution."""

from .dispatch import (
    CHARGE_BUFFER,
    ChargeAllocation,
    ChargeTarget,
    DischargeAssignment,
    allocate_equal,
    allocate_priority,
    compute_charge_targets,
    discharge_shares,
    prioritize,
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
    forecast_one,
    load_demand_csv,
    load_weather_csv,
    predict_generation,
    seasonal_naive,
)
from .generation import (
    BETZ_LIMIT,
    SolarPlantParams,
    WindPlantParams,
    daily_energy,
    solar_power,
    wind_power,
)
from .health import (
    apply_discharge,
    degrade_on_charge,
    degrade_on_discharge,
    distribute_charge_equal,
    distribute_charge_ranked,
    rank_units,
    unit_score,
)
from .model import (
    BatteryUnit,
    EnergySource,
    GridTopology,
    LoadCenter,
    StorageSystem,
    Violation,
    reference_topology,
    stored_energy,
    system_headroom,
    system_soc,
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
)
from .synth import (
    SynthDemandParams,
    SynthWeatherParams,
    synth_demand,
    synth_weather,
    wear_multipliers,
)

__version__ = "0.1.0"
