"""Command-line front end.

Subcommands: validate, simulate, compare, forecast. Exit codes: 0 success,
1 validation failure, 2 I/O failure, 3 simulation failure.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np

from .engine import (
    SimulationError,
    atomic_write_text,
    compare,
    comparison_csv,
    comparison_series_csv,
    run_simulation,
    summary_csv,
    trace_csv,
)
from .forecast import (
    DEFAULT_ORDERS,
    SarimaOrders,
    fit_sarima_many,
    forecast_many,
    load_demand_csv,
)
from .model import total, validate_topology
from .scenario import MAX_DAYS, MAX_SEED, RUN_KEYS, load_scenario

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_SIMULATION = 3


def _on_off(value: str) -> bool:
    if value not in ("on", "off"):
        raise argparse.ArgumentTypeError(f"expected on|off, got {value!r}")
    return value == "on"


def _integer(text: str) -> int:
    """An integer as the scenario's JSON and CSV files take one: ASCII digits
    after an optional sign, spaces around. int() alone also takes '1_0' and
    non-ASCII digits."""
    if not re.fullmatch(r" *[+-]?[0-9]+ *", text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _load(config_path: str, args):
    """The scenario, each run key given as a flag (the flag's dest) overridden."""
    if args.seed is not None and not 0 <= args.seed <= MAX_SEED:
        raise ValueError(f"--seed must be in [0, {MAX_SEED}], got {args.seed}")
    run = {key: getattr(args, key) for key in RUN_KEYS if getattr(args, key, None) is not None}
    return load_scenario(config_path, run)


def cmd_validate(args) -> int:
    cfg, topology = load_scenario(args.config)
    violations = validate_topology(topology)
    if violations:
        for v in violations:
            print(f"violation: {v}")
        return EXIT_VALIDATION
    print(
        f"ok: {len(topology.systems)} systems, {len(topology.loads)} loads, "
        f"{len(topology.sources)} sources, {cfg.days} days"
    )
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg, topology = _load(args.config, args)
    trace = run_simulation(cfg, topology)
    out = Path(args.out)
    atomic_write_text(out / "trace.csv", trace_csv(trace))
    atomic_write_text(out / "summary.csv", summary_csv(trace))
    atomic_write_text(
        out / "config-echo.json", json.dumps(trace.config_echo, indent=2, sort_keys=True) + "\n"
    )
    zero_total = sum(trace.summary.zero_soc_events.values())
    print(
        f"simulated {cfg.days} days: zero-SoC events {zero_total}, "
        f"unmet {trace.summary.total_unmet_mwd:.3f} MWd, "
        f"curtailed {trace.summary.total_curtailed_mwd:.3f} MWd"
    )
    return EXIT_OK


def cmd_compare(args) -> int:
    cfg, topology = _load(args.config, args)
    report = compare(cfg, topology, args.axis)
    out = Path(args.out)
    atomic_write_text(out / "comparison.csv", comparison_csv(report))
    atomic_write_text(out / "series.csv", comparison_series_csv(report))
    gains = list(report.soh_gain_pct_points.values())
    mean_gain = f"{(0.0 + float(total(gains))) / len(gains):+.3f} pp" if gains else "n/a"
    print(
        f"axis={args.axis}: mean SoH gain {mean_gain}, zero-SoC events "
        f"{sum(report.treatment.summary.zero_soc_events.values())} (on) vs "
        f"{sum(report.baseline.summary.zero_soc_events.values())} (off)"
    )
    return EXIT_OK


def _parse_orders(text: str) -> SarimaOrders:
    values = []
    for i, token in enumerate(text.split(",")):
        try:
            values.append(_integer(token))
        except argparse.ArgumentTypeError:
            raise ValueError(f"--orders[{i}] must be an integer, got {token!r}") from None
    return SarimaOrders.from_sequence(values, "--orders")


def cmd_forecast(args) -> int:
    orders = _parse_orders(args.orders) if args.orders else DEFAULT_ORDERS
    if not 1 <= args.horizon <= MAX_DAYS:
        raise ValueError(f"--horizon must be in [1, {MAX_DAYS}], got {args.horizon}")
    series_by_load = load_demand_csv(args.history)
    if not series_by_load:
        raise ValueError(f"demand history {args.history} has no rows")
    if args.load_id is not None:
        if args.load_id not in series_by_load:
            raise ValueError(f"no history for load {args.load_id}")
        series_by_load = {args.load_id: series_by_load[args.load_id]}

    # One batch fits every load; each step's forecasts end the next step's tails.
    models = fit_sarima_many(list(series_by_load.values()), orders)
    tails, steps = np.array([y[len(y) - orders.K :] for y in series_by_load.values()]), []
    for _ in range(args.horizon):
        steps.append(forecast_many(models, tails))
        tails = np.concatenate([tails, steps[-1][:, None]], axis=1)[:, 1:]
    for lid, model, values in zip(series_by_load, models, zip(*steps)):
        coeffs = {
            "ar": list(map(float, model.ar_coeffs)),
            "seasonal_ar": list(map(float, model.seasonal_ar_coeffs)),
        }
        print(
            f"load {lid}: intercept {model.intercept:.6f} coeffs {json.dumps(coeffs)} "
            f"forecast {' '.join(f'{v:.6f}' for v in values)}"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridgrid",
        description="Daily-tick hybrid renewable grid simulator with priority charging",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a scenario config and its topology")
    p.add_argument("config")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("simulate", help="run one scenario and write trace artifacts")
    p.add_argument("config")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--days", type=_integer)
    p.add_argument("--priority", type=_on_off, dest="priority_enabled", help="on|off")
    p.add_argument("--health", type=_on_off, dest="health_enabled", help="on|off")
    p.add_argument("--seed", type=_integer)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="A/B one axis with identical data")
    p.add_argument("config")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--axis", required=True, choices=("priority", "health"))
    p.add_argument("--days", type=_integer)
    p.add_argument("--seed", type=_integer)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("forecast", help="fit the demand forecaster on a history csv")
    p.add_argument("history")
    orders = vars(DEFAULT_ORDERS)  # field name -> value, in the order --orders lists them
    p.add_argument("--orders", help=f"{','.join(orders)} (default "
                                    f"{','.join(map(str, orders.values()))})")
    p.add_argument("--horizon", type=_integer, default=1)
    p.add_argument("--load-id", type=_integer, dest="load_id")
    p.set_defaults(func=cmd_forecast)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return EXIT_IO
    except IsADirectoryError as exc:
        print(f"error: expected a file: {exc}", file=sys.stderr)
        return EXIT_IO
    except PermissionError as exc:
        print(f"error: permission denied: {exc}", file=sys.stderr)
        return EXIT_IO
    except SimulationError as exc:
        print(f"error: simulation failed: {exc}", file=sys.stderr)
        return EXIT_SIMULATION
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
