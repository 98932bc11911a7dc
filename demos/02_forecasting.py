"""Fit the seasonal forecaster on a synthetic demand history.

Generates a weekly-patterned demand series, fits the default weekly model,
prints the recovered structure, and compares one-step accuracy against the
repeat-last-week baseline on a held-out stretch.
"""

import numpy as np

from hybridgrid import (
    SarimaOrders,
    SynthDemandParams,
    fit_sarima,
    forecast_one,
    seasonal_naive,
    synth_demand,
)


def main():
    days, holdout = 400, 30
    series = synth_demand(
        seed=11,
        days=days,
        base_by_load={0: 120.0},
        params=SynthDemandParams(noise_sd=0.08),
    )[0]
    train = series[: days - holdout]

    print("=== Weekly demand model ===")
    orders = SarimaOrders(p=1, d=0, q=0, P=1, D=0, Q=0, s=7)
    model = fit_sarima(train, orders)
    print(f"  fitted on {len(train)} days of history")
    print(f"  day-to-day persistence : {model.ar_coeffs[0]:+.3f}")
    print(f"  week-to-week persistence: {model.seasonal_ar_coeffs[0]:+.3f}")
    print(f"  level                  : {model.intercept:.1f} MWd")
    print(f"  tomorrow's forecast    : {forecast_one(model, train):.1f} MWd")

    print()
    print(f"=== One-step accuracy on the last {holdout} days ===")
    err_model, err_naive = [], []
    for k in range(holdout):
        cut = days - holdout + k
        history = series[:cut]
        actual = series[cut]
        refit = fit_sarima(history, orders)
        err_model.append(abs(forecast_one(refit, history) - actual) / actual)
        err_naive.append(abs(seasonal_naive(history, 7) - actual) / actual)
    mape_model = 100.0 * float(np.mean(err_model))
    mape_naive = 100.0 * float(np.mean(err_naive))
    print(f"  seasonal model MAPE      : {mape_model:5.2f}%")
    print(f"  repeat-last-week MAPE    : {mape_naive:5.2f}%")
    winner = "model" if mape_model <= mape_naive else "baseline"
    print(f"  -> the {winner} wins on this series")


if __name__ == "__main__":
    main()
