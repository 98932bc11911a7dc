"""Demand forecasting and weather-driven generation prediction.

The demand forecaster is a seasonal ARIMA fitted by minimizing the
conditional sum of squared one-step residuals on the differenced series.
Estimation is fully deterministic: coefficients start at zero, the intercept
starts at the differenced-series mean, and a fixed-parameter Nelder-Mead
simplex (iteration cap 2000, tolerance 1e-8) does the search, so refitting
the same history reproduces bit-identical coefficients.

Model convention, with B the backshift operator and w the series after d
regular and D seasonal differences:

    phi(B) * PHI(B^s) * (w_t - mu) = theta(B) * THETA(B^s) * eps_t

with phi(B) = 1 - phi_1 B - ..., theta(B) = 1 + theta_1 B + ... and the
seasonal polynomials in B^s alike. Residuals before the first full AR window
are conditioned to zero.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .generation import daily_energy, solar_power, wind_power
from .model import EnergySource

MAX_ITER = 2000
TOL = 1e-8

WEATHER_HEADER = ["site_id", "day_index", "ghi_w_m2", "wind_speed_ms"]
DEMAND_HEADER = ["load_id", "day_index", "demand_mwd"]


@dataclass(frozen=True)
class WeatherSample:
    """One site-day of provider weather."""

    site_id: str
    day_index: int
    ghi_w_m2: float
    wind_speed_ms: float

    def __post_init__(self) -> None:
        if self.day_index < 0:
            raise ValueError(f"day_index must be >= 0, got {self.day_index}")
        if not (math.isfinite(self.ghi_w_m2) and self.ghi_w_m2 >= 0):
            raise ValueError(f"ghi must be finite and >= 0, got {self.ghi_w_m2}")
        if not (math.isfinite(self.wind_speed_ms) and self.wind_speed_ms >= 0):
            raise ValueError(f"wind speed must be finite and >= 0, got {self.wind_speed_ms}")


@dataclass(frozen=True)
class SarimaOrders:
    """(p, d, q)(P, D, Q)_s orders; all non-negative, s >= 2, d + D <= 2."""

    p: int
    d: int
    q: int
    P: int
    D: int
    Q: int
    s: int

    def __post_init__(self) -> None:
        for name in ("p", "d", "q", "P", "D", "Q"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"order {name} must be a non-negative int, got {v!r}")
        if not isinstance(self.s, int) or self.s < 2:
            raise ValueError(f"season length s must be an int >= 2, got {self.s!r}")
        if self.d + self.D > 2:
            raise ValueError(f"total differencing d + D must be <= 2, got {self.d + self.D}")

    @classmethod
    def from_sequence(cls, seq) -> "SarimaOrders":
        vals = [int(v) for v in seq]
        if len(vals) != 7:
            raise ValueError(f"orders need exactly 7 integers p,d,q,P,D,Q,s, got {len(vals)}")
        return cls(*vals)

    def min_series_length(self) -> int:
        return 3 * self.s + self.p + self.q + 10


DEFAULT_ORDERS = SarimaOrders(1, 0, 0, 1, 0, 0, 7)


@dataclass
class SarimaModel:
    """A fitted forecaster, carrying just enough history for one-step use."""

    orders: SarimaOrders
    ar_coeffs: np.ndarray
    ma_coeffs: np.ndarray
    seasonal_ar_coeffs: np.ndarray
    seasonal_ma_coeffs: np.ndarray
    intercept: float
    converged: bool
    # Tails, most recent value last.
    _diff_tail: np.ndarray
    _resid_tail: np.ndarray
    _level_tail: np.ndarray


def _difference(y: np.ndarray, d: int, D: int, s: int) -> np.ndarray:
    w = y.astype(float)
    for _ in range(d):
        w = w[1:] - w[:-1]
    for _ in range(D):
        w = w[s:] - w[:-s]
    return w


def _diff_poly(d: int, D: int, s: int) -> np.ndarray:
    """Coefficients of (1-B)^d (1-B^s)^D in powers of B."""
    poly = np.array([1.0])
    for _ in range(d):
        poly = np.convolve(poly, [1.0, -1.0])
    seasonal = np.zeros(s + 1)
    seasonal[0], seasonal[s] = 1.0, -1.0
    for _ in range(D):
        poly = np.convolve(poly, seasonal)
    return poly


def _expand(coeffs: np.ndarray, seasonal: np.ndarray, s: int, sign: float) -> np.ndarray:
    """Multiplicative lag polynomial (1 + sign*c_1 B + ...)(1 + sign*C_1 B^s + ...)."""
    a = np.zeros(len(coeffs) + 1)
    a[0] = 1.0
    if len(coeffs):
        a[1:] = sign * coeffs
    b = np.zeros(len(seasonal) * s + 1)
    b[0] = 1.0
    if len(seasonal):
        b[s::s] = sign * seasonal
    return np.convolve(a, b)


def _split_params(x: np.ndarray, o: SarimaOrders):
    i = 0
    phi = x[i : i + o.p]
    i += o.p
    theta = x[i : i + o.q]
    i += o.q
    sphi = x[i : i + o.P]
    i += o.P
    stheta = x[i : i + o.Q]
    i += o.Q
    return phi, theta, sphi, stheta, float(x[i])


def _residuals(w: np.ndarray, o: SarimaOrders, x: np.ndarray) -> np.ndarray:
    """Conditional one-step residuals on the differenced series."""
    phi, theta, sphi, stheta, mu = _split_params(x, o)
    wt = w - mu
    ar = _expand(phi, sphi, o.s, -1.0)
    ma = _expand(theta, stheta, o.s, +1.0)
    L = len(ar) - 1
    n = len(wt)
    if L > 0:
        u = np.zeros(n - L)
        for k, a in enumerate(ar):
            if a != 0.0:
                u += a * wt[L - k : n - k]
    else:
        u = wt.copy()
    if len(ma) > 1:
        u = lfilter([1.0], ma, u)
    return u


def _css_objective(w: np.ndarray, o: SarimaOrders):
    """Build the CSS objective; pure-AR models get a precomputed Gram form.

    For q = Q = 0 the residual is linear in lagged observations with
    coefficients multilinear in the parameters, so the sum of squares is a
    small quadratic form b' G b over a Gram matrix computed once. This is
    algebraically identical to the direct evaluation and keeps repeated
    refits cheap.
    """
    if o.q == 0 and o.Q == 0:
        L = o.p + o.s * o.P
        n = len(w)
        lags = sorted({i + j * o.s for i in range(o.p + 1) for j in range(o.P + 1)})
        cols = [w[L - lag : n - lag] for lag in lags]
        cols.append(np.ones(n - L))
        X = np.column_stack(cols)
        G = X.T @ X
        lag_index = {lag: k for k, lag in enumerate(lags)}
        m = len(lags)

        def objective(x: np.ndarray) -> float:
            phi = x[: o.p]
            sphi = x[o.p : o.p + o.P]
            mu = x[-1]
            beta = np.zeros(m + 1)
            coeff_sum = 0.0
            for i in range(o.p + 1):
                ci = 1.0 if i == 0 else -phi[i - 1]
                for j in range(o.P + 1):
                    c = ci * (1.0 if j == 0 else -sphi[j - 1])
                    beta[lag_index[i + j * o.s]] += c
                    coeff_sum += c
            beta[m] = -mu * coeff_sum
            return float(beta @ G @ beta)

        return objective

    def objective(x: np.ndarray) -> float:
        eps = _residuals(w, o, x)
        return float(eps @ eps)

    return objective


def _nelder_mead(f, x0: np.ndarray, max_iter: int, xatol: float, fatol: float):
    """Deterministic Nelder-Mead with standard reflect/expand/contract/shrink."""
    n = len(x0)
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        v = x0.copy()
        v[k] = v[k] * 1.05 if v[k] != 0.0 else 0.00025
        sim[k + 1] = v
    fsim = np.array([f(v) for v in sim])
    order = np.argsort(fsim, kind="stable")
    sim, fsim = sim[order], fsim[order]

    rho, chi, psi, sigma = 1.0, 2.0, 0.5, 0.5
    for it in range(max_iter):
        if (
            np.max(np.abs(sim[1:] - sim[0])) <= xatol
            and np.max(np.abs(fsim[1:] - fsim[0])) <= fatol
        ):
            return sim[0], float(fsim[0]), True
        centroid = sim[:-1].mean(axis=0)
        xr = centroid + rho * (centroid - sim[-1])
        fr = f(xr)
        if fr < fsim[0]:
            xe = centroid + rho * chi * (centroid - sim[-1])
            fe = f(xe)
            if fe < fr:
                sim[-1], fsim[-1] = xe, fe
            else:
                sim[-1], fsim[-1] = xr, fr
        elif fr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fr
        else:
            shrink = False
            if fr < fsim[-1]:
                xc = centroid + psi * rho * (centroid - sim[-1])
                fc = f(xc)
                if fc <= fr:
                    sim[-1], fsim[-1] = xc, fc
                else:
                    shrink = True
            else:
                xcc = centroid - psi * (centroid - sim[-1])
                fcc = f(xcc)
                if fcc < fsim[-1]:
                    sim[-1], fsim[-1] = xcc, fcc
                else:
                    shrink = True
            if shrink:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
        order = np.argsort(fsim, kind="stable")
        sim, fsim = sim[order], fsim[order]
    return sim[0], float(fsim[0]), False


def fit_sarima(series, orders: SarimaOrders = DEFAULT_ORDERS) -> SarimaModel:
    """Fit by conditional sum of squares on the differenced series.

    Requires len(series) >= 3s + p + q + 10 so the seasonal structure is
    identifiable. Warns (without failing) when the search hits the iteration
    cap or a fitted coefficient leaves the stationary region.
    """
    y = np.asarray(series, dtype=float)
    if y.ndim != 1:
        raise ValueError("series must be one-dimensional")
    if not np.all(np.isfinite(y)):
        raise ValueError("series contains non-finite values")
    o = orders
    if len(y) < o.min_series_length():
        raise ValueError(
            f"series too short to identify orders: need >= {o.min_series_length()}, "
            f"got {len(y)}"
        )

    w = _difference(y, o.d, o.D, o.s)
    L = o.p + o.s * o.P
    K = o.q + o.s * o.Q
    if len(w) <= L + K + 1:
        raise ValueError("series too short after differencing for the given orders")

    n_params = o.p + o.q + o.P + o.Q + 1
    x0 = np.zeros(n_params)
    x0[-1] = float(np.mean(w))

    objective = _css_objective(w, o)
    x, sse, converged = _nelder_mead(objective, x0, MAX_ITER, TOL, TOL)
    if not converged:
        warnings.warn(
            "SARIMA search hit the iteration cap; returning best coefficients so far",
            RuntimeWarning,
            stacklevel=2,
        )

    phi, theta, sphi, stheta, mu = _split_params(x, o)
    for name, coeffs in (("ar", phi), ("ma", theta), ("seasonal ar", sphi), ("seasonal ma", stheta)):
        if len(coeffs) and np.max(np.abs(coeffs)) >= 1.0:
            warnings.warn(
                f"fitted {name} coefficient outside the stationary region: {coeffs}",
                RuntimeWarning,
                stacklevel=2,
            )

    level_len = o.d + o.s * o.D
    return SarimaModel(
        orders=o,
        ar_coeffs=np.array(phi, dtype=float),
        ma_coeffs=np.array(theta, dtype=float),
        seasonal_ar_coeffs=np.array(sphi, dtype=float),
        seasonal_ma_coeffs=np.array(stheta, dtype=float),
        intercept=mu,
        converged=converged,
        _diff_tail=w[-L:].copy() if L > 0 else np.empty(0),
        _resid_tail=_residuals(w, o, x)[-K:].copy() if K > 0 else np.empty(0),
        _level_tail=y[-level_len:].copy() if level_len > 0 else np.empty(0),
    )


def forecast_one(model: SarimaModel) -> float:
    """One-step-ahead forecast on the original scale, clamped at zero."""
    o = model.orders
    ar = _expand(model.ar_coeffs, model.seasonal_ar_coeffs, o.s, -1.0)
    ma = _expand(model.ma_coeffs, model.seasonal_ma_coeffs, o.s, +1.0)
    mu = model.intercept

    w_hat = 0.0
    for k in range(1, len(ar)):
        if ar[k] != 0.0:
            w_hat -= ar[k] * (model._diff_tail[-k] - mu)
    for j in range(1, len(ma)):
        if ma[j] != 0.0 and j <= len(model._resid_tail):
            w_hat += ma[j] * model._resid_tail[-j]
    w_next = mu + w_hat

    diff = _diff_poly(o.d, o.D, o.s)
    y_next = w_next
    for k in range(1, len(diff)):
        if diff[k] != 0.0:
            y_next -= diff[k] * model._level_tail[-k]
    return max(0.0, float(y_next))


def seasonal_naive(series, s: int) -> float:
    """Forecast the next value as the one observed a full season earlier."""
    if s < 1:
        raise ValueError(f"season length must be >= 1, got {s}")
    if len(series) < s:
        raise ValueError(f"need at least {s} observations, got {len(series)}")
    return float(series[len(series) - s])


def load_weather_csv(path) -> list[WeatherSample]:
    """Read per-site-day weather rows; schema site_id,day_index,ghi_w_m2,wind_speed_ms."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != WEATHER_HEADER:
            raise ValueError(
                f"weather csv header must be {','.join(WEATHER_HEADER)}, got {header}"
            )
        samples = []
        seen: set[tuple[str, int]] = set()
        for rownum, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise ValueError(f"row {rownum}: expected 4 fields, got {len(row)}")
            try:
                site, day = row[0], int(row[1])
                ghi, wind = float(row[2]), float(row[3])
            except ValueError as exc:
                raise ValueError(f"row {rownum}: {exc}") from None
            key = (site, day)
            if key in seen:
                raise ValueError(f"row {rownum}: duplicate sample for site {site} day {day}")
            seen.add(key)
            try:
                samples.append(WeatherSample(site, day, ghi, wind))
            except ValueError as exc:
                raise ValueError(f"row {rownum}: {exc}") from None
    samples.sort(key=lambda s: (s.site_id, s.day_index))
    return samples


def load_demand_csv(path) -> dict[int, list[float]]:
    """Read per-load demand history; schema load_id,day_index,demand_mwd.

    Each load's days must form a gap-free 0..N-1 range.
    """
    rows: dict[int, dict[int, float]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != DEMAND_HEADER:
            raise ValueError(
                f"demand csv header must be {','.join(DEMAND_HEADER)}, got {header}"
            )
        for rownum, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise ValueError(f"row {rownum}: expected 3 fields, got {len(row)}")
            try:
                lid, day, demand = int(row[0]), int(row[1]), float(row[2])
            except ValueError as exc:
                raise ValueError(f"row {rownum}: {exc}") from None
            if not (math.isfinite(demand) and demand >= 0):
                raise ValueError(f"row {rownum}: demand must be finite and >= 0, got {demand}")
            if day < 0:
                raise ValueError(f"row {rownum}: negative day index {day}")
            per = rows.setdefault(lid, {})
            if day in per:
                raise ValueError(f"row {rownum}: duplicate day {day} for load {lid}")
            per[day] = demand
    out: dict[int, list[float]] = {}
    for lid, per in sorted(rows.items()):
        days = sorted(per)
        if days != list(range(len(days))):
            raise ValueError(f"load {lid}: day indices must be gap-free from 0")
        out[lid] = [per[d] for d in days]
    return out


def predict_generation(samples, sources: list[EnergySource]) -> dict[int, float]:
    """Per-source MWd for one day from that day's site weather samples."""
    by_site: dict[str, WeatherSample] = {}
    for s in samples:
        if s.site_id in by_site:
            raise ValueError(f"multiple samples for site {s.site_id} on one day")
        by_site[s.site_id] = s

    out: dict[int, float] = {}
    for src in sources:
        sample = by_site.get(src.site)
        if sample is None:
            raise ValueError(f"source {src.id}: no weather sample for site {src.site!r}")
        if src.kind == "solar":
            power = solar_power(sample.ghi_w_m2, src.params)
        else:
            power = wind_power(sample.wind_speed_ms, src.params)
        out[src.id] = daily_energy(power)
    return out

