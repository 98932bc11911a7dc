"""Demand forecasting and the weather and demand CSV readers.

The demand forecaster is a multiplicative seasonal AR model. With B the
backshift operator and w the series after d regular and D seasonal
differences:

    phi(B) * PHI(B^s) * (w_t - mu) = eps_t

with phi(B) = 1 - phi_1 B - ... and PHI(B^s) = 1 - PHI_1 B^s - .... The
orders keep the (p, d, q)(P, D, Q)_s shape, but the moving-average orders q
and Q must be 0.

A fit minimizes the conditional sum of squared one-step residuals, from the
first full AR window on. With PHI fixed the residual is affine in phi and
the intercept c = mu * phi(1) * PHI(1), and with phi fixed it is affine in
PHI and c, so the fit is alternating least squares: from zero coefficients
(the first half-step is the OLS AR(p) fit), solve for phi, then for PHI,
until no coefficient moves by more than TOL in a round, or MAX_ROUNDS pass.
Each half-step is a small normal-equation solve over a Gram matrix of the
window's lagged values, built once per window. Estimation is deterministic:
refitting the same history reproduces bit-identical coefficients.

fit_sarima_many fits a batch of windows in one search, each window leaving
the batch once it converges. forecast_many is the one forecast rule: a fitted
model's one-step forecast from the K = p + s*P + d + s*D level values before
the day, by default its window's last K (its tail). A batch equals lone calls
bit for bit, because nothing mixes rows: every update is elementwise, a row's
reduction, or a stacked matmul or solve, making per row the calls a lone one
makes. fit_sarima and forecast_one are batches of one.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from functools import reduce
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .model import as_int

MAX_ROUNDS = 200
TOL = 1e-10
STACK = 8  # windows of one length prepared at once; more grow peak memory, not speed
# A regressor whose centred sum of squares is below VANISHED times the
# window's carries no information and is fitted as 0; RIDGE loads each
# kept diagonal relatively, so exactly collinear regressors stay solvable.
VANISHED = 1e-10
RIDGE = 1e-12


class WeatherSample(NamedTuple):
    """One site-day of weather. A run holds weather as per-site arrays, and
    SimulationState.weather_by_day rebuilds samples from them on request."""

    site_id: str
    day_index: int
    ghi_w_m2: float
    wind_speed_ms: float


@dataclass(frozen=True)
class SarimaOrders:
    """(p, d, q)(P, D, Q)_s orders; all non-negative, q = Q = 0, s >= 2, d + D <= 2."""

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
        if self.q or self.Q:
            raise ValueError(f"moving-average orders q and Q must be 0, got {self.q} and {self.Q}")
        if not isinstance(self.s, int) or self.s < 2:
            raise ValueError(f"season length s must be an int >= 2, got {self.s!r}")
        if self.d + self.D > 2:
            raise ValueError(f"total differencing d + D must be <= 2, got {self.d + self.D}")

    @classmethod
    def from_sequence(cls, seq, where: str = "orders") -> "SarimaOrders":
        vals = [as_int(v, f"{where}[{i}]") for i, v in enumerate(seq)]
        if len(vals) != 7:
            raise ValueError(f"{where} needs exactly 7 integers p,d,q,P,D,Q,s, got {len(vals)}")
        try:
            return cls(*vals)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None

    def min_series_length(self) -> int:
        return 3 * self.s + self.p + 10


DEFAULT_ORDERS = SarimaOrders(1, 0, 0, 1, 0, 0, 7)


@dataclass
class SarimaModel:
    """A fitted forecaster, carrying just enough history for one-step use."""

    orders: SarimaOrders
    ar_coeffs: np.ndarray
    seasonal_ar_coeffs: np.ndarray
    intercept: float
    converged: bool
    # The window's last K = p + s*P + d + s*D values, most recent last.
    _tail: np.ndarray


def _difference(y: np.ndarray, d: int, D: int, s: int) -> np.ndarray:
    w = y.astype(float)
    for _ in range(d):
        w = w[..., 1:] - w[..., :-1]
    for _ in range(D):
        w = w[..., s:] - w[..., :-s]
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


def _expand(coeffs: np.ndarray, seasonal: np.ndarray, s: int) -> np.ndarray:
    """Multiplicative AR lag polynomial (1 - c_1 B - ...)(1 - C_1 B^s - ...)."""
    a = np.zeros(len(coeffs) + 1)
    a[0] = 1.0
    if len(coeffs):
        a[1:] = -coeffs
    b = np.zeros(len(seasonal) * s + 1)
    b[0] = 1.0
    if len(seasonal):
        b[s::s] = -seasonal
    return np.convolve(a, b)


def _gram(W: np.ndarray, L: int, lags: list[int]) -> np.ndarray:
    """G[k, m+1, m+1]: per window (row of W), the Gram matrix of its values at
    the m distinct lags of phi(B) PHI(B^s), plus a column of ones, over the
    rows of the conditional sum of squares (from the first full AR window on)."""
    k, n = W.shape
    X = np.empty((k, n - L, len(lags) + 1))
    for c, lag in enumerate(lags):
        X[:, :, c] = W[:, L - lag : n - lag]
    X[:, :, -1] = 1.0
    return np.matmul(X.transpose(0, 2, 1), X)


def _factor_index(o: SarimaOrders, lags: list[int], seasonal: bool):
    """Where each term phi_i * PHI_j of the AR product lands when one factor
    is solved for: its lag slot, the solved factor's column (j when seasonal,
    else i) and the fixed factor's entry (the other one)."""
    pairs = [(i, j) for i in range(o.p + 1) for j in range(o.P + 1)]
    slots = [lags.index(i + j * o.s) for i, j in pairs]
    i, j = zip(*pairs)
    return (slots, j, i) if seasonal else (slots, i, j)


def _half_step(G: np.ndarray, fixed: np.ndarray, index, q: int):
    """Least squares for one AR factor and the intercept, the other factor
    held at `fixed` [k, F]. Returns the factor's q coefficients [k, q] and
    the intercepts [k].

    With one factor fixed the residual is y - theta . x - c, where column 0
    of the projection B maps the lag slots to the response y and columns
    1..q to the regressors x. The normal equations are solved about the
    means, and c follows from them.
    """
    k = len(G)
    f = np.ones((k, fixed.shape[1] + 1))
    np.negative(fixed, out=f[:, 1:])
    slots, cols, entries = index
    B = np.zeros((k, G.shape[1], q + 2))
    B[:, slots, cols] = f[:, entries]
    B[:, -1, -1] = 1.0
    H = np.matmul(B.transpose(0, 2, 1), np.matmul(G, B))
    n, s = H[:, -1:, -1:], H[:, :-1, -1:]
    C = H[:, :-1, :-1] - s * s.transpose(0, 2, 1) / n
    A, r = C[:, 1:, 1:], C[:, 1:, :1]
    diag = np.arange(q)
    keep = A[:, diag, diag] > VANISHED * G[:, :1, 0]
    A = np.where(keep[:, :, None] & keep[:, None, :], A, 0.0)
    A[:, diag, diag] = np.where(keep, A[:, diag, diag] * (1.0 + RIDGE), 1.0)
    theta = np.linalg.solve(A, np.where(keep[:, :, None], r, 0.0))
    c = (s[:, 0] - np.matmul(theta.transpose(0, 2, 1), s[:, 1:])[:, 0]) / n[:, 0]
    return theta[:, :, 0], c[:, 0]


def _als(G: np.ndarray, o: SarimaOrders, lags: list[int]):
    """Alternating least squares on k windows at once: from zero
    coefficients, fit phi with PHI fixed, then PHI with phi fixed, until no
    coefficient of a window moves by more than TOL in a round; that window
    then leaves the active set. Returns [k, p + P + 1] rows of (phi, PHI, c)
    and the converged flags [k].
    """
    k = len(G)
    regular, seasonal = _factor_index(o, lags, False), _factor_index(o, lags, True)
    phi, sphi = np.zeros((k, o.p)), np.zeros((k, o.P))
    rows = np.arange(k)
    out = np.empty((k, o.p + o.P + 1))
    converged = np.zeros(k, dtype=bool)
    for _ in range(MAX_ROUNDS):
        new_phi, _ = _half_step(G, sphi, regular, o.p)
        new_sphi, c = _half_step(G, new_phi, seasonal, o.P)
        out[rows] = np.concatenate([new_phi, new_sphi, c[:, None]], axis=1)
        moved = np.concatenate([np.abs(new_phi - phi), np.abs(new_sphi - sphi)], axis=1)
        done = (moved <= TOL).all(axis=1)
        converged[rows[done]] = True
        keep = ~done
        rows, G, phi, sphi = rows[keep], G[keep], new_phi[keep], new_sphi[keep]
        if not len(rows):
            break
    return out, converged


def _check_window(y: np.ndarray, finite: bool, o: SarimaOrders) -> None:
    """Raise for the first rule a training window breaks (finite: all its values are)."""
    if y.ndim != 1:
        raise ValueError("series must be one-dimensional")
    if not finite:
        raise ValueError("series contains non-finite values")
    if len(y) < o.min_series_length():
        raise ValueError(f"series too short to identify orders: need >= "
                         f"{o.min_series_length()}, got {len(y)}")
    if len(y) - o.d - o.s * o.D <= o.p + o.s * o.P + 1:  # the differenced length
        raise ValueError("series too short after differencing for the given orders")


def fit_sarima_many(windows, orders: SarimaOrders = DEFAULT_ORDERS) -> list[SarimaModel]:
    """Fit one model per window by conditional sum of squares, in one search.

    Windows may differ in length; each must satisfy fit_sarima's length
    rule, and all are checked, up to STACK of one length at a time, before any
    is fitted; the first bad window raises. Model i is bit-identical
    to fit_sarima(windows[i], orders), and each fit warns on its own, in
    window order. Each row (phi, PHI, c) is fitted on w - m, m the mean of
    the differenced window w, so c = (mu - m) * phi(1) * PHI(1); where the
    fit puts a unit root in either factor, mu is free and stays at m.
    """
    o = orders
    ys = [np.asarray(series, dtype=float) for series in windows]
    if not ys:
        return []
    by_shape: dict[tuple, list[int]] = {}  # window positions, in window order
    for r, y in enumerate(ys):
        by_shape.setdefault(y.shape, []).append(r)
    stacks = [(rows[i : i + STACK], np.array([ys[r] for r in rows[i : i + STACK]]))
              for rows in by_shape.values() for i in range(0, len(rows), STACK)]
    finite = np.empty(len(ys), dtype=bool)
    for rows, Y in stacks:
        finite[rows] = np.isfinite(Y).reshape(len(rows), -1).all(axis=1)
    for y, ok in zip(ys, finite.tolist()):
        _check_window(y, ok, o)
    lags = sorted({i + j * o.s for i in range(o.p + 1) for j in range(o.P + 1)})
    k, L = len(ys), o.p + o.s * o.P
    G = np.empty((k, len(lags) + 1, len(lags) + 1))
    means, tails = np.empty(k), np.empty((k, L + o.d + o.s * o.D))
    for rows, Y in stacks:
        W = _difference(Y, o.d, o.D, o.s)
        means[rows] = m = np.mean(W, axis=1)
        tails[rows] = Y[:, Y.shape[1] - tails.shape[1] :]
        G[rows] = _gram(W - m[:, None], L, lags)
    xs, converged = _als(G, o, lags)
    phi, sphi = xs[:, : o.p], xs[:, o.p : o.p + o.P]
    sums = [reduce(np.add, c.T, np.zeros(len(xs))) for c in (phi, sphi)]  # left to right from 0
    with np.errstate(all="ignore"):  # a zero gain's quotient is discarded
        gain = (1.0 - sums[0]) * (1.0 - sums[1])
        mu = np.where(gain != 0.0, means + xs[:, -1] / gain, means)
    flags = (~converged, *(np.abs(c).max(axis=1, initial=0.0) >= 1.0 for c in (phi, sphi)))
    for r in np.flatnonzero(np.logical_or.reduce(flags)).tolist():
        texts = ("SARIMA search hit the iteration cap; returning best coefficients so far",
                 f"fitted ar coefficient outside the stationary region: {phi[r]}",
                 f"fitted seasonal ar coefficient outside the stationary region: {sphi[r]}")
        for flag, text in zip(flags, texts):
            if flag[r]:
                warnings.warn(text, RuntimeWarning, stacklevel=2)
    return list(map(SarimaModel, repeat(o), phi, sphi, mu.tolist(), converged.tolist(), tails))


def fit_sarima(series, orders: SarimaOrders = DEFAULT_ORDERS) -> SarimaModel:
    """Fit by conditional sum of squares on the differenced series.

    Requires len(series) >= 3s + p + 10 so the seasonal structure is
    identifiable. Warns (without failing) when the search hits the iteration
    cap or a fitted coefficient leaves the stationary region.
    """
    return fit_sarima_many([series], orders)[0]


def forecast_one(model: SarimaModel) -> float:
    """One-step-ahead forecast on the original scale, clamped at zero."""
    return float(forecast_many([model])[0])


def forecast_many(models: list[SarimaModel], tails: np.ndarray | None = None) -> np.ndarray:
    """forecast_one of each of models of one orders, in one array pass, on
    tails [..., len(models), K] of level values before the day, most recent
    last (by default each model's own). With a = phi(B) PHI(B^s) and w the
    differenced tails, w = mu - sum_k a_k (w_{t-k} - mu), and y undoes the
    differencing; both sums take ascending lags, skipping zeros."""
    if any(m.orders != models[0].orders for m in models):
        raise ValueError("forecast_many needs models of one orders")
    if not models:
        return np.empty(0)
    o = models[0].orders
    ar = np.array([_expand(m.ar_coeffs, m.seasonal_ar_coeffs, o.s) for m in models])
    mu = np.array([m.intercept for m in models])
    level = np.array([m._tail for m in models]) if tails is None else tails
    diff = _difference(level, o.d, o.D, o.s)
    w_hat = np.zeros(level.shape[:-1])
    for k in range(1, ar.shape[1]):
        w_hat = np.where(ar[:, k] != 0.0, w_hat - ar[:, k] * (diff[..., -k] - mu), w_hat)
    y = mu + w_hat
    for k, c in enumerate(_diff_poly(o.d, o.D, o.s).tolist()):
        if k and c != 0.0:
            y = y - c * level[..., -k]
    return np.where(y > 0.0, y, 0.0)  # max(0.0, y): NaN and -0.0 become 0.0


def seasonal_naive(series, s: int) -> float:
    """Forecast the next value as the one observed a full season earlier."""
    if s < 1:
        raise ValueError(f"season length must be >= 1, got {s}")
    if len(series) < s:
        raise ValueError(f"need at least {s} observations, got {len(series)}")
    return float(series[len(series) - s])


# The CSV readers parse a file's body in one numpy.loadtxt pass and check it
# column by column. Fields may be quoted as in CSV. Numbers take loadtxt's
# grammar: ASCII decimal, with blanks around them ignored; its nan and inf
# spellings parse and then fail the finite checks. A file is decoded as
# open() decodes it, on every numpy version.
_CSV = {"delimiter": ",", "comments": None, "quotechar": '"', "ndmin": 1, "encoding": None}
_WEATHER_DTYPE = np.dtype([("site_id", object), ("day_index", np.int64),
                           ("ghi_w_m2", np.float64), ("wind_speed_ms", np.float64)])
_DEMAND_DTYPE = np.dtype([("load_id", np.int64), ("day_index", np.int64),
                          ("demand_mwd", np.float64)])


def _loadtxt(lines, dtype: np.dtype, skiprows: int = 0) -> np.ndarray:
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")  # header only
        return np.loadtxt(lines, dtype=dtype, skiprows=skiprows, **_CSV)


def _data_lines(path) -> list[tuple[int, str]]:
    """Each line after the header that loadtxt reads as a record (every
    non-blank one), with its 1-based row in the file."""
    with open(path, newline="") as fh:
        next(fh, None)
        return [(row, line) for row, line in enumerate(fh, start=2) if line.strip("\r\n")]


def _why(line: str, dtype: np.dtype) -> str:
    """What makes one line unreadable: its field count, or its first bad field."""
    try:
        fields = next(csv.reader([line]), [])
    except csv.Error as exc:
        return str(exc)
    if len(fields) != len(dtype.names):
        return f"expected {len(dtype.names)} fields, got {len(fields)}"
    for name, token in zip(dtype.names, fields):
        kind = dtype[name]
        try:
            read = len(_loadtxt([token], kind)) == 1  # a blank token reads as no record
        except ValueError:
            read = False
        if not read:
            rule = "an ASCII decimal integer within 64 bits" if kind.kind == "i" else \
                "an ASCII decimal number"
            return f"{name} must be {rule}, got {token!r}"
    return f"cannot be read: {line.rstrip()!r}"


def _read_csv(path, dtype: np.dtype, what: str) -> tuple[np.ndarray, ValueError | None]:
    """The records of a CSV file whose header names dtype's fields, one per
    non-blank line after it, and None; or, when a line does not parse, the
    records before the first such line and the error naming its row. The
    callers check the records they got first, so that the first bad row of
    the file is the one named."""
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
    if header != list(dtype.names):
        raise ValueError(f"{what} csv header must be {','.join(dtype.names)}, got {header}")
    try:
        return _loadtxt(path, dtype, skiprows=1), None
    except ValueError:
        pass
    lines = _data_lines(path)
    texts = [line for _, line in lines]
    lo, hi = 0, len(lines)  # the first unreadable line is in [lo, hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _loadtxt(texts[lo:mid], dtype)
            lo = mid
        except ValueError:
            hi = mid
    row, line = lines[lo]
    return _loadtxt(texts[:lo], dtype), ValueError(f"row {row}: {_why(line, dtype)}")


def _reject_first(path, rules, unread: ValueError | None) -> None:
    """Raise for the first record that breaks a rule, naming its row and its
    first rule broken; rules are (bad mask, message of record i) in order.
    Then raise unread, the error for a later line that did not parse."""
    bad = np.logical_or.reduce([mask for mask, _ in rules])
    if bad.any():
        i = int(np.argmax(bad))
        message = next(text(i) for mask, text in rules if mask[i])
        raise ValueError(f"row {_data_lines(path)[i][0]}: {message}")
    if unread is not None:
        raise unread


def _repeats(*keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The records ordered by keys (the last primary, stably), and per record
    whether an earlier record has the same keys."""
    order = np.lexsort(keys)
    same = np.logical_and.reduce([k[order][1:] == k[order][:-1] for k in keys])
    repeat = np.zeros(len(order), dtype=bool)
    repeat[order[1:][same]] = True
    return order, repeat


def load_weather_csv(path) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Read per-site-day weather rows; schema site_id,day_index,ghi_w_m2,wind_speed_ms.

    Returns each site's (ghi, wind speed) arrays, one value a day from day 0
    up to the site's first missing day: a run can never read past that day,
    so later rows are checked but not returned. Days may come in any order.
    """
    data, unread = _read_csv(path, _WEATHER_DTYPE, "weather")
    site, day, ghi, wind = (data[name] for name in _WEATHER_DTYPE.names)
    names, key = np.unique(site, return_inverse=True)
    order, repeat = _repeats(day, key)
    _reject_first(path, [
        (day < 0, lambda i: f"day_index must be >= 0, got {day[i]}"),
        (~(np.isfinite(ghi) & (ghi >= 0)), lambda i: f"ghi must be finite and >= 0, got {ghi[i]}"),
        (~(np.isfinite(wind) & (wind >= 0)),
         lambda i: f"wind speed must be finite and >= 0, got {wind[i]}"),
        (repeat, lambda i: f"duplicate sample for site {site[i]} day {day[i]}"),
    ], unread)
    # Sorted by site then day, unique and >= 0: a site's days run 0, 1, ...
    # exactly as long as each equals its position among the site's rows.
    key = key[order]
    starts = np.searchsorted(key, np.arange(len(names)))
    kept = np.bincount(key[day[order] == np.arange(len(order)) - starts[key]],
                       minlength=len(names))
    ghi, wind = ghi[order], wind[order]
    return {name: (ghi[a : a + n], wind[a : a + n])
            for name, a, n in zip(names.tolist(), starts.tolist(), kept.tolist())}


def load_demand_csv(path) -> dict[int, np.ndarray]:
    """Read per-load demand history; schema load_id,day_index,demand_mwd.

    Returns each load's demand by day, loads in ascending id. Each load's
    days must form a gap-free 0..N-1 range, in any order.
    """
    data, unread = _read_csv(path, _DEMAND_DTYPE, "demand")
    lid, day, demand = (data[name] for name in _DEMAND_DTYPE.names)
    order, repeat = _repeats(day, lid)
    _reject_first(path, [
        (~(np.isfinite(demand) & (demand >= 0)),
         lambda i: f"demand must be finite and >= 0, got {demand[i]}"),
        (day < 0, lambda i: f"negative day index {day[i]}"),
        (repeat, lambda i: f"duplicate day {day[i]} for load {lid[i]}"),
    ], unread)
    ids, starts, load = np.unique(lid[order], return_index=True, return_inverse=True)
    gap = day[order] != np.arange(len(order)) - starts[load]
    if gap.any():
        raise ValueError(f"load {lid[order][np.argmax(gap)]}: day indices must be gap-free from 0")
    return dict(zip(ids.tolist(), np.split(demand[order], starts[1:])))
