"""Time-series containers and the price -> return -> realized-volatility chain."""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np

from .errors import (
    NonPositivePrice,
    OrderTooLarge,
    TooShort,
    WindowTooLarge,
    WindowTooSmall,
)


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


def series_values(series) -> np.ndarray:
    """Return the observation vector of a series container or array-like.

    Raises ValueError naming the index of the first value that is NaN or
    infinite.
    """
    values = np.asarray(series.values if hasattr(series, "values") else series, dtype=float)
    finite = np.isfinite(values)
    if not finite.all():
        first = int(np.argmin(finite.ravel()))
        raise ValueError(f"non-finite value {values.flat[first]} at index {first}")
    return values


@dataclass(frozen=True)
class PriceSeries:
    """Daily closing prices on strictly increasing calendar dates."""

    timestamps: tuple[dt.date, ...]
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_array(self.values))
        object.__setattr__(self, "timestamps", tuple(self.timestamps))
        if len(self.values) < 2:
            raise TooShort("a price series needs at least 2 observations")
        if len(self.timestamps) != len(self.values):
            raise ValueError("timestamps and values must have equal length")
        if not np.all(self.values > 0):
            raise NonPositivePrice("all prices must be strictly positive")
        for a, b in zip(self.timestamps, self.timestamps[1:]):
            if not a < b:
                raise ValueError(f"timestamps must be strictly increasing, got {a} before {b}")

    def __len__(self) -> int:
        return len(self.values)

    @classmethod
    def from_values(cls, values, start: dt.date = dt.date(2000, 1, 1), label: str = "") -> "PriceSeries":
        """Build a series with synthetic consecutive daily timestamps."""
        values = np.asarray(values, dtype=float)
        stamps = tuple(start + dt.timedelta(days=i) for i in range(len(values)))
        return cls(timestamps=stamps, values=values, label=label)


@dataclass(frozen=True)
class ReturnSeries:
    """Log returns; one observation shorter than the source prices."""

    values: np.ndarray
    origin_length: int

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_array(self.values))
        if len(self.values) != self.origin_length - 1:
            raise ValueError(
                f"return series of length {len(self.values)} inconsistent with "
                f"{self.origin_length} source prices"
            )

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class VolatilitySeries:
    """Rolling realized volatility of a return series."""

    values: np.ndarray
    window: int

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_array(self.values))
        if self.window < 2:
            raise WindowTooSmall(f"window must be >= 2, got {self.window}")
        if np.any(self.values < 0):
            raise ValueError("volatility values must be non-negative")

    def __len__(self) -> int:
        return len(self.values)


def log_returns(prices: PriceSeries) -> ReturnSeries:
    """Log first differences of the price series: values[t] = ln p_{t+1} - ln p_t."""
    values = series_values(prices)
    if len(values) < 2:
        raise TooShort("need at least 2 prices to form a return")
    if np.any(values <= 0):
        raise NonPositivePrice("log returns require strictly positive prices")
    return ReturnSeries(values=np.diff(np.log(values)), origin_length=len(values))


def realized_volatility(returns: ReturnSeries, window: int = 60, centered: bool = True) -> VolatilitySeries:
    """Rolling realized volatility of the returns.

    Parameters
    ----------
    returns : ReturnSeries or array-like
        Log-return observations.
    window : int
        Number of return observations per (overlapping) window.
    centered : bool
        True (default) uses the sample standard deviation with divisor
        ``window - 1``.  False uses the uncentered root mean square of the
        returns, divisor ``window``.

    Returns
    -------
    VolatilitySeries of length ``len(returns) - window + 1``.
    """
    r = series_values(returns)
    if window < 2:
        raise WindowTooSmall(f"window must be >= 2, got {window}")
    if len(r) < window:
        raise WindowTooLarge(f"window {window} exceeds {len(r)} return observations")
    panes = np.lib.stride_tricks.sliding_window_view(r, window)
    if centered:
        vol = panes.std(axis=1, ddof=1)
        # a window of identical values has zero variance exactly, not the
        # summation dust std() leaves behind
        vol[panes.max(axis=1) == panes.min(axis=1)] = 0.0
    else:
        vol = np.sqrt(np.mean(panes**2, axis=1))
    return VolatilitySeries(values=vol, window=window)


def check_order(order: int) -> None:
    """Reject a negative autoregressive order."""
    if order < 0:
        raise ValueError(f"order must be non-negative, got {order}")


def lag_design(series, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Build an autoregressive design matrix and the matching response vector.

    Row t holds ``(1, X_{t-1}, ..., X_{t-order})`` and the response is
    ``X_t``; there are ``len(series) - order`` rows.
    """
    x = series_values(series)
    n = len(x)
    check_order(order)
    if n <= order:
        raise OrderTooLarge(f"order {order} leaves no rows for {n} observations")
    rows = n - order
    cols = [np.ones(rows)]
    for k in range(1, order + 1):
        cols.append(x[order - k : n - k])
    return np.column_stack(cols), x[order:]
