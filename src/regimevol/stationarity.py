"""Structural-break detrending and the Phillips-Perron unit-root test.

The detrending step estimates either the unit-root-with-break specification
(first differences on a pulse and a level dummy) or the trend-stationary
specification (levels on trend, level-shift and slope-change terms) at a
known break index.  The residuals then feed a Phillips-Perron Z_t test with
a Newey-West (Bartlett kernel) long-run variance correction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BreakOutOfRange, RankDeficient, SeriesTooShort
from .regression import OlsFit, ols_fit
from .series import series_values

NULL_BREAK = "null_break"
TREND_BREAK = "trend_break"

# Dickey-Fuller tau quantiles for the no-deterministic-term regression, by
# regression sample size.  Tail columns (1/2.5/5/10 and 90/95/97.5/99 percent)
# are the classical published values; the interior columns come from a
# 200k-replication simulation per size (quantile Monte-Carlo error < 0.01)
# so that mid-range p-values interpolate sensibly.  Rows beyond the largest
# tabulated size use the last row.
_DF_PROBS = np.array(
    [0.01, 0.025, 0.05, 0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90, 0.95, 0.975, 0.99]
)
_DF_SIZES = np.array([25, 50, 100, 250, 500])
_DF_TAU_NC = np.array(
    [
        [-2.66, -2.26, -1.95, -1.60, -1.21, -0.94, -0.71, -0.47, -0.21, 0.08, 0.43, 0.92, 1.33, 1.70, 2.16],
        [-2.62, -2.25, -1.95, -1.61, -1.23, -0.96, -0.72, -0.49, -0.23, 0.07, 0.42, 0.91, 1.31, 1.66, 2.08],
        [-2.60, -2.24, -1.95, -1.61, -1.22, -0.95, -0.72, -0.49, -0.23, 0.06, 0.41, 0.90, 1.29, 1.64, 2.03],
        [-2.58, -2.23, -1.95, -1.62, -1.23, -0.96, -0.73, -0.50, -0.24, 0.06, 0.41, 0.89, 1.29, 1.63, 2.01],
        [-2.58, -2.23, -1.95, -1.62, -1.23, -0.96, -0.73, -0.50, -0.24, 0.06, 0.41, 0.89, 1.28, 1.62, 2.00],
    ]
)
_P_FLOOR = 1e-4
_P_CEIL = 0.9999


@dataclass(frozen=True)
class BreakDummies:
    """Pulse, level-shift and slope-ramp dummies for a break at ``T_B``.

    One-indexed time convention: entry ``i`` refers to t = i + 1.
    """

    d_tb: np.ndarray  # 1 at t = T_B + 1
    du: np.ndarray    # 1 for t > T_B
    dt: np.ndarray    # t - T_B for t > T_B, else 0


@dataclass(frozen=True)
class PerronDetrendResult:
    specification: str
    coefficients: np.ndarray
    standard_errors: np.ndarray
    residuals: np.ndarray
    break_index: int


@dataclass(frozen=True)
class PhillipsPerronResult:
    z_statistic: float
    p_value: float
    bandwidth: int
    long_run_variance: float
    critical_values: dict[float, float]

    def rejects(self, level: float = 0.05) -> bool:
        return self.p_value < level


def build_dummies(length: int, break_index: int) -> BreakDummies:
    """Break dummies for a series of ``length`` with break at ``break_index``."""
    if not 1 < break_index < length:
        raise BreakOutOfRange(f"break index {break_index} outside (1, {length})")
    t = np.arange(1, length + 1)
    d_tb = (t == break_index + 1).astype(float)
    du = (t > break_index).astype(float)
    dt = np.where(t > break_index, t - break_index, 0).astype(float)
    return BreakDummies(d_tb=d_tb, du=du, dt=dt)


def perron_detrend(prices, break_index: int, specification: str = TREND_BREAK) -> PerronDetrendResult:
    """Detrend a price series around a one-time structural break.

    ``trend_break`` regresses the levels on (1, t, DU_t, DT_t): intercept,
    linear trend, level shift and slope change.  ``null_break`` regresses the
    first differences on (1, D(TB)_t, DU_t): drift, break pulse and drift
    change; the unit coefficient on the lagged level is imposed rather than
    estimated, which keeps the design full rank.
    """
    values = series_values(prices)
    length = len(values)
    dummies = build_dummies(length, break_index)
    if length < break_index + 5:
        raise BreakOutOfRange(
            f"need at least 5 post-break observations, got {length - break_index}"
        )

    if specification == TREND_BREAK:
        t = np.arange(1, length + 1, dtype=float)
        design = np.column_stack([np.ones(length), t, dummies.du, dummies.dt])
        fit = ols_fit(design, values)
    elif specification == NULL_BREAK:
        diffs = np.diff(values)
        design = np.column_stack([np.ones(length - 1), dummies.d_tb[1:], dummies.du[1:]])
        fit = ols_fit(design, diffs)
    else:
        raise ValueError(f"unknown specification {specification!r}")

    return PerronDetrendResult(
        specification=specification,
        coefficients=fit.coefficients,
        standard_errors=fit.standard_errors,
        residuals=fit.residuals,
        break_index=break_index,
    )


def bartlett_long_run_variance(u: np.ndarray, bandwidth: int) -> float:
    """Newey-West long-run variance with Bartlett weights, no demeaning."""
    t = len(u)
    total = float(u @ u)
    for j in range(1, bandwidth + 1):
        weight = 1.0 - j / (bandwidth + 1.0)
        total += 2.0 * weight * float(u[j:] @ u[:-j])
    return total / t


def _df_critical_values(nobs: int) -> np.ndarray:
    """Interpolate the tau quantile row linearly in 1/n."""
    if nobs <= _DF_SIZES[0]:
        return _DF_TAU_NC[0]
    if nobs >= _DF_SIZES[-1]:
        return _DF_TAU_NC[-1]
    idx = int(np.searchsorted(_DF_SIZES, nobs)) - 1
    n_lo, n_hi = _DF_SIZES[idx], _DF_SIZES[idx + 1]
    weight = (1.0 / nobs - 1.0 / n_lo) / (1.0 / n_hi - 1.0 / n_lo)
    return (1.0 - weight) * _DF_TAU_NC[idx] + weight * _DF_TAU_NC[idx + 1]


def _df_pvalue(statistic: float, nobs: int) -> float:
    """Log-linear interpolation of the p-value in the embedded tau table."""
    quantiles = _df_critical_values(nobs)
    log_p = np.log(_DF_PROBS)
    if statistic <= quantiles[0]:
        slope = (log_p[1] - log_p[0]) / (quantiles[1] - quantiles[0])
        p = np.exp(log_p[0] + slope * (statistic - quantiles[0]))
    elif statistic >= quantiles[-1]:
        slope = (log_p[-1] - log_p[-2]) / (quantiles[-1] - quantiles[-2])
        p = np.exp(log_p[-1] + slope * (statistic - quantiles[-1]))
    else:
        p = np.exp(np.interp(statistic, quantiles, log_p))
    return float(min(max(p, _P_FLOOR), _P_CEIL))


def phillips_perron(residuals) -> PhillipsPerronResult:
    """Phillips-Perron Z_t test on already-detrended residuals.

    Regresses e_t on e_{t-1} with no deterministic terms, then applies the
    serial-correlation correction with a Bartlett-kernel long-run variance at
    bandwidth ``floor(4 * (n / 100)^(2/9))``.  The p-value interpolates the
    embedded no-constant Dickey-Fuller table; outside the tabulated range it
    is clamped to [1e-4, 0.9999].
    """
    e = series_values(residuals)
    n = len(e)
    if n < 20:
        raise SeriesTooShort(f"Phillips-Perron needs at least 20 observations, got {n}")

    fit = ols_fit(e[:-1][:, None], e[1:])
    rho = fit.coefficients[0]
    rho_se = fit.standard_errors[0]
    if rho_se == 0:
        raise RankDeficient("degenerate residual series: zero regression variance")

    nobs = fit.n_obs
    bandwidth = int(np.floor(4.0 * (n / 100.0) ** (2.0 / 9.0)))
    gamma0 = fit.rss / nobs
    lam2 = bartlett_long_run_variance(fit.residuals, bandwidth)
    s = np.sqrt(fit.rss / (nobs - fit.n_params))

    t_rho = (rho - 1.0) / rho_se
    z = np.sqrt(gamma0 / lam2) * t_rho - (lam2 - gamma0) / (2.0 * np.sqrt(lam2)) * (
        nobs * rho_se / s
    )

    quantiles = _df_critical_values(nobs)
    critical_values = {0.01: quantiles[0], 0.05: quantiles[2], 0.10: quantiles[3]}
    return PhillipsPerronResult(
        z_statistic=float(z),
        p_value=_df_pvalue(float(z), nobs),
        bandwidth=bandwidth,
        long_run_variance=float(lam2),
        critical_values=critical_values,
    )
