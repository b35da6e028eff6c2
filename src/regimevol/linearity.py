"""Linearity tests against smooth-transition alternatives.

Both tests replace the unidentified transition function by its third-order
Taylor polynomial in the threshold variable (calendar time by default) and
F-test the added terms in an auxiliary regression on the linear-AR
residuals.  The zero-order variant adds t, t^2, t^3 directly; the
first-order variant adds them interacted with every lag regressor.  When the
joint test rejects, the t-test on the designated first-power term separates
the asymmetric (logistic) alternative from the symmetric (exponential) one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SeriesTooShort
from .regimes import TIME, ThresholdVariable
from .regression import FTestResult, OlsFit, TTestResult, f_test, ols_fit, t_test
from .series import lag_design, series_values

ZERO_ORDER = "zero_order"
FIRST_ORDER = "first_order"

VERDICT_LINEAR = "linear"
VERDICT_LSTAR = "lstar"
VERDICT_ESTAR = "estar"


@dataclass(frozen=True)
class LinearityTestReport:
    variant: str
    aux_fit: OlsFit
    overall_f: FTestResult
    nonlinear_terms_f: FTestResult
    cubic_term_t: TTestResult
    verdict: str
    significance: float


def taylor_transition_approx(h: float) -> float:
    """Cubic expansion of the logistic transition around zero: h/4 - h^3/48."""
    return h / 4.0 - h**3 / 48.0


def _threshold_vector(threshold, x: np.ndarray, rows: int, ar_order: int) -> np.ndarray:
    if threshold is None:
        return ThresholdVariable(TIME).values(x, ar_order)
    n = len(x)
    z = np.asarray(threshold, dtype=float)
    if z.shape == (n,):
        return z[ar_order:]
    if z.shape == (rows,):
        return z
    raise ValueError(f"threshold vector must have length {n} or {rows}, got {z.shape}")


def check_significance(significance: float) -> None:
    """Reject a test level outside (0, 0.5]; NaN is outside too."""
    if not 0 < significance <= 0.5:
        raise ValueError(f"significance must be in (0, 0.5], got {significance}")


def _run_test(series, ar_order: int, significance: float, threshold, variant: str) -> LinearityTestReport:
    check_significance(significance)
    x = series_values(series)
    n = len(x)
    if n <= ar_order + 4:
        raise SeriesTooShort(f"need more than {ar_order + 4} observations, got {n}")

    base, y = lag_design(x, ar_order)
    rows = len(y)
    z = _threshold_vector(threshold, x, rows, ar_order)
    powers = np.column_stack([z, z**2, z**3])

    if variant == ZERO_ORDER:
        extras = powers
    else:
        lags = base[:, 1:]
        blocks = [lags[:, i : i + 1] * powers for i in range(lags.shape[1])]
        extras = np.hstack(blocks)

    k_full = base.shape[1] + extras.shape[1]
    if rows <= k_full:
        raise SeriesTooShort(f"{rows} usable rows cannot support {k_full} auxiliary parameters")

    linear_fit = ols_fit(base, y)
    resid = linear_fit.residuals

    full_design = np.hstack([base, extras])
    aux_fit = ols_fit(full_design, resid)
    restricted = ols_fit(base, resid)
    intercept_only = ols_fit(np.ones((rows, 1)), resid)

    df_den = rows - k_full
    nonlinear_terms_f = f_test(restricted.rss, aux_fit.rss, extras.shape[1], df_den)
    overall_f = f_test(intercept_only.rss, aux_fit.rss, k_full - 1, df_den)

    # first-power auxiliary term: t itself, or lag1*t in the interacted form
    odd_idx = base.shape[1]
    t_stat = aux_fit.coefficients[odd_idx] / aux_fit.standard_errors[odd_idx]
    cubic_term_t = t_test(float(t_stat), df_den)

    if nonlinear_terms_f.p_value >= significance:
        verdict = VERDICT_LINEAR
    elif cubic_term_t.p_value < significance:
        verdict = VERDICT_LSTAR
    else:
        verdict = VERDICT_ESTAR

    return LinearityTestReport(
        variant=variant,
        aux_fit=aux_fit,
        overall_f=overall_f,
        nonlinear_terms_f=nonlinear_terms_f,
        cubic_term_t=cubic_term_t,
        verdict=verdict,
        significance=significance,
    )


def terasvirta_zero_order(series, ar_order: int = 1, significance: float = 0.05, threshold=None) -> LinearityTestReport:
    """Taylor test with t, t^2, t^3 added to the linear AR regressors.

    ``threshold`` may supply a custom threshold-variable vector; the default
    is the time index 1..n.
    """
    if ar_order < 0:
        raise ValueError("ar_order must be non-negative")
    return _run_test(series, ar_order, significance, threshold, ZERO_ORDER)


def terasvirta_first_order(series, ar_order: int = 1, significance: float = 0.05, threshold=None) -> LinearityTestReport:
    """Taylor test with lag*t, lag*t^2, lag*t^3 interactions for every lag.

    Rejection plus a significant first-power interaction points to a logistic
    transition; rejection without it points to an exponential one.
    """
    if ar_order < 1:
        raise ValueError("the interacted variant needs ar_order >= 1")
    return _run_test(series, ar_order, significance, threshold, FIRST_ORDER)
