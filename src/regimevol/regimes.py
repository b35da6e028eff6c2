"""Estimation and simulation of AR, SETAR and smooth-transition AR models.

SETAR thresholds come from an exhaustive grid over observed threshold-variable
values (trimmed so every regime keeps a minimum fraction of rows), with
regime-wise OLS per candidate.  Smooth-transition models are estimated in two
stages: a (gamma, c) grid where the remaining coefficients solve by OLS,
followed by a damped Gauss-Newton refinement of all parameters jointly.  Both
grids score batched normal equations through one chunked first-wins scan, so
a full search stays fast and its memory bounded; the chunks are scored on the
CPUs that BLAS leaves idle.  On a time threshold the (gamma, c) grid first
bounds every candidate's RSS in time linear in the series, and only the few
candidates the bounds cannot rule out reach that scan.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.random import default_rng  # loaded at import, not in a caller's first run

from .errors import (
    ExplosivePath,
    NoFeasibleThreshold,
    OrderTooLarge,
    RankDeficient,
    SeriesTooShort,
    SingularJacobian,
    NonFiniteResidual,
    TooShort,
)
from .regression import nls_fit, ols_fit
from .selection import aic, bic
from .series import lag_design, series_values

TIME = "time"
LAGGED_VALUE = "lagged_value"
THRESHOLD_KINDS = (TIME, LAGGED_VALUE)

LOGISTIC = "logistic"
EXPONENTIAL = "exponential"

_EXPLOSION_LIMIT = 1e8
_EIG_RATIO = 1e-12
_CERTIFY_RATIO = 100 * _EIG_RATIO
_GRID_CHUNK = 8192
_TIME_TILE_BYTES = 1 << 21
_LAGGED_TILE_BYTES = 1 << 20
_OUTER_EXP_LIMIT = 700.0
_SETAR3_BLOCKS = 128
_SETAR3_BLOCK_ROWS = 8


def _worker_count(environ, cpus: int) -> int:
    """Threads to score grid chunks on: the CPUs that BLAS leaves idle.

    OpenBLAS runs ``OPENBLAS_NUM_THREADS`` threads, else ``OMP_NUM_THREADS``,
    else one per CPU; a value that is not a positive integer counts as unset.
    Grid threads on top of BLAS threads would only compete for the same CPUs,
    so an unpinned BLAS leaves one worker, and the result is never above
    ``cpus``.
    """
    blas_threads = cpus
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            value = int(environ.get(name, ""))
        except ValueError:
            continue
        if value > 0:
            blas_threads = value
            break
    return max(1, cpus // blas_threads)


_WORKERS = _worker_count(
    os.environ,
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1,
)


def _masked_logistic(arg: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-arg)), with exp taken only of non-positive values.

    One division: the numerator is 1 where arg >= 0 and e = exp(-|arg|)
    elsewhere.  As e <= 1 it is the larger of e and the indicator of
    arg >= 0, which costs a fraction of ``np.where``.  Every bit, NaN
    included, is that of 1 / (1 + e) where arg >= 0 and e / (1 + e) elsewhere.
    """
    e = np.exp(-np.abs(arg))
    return np.divide(np.maximum(e, arg >= 0), 1.0 + e)


def _transition_weights(kind: str, z, gamma, c, out=None):
    """G(z; gamma, c) of either kind, written into ``out`` when given.

    Logistic: 1 / (1 + exp(-gamma (z - c))); exponential:
    1 - exp(-gamma (z - c) (z - c)).  Each is evaluated one operation at a
    time in that order, so filling ``out`` in place gives the bits of the
    plain expression.
    """
    # branchless logistic: exp overflow saturates to inf and the ratio to 0,
    # which is the correct limit, so only the warning needs silencing.  It is
    # kept apart from _masked_logistic on purpose: for negative arguments the
    # two differ in the last bit on a third to a half of the values, so
    # merging them would move the grid and Gauss-Newton RSS bits.
    if out is None:
        out = np.empty(np.broadcast_shapes(np.shape(z), np.shape(gamma), np.shape(c)))
    if kind == LOGISTIC:
        np.subtract(z, c, out=out)
        np.multiply(-gamma, out, out=out)
        with np.errstate(over="ignore"):
            np.exp(out, out=out)
        np.add(1.0, out, out=out)
        return np.divide(1.0, out, out=out)
    diff = np.subtract(z, c)
    np.multiply(-gamma, diff, out=out)
    np.multiply(out, diff, out=out)
    np.exp(out, out=out)
    return np.subtract(1.0, out, out=out)


@dataclass(frozen=True)
class TransitionSpec:
    """One smooth transition: kind, steepness gamma and location c."""

    kind: str
    gamma: float
    c: float

    def __post_init__(self):
        if self.kind not in (LOGISTIC, EXPONENTIAL):
            raise ValueError(f"unknown transition kind {self.kind!r}")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")

    def weights(self, z):
        """G(z; gamma, c) at each of ``z``; a float for a scalar ``z``."""
        z = np.asarray(z, dtype=float)
        if self.kind == LOGISTIC:
            out = _masked_logistic(self.gamma * (z - self.c))
        else:
            out = _transition_weights(EXPONENTIAL, z, self.gamma, self.c)
        return float(out) if out.ndim == 0 else out


def logistic_transition(z, gamma: float, c: float):
    """G(z; gamma, c) = 1 / (1 + exp(-gamma (z - c))), stable for large |arg|."""
    return TransitionSpec(LOGISTIC, gamma, c).weights(z)


def exponential_transition(z, gamma: float, c: float):
    """G(z; gamma, c) = 1 - exp(-gamma (z - c)^2)."""
    return TransitionSpec(EXPONENTIAL, gamma, c).weights(z)


@dataclass(frozen=True)
class ThresholdVariable:
    """What the regimes switch on: calendar time or a lagged series value."""

    kind: str = TIME
    delay: int = 1

    def __post_init__(self):
        if self.kind not in THRESHOLD_KINDS:
            raise ValueError(f"unknown threshold variable kind {self.kind!r}")
        if self.kind == LAGGED_VALUE and self.delay < 1:
            raise ValueError("delay must be >= 1")

    def check_order(self, order: int) -> None:
        """Reject a lagged value x_{t-d} that a model of ``order`` lags does not read."""
        if self.kind == LAGGED_VALUE and self.delay > order:
            raise ValueError(f"delay {self.delay} exceeds order {order}")

    def values(self, x: np.ndarray, order: int) -> np.ndarray:
        """Value for each design row of an AR(``order``) on ``x`` (response at t = order+1..n)."""
        self.check_order(order)
        n = len(x)
        if self.kind == TIME:
            return np.arange(order + 1, n + 1, dtype=float)
        return x[order - self.delay : n - self.delay]


@dataclass(frozen=True)
class RegimeModel:
    """Fitted AR / SETAR / LSTAR / ESTAR record.

    For hard-threshold kinds ``regimes`` holds the per-regime coefficient
    vectors low to high.  For smooth kinds the first entry is the base block
    and later entries the additive transition blocks of the model equation.
    Each vector is (intercept, lag1, ..., lag_order).
    """

    kind: str
    order: int
    regimes: tuple[np.ndarray, ...]
    thresholds: np.ndarray
    transitions: tuple[TransitionSpec, ...]
    threshold_variable: ThresholdVariable
    rss: float
    fitted: np.ndarray
    residuals: np.ndarray
    regime_proportions: np.ndarray
    standard_errors: np.ndarray | None = None
    parameter_names: tuple[str, ...] | None = None
    converged: bool = True

    def __post_init__(self):
        if self.kind not in ("ar", "setar", "lstar", "estar"):
            raise ValueError(f"kind must be one of ar, setar, lstar, estar, got {self.kind!r}")
        thresholds = np.asarray(self.thresholds, dtype=float)
        object.__setattr__(self, "thresholds", thresholds)
        regimes = tuple(np.asarray(r, float) for r in self.regimes)
        object.__setattr__(self, "regimes", regimes)
        props = np.asarray(self.regime_proportions, dtype=float)
        object.__setattr__(self, "regime_proportions", props)
        for j, r in enumerate(regimes):
            if r.shape != (self.order + 1,):
                raise ValueError(
                    f"regimes[{j}] has {r.size} coefficients, order {self.order} needs {self.order + 1}"
                )
        ar = self.kind == "ar"
        if len(regimes) != 1 if ar else len(regimes) < 2:
            needs = "1" if ar else "at least 2"
            raise ValueError(f"regimes: {needs} expected for {self.kind}, got {len(regimes)}")
        smooth = self.kind in ("lstar", "estar")
        for name, got, needs in (
            ("thresholds", len(thresholds), len(regimes) - 1),
            ("transitions", len(self.transitions), len(regimes) - 1 if smooth else 0),
        ):
            if got != needs:
                raise ValueError(
                    f"{name}: {needs} expected for {self.kind} with {len(regimes)} regimes, got {got}"
                )
        if np.any(np.diff(thresholds) <= 0):
            raise ValueError("thresholds must be strictly increasing")
        if len(props) and abs(props.sum() - 1.0) > 1e-12:
            raise ValueError("regime proportions must sum to 1")

    @property
    def n_parameters(self) -> int:
        """Coefficients plus thresholds plus transition steepness parameters."""
        return sum(len(r) for r in self.regimes) + len(self.thresholds) + len(self.transitions)

    @property
    def label(self) -> str:
        if self.kind == "ar":
            return f"ar({self.order})"
        return f"{self.kind}-{len(self.regimes)}regime({self.order})"

    def one_step(self, series) -> tuple[np.ndarray, np.ndarray]:
        return one_step_fitted(self, series)

    def step(self, history: Sequence[float], t: float) -> float:
        """Noise-free next value after ``history`` (oldest first) at time ``t``."""
        order = self.order
        lags = np.array(history[-order:][::-1]) if order else np.empty(0)
        row = np.concatenate([[1.0], lags])
        tv = self.threshold_variable
        tv.check_order(order)
        z = t if tv.kind == TIME else history[-tv.delay]
        return float(self._predict(row[None, :], np.array([z]))[0])

    def _predict(self, design: np.ndarray, z: np.ndarray) -> np.ndarray:
        return _predict_rows(
            self.kind, self.regimes, self.thresholds, self.transitions, design, z
        )

    def fitted_columns(self, series) -> dict[str, np.ndarray]:
        """Columns of the fitted CSV: row index, actual, fitted, residual, then
        the regime (hard-threshold kinds) or one weight per transition."""
        x = series_values(series)
        fitted, residuals = one_step_fitted(self, x)
        z = self.threshold_variable.values(x, self.order)
        columns = {
            "index": np.arange(self.order + 1, len(x) + 1),
            "actual": x[self.order :],
            "fitted": fitted,
            "residual": residuals,
        }
        if self.kind in ("ar", "setar"):
            columns["regime"] = _regime_assignment(self.thresholds, z)
        for j, spec in enumerate(self.transitions):
            columns[f"weight{j + 1}"] = spec.weights(z)
        return columns

    def to_dict(self) -> dict:
        return {
            "model": "regime",
            "kind": self.kind,
            "order": self.order,
            "regimes": [list(r) for r in self.regimes],
            "thresholds": list(self.thresholds),
            "transitions": [
                {"kind": t.kind, "gamma": t.gamma, "c": t.c} for t in self.transitions
            ],
            "threshold_variable": {
                "kind": self.threshold_variable.kind,
                "delay": self.threshold_variable.delay,
            },
            "rss": self.rss,
            "regime_proportions": list(self.regime_proportions),
            "n_parameters": self.n_parameters,
            "converged": self.converged,
            "standard_errors": None
            if self.standard_errors is None
            else list(self.standard_errors),
            "parameter_names": None
            if self.parameter_names is None
            else list(self.parameter_names),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RegimeModel":
        """Rebuild from :meth:`to_dict` output (fit diagnostics are not restored)."""
        tv = payload.get("threshold_variable", {"kind": TIME, "delay": 1})
        return cls(
            kind=payload["kind"],
            order=int(payload["order"]),
            regimes=tuple(np.array(r, dtype=float) for r in payload["regimes"]),
            thresholds=np.array(payload["thresholds"], dtype=float),
            transitions=tuple(
                TransitionSpec(kind=t["kind"], gamma=float(t["gamma"]), c=float(t["c"]))
                for t in payload["transitions"]
            ),
            threshold_variable=ThresholdVariable(kind=tv["kind"], delay=int(tv.get("delay", 1))),
            rss=float(payload.get("rss", 0.0)),
            fitted=np.empty(0),
            residuals=np.empty(0),
            regime_proportions=np.array(payload.get("regime_proportions", []), dtype=float),
            converged=bool(payload.get("converged", True)),
        )


def _regime_assignment(thresholds: np.ndarray, z: np.ndarray) -> np.ndarray:
    # value exactly at a threshold goes to the upper regime
    return np.searchsorted(thresholds, z, side="right")


def _predict_rows(kind, regimes, thresholds, transitions, design, z) -> np.ndarray:
    if kind == "ar":
        return design @ regimes[0]
    if kind == "setar":
        coefs = np.vstack(regimes)
        idx = _regime_assignment(thresholds, z)
        return np.einsum("ij,ij->i", design, coefs[idx])
    fitted = design @ regimes[0]
    for block, spec in zip(regimes[1:], transitions):
        fitted = fitted + spec.weights(z) * (design @ block)
    return fitted


def one_step_fitted(model: RegimeModel, series) -> tuple[np.ndarray, np.ndarray]:
    """In-sample one-step-ahead predictions of ``model`` on ``series``."""
    x = series_values(series)
    if len(x) <= model.order:
        raise SeriesTooShort(f"need more than {model.order} observations")
    design, y = lag_design(x, model.order)
    z = model.threshold_variable.values(x, model.order)
    fitted = model._predict(design, z)
    return fitted, y - fitted


def _finish_model(
    kind: str,
    order: int,
    regimes: Sequence[np.ndarray],
    thresholds,
    transitions: Sequence[TransitionSpec],
    tv: ThresholdVariable,
    series_vals: np.ndarray,
    standard_errors=None,
    parameter_names=None,
    converged: bool = True,
) -> RegimeModel:
    """Assemble the record, computing fitted/residuals through the shared path."""
    regimes = tuple(np.asarray(r, dtype=float) for r in regimes)
    thresholds = np.asarray(thresholds, dtype=float)
    transitions = tuple(transitions)
    z = tv.values(series_vals, order)
    if len(thresholds):
        counts = np.bincount(
            _regime_assignment(thresholds, z), minlength=len(thresholds) + 1
        )
        proportions = counts / counts.sum()
    else:
        proportions = np.array([1.0])
    design, y = lag_design(series_vals, order)
    fitted = _predict_rows(kind, regimes, thresholds, transitions, design, z)
    residuals = y - fitted
    return RegimeModel(
        kind=kind,
        order=order,
        regimes=regimes,
        thresholds=thresholds,
        transitions=transitions,
        threshold_variable=tv,
        rss=float(residuals @ residuals),
        fitted=fitted,
        residuals=residuals,
        regime_proportions=proportions,
        standard_errors=standard_errors,
        parameter_names=parameter_names,
        converged=converged,
    )


def _ar_names(order: int, prefix: str = "") -> list[str]:
    return [f"{prefix}intercept"] + [f"{prefix}lag{i}" for i in range(1, order + 1)]


def fit_ar(series, order: int) -> RegimeModel:
    """Single-regime linear autoregression of the given order."""
    x = series_values(series)
    design, y = lag_design(x, order)
    fit = ols_fit(design, y)
    return _finish_model(
        kind="ar",
        order=order,
        regimes=(fit.coefficients,),
        thresholds=np.empty(0),
        transitions=(),
        tv=ThresholdVariable(TIME),
        series_vals=x,
        standard_errors=fit.standard_errors,
        parameter_names=tuple(_ar_names(order)),
    )


@dataclass(frozen=True)
class OrderSelection:
    """AIC/BIC per candidate order, scored on the shared trimmed sample."""

    rows: tuple[tuple[int, float, float], ...]
    best_aic: int
    best_bic: int


def select_ar_order(series, max_order: int = 20) -> OrderSelection:
    """Score AR(0..max_order) on the common sample and pick the argmins."""
    if max_order < 0:
        raise ValueError(f"max_order must be non-negative, got {max_order}")
    x = series_values(series)
    n = len(x)
    if n <= max_order + 1:
        raise OrderTooLarge(f"max_order {max_order} too large for {n} observations")
    rows = []
    for order in range(max_order + 1):
        design, y = lag_design(x, order)
        trim = max_order - order
        fit = ols_fit(design[trim:], y[trim:])
        k = order + 1
        rows.append((order, aic(fit.rss, len(y) - trim, k), bic(fit.rss, len(y) - trim, k)))
    best_aic = min(rows, key=lambda r: r[1])[0]
    best_bic = min(rows, key=lambda r: r[2])[0]
    return OrderSelection(rows=tuple(rows), best_aic=best_aic, best_bic=best_bic)


# ---------------------------------------------------------------------------
# batched segment OLS for threshold grids
# ---------------------------------------------------------------------------


def _prefix_stats(design: np.ndarray, y: np.ndarray):
    rows, k = design.shape
    prods = design[:, :, None] * design[:, None, :]
    sxx = np.vstack([np.zeros((1, k, k)), np.cumsum(prods, axis=0)])
    sxy = np.vstack([np.zeros((1, k)), np.cumsum(design * y[:, None], axis=0)])
    syy = np.concatenate([[0.0], np.cumsum(y * y)])
    return sxx, sxy, syy


def _certified_well_conditioned(gram: np.ndarray, shift=None) -> np.ndarray:
    """Which stacked Gram matrices surely pass the ``_EIG_RATIO`` rank screen.

    One Cholesky of A = G - s I runs across the whole stack, a column per
    step, with s = tau trace(G) and tau = ``_CERTIFY_RATIO``, or s = ``shift``
    when given, which certifies lambda_min(G) >= s - gamma_{k+1} trace(G)
    less the rounding of the shift, u trace(G).  Like eigvalsh,
    it reads only the lower triangle of G.  A matrix is certified when s is
    a normal float and every pivot is positive and finite.

    Such a Cholesky is exact for some A + dA with
    ||dA||_2 <= gamma_{k+1} trace(A) and gamma_{k+1} = (k+1)u / (1 - (k+1)u)
    (Higham, Accuracy and Stability of Numerical Algorithms, Thm 10.3, with
    |R'||R| bounded through Cauchy-Schwarz).  A + dA is positive definite,
    so lambda_min(G) >= s - gamma_{k+1} trace(G) > 0.  Then
    lambda_max(G) <= trace(G), and lambda_min / lambda_max >= tau - O((k+1)u),
    about 100 times ``_EIG_RATIO``.  eigvalsh is backward stable, with error
    p(k) u ||G|| for a modest p(k), so its ratio cannot fall below
    ``_EIG_RATIO`` on a certified matrix.  A False here decides nothing: the
    caller asks eigvalsh.  Underflow is kept out by requiring s to be normal;
    overflow and NaN leave a pivot that is not positive and finite.
    """
    # (row, column, candidate) layout: each step is a few whole-stack vector ops
    a = gram.transpose(1, 2, 0).copy()
    diagonal = np.arange(gram.shape[-1])
    with np.errstate(all="ignore"):
        if shift is None:
            shift = _CERTIFY_RATIO * np.trace(a)
        a[diagonal, diagonal] -= shift
        # the factor's diagonal holds the square roots of the pivots
        pivots = _cholesky_in_place(a)[diagonal, diagonal]
        return (shift >= np.finfo(float).tiny) & np.all((pivots > 0) & (pivots < np.inf), axis=0)


def _cholesky_in_place(a: np.ndarray) -> np.ndarray:
    """Overwrite the lower triangle of a (row, column, candidate) stack with its Cholesky factor.

    Row by row, reading the lower triangle only: no (k, k, candidates) temporary.
    """
    k = len(a)
    for j in range(k):
        a[j, j] = np.sqrt(a[j, j])
        a[j + 1 :, j] /= a[j, j]
        for i in range(j + 1, k):
            a[i, j + 1 : i + 1] -= a[i, j] * a[j + 1 : i + 1, j]
    return a


def _cholesky_solve(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solutions of the stacked positive definite systems ``gram @ beta = rhs``.

    ``_cholesky_in_place`` and two triangular solves across the whole stack,
    a column per step.  The computed beta solves (G + dG) beta = rhs with
    |dG| <= gamma_(3k+1) |R'||R| (Higham, Accuracy and Stability of Numerical
    Algorithms, Thm 10.4), and (|R'||R|)_ij <= sqrt(g_ii g_jj).
    """
    k = gram.shape[-1]
    a = _cholesky_in_place(gram.transpose(1, 2, 0).copy())
    b = rhs.T.copy()
    for j in range(k):
        b[j] /= a[j, j]
        b[j + 1 :] -= a[j + 1 :, j] * b[j]
    for j in reversed(range(k)):
        b[j] /= a[j, j]
        b[:j] -= a[j, :j] * b[j]
    return b.T


def _gamma_u(j):
    """gamma_j = j u / (1 - j u), u the unit roundoff: Higham's rounding-error constant."""
    u = np.finfo(float).eps / 2
    return j * u / (1 - j * u)


def _least_eigenvalue_bound(gram: np.ndarray) -> np.ndarray:
    """A proven lower bound on each stacked Gram's least eigenvalue; -inf where none is.

    1 / trace(G^-1) lies between lambda_min / k and lambda_min, so half of its
    computed value is a shift s that ``_certified_well_conditioned`` passes
    on all but nearly singular Grams, proving
    lambda_min >= s - (gamma_{k+1} + u) trace(G).
    """
    k = gram.shape[-1]
    u = np.finfo(float).eps / 2
    trace = np.trace(gram, axis1=1, axis2=2)
    with np.errstate(all="ignore"):
        shift = 0.5 / np.trace(np.linalg.inv(gram), axis1=1, axis2=2)
        bound = shift - (_gamma_u(k + 1) + u) * trace
    return np.where(_certified_well_conditioned(gram, shift), bound, -np.inf)


def _screened_rss(gram: np.ndarray, rhs: np.ndarray, yy, feasible=True) -> np.ndarray:
    """RSS of each stacked normal-equation system ``gram @ beta = rhs``.

    A candidate is scored when ``feasible`` allows it and its Gram matrix
    passes the rank screen (eigvalsh eigenvalue ratio above ``_EIG_RATIO``);
    every other entry is inf.  ``yy`` is y'y, per candidate or shared.  The
    batched Cholesky of ``_certified_well_conditioned`` passes most Grams at
    a fraction of eigvalsh's cost, and eigvalsh decides only the rest, so the
    screen passes exactly the Grams an eigvalsh of each would.
    """
    passed = _certified_well_conditioned(gram)
    doubtful = ~passed
    if np.any(doubtful):
        eigs = np.linalg.eigvalsh(gram[doubtful])
        passed[doubtful] = (eigs[:, 0] > eigs[:, -1] * _EIG_RATIO) & (eigs[:, -1] > 0)
    scored = feasible & passed
    # an identity stand-in and a zero right-hand side keep the Grams that are
    # not scored out of the solve's way: no singular matrix, no overflow
    gram, rhs = gram.copy(), rhs.copy()
    gram[~scored], rhs[~scored] = np.eye(gram.shape[-1]), 0.0
    beta = np.linalg.solve(gram, rhs[..., None])[..., 0]
    rss = yy - np.einsum("mk,mk->m", rhs, beta)
    return np.where(scored & np.isfinite(rss), np.maximum(rss, 0.0), np.inf)


def _segment_rss(sxx, sxy, syy, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """RSS of an OLS fit on each half-open sorted-row segment; inf if infeasible."""
    k = sxx.shape[-1]
    return _screened_rss(
        sxx[stops] - sxx[starts], sxy[stops] - sxy[starts], syy[stops] - syy[starts],
        (stops - starts) > k,
    )


def _split_positions(z_sorted: np.ndarray, min_count: int) -> np.ndarray:
    """Sorted-row indices a where a threshold c = z_sorted[a] is feasible."""
    rows = len(z_sorted)
    boundaries = np.flatnonzero(z_sorted[1:] > z_sorted[:-1]) + 1
    return boundaries[(boundaries >= min_count) & (boundaries <= rows - min_count)]


def _min_count(rows: int, min_fraction: float, order: int) -> int:
    return max(int(np.ceil(min_fraction * rows)), order + 2)


def check_regime_count(n_regimes: int) -> None:
    """Reject a SETAR regime count other than 2 or 3."""
    if n_regimes not in (2, 3):
        raise ValueError(f"n_regimes must be 2 or 3, got {n_regimes}")


def check_transition_count(n_transitions: int) -> None:
    """Reject a smooth-transition count other than 1 or 2."""
    if n_transitions not in (1, 2):
        raise ValueError(f"n_transitions must be 1 or 2, got {n_transitions}")


def checked_min_fraction(min_fraction: float | None, n_regimes: int) -> float:
    """The share of rows each of ``n_regimes`` regimes must keep: ``min_fraction`` if it
    is finite and non-negative, by default 0.15 for 2 regimes and 0.10 for 3."""
    if min_fraction is None:
        return 0.15 if n_regimes == 2 else 0.10
    if not 0 <= min_fraction < np.inf:
        raise ValueError(f"min_fraction must be finite and non-negative, got {min_fraction}")
    return min_fraction


def _grid_setup(series, order: int, tv: ThresholdVariable, min_fraction, n_regimes: int):
    """What both threshold searches start from: x, design, y, z, the stable
    sort of z, z sorted, the feasible split positions and ``min_count``, the
    fewest rows a regime may keep (see :func:`checked_min_fraction`)."""
    min_fraction = checked_min_fraction(min_fraction, n_regimes)
    x = series_values(series)
    design, y = lag_design(x, order)
    rows = len(y)
    z = tv.values(x, order)
    min_count = _min_count(rows, min_fraction, order)
    if rows < n_regimes * min_count:
        raise SeriesTooShort(
            f"{rows} rows cannot hold {n_regimes} regimes of at least {min_count}"
        )
    sort_idx = np.argsort(z, kind="stable")
    z_sorted = z[sort_idx]
    positions = _split_positions(z_sorted, min_count)
    if len(positions) == 0:
        raise NoFeasibleThreshold("no candidate threshold satisfies the minimum fraction")
    return x, design, y, z, sort_idx, z_sorted, positions, min_count


def _first_min(
    n_candidates: int, score, chunk: int | None = None, workers: int | None = None
) -> tuple[int, float]:
    """Index and value of the lowest score over candidates 0..n_candidates-1.

    ``score(start, stop)`` returns the RSS of candidates start..stop-1 (inf
    where infeasible); it is called on chunks of ``chunk`` candidates
    (default ``_GRID_CHUNK``), so memory stays bounded, and ties keep the
    lowest index.

    The chunks are independent, so ``workers`` threads (default
    ``_WORKERS``) score them side by side: numpy releases the GIL in the
    products, ``exp`` and the batched LAPACK calls.  ``score`` must
    therefore be safe to call from several threads.  Each chunk's first
    minimum is reduced in chunk order, so the winner and its RSS are those
    of a serial scan, to the bit.  With one worker or one chunk the same
    loop runs through plain ``map``, on the calling thread.  An exception
    in a chunk is re-raised (the first in chunk order), the chunks still
    pending are cancelled, and every thread is joined before this returns.
    """
    workers = workers or _WORKERS
    chunk = chunk or _GRID_CHUNK

    def scan(start):
        rss = score(start, min(start + chunk, n_candidates))
        pick = int(np.argmin(rss))
        return start + pick, rss[pick]

    starts = range(0, n_candidates, chunk)
    pool = ThreadPoolExecutor(workers) if workers > 1 and len(starts) > 1 else None
    best, best_rss = None, np.inf
    try:
        for index, rss in (pool.map if pool else map)(scan, starts):
            if rss < best_rss:
                best, best_rss = index, float(rss)
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)
    if best is None:
        raise NoFeasibleThreshold("every candidate threshold is rank deficient")
    return best, best_rss


def _block_floors(sxx, sxy, syy) -> tuple[np.ndarray, int]:
    """Floors under the computed RSS of every middle segment, per block pair.

    Sorted rows are cut into at most ``_SETAR3_BLOCKS`` blocks of ``size``
    rows, at least ``_SETAR3_BLOCK_ROWS``, with boundaries
    g_i = min(i size, rows).  Let [s, t) be a segment with
    g_(A-1) < s <= g_A and g_B <= t < g_(B+1), for boundaries A < B.
    Then ``floor[A, B]`` is at most the RSS that ``_segment_rss`` computes
    for [s, t); ``floor[A, B] = 0`` wherever A >= B.

    In exact arithmetic the OLS RSS of the inner rows [g_A, g_B) is at most
    that of [s, t), which holds them all.  The floor is the computed inner
    RSS less ``margin``, a bound on the error of the two computed values.
    An inner segment that is too short, fails the rank screen or leaves the
    conditions below unmet gets a floor of 0, which ``_screened_rss``'s
    clamp at 0 keeps below every computed RSS.  Floor and sums round
    monotonically: floor <= mid gives low + floor + high <= low + mid + high
    in floating point too.

    The margin.  Let u be the unit roundoff, n = rows, k the coefficients,
    Y and T the y'y and trace(X'X) of all rows, D^2 = diag(X'X) of all rows,
    and Y_O and T_O the same over the outer rows [g_(A-1), g_(B+1)), which
    hold [s, t).  Prefix sums add n products in sequence, so a segment's
    Gram G, X'y and y'y, each a difference of two prefix sums, are off by at
    most eps = (2n + 3) u times the matching sums of |x_i x_i'|, |x_i y_i|
    and y_i^2 over all rows (Higham, Accuracy and Stability of Numerical
    Algorithms, eq. 4.4).  RSS is the minimum over beta of
    y'y - 2 beta'X'y + beta'G beta, so these data errors move it by at most
    eps (sqrt(Y) + ||D beta||_1)^2 <= eps (sqrt(Y) + sqrt(k Y_O / lam_s))^2,
    with beta either segment solution and lam_s a lower bound on the least
    eigenvalue of the scaled Gram D^-1 G D^-1.  The LU solve is backward
    stable with ||dG|| <= c_k u ||G||, c_k = 3 k^2 (1 + (k^2 - k) 2^k)
    (Higham, Thm 9.4 and Lemma 9.6, growth factor at most 2^(k-1)), which
    moves beta'X'y by at most c_k u (T_O / lam) Y_O, with lam a lower bound
    on the least eigenvalue of G; rounding that product and the final
    subtraction add at most (k + 2) u Y_O (1 + sqrt(T_O / lam)).  A superset
    of rows only raises the least eigenvalue, so the inner segment's serves
    [s, t) too: lam and lam_s are ``_least_eigenvalue_bound``'s values on
    the computed inner Gram and its scaled copy, less 2 eps T and
    2 k (eps + 2 u), the data error of the inner and of the middle Gram
    (||dG||_2 <= eps T, and eps k once scaled) and the rounding of the
    scaling.  So each computed RSS is within
    E = 2 (eps (sqrt(Y) + sqrt(k Y_O / lam_s))^2
    + (c_k + k + 2) u Y_O (1 + sqrt(T_O / lam))^2) of its exact value, the
    factor 2 covering every second-order term while (c_k + k + 2) u T_O / lam
    and k eps / lam_s are at most 1/8.  The margin is 2 E; where a condition
    fails, the floor is 0.
    """
    rows = len(syy) - 1
    k = sxx.shape[-1]
    size = max(-(-rows // _SETAR3_BLOCKS), _SETAR3_BLOCK_ROWS)
    nb = -(-rows // size) + 1
    bounds = np.minimum(np.arange(nb) * size, rows)
    upper_a, upper_b = np.triu_indices(nb, 1)
    starts, stops = bounds[upper_a], bounds[upper_b]
    gram = sxx[stops] - sxx[starts]
    inner = _screened_rss(gram, sxy[stops] - sxy[starts], syy[stops] - syy[starts], stops - starts > k)
    scored = np.flatnonzero(np.isfinite(inner))
    gram = gram[scored]
    outer_a = bounds[np.maximum(upper_a[scored] - 1, 0)]
    outer_b = bounds[np.minimum(upper_b[scored] + 1, nb - 1)]

    u = np.finfo(float).eps / 2
    eps = (2 * rows + 3) * u
    c_k = 3 * k * k * (1 + (k * k - k) * 2**k)
    norms = sxx[-1].diagonal()
    total_y, total_t = syy[-1], norms.sum()
    outer_y = syy[outer_b] - syy[outer_a] + 2 * eps * total_y
    outer_t = np.trace(sxx[outer_b] - sxx[outer_a], axis1=1, axis2=2) + 2 * eps * total_t
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        scale = 1.0 / np.sqrt(norms)
        lam_s = _least_eigenvalue_bound(gram * scale[:, None] * scale) - 2 * k * (eps + 2 * u)
        lam = _least_eigenvalue_bound(gram) - 2 * eps * total_t
        solve_term = (c_k + k + 2) * u * outer_t / lam
        error = eps * (np.sqrt(total_y) + np.sqrt(k * outer_y / lam_s)) ** 2
        error += (c_k + k + 2) * u * outer_y * (1.0 + np.sqrt(outer_t / lam)) ** 2
        proven = (lam > 0) & (lam_s > 0) & (solve_term <= 0.125) & (k * eps <= 0.125 * lam_s)
        margin = np.where(proven, 4.0 * error, np.inf)
        floor = np.zeros((nb, nb))
        floor[upper_a[scored], upper_b[scored]] = np.maximum(inner[scored] - margin, 0.0)
    return floor, size


def _three_regime_split(sxx, sxy, syy, positions, min_count, low, high) -> tuple[int, int, float]:
    """First lowest-RSS threshold pair (a, b), as indices into ``positions``.

    Pairs a < b with positions[b] - positions[a] >= min_count are scanned
    a-major, and each scores low[a] + middle + high[b], the middle being the
    RSS of sorted rows positions[a]..positions[b]-1 (``_segment_rss``).

    Branch and bound, with the winner, its RSS and the first-wins tie rule
    of scoring every pair.  Each pair is bounded from below by
    low[a] + floor + high[b], with ``_block_floors``'s floor for the first
    block boundary at or after positions[a] and the last at or before
    positions[b]; the bound never exceeds the pair's computed score.
    Before the scan, the pairs of the one block pair with the lowest bound
    (the first in a-major order) are scored, and the best of them is
    improved by re-scoring every b for its a and every a for its b, by
    turns; its score is the cutoff.  Where every block pair's bound is inf
    there is no incumbent and the cutoff is inf, but so is every pair's
    score: a pair lies in the block pair of its a's run and its b's run,
    whose bound is finite where the pair's score is.  ``_first_min`` then
    solves only the pairs whose bound is at most the cutoff, with the same
    arithmetic, and every other pair counts as inf: its score exceeds the
    cutoff, which is at least the winning score, so it can neither win nor
    tie.  A chunk skips at once every run of one a's pairs in one block
    whose lowest bound, through the least high[b] of the run, is above the
    cutoff.

    The cutoff is fixed before the scan, and the scan runs on the calling
    thread, so the solved pairs do not depend on the number of workers.
    What is left per chunk is mostly short numpy calls that hold the
    interpreter lock: at ~2,000 rows a fit took 43-60 ms on two threads and
    37 ms on one (2-vCPU VM, BLAS on one thread).
    """
    n_positions = len(positions)
    # each a pairs with b = later[a], ..., P - 1, at flat indices b - shift[a]
    later = np.searchsorted(positions, positions + min_count, side="left")
    counts = n_positions - later
    ends = np.cumsum(counts)
    shift = later - (ends - counts)

    def solve(a, b):
        return low[a] + _segment_rss(sxx, sxy, syy, positions[a], positions[b]) + high[b]

    def best_of(a, b):
        rss = solve(a, b)
        pick = int(np.argmin(rss))
        return int(a[pick]), int(b[pick]), rss[pick]

    floor, size = _block_floors(sxx, sxy, syy)
    first = -(-positions // size)
    last = positions // size
    # runs of cut positions that share a block boundary
    group_a = np.flatnonzero(np.diff(first, prepend=-1))
    group_b = np.flatnonzero(np.diff(last, prepend=-1))
    a_stop = np.append(group_a[1:], n_positions)
    b_stop = np.append(group_b[1:], n_positions)
    high_min = np.minimum.reduceat(high, group_b)
    row_floor = floor[:, last[group_b]]

    # the incumbent
    block_bound = (np.minimum.reduceat(low, group_a)[:, None] + row_floor[first[group_a]]) + high_min
    # a run's first a pairs with the most b
    block_bound[later[group_a][:, None] >= b_stop] = np.inf
    i, j = divmod(int(np.argmin(block_bound)), len(group_b))
    cutoff = np.inf
    if block_bound[i, j] < np.inf:
        a, b = np.meshgrid(
            np.arange(group_a[i], a_stop[i]), np.arange(group_b[j], b_stop[j]), indexing="ij"
        )
        valid = b >= later[a]
        a, b, cutoff = best_of(a[valid], b[valid])
        # a few turns, each at most 2 P solves; one or two usually settle it
        for _ in range(4):
            a_new, b_new, cutoff = best_of(*np.broadcast_arrays(a, np.arange(later[a], n_positions)))
            a_new, b_new, cutoff = best_of(*np.broadcast_arrays(np.flatnonzero(later <= b_new), b_new))
            if (a_new, b_new) == (a, b):
                break
            a, b = a_new, b_new

    def score(start, stop):
        rss = np.full(stop - start, np.inf)
        a_first, a_last = np.searchsorted(ends, [start, stop - 1], side="right")
        rows = np.arange(a_first, a_last + 1)
        bound = (low[rows, None] + row_floor[first[rows]]) + high_min
        row, run = np.nonzero(bound <= cutoff)
        a = rows[row]
        # each live run's b, within a's pairs and within the chunk
        lo = np.maximum(group_b[run], np.maximum(later[a], start + shift[a]))
        lengths = np.maximum(np.minimum(b_stop[run], stop + shift[a]) - lo, 0)
        a = np.repeat(a, lengths)
        b = np.arange(len(a)) + np.repeat(lo - (np.cumsum(lengths) - lengths), lengths)
        keep = (low[a] + floor[first[a], last[b]]) + high[b] <= cutoff
        a, b = a[keep], b[keep]
        if len(a):
            rss[b - shift[a] - start] = solve(a, b)
        return rss

    best, rss = _first_min(int(ends[-1]), score, workers=1)
    a = int(np.searchsorted(ends, best, side="right"))
    return a, int(best + shift[a]), rss


def fit_setar(
    series,
    order: int,
    n_regimes: int = 2,
    threshold_variable: ThresholdVariable | None = None,
    min_fraction: float | None = None,
) -> RegimeModel:
    """Hard-threshold autoregression with 2 or 3 regimes.

    Candidate thresholds are observed threshold-variable values trimmed so
    each regime keeps at least ``min_fraction`` of the rows (default 0.15 for
    2 regimes, 0.10 for 3).  Every candidate (or ordered candidate pair) is
    scored by regime-wise OLS; the global RSS minimum wins and ties break
    toward the smallest threshold(s).

    With 3 regimes most pairs are ruled out unsolved, by branch and bound
    (``_three_regime_split``).  Rows sorted by the threshold variable fall
    into blocks of max(8, rows / 128) rows.  A pair of cuts (a, b) is bounded
    from below by low[a] + inner + high[b], where inner is the RSS of the
    rows between the first block boundary at or after a and the last at or
    before b, a subset of the middle regime's rows, less a margin that
    bounds the rounding error of the two computed RSS values
    (``_block_floors``).  Before the scan, the pairs of the one block pair
    with the lowest bound are scored, and the best of them, improved by a
    few turns of re-scoring its a's and its b's pairs, is the incumbent.  A
    pair is solved only when its bound is at most the incumbent's RSS, so
    the winner, its RSS and the tie rule are those of solving every pair.
    """
    check_regime_count(n_regimes)
    tv = threshold_variable or ThresholdVariable(TIME)
    x, design, y, z, sort_idx, z_sorted, positions, min_count = _grid_setup(
        series, order, tv, min_fraction, n_regimes
    )
    sxx, sxy, syy = _prefix_stats(design[sort_idx], y[sort_idx])
    zeros = np.zeros(len(positions), dtype=int)
    low = _segment_rss(sxx, sxy, syy, zeros, positions)
    high = _segment_rss(sxx, sxy, syy, positions, zeros + len(y))

    if n_regimes == 2:
        total = low + high
        # argmin keeps the first of equal values: ties go to the smallest threshold
        best = int(np.argmin(total))
        if total[best] == np.inf:
            raise NoFeasibleThreshold("every candidate threshold is rank deficient")
        cut_positions = positions[[best]]
    else:
        a, b, _ = _three_regime_split(sxx, sxy, syy, positions, min_count, low, high)
        cut_positions = positions[[a, b]]

    thresholds = z_sorted[cut_positions]
    assignment = _regime_assignment(thresholds, z)
    regimes, errors, names = [], [], []
    for regime in range(n_regimes):
        rows_mask = assignment == regime
        fit = ols_fit(design[rows_mask], y[rows_mask])
        regimes.append(fit.coefficients)
        errors.append(fit.standard_errors)
        names.extend(_ar_names(order, prefix=f"regime{regime + 1}."))
    names.extend(f"threshold{i + 1}" for i in range(n_regimes - 1))

    return _finish_model(
        kind="setar",
        order=order,
        regimes=regimes,
        thresholds=thresholds,
        transitions=(),
        tv=tv,
        series_vals=x,
        standard_errors=np.concatenate(errors + [np.full(n_regimes - 1, np.nan)]),
        parameter_names=tuple(names),
    )


# ---------------------------------------------------------------------------
# smooth-transition estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GammaGrid:
    """Steepness grid for stage-1 profiling.

    ``step=None`` (default) uses ``points`` log-spaced values between lo and
    hi; a step restores an exact arithmetic grid such as 1..200 by 0.002.
    """

    lo: float = 1.0
    hi: float = 200.0
    step: float | None = None
    points: int = 200

    def __post_init__(self):
        for name in ("lo", "hi", "step"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):
                raise ValueError(f"gamma grid {name} must be finite, got {value}")
        if self.lo <= 0 or self.hi <= self.lo:
            raise ValueError("need 0 < lo < hi")
        if self.step is not None and self.step <= 0:
            raise ValueError("step must be positive")
        if self.points < 1:
            raise ValueError(f"gamma grid points must be at least 1, got {self.points}")

    def values(self) -> np.ndarray:
        if self.step is not None:
            count = int(np.floor((self.hi - self.lo) / self.step + 1e-9)) + 1
            return self.lo + self.step * np.arange(count)
        return np.geomspace(self.lo, self.hi, self.points)


def _split_logistic(z, c_values):
    """Logistic weights of one gamma and several c on z, from one outer product.

    Returns ``weights(gamma, c, out)``, which writes G(z; gamma, c_j) into
    row j of ``out`` for each c_j of ``c`` (taken from ``c_values``).  The
    exponential splits at m, the middle of z's range:
    exp(-gamma (z - c)) = exp(gamma (c - m)) * exp(-gamma (z - m)), so a call
    takes one ``exp`` over the rows and one over ``c``, and fills
    1 / (1 + e_c e_z) in place with a multiply, an add and a divide.  Neither
    argument exceeds gamma * h, h the half-range of z and ``c_values``, so
    while gamma * h is at most ``_OUTER_EXP_LIMIT`` both factors are finite
    and normal.  Their product overflows where the direct form's ``exp``
    does, to the same weight 0, and beyond roundoff of the saturation points
    both forms give exactly 0 and 1.  Each form is within about
    (4 gamma h + 4) u of the exact weight, relative, u the unit roundoff.  A
    steeper gamma (on a random walk of half-range 25, above 28) takes the
    direct form, with the bits of ``_transition_weights``.
    """
    mid = z.min() / 2 + z.max() / 2
    z_mid = z - mid
    half = max(np.abs(z_mid).max(), np.abs(c_values - mid).max())

    def weights(gamma, c, out):
        if gamma * half > _OUTER_EXP_LIMIT:
            return _transition_weights(LOGISTIC, z, gamma, c[:, None], out)
        with np.errstate(over="ignore"):
            np.multiply(np.exp(gamma * (c[:, None] - mid)), np.exp(-gamma * z_mid), out=out)
        np.add(1.0, out, out=out)
        return np.divide(1.0, out, out=out)

    return weights


def _normal_equations(btb, bty, products, lower):
    """Stacked Gram matrices and X'y of the designs [base, w*block].

    ``products`` holds each candidate's w @ [cross | block*y] and ``lower``
    its (w*w) @ auto, the upper triangle of block'(w*w)block by rows.
    """
    m, kb = len(products), len(btb)
    ka = products.shape[1] // (kb + 1)
    k = kb + ka
    tri = np.triu_indices(ka)
    gram = np.empty((m, k, k))
    gram[:, :kb, :kb] = btb
    upper = products[:, : kb * ka].reshape(m, kb, ka)
    gram[:, :kb, kb:] = upper
    gram[:, kb:, :kb] = upper.transpose(0, 2, 1)
    gram[:, kb + tri[0], kb + tri[1]] = lower
    gram[:, kb + tri[1], kb + tri[0]] = lower
    rhs = np.empty((m, k))
    rhs[:, :kb] = bty
    rhs[:, kb:] = products[:, kb * ka :]
    return gram, rhs


def _banded_bounds(kind, at, gammas, lin, auto, btb, bty, yy):
    """Floor and ceiling of the tile RSS of every time-threshold candidate.

    Yields ``(start, floor, ceiling)`` chunk by chunk: the bounds of the
    candidates start, start + 1, ... in gamma-major order.  With z
    consecutive integers and c = z[p] (``at`` holds each c's p), candidate
    (gamma, c) weights row i by G(i - p).  G = S + E: S is the step G tends
    to (0, 1/2, 1 below, at and above p for logistic; 1 off p and 0 on it
    for exponential), and |E| <= exp(-gamma |d|), or exp(-gamma d^2), at
    lag d.  So S's part of w @ [lin | auto] comes from suffix sums of the
    rows, and E's from the band |d| <= h beyond which that envelope is under
    the unit roundoff u, h = ceil(ln(1/u) / gamma) (its square root for
    exponential): one (gammas, band) @ (band, c columns) product per block
    of c, over the band's rows of ``lin`` and ``auto``.  The band's weights
    are ``_transition_weights`` on the lags, the floats the tiles use.  Each
    banded Gram is certified and solved by a batched Cholesky, and its RSS
    less or plus a margin is the candidate's floor and ceiling.

    The margin.  Let n be the rows, k the coefficients, gamma_j =
    j u / (1 - j u), and G and r the exact Gram and X'y of the computed
    weights w (and of fl(w*w)); both forms share base'base, base'y and y'y
    to the bit.  The tiles' products are off from G and r by at most gamma_n
    times the column absolute sums of ``lin`` and ``auto`` (|w| <= 1).  The
    banded form is off by gamma_n for its suffix sums, gamma_(2h+1) for its
    band, 4u for the lags beyond the band (u from the envelope and 3u for
    the rounding of w; 9u for w*w) and a rounding each for E and two sums.
    So the two differ entrywise by at most e = gamma_4n + 12u times those
    sums, A in the Gram and a in X'y.  RSS = y'y - r'G^-1 r is stationary in
    beta = G^-1 r, so to first order the data move it by
    e (|beta|'A|beta| + 2 |beta|'a).  The tiles solve by LU with partial
    pivoting, exact for G + F with |F| <= gamma_3k P'|L||U| (Higham,
    Accuracy and Stability of Numerical Algorithms, Thm 9.3), and with
    |l_ij| <= 1, |L||L^-1| <= 2^(k-1) entrywise, so
    |beta'F beta| <= gamma_3k 2^(k-1) ||beta||_1 1'|G||beta|.  The banded
    Cholesky solve adds at most gamma_(3k+1) (sum_i sqrt(g_ii) |beta_i|)^2
    (``_cholesky_solve``), each dot r'beta gamma_k |r|'|beta| and each final
    subtraction u RSS.  E is the sum of these terms, taken with the banded
    beta, G and r, and the margin is 2 E: the factor 2 covers the computed
    beta in place of the exact one and every second-order term while the
    whole perturbation, eta = e ||A||_F + (gamma_3k 2^(k-1) k^1.5 +
    gamma_(3k+1)) trace(G) in norm, is at most 1/8 of lambda_min(G).  That
    holds where the banded Gram passes ``_certified_well_conditioned`` with
    the shift ``_CERTIFY_RATIO`` trace(G) + 8 eta: lambda_min(G) is then at
    least 8 eta, and the tiles' Gram, within e ||A||_F of it, keeps an
    eigenvalue ratio of about ``_CERTIFY_RATIO``, so their rank screen
    passes it and its tile RSS is finite.  A Gram that fails, doubtful or
    near the screen, gets no floor (-inf) and no ceiling (inf), and the
    tiles screen it.  Unlike ``_block_floors``'s margin, this one does not
    go through a bound on lambda_min, which badly scaled designs make large:
    on volatility series it is 1e-9 to 1e-6 of the RSS.
    """
    rows, width = lin.shape
    kb = len(btb)
    k = kb + width // (kb + 1)
    u = np.finfo(float).eps / 2
    n_c = len(at)
    e = _gamma_u(4 * rows) + 12 * u
    lu = _gamma_u(3 * k) * 2.0 ** (k - 1)
    abs_sums, abs_rhs = _normal_equations(
        np.zeros((kb, kb)), np.zeros(kb), np.abs(lin).sum(0)[None], np.abs(auto).sum(0)[None]
    )
    abs_sums, abs_rhs = abs_sums[0], abs_rhs[0]
    data_norm = e * np.sqrt((abs_sums * abs_sums).sum())

    # S's part: suffix sums of the rows, plus or minus a share of row p
    both = np.hstack([lin, auto])
    suffix = np.zeros((rows + 1, both.shape[1]))
    suffix[:rows] = np.cumsum(both[::-1], axis=0)[::-1]
    if kind == LOGISTIC:
        share = np.repeat([0.5, 0.25], [width, auto.shape[1]])
        steps = suffix[at + 1] + share * both[at]
    else:
        steps = suffix[0] - both[at]
    step_lin, step_auto = steps[:, :width], steps[:, width:]
    del both, suffix

    reach = np.log(1 / u) / gammas
    if kind == EXPONENTIAL:
        reach = np.sqrt(reach)
    half = np.minimum(np.ceil(reach), rows - 1).astype(np.intp)
    pad = int(half.max())
    padded_lin = np.zeros((rows + 2 * pad, width))
    padded_lin[pad : pad + rows] = lin
    padded_auto = np.zeros((rows + 2 * pad, auto.shape[1]))
    padded_auto[pad : pad + rows] = auto

    def bounds(products, lower):
        gram, rhs = _normal_equations(btb, bty, products, lower)
        trace = np.trace(gram, axis1=1, axis2=2)
        eta = data_norm + (lu * k**1.5 + _gamma_u(3 * k + 1)) * trace
        certified = _certified_well_conditioned(gram, _CERTIFY_RATIO * trace + 8 * eta)
        gram[~certified], rhs[~certified] = np.eye(k), 0.0
        beta = _cholesky_solve(gram, rhs)
        rss = yy - np.einsum("mk,mk->m", rhs, beta)
        size = np.abs(beta)
        error = e * (np.einsum("mi,ij,mj->m", size, abs_sums, size) + 2 * size @ abs_rhs)
        error += lu * size.sum(1) * np.einsum("mij,mj->m", np.abs(gram), size)
        scaled = size * np.sqrt(np.einsum("mii->mi", gram))
        error += _gamma_u(3 * k + 1) * np.square(scaled.sum(1))
        error += 2 * _gamma_u(k) * np.einsum("mk,mk->m", np.abs(rhs), size) + 2 * u * np.abs(rss)
        margin = 2 * error
        valid = certified & np.isfinite(margin)
        floor = np.where(valid, rss - margin, -np.inf)
        return floor, np.where(valid, np.maximum(rss + margin, 0.0), np.inf)

    # chunks of about _GRID_CHUNK / 2 candidates in index order, whole rows
    # of gammas or a block of c of one gamma, each of gammas whose band
    # half-widths share a power of 2
    per_g, per_c = max(1, _GRID_CHUNK // (2 * n_c)), min(n_c, _GRID_CHUNK // 2)
    scale = np.frexp(half + 1)[1]
    cuts = [0, *(np.flatnonzero(np.diff(scale)) + 1), len(gammas)]
    for lo, hi in zip(cuts, cuts[1:]):
        for g0 in range(lo, hi, per_g):
            g = gammas[g0 : min(g0 + per_g, hi)]
            h = int(half[g0 : g0 + len(g)].max())
            lags = np.arange(-h, h + 1, dtype=float)
            w = _transition_weights(kind, lags, g[:, None], 0.0)
            step = (lags > 0) + 0.5 * (lags == 0) if kind == LOGISTIC else 1.0 * (lags != 0)
            band, band_sq = w - step, w * w - step * step
            offsets = np.arange(2 * h + 1) + (pad - h)
            # the band's rows of a block of c take at most about 1 MB
            per_block = max(1, (1 << 20) // (8 * (2 * h + 1) * width))
            for c0 in range(0, n_c, per_c):
                c1 = min(c0 + per_c, n_c)
                products = np.empty((len(g), c1 - c0, width))
                lower = np.empty((len(g), c1 - c0, auto.shape[1]))
                for b0 in range(c0, c1, per_block):
                    b1 = min(b0 + per_block, c1)
                    band_rows = at[b0:b1][None, :] + offsets[:, None]
                    lin_band = band @ padded_lin[band_rows].reshape(2 * h + 1, -1)
                    auto_band = band_sq @ padded_auto[band_rows].reshape(2 * h + 1, -1)
                    done = slice(b0 - c0, b1 - c0)
                    products[:, done] = lin_band.reshape(len(g), b1 - b0, -1) + step_lin[b0:b1]
                    lower[:, done] = auto_band.reshape(len(g), b1 - b0, -1) + step_auto[b0:b1]
                del band_rows, lin_band, auto_band
                m = len(g) * (c1 - c0)
                yield g0 * n_c + c0, *bounds(products.reshape(m, -1), lower.reshape(m, -1))


def _profiled_grid(base, block, y, z, gammas, c_values, kind, time_threshold):
    """Best (gamma, c) over the grid, profiling out the linear coefficients.

    For each candidate the design is [base, G*block] and the coefficients
    solve by OLS through batched Gram assembly.  Returns (gamma, c, rss) of
    the winner; candidates whose design is rank deficient are skipped.
    Candidates are scanned gamma-major, c-minor, and ties keep the first.

    Candidates are scored a tile at a time, in place in a (tile, rows)
    buffer of weights w, so memory grows linearly in rows.  A lagged value
    takes three products, w @ cross, w @ block*y and, once w is squared in
    place, (w*w) @ auto.  A time threshold takes one product per power of w:
    w @ [cross | block*y], and (w*w) @ auto with auto zero-padded to the
    same width.

    A lagged-value threshold evaluates each candidate's transition on z.  A
    logistic one takes its weights from one outer product per run of one
    gamma in a tile (``_split_logistic``): an ``exp`` over the rows and one
    over the run's c values, O(rows) per gamma and never a table over the
    whole gamma grid.  An exponential one is evaluated directly: its
    2 gamma z c term does not split into a row factor times a c factor.
    ``_first_min`` scores chunks of whole tiles on up to two worker threads;
    each chunk makes its own weights buffer, and a chunk is sized so that
    the workers together hold about ``_GRID_CHUNK`` candidates at a time.
    Every product has ``tile`` rows: chunks hold whole tiles, and the grid's
    short last tile reaches back over candidates already scored.  So the
    tiles are the same whatever the chunk size, and so is the RSS, to the
    bit.  A lagged value's 1 MiB tiles, half of a 2 MiB L2 cache, are
    faster, and most of their products run in the small-matrix kernel,
    whose bits depend on a row's position in the tile but not on the
    buffer's alignment.  So that tile size is a constant, never read from
    the host: another size would move the last bits, and with them a winner
    where candidates tie to roundoff, as on a random walk's plateau of steep
    gammas.

    A time threshold requires z to be consecutive integers and every c one
    of them.  A grid of at most one ``_TIME_TILE_BYTES`` tile is one product
    of its own rows.  A larger one first bounds every candidate's tile RSS
    (``_banded_bounds``, which derives the bound): from suffix sums and a
    band of lags, O(rows) per gamma plus a band per candidate, it certifies
    and solves a banded Gram G with X'y r and coefficients beta, and the
    floor and ceiling are that RSS less and plus 2 E, with

        E = e (|beta|'A|beta| + 2 |beta|'a)
            + gamma_3k 2^(k-1) ||beta||_1 1'|G||beta|
            + gamma_(3k+1) (sum_i sqrt(g_ii) |beta_i|)^2
            + 2 gamma_k |r|'|beta| + 2 u RSS,

    e = gamma_4n + 12u, A and a the column absolute sums of the products'
    right-hand sides, u the unit roundoff and gamma_j = j u / (1 - j u).  A
    Gram that fails ``_certified_well_conditioned`` with the shift
    ``_CERTIFY_RATIO`` trace(G) + 8 eta, eta the norm of the perturbation,
    is doubtful or near the rank screen: it gets floor -inf and ceiling inf.
    Only candidates whose floor is at most the least ceiling, or the least
    tile RSS already found, are scored with the tiles: weights that are
    windows of ``_transition_weights`` on the lags z - c, zero past the last
    candidate, one product per power of w and ``_screened_rss``.  Every other
    candidate's tile RSS exceeds the winner's, so it can neither win nor
    tie, and the winner, its RSS and the first-wins rule are those of
    scoring every candidate with the tiles.  On volatility series a
    logistic grid leaves one tile of candidates, scored on the calling
    thread.  Nearly every time-threshold ESTAR Gram is doubtful, so once
    more than half of the candidates bounded so far have no floor, the rest
    of the grid goes to the tiles unbounded, on up to two threads like a
    lagged grid, in chunks of whole tiles.  Survivors and unbounded ranges
    of candidates reach the tiles through the same scan, and separate scans
    merge by candidate index, so ties keep the first.

    A 2 MiB tile makes 2**18 multiply-adds per product column, and the
    narrowest product has 6 columns, so every full tile's products take
    more than the 1e6 under which OpenBLAS switches to its small-matrix
    kernel.  In the blocked kernel an entry's bits do not depend on the
    tile's rows or the candidate's place in it (``TestPaddedTileProducts``
    pins this on the installed OpenBLAS), so a candidate's tile RSS is the
    same whichever candidates share its tile.  A grid of at most one tile
    runs in the small-matrix kernel when under the limit, as it always did.
    """
    rows, kb = base.shape
    ka = block.shape[1]
    btb = base.T @ base
    bty = base.T @ y
    yy = float(y @ y)
    cross = (base[:, :, None] * block[:, None, :]).reshape(rows, kb * ka)
    tri = np.triu_indices(ka)
    auto = (block[:, :, None] * block[:, None, :])[:, tri[0], tri[1]]
    block_y = block * y[:, None]
    n_c = len(c_values)
    n_candidates = len(gammas) * n_c

    if time_threshold:
        # one product per power of w: w @ [cross | block*y], and (w*w) @ auto
        # zero-padded to the same width
        lin = np.hstack([cross, block_y])
        auto_wide = np.zeros_like(lin)
        auto_wide[:, : auto.shape[1]] = auto
        tile = min(n_candidates, -(-_TIME_TILE_BYTES // (8 * rows)))
        at = (c_values - z[0]).astype(np.intp)

        def score(picks):
            # tile by tile, zero past the last pick.  The picks read windows
            # of one table of their gammas' transitions on the lags they
            # reach, the floats z - c; a run of one gamma and consecutive c
            # is one reversed slab
            picks = np.asarray(picks)
            weights = np.empty((tile, rows))
            m = len(picks)
            products = np.empty((m, lin.shape[1]))
            lower = np.empty((m, auto.shape[1]))
            pick_g, pick_at = picks // n_c, at[picks % n_c]
            new_gamma = np.diff(pick_g, prepend=-1) != 0
            last = pick_at.max()
            lags = np.arange(-last, rows - pick_at.min(), dtype=float)
            table = _transition_weights(kind, lags, gammas[pick_g[new_gamma], None], 0.0)
            # windows[j, s] holds the j-th gamma's weights of the c at row last - s
            windows = np.lib.stride_tricks.sliding_window_view(table, rows, axis=1)
            group, reach = np.cumsum(new_gamma) - 1, last - pick_at
            breaks = np.flatnonzero((np.diff(pick_g) != 0) | (np.diff(pick_at) != 1)) + 1
            for start in range(0, m, tile):
                end = min(start + tile, m)
                first_break, last_break = np.searchsorted(breaks, [start + 1, end])
                runs = [start, *breaks[first_break:last_break], end]
                for lo, hi in zip(runs, runs[1:]):
                    slab = windows[group[lo], reach[hi - 1] : reach[lo] + 1]
                    np.copyto(weights[lo - start : hi - start], slab[::-1])
                weights[end - start :] = 0.0
                products[start:end] = (weights @ lin)[: end - start]
                squares = np.multiply(weights, weights, out=weights)
                lower[start:end] = (squares @ auto_wide)[: end - start, : auto.shape[1]]
            del weights, squares, table, windows
            return _screened_rss(*_normal_equations(btb, bty, products, lower), yy)

    else:
        if kind == LOGISTIC:
            split = _split_logistic(z, c_values)
        tile = min(n_candidates, -(-_LAGGED_TILE_BYTES // (8 * rows)))

        def fill(picks, weights):
            pick_g, pick_c = picks // n_c, picks % n_c
            if kind != LOGISTIC:
                return _transition_weights(
                    kind, z, gammas[pick_g, None], c_values[pick_c, None], weights
                )
            # candidates are gamma-major, so a tile is a few runs of one gamma
            cuts = [0, *(np.flatnonzero(np.diff(pick_g)) + 1), len(picks)]
            for lo, hi in zip(cuts, cuts[1:]):
                split(gammas[pick_g[lo]], c_values[pick_c[lo:hi]], weights[lo:hi])
            return weights

        def score(picks):
            # picks is a range: a lagged grid is scanned whole
            weights = np.empty((tile, rows))
            products = np.empty((len(picks), kb * ka + ka))
            lower = np.empty((len(picks), auto.shape[1]))
            for lo in range(picks.start, picks.stop, tile):
                hi = min(lo + tile, picks.stop)
                # the grid's short last tile reaches back over scored rows
                first = max(0, hi - tile)
                w = fill(np.arange(first, hi), weights)
                done, new = slice(lo - picks.start, hi - picks.start), slice(lo - first, None)
                products[done, : kb * ka] = (w @ cross)[new]
                products[done, kb * ka :] = (w @ block_y)[new]
                lower[done] = (np.multiply(w, w, out=w) @ auto)[new]
            del weights, w
            return _screened_rss(*_normal_equations(btb, bty, products, lower), yy)

    # each chunk holds a (tile, rows) buffer: two threads at most keep a
    # lagged grid's buffers within 2 MiB on any host
    workers = min(_WORKERS, 2)
    chunk = tile * max(1, _GRID_CHUNK // (workers * tile))
    best, best_rss = -1, np.inf

    def settle(picks):
        # the first least tile RSS of picks, increasing candidate indices (an
        # array or a range) read picks[lo:hi] a chunk at a time, against the
        # best so far: separate scans merge by index, so ties keep the first
        nonlocal best, best_rss
        try:
            pick, rss = _first_min(len(picks), lambda lo, hi: score(picks[lo:hi]), chunk, workers)
        except NoFeasibleThreshold:
            return
        if rss < best_rss or (rss == best_rss and picks[pick] < best):
            best, best_rss = int(picks[pick]), rss

    # a time grid of more than one tile first bounds every candidate; a
    # grid of one tile is one product, unbounded
    stop = 0
    if time_threshold and n_candidates > tile:
        cutoff, unfloored = np.inf, 0
        pending, floors = np.empty(0, np.intp), np.empty(0)
        for start, floor, ceiling in _banded_bounds(kind, at, gammas, lin, auto, btb, bty, yy):
            stop = start + len(floor)
            unfloored += int(np.count_nonzero(floor == -np.inf))
            cutoff = min(cutoff, float(ceiling.min()), best_rss)
            keep = floors <= cutoff
            alive = np.flatnonzero(floor <= cutoff)
            pending = np.concatenate([pending[keep], start + alive])
            floors = np.concatenate([floors[keep], floor[alive]])
            if unfloored > stop // 2:
                # most Grams are doubtful: the tiles screen the rest unbounded
                break
            if len(pending) >= _GRID_CHUNK:
                settle(pending)
                pending, floors = pending[:0], floors[:0]
        settle(pending[floors <= cutoff])
    # every candidate from stop on: all of an unbounded grid
    settle(range(stop, n_candidates))
    if best < 0:
        raise NoFeasibleThreshold("every candidate threshold is rank deficient")
    return float(gammas[best // n_c]), float(c_values[best % n_c]), best_rss


def _pack_star(theta, k1, n_transitions):
    a = theta[:k1]
    blocks = theta[k1 : k1 * (n_transitions + 1)].reshape(n_transitions, k1)
    gammas = theta[k1 * (n_transitions + 1) : k1 * (n_transitions + 1) + n_transitions]
    cs = theta[k1 * (n_transitions + 1) + n_transitions :]
    return a, blocks, gammas, cs


def fit_lstar(
    series,
    order: int,
    n_transitions: int = 1,
    threshold_variable: ThresholdVariable | None = None,
    gamma_grid: GammaGrid | None = None,
    gamma_init: float = 3.0,
    min_fraction: float | None = None,
    transition: str = LOGISTIC,
    refine: bool = True,
) -> RegimeModel:
    """Smooth-transition autoregression with one or two additive transitions.

    Stage 1 grids over (gamma, c) - c taken from the trimmed observed
    threshold values, gamma from ``gamma_grid`` plus ``gamma_init`` - solving
    the remaining coefficients by OLS.  Stage 2 refines everything jointly by
    damped Gauss-Newton started at the grid winner; if refinement fails the
    grid model is returned with ``converged=False``.  With two transitions
    the second is grid-fit greedily given the first, and the refined pair is
    reported with thresholds in increasing order.
    """
    check_transition_count(n_transitions)
    if transition not in (LOGISTIC, EXPONENTIAL):
        raise ValueError(f"unknown transition kind {transition!r}")
    tv = threshold_variable or ThresholdVariable(TIME)
    grid = gamma_grid or GammaGrid()
    x, design, y, z, _, z_sorted, positions, min_count = _grid_setup(
        series, order, tv, min_fraction, n_transitions + 1
    )
    k1 = order + 1
    # np.unique's result, without its first-use import of numpy.ma mid-fit
    gammas = np.sort(np.append(grid.values(), gamma_init))
    gammas = gammas[np.append(True, gammas[1:] != gammas[:-1])]

    # greedy: each transition is grid-fit given the ones before, its c at
    # least min_count rows from theirs (every position already leaves that many
    # at both ends); the design built up is also the stage-1 OLS design
    base = design
    grid_gammas, grid_cs = [], []
    c_positions = positions
    for _ in range(n_transitions):
        try:
            gamma, c, _ = _profiled_grid(
                base, design, y, z, gammas, z_sorted[c_positions], transition, tv.kind == TIME
            )
        except NoFeasibleThreshold as exc:
            raise NoFeasibleThreshold(f"transition {len(grid_cs) + 1}: {exc}") from None
        grid_gammas.append(gamma)
        grid_cs.append(c)
        base = np.hstack([base, _transition_weights(transition, z, gamma, c)[:, None] * design])
        at = np.searchsorted(z_sorted, c, side="left")
        c_positions = c_positions[np.abs(c_positions - at) >= min_count]
    stage1 = ols_fit(base, y)

    # the refinement stays inside the searched region: gamma within the grid
    # bounds, c within the trimmed span of observed threshold values
    theta0 = np.concatenate([stage1.coefficients, grid_gammas, grid_cs])
    free = np.full(len(stage1.coefficients), np.inf)
    each = np.ones(n_transitions)
    lower = np.concatenate([-free, min(grid.lo, gamma_init) * each, z_sorted[positions[0]] * each])
    upper = np.concatenate([free, grid.hi * each, z_sorted[positions[-1]] * each])

    def residual(theta):
        a, blocks, gs, cs = _pack_star(theta, k1, n_transitions)
        mean = design @ a
        for j in range(n_transitions):
            gamma_j = max(gs[j], 1e-12)
            mean = mean + _transition_weights(transition, z, gamma_j, cs[j]) * (design @ blocks[j])
        return y - mean

    theta, errors, converged = theta0, None, False
    if refine:
        try:
            nls = nls_fit(residual, theta0, bounds=(lower, upper))
            theta, errors, converged = nls.coefficients, nls.standard_errors, nls.converged
        except (SingularJacobian, NonFiniteResidual, TooShort, RankDeficient):
            pass
    cs = _pack_star(theta, k1, n_transitions)[3]
    if len(cs) > 1 and cs[0] == cs[1]:
        # refinement collapsed the two thresholds; keep the grid solution
        theta, errors, converged = theta0, None, False

    # one permutation of the parameter positions puts the transitions in
    # increasing c, each with its own block and gamma
    a_at, blocks_at, gammas_at, cs_at = _pack_star(np.arange(len(theta)), k1, n_transitions)
    by_c = np.argsort(theta[cs_at], kind="stable")
    permutation = np.concatenate([a_at, blocks_at[by_c].ravel(), gammas_at[by_c], cs_at[by_c]])
    a, blocks, gs, cs = _pack_star(theta[permutation], k1, n_transitions)
    if errors is not None:
        errors = errors[permutation]

    kind = "lstar" if transition == LOGISTIC else "estar"
    specs = tuple(TransitionSpec(kind=transition, gamma=float(g), c=float(c)) for g, c in zip(gs, cs))
    names = _ar_names(order, "base.")
    for j in range(n_transitions):
        names.extend(_ar_names(order, f"block{j + 1}."))
    names.extend(f"gamma{j + 1}" for j in range(n_transitions))
    names.extend(f"c{j + 1}" for j in range(n_transitions))

    return _finish_model(
        kind=kind,
        order=order,
        regimes=[a, *blocks],
        thresholds=cs,
        transitions=specs,
        tv=tv,
        series_vals=x,
        standard_errors=errors,
        parameter_names=tuple(names),
        converged=converged,
    )


def simulate(
    model,
    length: int,
    noise_sd: float,
    seed: int | None = 0,
    burn_in: int = 100,
) -> np.ndarray:
    """Iterate ``model.step`` with seeded Gaussian innovations.

    Any model with ``order`` and ``step(history, t)`` works: the regime
    models and the neural AR.  The first ``burn_in`` draws are discarded;
    for time-threshold models the time variable is 1..length over the
    returned stretch (burn-in steps sit at t <= 0).  Raises ExplosivePath
    when |X_t| exceeds 1e8.
    """
    if length < 1:
        raise ValueError("length must be positive")
    if not 0 <= noise_sd < np.inf:
        raise ValueError(f"noise_sd must be finite and non-negative, got {noise_sd}")
    if burn_in < 0:
        raise ValueError("burn_in must be non-negative")
    rng = default_rng(seed)
    history = [0.0] * max(model.order, 1)
    path = np.empty(burn_in + length)
    for i in range(burn_in + length):
        value = model.step(history, float(i - burn_in + 1))
        if noise_sd > 0:
            value += rng.normal(0.0, noise_sd)
        if abs(value) > _EXPLOSION_LIMIT:
            raise ExplosivePath(f"|X_t| exceeded {_EXPLOSION_LIMIT:g} at step {i}")
        path[i] = value
        history.append(value)
    return path[burn_in:]
