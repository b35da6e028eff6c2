"""Information criteria, MAPE, and the cross-model comparison report."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AllZeroActuals, ZeroRss
from .series import series_values


def aic(rss: float, n: int, k: int) -> float:
    """Gaussian-concentrated Akaike criterion: n*ln(rss/n) + 2k."""
    _validate_ic_args(rss, n, k)
    return n * math.log(rss / n) + 2.0 * k


def bic(rss: float, n: int, k: int) -> float:
    """Gaussian-concentrated Bayesian criterion: n*ln(rss/n) + k*ln(n)."""
    _validate_ic_args(rss, n, k)
    return n * math.log(rss / n) + k * math.log(n)


def _validate_ic_args(rss: float, n: int, k: int) -> None:
    if rss <= 0:
        raise ZeroRss("information criteria are undefined for rss <= 0")
    if k < 0 or n <= k:
        raise ValueError(f"need n > k >= 0, got n={n}, k={k}")


def mape(actual, fitted) -> float:
    """Mean absolute percentage error over points with a nonzero actual."""
    a = np.asarray(actual, dtype=float)
    f = np.asarray(fitted, dtype=float)
    if a.shape != f.shape or a.ndim != 1 or a.size == 0:
        raise ValueError("actual and fitted must be equal-length non-empty vectors")
    nonzero = a != 0
    if not np.any(nonzero):
        raise AllZeroActuals("every actual value is zero")
    return float(100.0 * np.mean(np.abs(a[nonzero] - f[nonzero]) / np.abs(a[nonzero])))


@dataclass(frozen=True)
class ModelScore:
    model_id: str
    n_obs: int
    n_params: int
    rss: float
    aic: float
    bic: float
    mape: float
    mape_n_excluded: int


@dataclass(frozen=True)
class ComparisonReport:
    scores: tuple[ModelScore, ...]
    best_by_aic: str
    best_by_bic: str
    best_by_mape: str
    common_sample: int

    def to_text(self) -> str:
        """Aligned plain-text table, one row per candidate."""
        header = f"{'Model':<24}{'n':>6}{'k':>4}{'RSS':>14}{'AIC':>12}{'BIC':>12}{'MAPE':>9}"
        lines = [header, "-" * len(header)]
        for s in self.scores:
            lines.append(
                f"{s.model_id:<24}{s.n_obs:>6}{s.n_params:>4}"
                f"{s.rss:>14.6g}{s.aic:>12.2f}{s.bic:>12.2f}{s.mape:>8.2f}%"
            )
        lines.append("-" * len(header))
        lines.append(
            f"best by AIC: {self.best_by_aic} | best by BIC: {self.best_by_bic}"
            f" | best by MAPE: {self.best_by_mape}"
        )
        return "\n".join(lines)


def compare(candidates: Sequence, series, labels: Sequence[str] | None = None) -> ComparisonReport:
    """Score every candidate on the largest common sample of ``series``.

    Candidates must expose ``order``, ``n_parameters`` and
    ``one_step(series) -> (fitted, residuals)``.  Fitted values are trimmed to
    the common rows implied by the largest lag order so all scores share the
    same n.  Ties are broken by listing order.
    """
    if len(candidates) < 2:
        raise ValueError("need at least 2 candidates to compare")
    return score_models(candidates, series, labels)


def score_models(candidates: Sequence, series, labels: Sequence[str] | None = None) -> ComparisonReport:
    """Like :func:`compare` but accepts a single candidate (one-row report)."""
    if not candidates:
        raise ValueError("need at least one candidate")
    x = series_values(series)
    max_order = max(model.order for model in candidates)
    n_common = len(x) - max_order
    if n_common < 2:
        raise ValueError("series too short for the largest candidate order")
    actual = x[max_order:]
    zero_count = int(np.sum(actual == 0))

    if labels is None:
        labels = [model.label for model in candidates]
    if len(labels) != len(candidates):
        raise ValueError("labels must match candidates")

    scores = []
    for label, model in zip(labels, candidates):
        fitted, _ = model.one_step(x)
        fitted = fitted[-n_common:]
        rss = float(np.sum((actual - fitted) ** 2))
        k = model.n_parameters
        scores.append(
            ModelScore(
                model_id=label,
                n_obs=n_common,
                n_params=k,
                rss=rss,
                aic=aic(rss, n_common, k),
                bic=bic(rss, n_common, k),
                mape=mape(actual, fitted),
                mape_n_excluded=zero_count,
            )
        )

    scores = tuple(scores)
    return ComparisonReport(
        scores=scores,
        best_by_aic=min(scores, key=lambda s: s.aic).model_id,
        best_by_bic=min(scores, key=lambda s: s.bic).model_id,
        best_by_mape=min(scores, key=lambda s: s.mape).model_id,
        common_sample=n_common,
    )
