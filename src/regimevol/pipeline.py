"""End-to-end orchestration: ingest -> transform -> tests -> fits -> report.

Each step is one function here - ``transform``, ``unitroot``, ``linearity``,
``fit`` and ``compare`` - that returns its result and writes its artifact;
the CLI subcommands and ``run_pipeline`` both call them.  In a run any
failure is re-raised as a PipelineError naming the stage.  Given the same
config the run is fully deterministic, including the JSON bytes on disk.
"""

from __future__ import annotations

import datetime as dt
import functools
import os
import types
import typing
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields

from . import dataio
from .errors import PipelineError, RegimevolError
from .linearity import check_significance, terasvirta_first_order, terasvirta_zero_order
from .neural import TrainConfig, check_network, train_nnet_ar
from .regimes import (
    GammaGrid,
    ThresholdVariable,
    check_regime_count,
    check_transition_count,
    checked_min_fraction,
    fit_ar,
    fit_lstar,
    fit_setar,
    select_ar_order,
)
from .selection import score_models
from .series import check_order, log_returns, realized_volatility
from .stationarity import TREND_BREAK, perron_detrend, phillips_perron

ENV_OUTPUT_DIR = "REGIMEVOL_OUTPUT_DIR"
ENV_SEED = "REGIMEVOL_SEED"
MODEL_KINDS = ("ar", "setar", "lstar", "estar", "nnet")


@dataclass
class ModelRequest:
    """One candidate model in the comparison set."""

    kind: str  # one of MODEL_KINDS
    order: int = 1
    regimes: int = 2          # setar regime count
    transitions: int = 1      # lstar/estar transition count
    threshold: str = ThresholdVariable.kind
    delay: int = ThresholdVariable.delay
    min_fraction: float | None = None
    gamma_lo: float = GammaGrid.lo
    gamma_hi: float = GammaGrid.hi
    gamma_step: float | None = GammaGrid.step
    gamma_points: int = GammaGrid.points
    hidden: int = 2
    restarts: int = TrainConfig.restarts
    standardize: bool = TrainConfig.standardize

    def __post_init__(self):
        # a malformed setting fails here, before any stage runs
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        threshold = self.threshold_variable()
        if self.kind == "nnet":
            check_network(self.order, self.hidden)
            self.train_config()
        else:
            check_order(self.order)
        if self.kind in ("setar", "lstar", "estar"):
            threshold.check_order(self.order)
        if self.kind == "setar":
            check_regime_count(self.regimes)
            checked_min_fraction(self.min_fraction, self.regimes)
        elif self.kind in ("lstar", "estar"):
            check_transition_count(self.transitions)
            checked_min_fraction(self.min_fraction, self.transitions + 1)
            self.gamma_grid()

    def train_config(self, seed: int = TrainConfig.seed) -> TrainConfig:
        return TrainConfig(restarts=self.restarts, seed=seed, standardize=self.standardize)

    def threshold_variable(self) -> ThresholdVariable:
        return ThresholdVariable(self.threshold, self.delay)

    def gamma_grid(self) -> GammaGrid:
        return GammaGrid(
            lo=self.gamma_lo, hi=self.gamma_hi, step=self.gamma_step, points=self.gamma_points
        )

    @classmethod
    def from_dict(cls, payload: dict) -> "ModelRequest":
        _check_payload(cls, payload, "a model entry")
        return cls(**payload)


@functools.cache
def field_types(cls) -> dict[str, tuple]:
    """The types each field of ``cls`` is annotated with: ``X | None`` as
    (X, NoneType), ``list[X]`` as (list,)."""
    allowed = {}
    for name, hint in typing.get_type_hints(cls).items():
        union = typing.get_args(hint) if isinstance(hint, types.UnionType) else (hint,)
        allowed[name] = tuple(typing.get_origin(t) or t for t in union)
    return allowed


def _check_payload(cls, payload: dict, where: str) -> None:
    """Reject a non-object, unknown keys and values of the wrong JSON type."""
    if not isinstance(payload, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(payload).__name__}")
    unknown = sorted(set(payload) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown key {', '.join(map(repr, unknown))} in {where}")
    for key, value in payload.items():
        allowed = field_types(cls)[key]
        if float in allowed:
            allowed += (int,)
        if not isinstance(value, allowed) or (isinstance(value, bool) and bool not in allowed):
            expected = " or ".join("null" if t is type(None) else t.__name__ for t in allowed)
            raise ValueError(
                f"{key!r} in {where} must be {expected}, got {type(value).__name__}"
            )


def _default_models() -> list[ModelRequest]:
    return [
        ModelRequest(kind="ar", order=1),
        ModelRequest(kind="lstar", order=1, transitions=1),
        ModelRequest(kind="setar", order=1, regimes=3),
        ModelRequest(kind="lstar", order=1, transitions=2),
        ModelRequest(kind="nnet", order=1, hidden=2),
    ]


@dataclass
class PipelineConfig:
    input_path: str
    break_date: str | None = None
    break_index: int | None = None
    volatility_window: int = 60
    centered_volatility: bool = True
    ar_max_order: int = 20
    significance: float = 0.05
    detrend_specification: str = TREND_BREAK
    models: list[ModelRequest] = field(default_factory=_default_models)
    seed: int = 0
    output_dir: str = "regimevol-out"

    def __post_init__(self):
        if self.volatility_window < 2:
            raise ValueError("volatility window must be >= 2")
        check_significance(self.significance)
        if (self.break_date is None) == (self.break_index is None):
            raise ValueError("provide exactly one of break_date / break_index")
        if not self.models:
            raise ValueError("'models' must name at least one model")
        self.models = [
            m if isinstance(m, ModelRequest) else ModelRequest.from_dict(m) for m in self.models
        ]
        for model in self.models:
            if model.kind == "nnet":
                model.train_config(self.seed)

    @classmethod
    def from_dict(cls, payload: dict) -> "PipelineConfig":
        if isinstance(payload, dict):
            payload = dict(payload)
            payload.pop("schema_version", None)
        _check_payload(cls, payload, "the run config")
        if ENV_OUTPUT_DIR in os.environ:
            payload["output_dir"] = os.environ[ENV_OUTPUT_DIR]
        if ENV_SEED in os.environ:
            try:
                payload["seed"] = int(os.environ[ENV_SEED])
            except ValueError:
                raise ValueError(
                    f"{ENV_SEED} must be an integer, got {os.environ[ENV_SEED]!r}"
                ) from None
        return cls(**payload)


@contextmanager
def _stage(name: str):
    """Re-raise a failure inside the block as a PipelineError naming ``name``."""
    try:
        yield
    except (RegimevolError, ValueError) as exc:
        raise PipelineError(name, str(exc)) from exc


def transform(prices, window: int, centered: bool, returns_path: str, volatility_path: str):
    """Log returns and realized volatility, each written as a date,value CSV."""
    returns = log_returns(prices)
    volatility = realized_volatility(returns, window, centered=centered)
    for path, series, dates in (
        (returns_path, returns, prices.timestamps[1:]),
        (volatility_path, volatility, prices.timestamps[window:]),
    ):
        dataio.write_series_csv(
            path, series.values, index=[d.isoformat() for d in dates], header=("date", "value")
        )
    return returns, volatility


def unitroot(
    prices, break_date, break_index, specification: str, significance: float, path=None
) -> dict:
    """Perron detrending at the break plus Phillips-Perron on the residuals.

    The break is the 1-indexed ``break_index``, or when that is None
    ``break_date`` (an ISO date, looked up in the price dates).
    """
    if break_index is None:
        target = dt.date.fromisoformat(break_date)
        if target not in prices.timestamps:
            raise ValueError(f"break date {break_date} not found in the input dates")
        break_index = prices.timestamps.index(target) + 1  # 1-indexed time convention
    detrend = perron_detrend(prices, break_index, specification)
    pp = phillips_perron(detrend.residuals)
    payload = {
        "break_index": break_index,
        "break_date": break_date,
        "specification": detrend.specification,
        "detrend_coefficients": list(detrend.coefficients),
        "detrend_standard_errors": list(detrend.standard_errors),
        "z_statistic": pp.z_statistic,
        "p_value": pp.p_value,
        "bandwidth": pp.bandwidth,
        "long_run_variance": pp.long_run_variance,
        "critical_values": {str(k): v for k, v in pp.critical_values.items()},
        "reject_unit_root_at_significance": pp.p_value < significance,
    }
    if path:
        dataio.write_json(path, payload)
    return payload


def linearity(series, significance: float, path=None, ar_order=None, ar_max_order=PipelineConfig.ar_max_order) -> dict:
    """Teräsvirta zero- and first-order tests of ``series``.

    The zero-order test runs at ``ar_order`` and the first-order test at
    ``max(1, ar_order)``.  Without an ``ar_order`` the order is the AIC choice
    among AR(0..ar_max_order), raised to at least 1, and the payload carries
    the order-selection table.
    """
    check_significance(significance)  # before the order search can fail on its own
    payload: dict = {"significance": significance}
    if ar_order is None:
        table = select_ar_order(series, ar_max_order)
        ar_order = max(1, table.best_aic)
        payload["order_selection"] = {
            "rows": [{"order": o, "aic": a, "bic": b} for o, a, b in table.rows],
            "best_aic": table.best_aic,
            "best_bic": table.best_bic,
        }
    zero = terasvirta_zero_order(series, ar_order, significance)
    first = terasvirta_first_order(series, max(1, ar_order), significance)
    payload.update(
        ar_order_used=ar_order,
        zero_order=_linearity_dict(zero),
        first_order=_linearity_dict(first),
        verdict=first.verdict,
    )
    if path:
        dataio.write_json(path, payload)
    return payload


def fit(request: ModelRequest, series, seed: int):
    """Fit one requested model."""
    tv = request.threshold_variable()
    if request.kind == "ar":
        return fit_ar(series, request.order)
    if request.kind == "setar":
        return fit_setar(
            series,
            request.order,
            n_regimes=request.regimes,
            threshold_variable=tv,
            min_fraction=request.min_fraction,
        )
    if request.kind in ("lstar", "estar"):
        return fit_lstar(
            series,
            request.order,
            n_transitions=request.transitions,
            threshold_variable=tv,
            gamma_grid=request.gamma_grid(),
            min_fraction=request.min_fraction,
            transition="logistic" if request.kind == "lstar" else "exponential",
        )
    return train_nnet_ar(series, request.order, request.hidden, request.train_config(seed)).model


def write_fit(model, series, model_path: str, fitted_path: str) -> None:
    """Write a fitted model's JSON and its fitted values' CSV."""
    dataio.write_json(model_path, dataio.model_to_dict(model))
    dataio.emit_plot_data(model, fitted_path, series=series)


def compare(models, series, json_path: str, text_path: str):
    """Rank fitted models by AIC, BIC and MAPE; write the report as JSON and text."""
    report = score_models(models, series)
    dataio.write_json(json_path, asdict(report))
    dataio.write_text(text_path, report.to_text() + "\n")
    return report


def _request_slug(request: ModelRequest, position: int) -> str:
    if request.kind == "ar":
        detail = f"ar{request.order}"
    elif request.kind == "setar":
        detail = f"setar{request.regimes}_p{request.order}"
    elif request.kind in ("lstar", "estar"):
        detail = f"{request.kind}{request.transitions + 1}_p{request.order}"
    else:
        detail = f"nnet{request.order}_{request.hidden}"
    return f"{position:02d}_{detail}"


def run_pipeline(config: PipelineConfig) -> dict[str, str]:
    """Run the full chain and return a name -> path map of artifacts."""
    dataio.make_output_dir(config.output_dir)
    artifacts: dict[str, str] = {}

    def path(name: str, filename: str) -> str:
        artifacts[name] = os.path.join(config.output_dir, filename)
        return artifacts[name]

    with _stage("ingest"):
        prices = dataio.ingest(config.input_path)
    with _stage("transform"):
        _, volatility = transform(
            prices,
            config.volatility_window,
            config.centered_volatility,
            path("returns", "returns.csv"),
            path("volatility", "volatility.csv"),
        )
    with _stage("unitroot"):
        unitroot(
            prices,
            config.break_date,
            config.break_index,
            config.detrend_specification,
            config.significance,
            path("unitroot", "unitroot.json"),
        )
    with _stage("linearity"):
        linearity(
            volatility,
            config.significance,
            path("linearity", "linearity.json"),
            ar_max_order=config.ar_max_order,
        )
    models = []
    for position, request in enumerate(config.models, start=1):
        slug = _request_slug(request, position)
        with _stage(f"fit:{slug}"):
            models.append(fit(request, volatility, config.seed))
            write_fit(
                models[-1],
                volatility,
                path(f"model_{slug}", f"model_{slug}.json"),
                path(f"fitted_{slug}", f"fitted_{slug}.csv"),
            )
    with _stage("compare"):
        compare(
            models,
            volatility,
            path("comparison", "comparison.json"),
            path("comparison_text", "comparison.txt"),
        )
    return artifacts


def _linearity_dict(report) -> dict:
    return {
        "variant": report.variant,
        "aux_coefficients": list(report.aux_fit.coefficients),
        "aux_standard_errors": list(report.aux_fit.standard_errors),
        "overall_f": asdict(report.overall_f),
        "nonlinear_terms_f": asdict(report.nonlinear_terms_f),
        "cubic_term_t": asdict(report.cubic_term_t),
        "verdict": report.verdict,
    }
