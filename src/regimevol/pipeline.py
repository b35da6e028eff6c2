"""End-to-end orchestration: ingest -> transform -> tests -> fits -> report.

Every stage writes its artifact to the output directory and any failure is
re-raised as a PipelineError naming the stage.  Given the same config the
run is fully deterministic, including the JSON bytes on disk.
"""

from __future__ import annotations

import datetime as dt
import os
from dataclasses import dataclass, field, fields

from . import dataio
from .errors import PipelineError, RegimevolError
from .linearity import terasvirta_first_order, terasvirta_zero_order
from .neural import TrainConfig, train_nnet_ar
from .regimes import (
    GammaGrid,
    LAGGED_VALUE,
    TIME,
    ThresholdVariable,
    fit_ar,
    fit_lstar,
    fit_setar,
    select_ar_order,
)
from .selection import score_models
from .series import log_returns, realized_volatility
from .stationarity import TREND_BREAK, perron_detrend, phillips_perron

ENV_OUTPUT_DIR = "REGIMEVOL_OUTPUT_DIR"
ENV_SEED = "REGIMEVOL_SEED"


@dataclass
class ModelRequest:
    """One candidate model in the comparison set."""

    kind: str  # ar | setar | lstar | estar | nnet
    order: int = 1
    regimes: int = 2          # setar regime count
    transitions: int = 1      # lstar/estar transition count
    threshold: str = TIME     # time | lagged_value
    delay: int = 1
    min_fraction: float | None = None
    gamma_lo: float = 1.0
    gamma_hi: float = 200.0
    gamma_step: float | None = None
    gamma_points: int = 200
    hidden: int = 2
    restarts: int = 20
    # gradient descent stalls on raw inputs below ~O(0.1); training runs on
    # standardized inputs and the weights are mapped back exactly
    standardize: bool = True

    def __post_init__(self):
        if self.kind not in ("ar", "setar", "lstar", "estar", "nnet"):
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.threshold not in (TIME, LAGGED_VALUE):
            raise ValueError(f"unknown threshold variable {self.threshold!r}")

    @classmethod
    def from_dict(cls, payload: dict) -> "ModelRequest":
        _reject_unknown_keys(cls, payload, "a model entry")
        return cls(**payload)


def _reject_unknown_keys(cls, payload: dict, where: str) -> None:
    if not isinstance(payload, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(payload).__name__}")
    unknown = sorted(set(payload) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown key {', '.join(map(repr, unknown))} in {where}")


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
        if not 0 < self.significance <= 0.5:
            raise ValueError("significance must be in (0, 0.5]")
        if (self.break_date is None) == (self.break_index is None):
            raise ValueError("provide exactly one of break_date / break_index")
        self.models = [
            m if isinstance(m, ModelRequest) else ModelRequest.from_dict(m) for m in self.models
        ]

    @classmethod
    def from_dict(cls, payload: dict) -> "PipelineConfig":
        payload = dict(payload)
        payload.pop("schema_version", None)
        _reject_unknown_keys(cls, payload, "the run config")
        if ENV_OUTPUT_DIR in os.environ:
            payload["output_dir"] = os.environ[ENV_OUTPUT_DIR]
        if ENV_SEED in os.environ:
            payload["seed"] = int(os.environ[ENV_SEED])
        return cls(**payload)


def _break_index_for(config: PipelineConfig, prices) -> int:
    if config.break_index is not None:
        return config.break_index
    target = dt.date.fromisoformat(config.break_date)
    for i, stamp in enumerate(prices.timestamps):
        if stamp == target:
            return i + 1  # 1-indexed time convention
    raise ValueError(f"break date {config.break_date} not found in the input dates")


def _fit_request(request: ModelRequest, volatility, seed: int):
    tv = ThresholdVariable(kind=request.threshold, delay=request.delay)
    if request.kind == "ar":
        return fit_ar(volatility, request.order)
    if request.kind == "setar":
        return fit_setar(
            volatility,
            request.order,
            n_regimes=request.regimes,
            threshold_variable=tv,
            min_fraction=request.min_fraction,
        )
    if request.kind in ("lstar", "estar"):
        grid = GammaGrid(
            lo=request.gamma_lo,
            hi=request.gamma_hi,
            step=request.gamma_step,
            points=request.gamma_points,
        )
        return fit_lstar(
            volatility,
            request.order,
            n_transitions=request.transitions,
            threshold_variable=tv,
            gamma_grid=grid,
            min_fraction=request.min_fraction,
            transition="logistic" if request.kind == "lstar" else "exponential",
        )
    result = train_nnet_ar(
        volatility,
        request.order,
        request.hidden,
        TrainConfig(restarts=request.restarts, seed=seed, standardize=request.standardize),
    )
    return result.model


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
    out = config.output_dir
    os.makedirs(out, exist_ok=True)
    artifacts: dict[str, str] = {}

    def path(name: str) -> str:
        return os.path.join(out, name)

    # ingest
    try:
        prices = dataio.ingest(config.input_path)
    except RegimevolError as exc:
        raise PipelineError("ingest", str(exc)) from exc

    # transform
    try:
        returns = log_returns(prices)
        volatility = realized_volatility(
            returns, config.volatility_window, centered=config.centered_volatility
        )
        dataio.write_series_csv(
            path("returns.csv"),
            returns.values,
            index=[d.isoformat() for d in prices.timestamps[1:]],
            header=("date", "value"),
        )
        dataio.write_series_csv(
            path("volatility.csv"),
            volatility.values,
            index=[d.isoformat() for d in prices.timestamps[config.volatility_window:]],
            header=("date", "value"),
        )
        artifacts["returns"] = path("returns.csv")
        artifacts["volatility"] = path("volatility.csv")
    except RegimevolError as exc:
        raise PipelineError("transform", str(exc)) from exc

    # unit root with structural break
    try:
        break_index = _break_index_for(config, prices)
        detrend = perron_detrend(prices, break_index, config.detrend_specification)
        pp = phillips_perron(detrend.residuals)
        dataio.write_json(
            path("unitroot.json"),
            {
                "break_index": break_index,
                "break_date": config.break_date,
                "specification": detrend.specification,
                "detrend_coefficients": list(detrend.coefficients),
                "detrend_standard_errors": list(detrend.standard_errors),
                "z_statistic": pp.z_statistic,
                "p_value": pp.p_value,
                "bandwidth": pp.bandwidth,
                "long_run_variance": pp.long_run_variance,
                "critical_values": {str(k): v for k, v in pp.critical_values.items()},
                "reject_unit_root_at_significance": pp.p_value < config.significance,
            },
        )
        artifacts["unitroot"] = path("unitroot.json")
    except (RegimevolError, ValueError) as exc:
        raise PipelineError("unitroot", str(exc)) from exc

    # linearity tests on the volatility series
    try:
        order_table = select_ar_order(volatility, config.ar_max_order)
        test_order = max(1, order_table.best_aic)
        zero = terasvirta_zero_order(volatility, test_order, config.significance)
        first = terasvirta_first_order(volatility, test_order, config.significance)
        dataio.write_json(
            path("linearity.json"),
            {
                "order_selection": {
                    "rows": [
                        {"order": o, "aic": a, "bic": b} for o, a, b in order_table.rows
                    ],
                    "best_aic": order_table.best_aic,
                    "best_bic": order_table.best_bic,
                },
                "ar_order_used": test_order,
                "significance": config.significance,
                "zero_order": _linearity_dict(zero),
                "first_order": _linearity_dict(first),
                "verdict": first.verdict,
            },
        )
        artifacts["linearity"] = path("linearity.json")
    except RegimevolError as exc:
        raise PipelineError("linearity", str(exc)) from exc

    # model fits
    fitted_models = []
    labels = []
    for position, request in enumerate(config.models, start=1):
        slug = _request_slug(request, position)
        try:
            model = _fit_request(request, volatility, config.seed)
        except RegimevolError as exc:
            raise PipelineError(f"fit:{slug}", str(exc)) from exc
        fitted_models.append(model)
        labels.append(model.label)
        dataio.write_json(path(f"model_{slug}.json"), dataio.model_to_dict(model))
        if hasattr(model, "kind"):
            dataio.emit_plot_data(model, path(f"fitted_{slug}.csv"), series=volatility)
        else:
            fitted, residuals = model.one_step(volatility)
            dataio.write_series_csv(
                path(f"fitted_{slug}.csv"),
                fitted,
                index=range(model.order + 1, len(volatility.values) + 1),
                header=("index", "fitted"),
            )
        artifacts[f"model_{slug}"] = path(f"model_{slug}.json")
        artifacts[f"fitted_{slug}"] = path(f"fitted_{slug}.csv")

    # comparison
    try:
        report = score_models(fitted_models, volatility, labels)
        dataio.write_json(
            path("comparison.json"),
            {
                "common_sample": report.common_sample,
                "best_by_aic": report.best_by_aic,
                "best_by_bic": report.best_by_bic,
                "best_by_mape": report.best_by_mape,
                "scores": [
                    {
                        "model_id": s.model_id,
                        "n_obs": s.n_obs,
                        "n_params": s.n_params,
                        "rss": s.rss,
                        "aic": s.aic,
                        "bic": s.bic,
                        "mape": s.mape,
                        "mape_n_excluded": s.mape_n_excluded,
                    }
                    for s in report.scores
                ],
            },
        )
        with open(path("comparison.txt"), "w") as handle:
            handle.write(report.to_text() + "\n")
        artifacts["comparison"] = path("comparison.json")
        artifacts["comparison_text"] = path("comparison.txt")
    except RegimevolError as exc:
        raise PipelineError("compare", str(exc)) from exc

    return artifacts


def _linearity_dict(report) -> dict:
    return {
        "variant": report.variant,
        "aux_coefficients": list(report.aux_fit.coefficients),
        "aux_standard_errors": list(report.aux_fit.standard_errors),
        "overall_f": {
            "statistic": report.overall_f.statistic,
            "p_value": report.overall_f.p_value,
            "df_num": report.overall_f.df_num,
            "df_den": report.overall_f.df_den,
        },
        "nonlinear_terms_f": {
            "statistic": report.nonlinear_terms_f.statistic,
            "p_value": report.nonlinear_terms_f.p_value,
            "df_num": report.nonlinear_terms_f.df_num,
            "df_den": report.nonlinear_terms_f.df_den,
        },
        "cubic_term_t": {
            "statistic": report.cubic_term_t.statistic,
            "p_value": report.cubic_term_t.p_value,
            "df": report.cubic_term_t.df,
        },
        "verdict": report.verdict,
    }
