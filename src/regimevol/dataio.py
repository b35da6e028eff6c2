"""CSV ingestion, JSON (de)serialization of fitted models, plot-data emission.

All JSON artifacts carry a ``schema_version`` field and are serialized with
sorted keys so identical runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import datetime as dt
import json

import numpy as np

from .errors import EmptyFile, IoError, ParseError
from .neural import NnetArModel
from .regimes import (
    RegimeModel,
    ThresholdVariable,
    TransitionSpec,
    _threshold_row_values,
    one_step_fitted,
)
from .series import PriceSeries, series_values

SCHEMA_VERSION = 1


def ingest(path) -> PriceSeries:
    """Read a two-column ``date,close`` CSV into a validated PriceSeries."""
    try:
        handle = open(path, newline="")
    except OSError as exc:
        raise ParseError(f"cannot open {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyFile(f"{path} is empty") from None
        names = [cell.strip().lower() for cell in header]
        if names != ["date", "close"]:
            raise ParseError(f"line 1: expected header 'date,close', got {','.join(header)!r}")
        timestamps: list[dt.date] = []
        values: list[float] = []
        for line_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise ParseError(f"line {line_no}: expected 2 columns, got {len(row)}")
            try:
                stamp = dt.date.fromisoformat(row[0].strip())
            except ValueError:
                raise ParseError(f"line {line_no}: invalid ISO date {row[0]!r}") from None
            try:
                close = float(row[1])
            except ValueError:
                raise ParseError(f"line {line_no}: invalid close {row[1]!r}") from None
            if not np.isfinite(close) or close <= 0:
                raise ParseError(f"line {line_no}: close must be a positive finite number")
            if timestamps and stamp <= timestamps[-1]:
                raise ParseError(f"line {line_no}: date {stamp} not after {timestamps[-1]}")
            timestamps.append(stamp)
            values.append(close)
    if not values:
        raise EmptyFile(f"{path} has no data rows")
    return PriceSeries(timestamps=tuple(timestamps), values=np.array(values), label=str(path))


def read_series_csv(path) -> np.ndarray:
    """Read a generic one- or two-column series CSV (header optional).

    With two columns the first (date or index) is ignored and the second is
    the value.
    """
    try:
        handle = open(path, newline="")
    except OSError as exc:
        raise ParseError(f"cannot open {path}: {exc}") from exc
    values: list[float] = []
    with handle:
        reader = csv.reader(handle)
        for line_no, row in enumerate(reader, start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            cell = row[-1].strip()
            try:
                value = float(cell)
            except ValueError:
                if line_no == 1:
                    continue  # header
                raise ParseError(f"line {line_no}: invalid value {cell!r}") from None
            if not np.isfinite(value):
                raise ParseError(f"line {line_no}: value must be finite, got {cell!r}")
            values.append(value)
    if not values:
        raise EmptyFile(f"{path} has no data rows")
    return np.array(values)


def write_series_csv(path, values, index=None, header=("index", "value")) -> None:
    values = series_values(values)
    if index is None:
        index = range(1, len(values) + 1)
    try:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            for i, v in zip(index, values):
                writer.writerow([i, repr(float(v))])
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def write_json(path, payload: dict) -> None:
    payload = dict(payload)
    payload.setdefault("schema_version", SCHEMA_VERSION)
    try:
        with open(path, "w") as handle:
            json.dump(_plain(payload), handle, sort_keys=True, indent=2)
            handle.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _plain(obj):
    """Recursively convert numpy containers into strict-JSON values.

    Non-finite floats become null (e.g. the unestimated threshold slots in
    a standard-error vector).
    """
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    return obj


def regime_model_to_dict(model: RegimeModel) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "model": "regime",
        "kind": model.kind,
        "order": model.order,
        "regimes": [list(r) for r in model.regimes],
        "thresholds": list(model.thresholds),
        "transitions": [
            {"kind": t.kind, "gamma": t.gamma, "c": t.c} for t in model.transitions
        ],
        "threshold_variable": {
            "kind": model.threshold_variable.kind,
            "delay": model.threshold_variable.delay,
        },
        "rss": model.rss,
        "regime_proportions": list(model.regime_proportions),
        "n_parameters": model.n_parameters,
        "converged": model.converged,
        "standard_errors": None
        if model.standard_errors is None
        else list(model.standard_errors),
        "parameter_names": None
        if model.parameter_names is None
        else list(model.parameter_names),
    }


def nnet_model_to_dict(model: NnetArModel) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "model": "nnet",
        "n_inputs": model.n_inputs,
        "n_hidden": model.n_hidden,
        "output_bias": model.output_bias,
        "output_weights": list(model.output_weights),
        "hidden_biases": list(model.hidden_biases),
        "hidden_weights": [list(row) for row in model.hidden_weights],
        "skip_weights": None if model.skip_weights is None else list(model.skip_weights),
        "n_parameters": model.n_parameters,
    }


def model_to_dict(model) -> dict:
    if isinstance(model, RegimeModel):
        return regime_model_to_dict(model)
    if isinstance(model, NnetArModel):
        return nnet_model_to_dict(model)
    raise TypeError(f"cannot serialize {type(model).__name__}")


def model_from_dict(payload: dict):
    """Rebuild a model from its JSON dict (fit diagnostics are not restored)."""
    if payload.get("model") == "nnet":
        skip = payload.get("skip_weights")
        return NnetArModel(
            n_inputs=int(payload["n_inputs"]),
            n_hidden=int(payload["n_hidden"]),
            output_bias=float(payload["output_bias"]),
            output_weights=np.array(payload["output_weights"], dtype=float),
            hidden_biases=np.array(payload["hidden_biases"], dtype=float),
            hidden_weights=np.array(payload["hidden_weights"], dtype=float),
            skip_weights=None if skip is None else np.array(skip, dtype=float),
        )
    tv = payload.get("threshold_variable", {"kind": "time", "delay": 1})
    return RegimeModel(
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
        regime_proportions=np.array(
            payload.get("regime_proportions", [1.0] * len(payload["regimes"])), dtype=float
        ),
        converged=bool(payload.get("converged", True)),
    )


def load_model_json(path):
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot open {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    return model_from_dict(payload)


def emit_plot_data(obj, path, series=None) -> None:
    """Write plot-ready CSV for a series or a fitted model.

    Series objects produce (index-or-date, value) rows.  Regime models (with
    the estimation series supplied) produce per-row fitted/residual columns
    plus regime membership (hard-threshold kinds) or one transition-weight
    column per smooth transition.
    """
    if isinstance(obj, RegimeModel):
        if series is None:
            raise ValueError("plot data for a model needs the series it was fitted on")
        x = series_values(series)
        fitted, residuals = one_step_fitted(obj, x)
        z = _threshold_row_values(obj.threshold_variable, x, obj.order)
        rows = np.arange(obj.order + 1, len(x) + 1)
        actual = x[obj.order :]
        try:
            with open(path, "w", newline="") as handle:
                writer = csv.writer(handle)
                if obj.kind in ("ar", "setar"):
                    writer.writerow(["index", "actual", "fitted", "residual", "regime"])
                    if len(obj.thresholds):
                        regime = np.searchsorted(obj.thresholds, z, side="right")
                    else:
                        regime = np.zeros(len(z), dtype=int)
                    for i in range(len(rows)):
                        writer.writerow(
                            [rows[i], repr(actual[i]), repr(fitted[i]), repr(residuals[i]), int(regime[i])]
                        )
                else:
                    weight_names = [f"weight{j + 1}" for j in range(len(obj.transitions))]
                    writer.writerow(["index", "actual", "fitted", "residual", *weight_names])
                    weights = [t.weights(z) for t in obj.transitions]
                    for i in range(len(rows)):
                        writer.writerow(
                            [rows[i], repr(actual[i]), repr(fitted[i]), repr(residuals[i])]
                            + [repr(float(w[i])) for w in weights]
                        )
        except OSError as exc:
            raise IoError(f"cannot write {path}: {exc}") from exc
        return

    if isinstance(obj, PriceSeries):
        write_series_csv(path, obj.values, index=[d.isoformat() for d in obj.timestamps], header=("date", "value"))
        return
    write_series_csv(path, series_values(obj))
