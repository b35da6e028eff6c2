"""CSV ingestion, JSON (de)serialization of fitted models, plot-data emission.

All JSON artifacts carry a ``schema_version`` field and are serialized with
sorted keys so identical runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import os
from contextlib import contextmanager

import numpy as np

from .errors import DimensionMismatch, EmptyFile, IoError, ParseError
from .neural import NnetArModel
from .regimes import RegimeModel
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
    _write_csv(path, header, zip(index, values.tolist()))


def make_output_dir(path) -> None:
    """Create ``path`` and its parents unless it exists; IoError if that fails."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output directory {path}: {exc}") from exc


@contextmanager
def _writing(path, newline=None):
    """Open ``path`` for writing; any OSError opening or writing it is an IoError."""
    try:
        with open(path, "w", newline=newline) as handle:
            yield handle
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _write_csv(path, header, rows) -> None:
    # cells are Python ints, floats and strings, and str(float) is its
    # shortest round-trip repr
    with _writing(path, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_text(path, text: str) -> None:
    with _writing(path) as handle:
        handle.write(text)


def write_json(path, payload: dict) -> None:
    payload = dict(payload)
    payload.setdefault("schema_version", SCHEMA_VERSION)
    with _writing(path) as handle:
        json.dump(_plain(payload), handle, sort_keys=True, indent=2)
        handle.write("\n")


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


def model_to_dict(model) -> dict:
    return {"schema_version": SCHEMA_VERSION, **model.to_dict()}


def model_from_dict(payload: dict):
    """Rebuild a model from its JSON dict (fit diagnostics are not restored)."""
    if payload.get("model") == "nnet":
        return NnetArModel.from_dict(payload)
    return RegimeModel.from_dict(payload)


def read_json_object(path) -> dict:
    """The JSON object in the file at ``path``; a ParseError naming the file if there is none."""
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot open {path}: {exc}") from exc
    except ValueError as exc:  # undecodable text too, not only bad JSON
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ParseError(f"{path}: expected a JSON object, got {type(payload).__name__}")
    return payload


def load_model_json(path):
    payload = read_json_object(path)
    try:
        return model_from_dict(payload)
    except KeyError as exc:
        raise ParseError(f"{path}: missing key {exc}") from exc
    except (DimensionMismatch, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def emit_plot_data(model, path, series) -> None:
    """Write the plot-ready CSV of a model fitted on ``series``: the columns
    of its ``fitted_columns``, per-row fitted values plus actuals, residuals
    and regime membership or transition weights for the regime models."""
    columns = model.fitted_columns(series)
    _write_csv(path, list(columns), zip(*(c.tolist() for c in columns.values())))
