"""Spans around calls into the package's public functions, from outside it.

``Tracer`` replaces module attributes with wrappers that record a span
(name, start, end, parent, run id) per call and restores them on exit.  The
attributes are wrapped both where they are defined and where
``run_pipeline`` resolves them (the ``regimevol.pipeline`` namespace and the
``regimevol.dataio`` module), so a traced ``run_pipeline`` sees exactly the
arguments an untraced one does.

Spans stay in memory; ``rep_layer_totals`` turns one repetition's spans into
the per-layer numbers and the caller writes the spans out at the end.
"""

from __future__ import annotations

import importlib
import inspect
import math
import os
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

import regimevol.neural as neural
import regimevol.regimes as regimes

# (module, attribute, span name).  A span name is "<layer>.<metric stem>".
WRAPPED = [
    ("regimevol.pipeline", "run_pipeline", "pipeline.run"),
    ("regimevol.series", "log_returns", "series.transform"),
    ("regimevol.series", "realized_volatility", "series.transform"),
    ("regimevol.stationarity", "perron_detrend", "stationarity.unitroot"),
    ("regimevol.stationarity", "phillips_perron", "stationarity.unitroot"),
    ("regimevol.linearity", "terasvirta_zero_order", "linearity.test"),
    ("regimevol.linearity", "terasvirta_first_order", "linearity.test"),
    ("regimevol.regimes", "select_ar_order", "regimes.order_select"),
    ("regimevol.regimes", "fit_ar", "regimes.ar"),
    ("regimevol.regimes", "fit_setar", "regimes.setar"),
    ("regimevol.regimes", "fit_lstar", "regimes.star"),
    ("regimevol.regimes", "simulate", "regimes.simulate"),
    ("regimevol.neural", "train_nnet_ar", "neural.train"),
    ("regimevol.selection", "compare", "selection.score"),
    ("regimevol.selection", "score_models", "selection.score"),
    ("regimevol.dataio", "ingest", "dataio.ingest"),
    ("regimevol.dataio", "write_json", "dataio.write"),
    ("regimevol.dataio", "write_series_csv", "dataio.write"),
    ("regimevol.dataio", "emit_plot_data", "dataio.write"),
    ("regimevol.dataio", "model_to_dict", "dataio.serialize"),
]
# run_pipeline's own imports of the same functions
_PIPELINE_NAMES = [
    "log_returns", "realized_volatility", "perron_detrend", "phillips_perron",
    "terasvirta_zero_order", "terasvirta_first_order", "select_ar_order",
    "fit_ar", "fit_setar", "fit_lstar", "train_nnet_ar", "score_models",
]

LAYERS = ["series", "dataio", "stationarity", "linearity", "regimes", "neural",
          "selection", "pipeline"]

_WRITES = ("write_json", "write_series_csv", "emit_plot_data")


def wrap_table() -> list[tuple[str, str, str]]:
    defining = {attr: name for _, attr, name in WRAPPED}
    return WRAPPED + [("regimevol.pipeline", attr, defining[attr]) for attr in _PIPELINE_NAMES]


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int = -1
    run_id: int = 0
    failed: bool = False
    info: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "run_id": self.run_id, "failed": self.failed,
                **({"info": self.info} if self.info else {})}


def _bound(original, args, kwargs):
    bound = inspect.signature(original).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class _Patcher:
    """Replace module attributes with wrappers; restore them on exit."""

    def __init__(self, table):
        self.table = table
        self.saved = []

    def __enter__(self):
        for module_name, attr, span_name in self.table:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self.saved.append((module, attr, original))
            setattr(module, attr, self.make_wrapper(original, attr, span_name))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self.saved):
            setattr(module, attr, original)
        self.saved.clear()
        return False

    def make_wrapper(self, original, attr, span_name):
        raise NotImplementedError


class Tracer(_Patcher):
    """Record a span per wrapped call.  ``run_id`` tags the repetition."""

    def __init__(self):
        super().__init__(wrap_table())
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.run_id = 0
        self.star_calls: list[dict] = []     # bound arguments of each fit_lstar, for the replay

    def make_wrapper(self, original, attr, span_name):
        tracer = self

        def traced(*args, **kwargs):
            span = Span(span_name, 0.0, parent=tracer.stack[-1] if tracer.stack else -1,
                        run_id=tracer.run_id)
            index = len(tracer.spans)
            tracer.spans.append(span)
            tracer.stack.append(index)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                tracer.stack.pop()
            tracer._annotate(span, attr, original, args, kwargs, result)
            return result

        traced.__wrapped__ = original
        return traced

    def _annotate(self, span, attr, original, args, kwargs, result):
        """Record the exact counts a span carries (outside its timed interval)."""
        if attr == "fit_setar":
            arguments = _bound(original, args, kwargs)
            span.name = f"regimes.setar{arguments['n_regimes']}"
            if arguments["n_regimes"] == 3:
                span.info["pairs"] = setar3_pairs(arguments)
        elif attr == "fit_lstar":
            span.info["converged"] = bool(result.converged)
            self.star_calls.append({"run_id": span.run_id, "args": args, "kwargs": kwargs})
        elif attr == "train_nnet_ar":
            config = _bound(original, args, kwargs)["config"] or neural.TrainConfig()
            span.info.update(
                restarts=config.restarts,
                winner_restart=result.restart_index,
                winner_iterations=result.iterations,
                converged=bool(result.converged),
            )
        elif attr in _WRITES:
            span.info["bytes"] = os.path.getsize(_bound(original, args, kwargs)["path"])


class PeakProbe(_Patcher):
    """During a tracemalloc pass, record each SETAR-3 and STAR fit's own peak."""

    def __init__(self):
        super().__init__([(m, a, n) for m, a, n in wrap_table()
                          if a in ("fit_setar", "fit_lstar")])
        self.peaks = {"setar3": 0, "star": 0}

    def make_wrapper(self, original, attr, span_name):
        probe = self

        def measured(*args, **kwargs):
            key = "star" if attr == "fit_lstar" else (
                "setar3" if _bound(original, args, kwargs)["n_regimes"] == 3 else None)
            if key is None or not tracemalloc.is_tracing():
                return original(*args, **kwargs)
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return original(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] - base
                probe.peaks[key] = max(probe.peaks[key], peak)

        return measured


# ---------------------------------------------------------------------------
# candidate counts computed from the input (not counted by the program)
# ---------------------------------------------------------------------------


def _split_geometry(x, order, tv, min_fraction):
    """Sorted threshold values, rows, minimum regime count and split positions.

    Mirrors the documented candidate rule: observed threshold values,
    trimmed so each regime keeps ``max(ceil(min_fraction * rows), order + 2)``
    rows.
    """
    x = np.asarray(getattr(x, "values", x), dtype=float)
    n = len(x)
    rows = n - order
    if tv is None or tv.kind == "time":
        z = np.arange(order + 1, n + 1, dtype=float)
    else:
        z = x[order - tv.delay : n - tv.delay]
    min_count = max(int(np.ceil(min_fraction * rows)), order + 2)
    z_sorted = np.sort(z, kind="stable")
    boundaries = np.flatnonzero(z_sorted[1:] > z_sorted[:-1]) + 1
    positions = boundaries[(boundaries >= min_count) & (boundaries <= rows - min_count)]
    return z_sorted, rows, min_count, positions


def setar3_pairs(arguments: dict) -> int:
    """Threshold pairs a 3-regime SETAR grid scores, from its input."""
    min_fraction = arguments["min_fraction"]
    if min_fraction is None:
        min_fraction = 0.10
    _, _, min_count, positions = _split_geometry(
        arguments["series"], arguments["order"], arguments["threshold_variable"], min_fraction)
    later = np.searchsorted(positions, positions + min_count, side="left")
    return int(np.sum(len(positions) - later))


def star_candidates(arguments: dict, first_threshold=None) -> int:
    """(gamma, c) pairs a STAR grid scores, from its input.

    With two transitions the second grid depends on the first grid's
    winning threshold, which the caller passes in.
    """
    n_transitions = arguments["n_transitions"]
    min_fraction = arguments["min_fraction"]
    if min_fraction is None:
        min_fraction = 0.15 if n_transitions == 1 else 0.10
    z_sorted, rows, min_count, positions = _split_geometry(
        arguments["series"], arguments["order"], arguments["threshold_variable"], min_fraction)
    grid = arguments["gamma_grid"] or regimes.GammaGrid()
    n_gamma = len(np.unique(np.append(grid.values(), arguments["gamma_init"])))
    total = n_gamma * len(positions)
    if n_transitions == 2:
        a1 = int(np.searchsorted(z_sorted, first_threshold, side="left"))
        lo = np.minimum(a1, positions)
        hi = np.maximum(a1, positions)
        counts = np.minimum(np.minimum(lo, hi - lo), rows - hi)
        total += n_gamma * int(np.sum(counts >= min_count))
    return total


# ---------------------------------------------------------------------------
# spans -> per-layer metrics
# ---------------------------------------------------------------------------


def rep_layer_totals(spans: list[Span], run_id: int) -> dict:
    """Totals of one traced repetition's spans.

    A span's time counts toward its name only when no ancestor has the same
    name, so nested calls (``compare`` -> ``score_models``) are not counted
    twice.  ``calls`` per layer counts spans entered from outside that layer.
    """
    totals: dict[str, float] = {f"{layer}.{kind}": 0 for layer in LAYERS
                                for kind in ("calls", "failed")}
    mine = [i for i, span in enumerate(spans) if span.run_id == run_id]
    child_time = {i: 0.0 for i in mine}
    for i in mine:
        if spans[i].parent >= 0:
            child_time[spans[i].parent] += spans[i].end - spans[i].start

    def add(key, value):
        totals[key] = totals.get(key, 0.0) + value

    for i in mine:
        span = spans[i]
        layer = span.name.split(".")[0]
        if span.parent < 0 or spans[span.parent].name.split(".")[0] != layer:
            add(f"{layer}.calls", 1)
            add(f"{layer}.failed", int(span.failed))
        parent = span.parent
        while parent >= 0 and spans[parent].name != span.name:
            parent = spans[parent].parent
        if parent >= 0:
            continue  # inside a span of the same name
        add(span.name + "_s", span.end - span.start)
        if "bytes" in span.info:
            add("dataio.bytes_written", span.info["bytes"])
        if span.name == "pipeline.run":
            add("pipeline.self_s", span.end - span.start - child_time[i])
    return totals


def replay_star_grids(fit_lstar, calls: list[dict]) -> tuple[float, int]:
    """Seconds of the recorded fit_lstar calls replayed with refine=False, and their candidates.

    The candidate count is computed from each call's input; for two
    transitions the first grid's winning threshold comes from an extra,
    untimed one-transition replay over the same candidates.
    """
    seconds, candidates = 0.0, 0
    for call in calls:
        arguments = _bound(fit_lstar, call["args"], call["kwargs"])
        start = time.perf_counter()
        fit_lstar(**{**arguments, "refine": False})
        seconds += time.perf_counter() - start
        first = None
        if arguments["n_transitions"] == 2:
            min_fraction = arguments["min_fraction"]
            first = fit_lstar(**{
                **arguments, "n_transitions": 1, "refine": False,
                "min_fraction": 0.10 if min_fraction is None else min_fraction,
            }).transitions[0].c
        candidates += star_candidates(arguments, first)
    return seconds, candidates


def exact_counts(spans: list[Span]) -> dict:
    """Counts the program's results carry; identical in every repetition."""
    star = [s for s in spans if s.name == "regimes.star"]
    nets = [s for s in spans if s.name == "neural.train"]
    first_net = nets[0].info if nets else {}
    return {
        "regimes.star_converged_ratio": (
            sum(s.info["converged"] for s in star) / len(star) if star else 1.0),
        "regimes.setar3_pairs": sum(s.info.get("pairs", 0) for s in spans
                                    if s.name == "regimes.setar3"),
        "neural.restarts": sum(s.info["restarts"] for s in nets),
        "neural.winner_restart": first_net.get("winner_restart", -1),
        "neural.winner_iterations": first_net.get("winner_iterations", 0),
        "neural.converged": sum(s.info["converged"] for s in nets),
    }
