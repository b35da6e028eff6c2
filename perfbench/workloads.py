"""The benchmark workloads: input generation, one repetition, output extraction.

Every workload turns a reference slot into inputs with its own seeded
generator before any timing starts, and the program only ever sees those
inputs (CSV files, generator models, simulation seeds).  A repetition
returns one ``Item`` per unit of work with its latency, the outputs that
define "the selected model is unchanged" and, where artifacts are written,
a digest of their bytes.

Calls into the package go through module attributes (``regimes.fit_lstar``
rather than a name imported here) so that the traced run can wrap them.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
import os
import time
from dataclasses import dataclass

import numpy as np

import regimevol.dataio as dataio
import regimevol.linearity as linearity
import regimevol.pipeline as pipeline
import regimevol.regimes as regimes
import regimevol.selection as selection
import regimevol.series as series
import regimevol.stationarity as stationarity

START_DATE = dt.date(2006, 1, 2)
VOL_WINDOW = 60
SIGNIFICANCE = 0.05


@dataclass
class Item:
    latency_s: float
    outputs: dict | None          # {"exact": {...}, "approx": {...}}; None when it raised
    error: str | None = None


@dataclass
class Repetition:
    wall_s: float
    cpu_s: float
    items: list[Item]
    digest: str | None = None     # sha256 of the artifact bytes, where artifacts are written


class _Clock:
    """Wall and process CPU time of one repetition."""

    def __enter__(self):
        self.wall, self.cpu = time.perf_counter(), time.process_time()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self.wall
        self.cpu = time.process_time() - self.cpu
        return False


def _rng(workload_id: int, slot: int, *more: int) -> np.random.Generator:
    return np.random.default_rng([workload_id, slot, *more])


def break_prices(rng: np.random.Generator, n: int) -> tuple[np.ndarray, int]:
    """Prices with a volatility drop and a level shift at a random break.

    The shape follows the package's determinism criterion: pre-break daily
    volatility is ``ratio`` times the post-break 0.9%, and prices drop 8%
    at the break.  Returns the prices and the 0-based break position.
    """
    break_at = int(rng.integers(int(0.35 * n), int(0.65 * n) + 1))
    ratio = float(rng.uniform(1.8, 3.0))
    sd = np.where(np.arange(n) < break_at, 0.009 * ratio, 0.009)
    prices = 25.0 * np.exp(np.cumsum(rng.normal(0.0005, 1.0, n) * sd))
    prices[break_at:] *= 0.92
    return prices, break_at


def write_price_csv(path: str, prices: np.ndarray) -> None:
    lines = ["date,close"] + [
        f"{START_DATE + dt.timedelta(days=i)},{p:.6f}" for i, p in enumerate(prices)
    ]
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def digest_files(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as handle:
            h.update(handle.read())
    return h.hexdigest()


def timed_item(work, *args) -> Item:
    """Run one unit of work; an exception from the program makes it a failed item."""
    start = time.perf_counter()
    try:
        outputs = work(*args)
    except Exception as exc:  # any failure of the program is a failed item
        return Item(time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}")
    return Item(time.perf_counter() - start, outputs)


# ---------------------------------------------------------------------------
# run_pipeline workloads
# ---------------------------------------------------------------------------


class PipelineWorkload:
    """One ``run_pipeline`` call per repetition on one generated price CSV."""

    def __init__(self, name, workload_id, why, n_prices, models, tiny_models, tiny_prices):
        self.name = name
        self.workload_id = workload_id
        self.why = why
        self.sizes = {"full": (n_prices, models), "tiny": (tiny_prices, tiny_models)}

    def prepare(self, slot: int, workdir: str, scale: str = "full") -> dict:
        n_prices, models = self.sizes[scale]
        prices, break_at = break_prices(_rng(self.workload_id, slot), n_prices)
        csv_path = os.path.join(workdir, "prices.csv")
        write_price_csv(csv_path, prices)
        return {
            "input_path": csv_path,
            "break_date": (START_DATE + dt.timedelta(days=break_at)).isoformat(),
            "models": models,
            "out": os.path.join(workdir, "artifacts"),
        }

    def run(self, state: dict) -> Repetition:
        config = pipeline.PipelineConfig(
            input_path=state["input_path"],
            break_date=state["break_date"],
            volatility_window=VOL_WINDOW,
            models=[dict(m) for m in state["models"]],
            seed=0,
            output_dir=state["out"],
        )
        error = None
        with _Clock() as clock:
            try:
                artifacts = pipeline.run_pipeline(config)
            except Exception as exc:  # any failure of the program is a failed item
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            return Repetition(clock.wall, clock.cpu, [Item(clock.wall, None, error)])
        outputs = pipeline_outputs(artifacts)
        return Repetition(clock.wall, clock.cpu, [Item(clock.wall, outputs)],
                          digest_files(artifacts.values()))


def pipeline_outputs(artifacts: dict) -> dict:
    """The selection-defining outputs of a run, read back from its artifacts."""

    def load(key):
        with open(artifacts[key]) as handle:
            return json.load(handle)

    exact, approx = {}, {}
    comparison = load("comparison")
    exact["labels"] = [s["model_id"] for s in comparison["scores"]]
    for key in ("best_by_aic", "best_by_bic", "best_by_mape"):
        exact[key] = comparison[key]
    for score in comparison["scores"]:
        approx[f"score_rss[{score['model_id']}]"] = score["rss"]
    linear = load("linearity")
    exact["best_aic"] = linear["order_selection"]["best_aic"]
    exact["verdict_zero_order"] = linear["zero_order"]["verdict"]
    exact["verdict_first_order"] = linear["first_order"]["verdict"]
    exact["pp_reject"] = load("unitroot")["reject_unit_root_at_significance"]
    for key in sorted(k for k in artifacts if k.startswith("model_")):
        model = load(key)
        slug = key[len("model_"):]
        if model.get("model") == "regime":
            approx[f"rss[{slug}]"] = model["rss"]
            if model["kind"] == "setar":
                exact[f"thresholds[{slug}]"] = model["thresholds"]
            for j, t in enumerate(model["transitions"]):
                approx[f"gamma{j + 1}[{slug}]"] = t["gamma"]
                approx[f"c{j + 1}[{slug}]"] = t["c"]
    return {"exact": exact, "approx": approx}


# ---------------------------------------------------------------------------
# Monte-Carlo recovery on the lagged-value LSTAR generator
# ---------------------------------------------------------------------------


def lagged_lstar_generator() -> regimes.RegimeModel:
    """Flip-flop LSTAR(1) switching on X_{t-1}: the recovery criterion's generator."""
    return regimes.RegimeModel(
        kind="lstar",
        order=1,
        regimes=(np.array([0.5, 0.8]), np.array([-1.0, -0.6])),
        thresholds=np.array([0.0]),
        transitions=(regimes.TransitionSpec("logistic", 10.0, 0.0),),
        threshold_variable=regimes.ThresholdVariable(regimes.LAGGED_VALUE, 1),
        rss=0.0,
        fitted=np.empty(0),
        residuals=np.empty(0),
        regime_proportions=np.array([0.5, 0.5]),
    )


class MonteCarloWorkload:
    name = "montecarlo-lagged-500"
    why = ("6 simulated lagged-value LSTAR series of 500 obs, each fit by lagged-threshold "
           "fit_lstar, fit_setar(2) and fit_ar: the lagged grid path, NLS and simulate")
    workload_id = 3
    sizes = {"full": (6, 500, regimes.GammaGrid()), "tiny": (1, 150, regimes.GammaGrid(points=10))}

    def prepare(self, slot: int, workdir: str, scale: str = "full") -> dict:
        n_series, length, grid = self.sizes[scale]
        # consecutive simulation seeds from the slot's base; none is filtered out
        seeds = [slot * n_series + i for i in range(n_series)]
        return {"generator": lagged_lstar_generator(), "seeds": seeds, "length": length,
                "grid": grid}

    def run(self, state: dict) -> Repetition:
        tv = regimes.ThresholdVariable(regimes.LAGGED_VALUE, 1)
        with _Clock() as clock:
            items = [timed_item(self._recover, state, tv, seed) for seed in state["seeds"]]
        return Repetition(clock.wall, clock.cpu, items)

    @staticmethod
    def _recover(state: dict, tv, seed: int) -> dict:
        x = regimes.simulate(state["generator"], state["length"], 0.1, seed=seed)
        star = regimes.fit_lstar(x, 1, 1, tv, gamma_grid=state["grid"])
        setar = regimes.fit_setar(x, 1, 2, tv)
        ar = regimes.fit_ar(x, 1)
        return {
            "exact": {"setar_threshold": setar.thresholds.tolist()},
            "approx": {
                "star_gamma": star.transitions[0].gamma,
                "star_c": star.transitions[0].c,
                "star_rss": star.rss,
                "setar_rss": setar.rss,
                "ar_rss": ar.rss,
            },
        }


# ---------------------------------------------------------------------------
# panel screening: many short series through the cheap modules
# ---------------------------------------------------------------------------


class ScreenPanelWorkload:
    """Not listed in BENCHMARK.json, so no change is gated on it.

    It is the one workload where the cheap modules are most of the time,
    and that work is many small interpreter-bound calls.  On a shared 2-vCPU
    host its repetition time moved with the host's load phases (about a
    minute long) by a quartile spread of 0.23 of the median, where the three
    listed workloads moved by 0.13-0.18; longer runs did not average the
    phases out.  Run it by hand, on both commits, for a change to those modules.
    """

    name = "screen-panel-500"
    why = ("100 series of 560 prices each: ingest, transform, unit root, order "
           "selection, linearity, AR/SETAR(2), compare, write_json per series")
    workload_id = 4
    sizes = {"full": (100, 560), "tiny": (3, 200)}

    def prepare(self, slot: int, workdir: str, scale: str = "full", count: int | None = None) -> dict:
        n_series, n_prices = self.sizes[scale]
        panel = []
        for i in range(n_series if count is None else count):
            prices, break_at = break_prices(_rng(self.workload_id, slot, i), n_prices)
            path = os.path.join(workdir, f"series_{i:03d}.csv")
            write_price_csv(path, prices)
            panel.append((path, break_at + 1))  # 1-indexed break, as run_pipeline uses
        return {"panel": panel, "out": os.path.join(workdir, "summaries")}

    def run(self, state: dict) -> Repetition:
        os.makedirs(state["out"], exist_ok=True)
        summaries = [
            os.path.join(state["out"], os.path.basename(path)[:-4] + ".json")
            for path, _ in state["panel"]
        ]
        with _Clock() as clock:
            items = [
                timed_item(self._screen, path, break_index, summary)
                for (path, break_index), summary in zip(state["panel"], summaries)
            ]
        written = [p for p, item in zip(summaries, items) if item.error is None]
        return Repetition(clock.wall, clock.cpu, items, digest_files(written))

    @staticmethod
    def _screen(path: str, break_index: int, summary_path: str) -> dict:
        prices = dataio.ingest(path)
        vol = series.realized_volatility(series.log_returns(prices), VOL_WINDOW)
        detrend = stationarity.perron_detrend(prices, break_index)
        pp = stationarity.phillips_perron(detrend.residuals)
        # as in run_pipeline: the selected order drives the linearity tests,
        # the fits use a fixed order
        order = max(1, regimes.select_ar_order(vol, 20).best_aic)
        zero = linearity.terasvirta_zero_order(vol, order, SIGNIFICANCE)
        first = linearity.terasvirta_first_order(vol, order, SIGNIFICANCE)
        ar = regimes.fit_ar(vol, 1)
        setar = regimes.fit_setar(vol, 1, 2)
        report = selection.compare([ar, setar], vol)
        exact = {
            "pp_reject": bool(pp.p_value < SIGNIFICANCE),
            "best_aic": order,
            "verdict_zero_order": zero.verdict,
            "verdict_first_order": first.verdict,
            "setar_threshold": setar.thresholds.tolist(),
            "best_by_aic": report.best_by_aic,
            "best_by_bic": report.best_by_bic,
            "best_by_mape": report.best_by_mape,
        }
        approx = {"ar_rss": ar.rss, "setar_rss": setar.rss, "pp_z": pp.z_statistic}
        dataio.write_json(summary_path, {"series": os.path.basename(path), **exact, **approx})
        return {"exact": exact, "approx": approx}


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def _star(transitions: int, gamma_points: int) -> dict:
    return {"kind": "lstar", "order": 1, "transitions": transitions, "gamma_points": gamma_points}


ANALYST = PipelineWorkload(
    name="analyst-default-500",
    workload_id=1,
    why=("run_pipeline on ~500 vol obs with the default five models (4 neural restarts, "
         "not 20): neural training and time-threshold STAR grids, all artifacts written"),
    n_prices=560,
    models=[
        {"kind": "ar", "order": 1},
        {"kind": "lstar", "order": 1, "transitions": 1},
        {"kind": "setar", "order": 1, "regimes": 3},
        {"kind": "lstar", "order": 1, "transitions": 2},
        # the default 20 restarts take ~13 s, too long to repeat within one run
        {"kind": "nnet", "order": 1, "hidden": 2, "restarts": 4},
    ],
    tiny_prices=200,
    tiny_models=[
        {"kind": "ar", "order": 1},
        _star(1, 5),
        {"kind": "setar", "order": 1, "regimes": 3},
        _star(2, 5),
        {"kind": "nnet", "order": 1, "hidden": 2, "restarts": 1},
    ],
)

LONG_HISTORY = PipelineWorkload(
    name="long-history-2000",
    workload_id=2,
    why=("run_pipeline on ~2000 vol obs with ar, setar-3 and a time-threshold lstar, "
         "no neural model: grid time and grid memory"),
    n_prices=2060,
    models=[
        {"kind": "ar", "order": 1},
        {"kind": "setar", "order": 1, "regimes": 3},
        _star(1, 40),
    ],
    tiny_prices=300,
    tiny_models=[
        {"kind": "ar", "order": 1},
        {"kind": "setar", "order": 1, "regimes": 3},
        _star(1, 5),
    ],
)

WORKLOADS = {w.name: w for w in (ANALYST, LONG_HISTORY, MonteCarloWorkload(), ScreenPanelWorkload())}
