"""regimevol benchmark: workloads, end-to-end metrics, a traced per-layer run.

Usage, from the repository root:

    python3 perfbench/run.py --workload analyst-default-500 --seed 3 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke                # tiny sizes; checks the benchmark itself
    python3 perfbench/run.py --record-reference     # rewrite perfbench/reference.json

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``setup_s``: median time to ``import regimevol`` in fresh interpreters;
* ``wall_s``: median wall time of one repetition;
* ``item_p90_s``: 90th percentile of per-item latency within one repetition,
  median over repetitions (an item is one series, or one ``run_pipeline`` call);
* ``peak_mem_mb``: tracemalloc peak of one repetition, in its own untimed pass.

``--trace 1`` runs traced and untraced repetitions alternately and reports
per-layer metrics from spans recorded around calls into each module's public
functions (see ``spans.py``).  Either way every output is checked against
``reference.json``; the last stdout line is the JSON result.

``BENCHMARK.json`` lists the workloads whose metrics gate a change.
``screen-panel-500`` runs the same way but is not listed there; see its
class in ``workloads.py`` for why.

The program runs from ``src/`` of the checkout; nothing is installed.  BLAS
and OpenMP are pinned to one thread (one process, one thread), and the
machine record printed with each result says so.  Inputs are generated from
the seed's reference slot (``seed mod 16``) before timing starts.  Scratch
files go to ``.perfbench-work/`` at the root and are removed at the end,
except the result and span records.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import json
import math
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
REFERENCE_PATH = HERE / "reference.json"
SLOTS = 16
REL_TOL = 1e-6
ABS_TOL = 1e-12
SETUP_RUNS = 5

END_TO_END = {
    "setup_s": ("s", "median over fresh interpreters timing `import regimevol`"),
    "wall_s": ("s", "median wall time of one repetition, tracing off"),
    "item_p90_s": ("s", "90th percentile of per-item latency in a repetition, median over them"),
    "peak_mem_mb": ("MB", "tracemalloc peak of one repetition, untimed pass (1 MB = 1e6 bytes)"),
}

_LAYER_COUNTS = {f"{layer}.{kind}": ("count", f"wrapped calls into {layer}" + (
    "" if kind == "calls" else " that raised"))
    for layer in ("series", "dataio", "stationarity", "linearity", "regimes", "neural",
                  "selection", "pipeline") for kind in ("calls", "failed")}
PER_LAYER = {
    "neural.train_s": ("s", "train_nnet_ar"),
    "neural.restarts": ("count", "restarts requested, summed over neural fits"),
    "neural.winner_restart": ("count", "restart_index of the first neural fit; -1 without one"),
    "neural.winner_iterations": ("count", "iterations of the first neural fit's winner"),
    "neural.converged": ("count", "neural fits whose winning restart converged"),
    "regimes.star_s": ("s", "fit_lstar, with refinement"),
    "regimes.star_grid_s": ("s", "fit_lstar(refine=False) replayed with the recorded arguments"),
    "regimes.star_candidates": ("count", "(gamma, c) grid points, computed from the input"),
    "regimes.star_converged_ratio": ("ratio", "converged STAR fits / STAR fits; 1 without any"),
    "regimes.star_peak_mb": ("MB", "largest tracemalloc peak of one fit_lstar call"),
    "regimes.setar3_s": ("s", "fit_setar with 3 regimes"),
    "regimes.setar3_peak_mb": ("MB", "largest tracemalloc peak of one 3-regime fit_setar"),
    "regimes.setar3_pairs": ("count", "threshold pairs scored, computed from the input"),
    "regimes.setar2_s": ("s", "fit_setar with 2 regimes"),
    "regimes.ar_s": ("s", "fit_ar"),
    "regimes.simulate_s": ("s", "simulate"),
    "regimes.order_select_s": ("s", "select_ar_order"),
    "linearity.test_s": ("s", "terasvirta_zero_order + terasvirta_first_order"),
    "stationarity.unitroot_s": ("s", "perron_detrend + phillips_perron"),
    "series.transform_s": ("s", "log_returns + realized_volatility"),
    "selection.score_s": ("s", "compare / score_models"),
    "dataio.ingest_s": ("s", "ingest"),
    "dataio.write_s": ("s", "write_json + write_series_csv + emit_plot_data"),
    "dataio.bytes_written": ("bytes", "bytes of the files those writes produced"),
    "pipeline.self_s": ("s", "run_pipeline span minus its child spans"),
    **_LAYER_COUNTS,
    "trace.wall_s": ("s", "median wall time of a traced repetition"),
    "trace.overhead_s": ("s", "trace.wall_s minus the median untraced wall time"),
}
_NO_WAIT_NOTE = ("no wait-time metrics: one process, one thread, BLAS pinned to one "
                 "thread; nothing waits on a queue or lock")


def _fail(message: str) -> int:
    print(f"perfbench: error: {message}", file=sys.stderr)
    return 2


def _import_program():
    if not (SRC / "regimevol" / "__init__.py").is_file():
        raise ImportError(f"no program source at {SRC / 'regimevol'}")
    sys.path.insert(0, str(SRC))
    import regimevol

    if Path(regimevol.__file__).resolve().parent != SRC / "regimevol":
        raise ImportError(f"imported regimevol from {regimevol.__file__}, not from {SRC}")
    return regimevol


# ---------------------------------------------------------------------------
# machine record and set-up time
# ---------------------------------------------------------------------------


def machine_record() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as handle:
        cpu = next((line.split(":", 1)[1].strip() for line in handle
                    if line.startswith("model name")), "")
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "load_generator": "single process",
    }


def measure_setup(runs: int) -> list[float]:
    """Seconds to ``import regimevol`` in fresh child interpreters (one warm-up first)."""
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "t = time.perf_counter()\n"
        "import regimevol\n"
        "print(repr(time.perf_counter() - t), regimevol.__file__)\n"
    )
    times = []
    for i in range(runs + 1):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              cwd=ROOT, timeout=60, check=True)
        seconds, where = done.stdout.split()
        if Path(where).resolve().parent != SRC / "regimevol":
            raise RuntimeError(f"child imported regimevol from {where}")
        if i:
            times.append(float(seconds))
    return times


# ---------------------------------------------------------------------------
# output check
# ---------------------------------------------------------------------------


def compare_outputs(got: dict, want: dict) -> list[str]:
    """Differences between an item's outputs and its reference."""
    got = json.loads(json.dumps(got))
    problems = [f"{key}: {got['exact'].get(key)!r} != reference {want['exact'].get(key)!r}"
                for key in sorted(set(got["exact"]) | set(want["exact"]))
                if got["exact"].get(key) != want["exact"].get(key)]
    for key in sorted(set(got["approx"]) | set(want["approx"])):
        a, b = got["approx"].get(key), want["approx"].get(key)
        if a is None or b is None or not math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            problems.append(f"{key}: {a!r} != reference {b!r} (rel tol {REL_TOL:g})")
    return problems


class Tally:
    """Items attempted and failed, against a reference and the first repetition's bytes."""

    def __init__(self, reference: list[dict] | None):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_digest = None

    def add(self, rep, full_check: bool) -> None:
        same_bytes = True
        if rep.digest is not None:
            if self.first_digest is None:
                self.first_digest = rep.digest
            same_bytes = rep.digest == self.first_digest
        for index, item in enumerate(rep.items):
            self.attempted += 1
            if item.error is not None:
                problems = [f"raised {item.error}"]
            elif not same_bytes:
                problems = ["artifact bytes differ from the first repetition"]
            elif full_check or rep.digest is None:
                if self.reference is None or index >= len(self.reference):
                    problems = ["no reference output"]
                else:
                    problems = compare_outputs(item.outputs, self.reference[index])
            else:
                problems = []
            if problems:
                self.failed += 1
                if len(self.problems) < 10:
                    self.problems.append(f"item {index}: " + "; ".join(problems[:3]))


# ---------------------------------------------------------------------------
# one benchmark run
# ---------------------------------------------------------------------------


def _first_pass(workload, state, probe=None):
    """The untimed first repetition: tracemalloc on, neural winner recorded."""
    from spans import Tracer, exact_counts
    from workloads import PipelineWorkload

    tracer = Tracer()
    with contextlib.ExitStack() as stack:
        stack.enter_context(tracer)
        if probe is not None:
            stack.enter_context(probe)
        gc.collect()
        tracemalloc.start()
        try:
            rep = workload.run(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    if isinstance(workload, PipelineWorkload) and rep.items[0].outputs is not None:
        winner = exact_counts(tracer.spans)["neural.winner_restart"]
        rep.items[0].outputs["exact"]["neural.winner_restart"] = winner
    return rep, peak


def _median(values):
    return statistics.median(values) if values else 0.0


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_workload(name: str, seed: int, seconds: float, trace: int, *, scale: str = "full",
                 reference: dict | None = None, setup_runs: int = SETUP_RUNS, emit=print) -> dict:
    """Run one workload and return the result object; ``emit`` gets the report lines."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    slot = seed % SLOTS
    if reference is None:
        reference = load_reference()
    expected = reference.get(name, {}).get(str(slot))
    workdir = WORK / f"{name}-seed{seed}-trace{trace}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    emit(f"perfbench workload={name} seed={seed} slot={slot}/{SLOTS} seconds={seconds:g} "
         f"trace={trace} scale={scale}")
    machine = machine_record()
    emit("machine " + json.dumps(machine, sort_keys=True))
    try:
        state = workload.prepare(slot, str(workdir), scale)
        tally = Tally(expected)
        if trace == 0:
            metrics, notes, record = _run_untraced(workload, state, seconds, setup_runs, tally)
        else:
            metrics, notes, record = _run_traced(workload, state, seconds, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    table = END_TO_END if trace == 0 else PER_LAYER
    for key, (unit, meaning) in table.items():
        detail = notes.get(key, meaning)
        emit(f"metric {key} {metrics[key]!r} {unit}  # {detail}")
    if trace == 1:
        emit(f"note {_NO_WAIT_NOTE}")
        for line in record.pop("share_lines"):
            emit(f"share {line}")
    ratio = tally.failed / tally.attempted
    emit(f"check fail_ratio {ratio:g} = {tally.failed} failed / {tally.attempted} attempted "
         f"(reference slot {slot}; exact fields equal, others within rel {REL_TOL:g}; "
         f"repetitions after the first must match its artifact bytes)")
    for problem in tally.problems:
        emit(f"check problem {problem}")

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, (unit, _) in table.items()},
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{trace}"
    spans = record.pop("spans", None)
    if spans is not None:
        (results_dir / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")
    (results_dir / f"{stem}.json").write_text(json.dumps(
        {**result, "machine": machine, "problems": tally.problems, **record}, indent=1) + "\n")
    return result


def _run_untraced(workload, state, seconds, setup_runs, tally):
    setup = measure_setup(setup_runs)
    rep, peak = _first_pass(workload, state)
    tally.add(rep, full_check=True)
    walls, cpus, p90s = [], [], []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        gc.collect()
        rep = workload.run(state)
        tally.add(rep, full_check=False)
        walls.append(rep.wall_s)
        cpus.append(rep.cpu_s)
        p90s.append(float(np.percentile([item.latency_s for item in rep.items], 90)))
    q1, q3 = _quartiles(walls)
    metrics = {
        "setup_s": _median(setup),
        "wall_s": _median(walls),
        "item_p90_s": _median(p90s),
        "peak_mem_mb": peak / 1e6,
    }
    items = len(rep.items)
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters timing `import regimevol`",
        "wall_s": f"median of {len(walls)} repetitions, tracing off (q1 {q1:.4f}, q3 {q3:.4f}; "
                  f"median CPU time {_median(cpus):.4f})",
        "item_p90_s": f"median over {len(walls)} repetitions of the p90 of {items} items, "
                      f"{sum(item.latency_s > p90s[-1] for item in rep.items)} beyond it in the last",
    }
    record = {"walls": walls, "cpus": cpus, "item_p90s": p90s, "setup": setup}
    return metrics, notes, record


def _run_traced(workload, state, seconds, tally):
    import regimevol.regimes as regimes
    from spans import PeakProbe, Tracer, exact_counts, rep_layer_totals, replay_star_grids

    probe = PeakProbe()
    rep, _ = _first_pass(workload, state, probe)
    tally.add(rep, full_check=True)

    tracer = Tracer()
    traced, untraced, totals = [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:  # untraced goes first
        gc.collect()
        if len(untraced) <= len(traced):
            rep = workload.run(state)
            untraced.append(rep.wall_s)
        else:
            tracer.run_id += 1
            with tracer:
                rep = workload.run(state)
            traced.append(rep.wall_s)
            totals.append(rep_layer_totals(tracer.spans, tracer.run_id))
        tally.add(rep, full_check=False)

    last = [s for s in tracer.spans if s.run_id == tracer.run_id]
    grid_s, candidates = replay_star_grids(
        regimes.fit_lstar, [c for c in tracer.star_calls if c["run_id"] == tracer.run_id])
    metrics = {key: _median([t.get(key, 0) for t in totals]) for key in PER_LAYER}
    metrics.update(exact_counts(last))
    metrics.update({
        "regimes.star_grid_s": grid_s,
        "regimes.star_candidates": candidates,
        "regimes.star_peak_mb": probe.peaks["star"] / 1e6,
        "regimes.setar3_peak_mb": probe.peaks["setar3"] / 1e6,
        "trace.wall_s": _median(traced),
        "trace.overhead_s": _median(traced) - _median(untraced),
    })
    for key in ("dataio.bytes_written", *_LAYER_COUNTS):
        metrics[key] = int(metrics[key])
    wall = metrics["trace.wall_s"]
    shares = [
        f"neural.train_s / trace.wall_s = {metrics['neural.train_s'] / wall:.1%}",
        f"regimes.star_s / trace.wall_s = {metrics['regimes.star_s'] / wall:.1%}",
        f"regimes.star_grid_s / trace.wall_s = {metrics['regimes.star_grid_s'] / wall:.1%}",
    ]
    if metrics["regimes.star_s"] > 0:
        shares.append("regimes.star_grid_s / regimes.star_s = "
                      f"{metrics['regimes.star_grid_s'] / metrics['regimes.star_s']:.1%}")
    notes = {"trace.wall_s": f"median of {len(traced)} traced repetitions "
                             f"({len(untraced)} untraced alongside)"}
    record = {"traced_walls": traced, "untraced_walls": untraced, "share_lines": shares,
              "spans": [s.as_dict() for s in tracer.spans]}
    return metrics, notes, record


# ---------------------------------------------------------------------------
# reference outputs
# ---------------------------------------------------------------------------


def load_reference() -> dict:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)["workloads"]


def collect_outputs(name: str, slot: int, scale: str = "full") -> list[dict]:
    """Outputs of one untimed repetition; these become a reference entry."""
    from workloads import WORKLOADS

    workdir = WORK / f"reference-{name}-{slot}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        rep, _ = _first_pass(WORKLOADS[name], WORKLOADS[name].prepare(slot, str(workdir), scale))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    errors = [item.error for item in rep.items if item.error is not None]
    if errors:
        raise RuntimeError(f"{name} slot {slot}: {errors[0]}")
    return [item.outputs for item in rep.items]


def record_reference(names) -> int:
    """Record the named workloads' outputs for every slot, keeping the others."""
    import regimevol

    payload = {"workloads": {}}
    if REFERENCE_PATH.is_file():
        payload = json.loads(REFERENCE_PATH.read_text())
    payload.update(package_version=regimevol.__version__, slots=SLOTS, rel_tol=REL_TOL)
    for name in names:
        payload["workloads"][name] = {
            str(slot): collect_outputs(name, slot) for slot in range(SLOTS)}
        print(f"recorded {name}", flush=True)
    # one line per slot keeps the file reviewable
    head = ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}"
                      for k, v in payload.items() if k != "workloads")
    body = ",\n".join(
        f"  {json.dumps(name)}: {{\n" + ",\n".join(
            f"   {json.dumps(slot)}: {json.dumps(out, sort_keys=True)}"
            for slot, out in slots.items()) + "\n  }"
        for name, slots in sorted(payload["workloads"].items()))
    REFERENCE_PATH.write_text("{\n" + head + ',\n "workloads": {\n' + body + "\n }\n}\n")
    return 0


# ---------------------------------------------------------------------------
# self-test
# ---------------------------------------------------------------------------


def smoke() -> int:
    """Tiny sizes: every metric and workload is printed, a wrong reference is caught."""
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert set(names) <= set(WORKLOADS), f"BENCHMARK.json workloads {names}"
    for name in WORKLOADS:
        tiny_reference = {name: {"0": collect_outputs(name, 0, "tiny")}}
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            lines: list[str] = []
            result = run_workload(name, 0, 0.01, trace, scale="tiny", reference=tiny_reference,
                                  setup_runs=1, emit=lines.append)
            assert name in lines[0], lines[0]
            printed = {}
            for line in lines:
                parts = line.split()
                if parts[0] == "metric":
                    float(parts[2])
                    printed[parts[1]] = parts[3]
            for metric in listed:
                assert printed.get(metric["name"]) == metric["unit"], (name, trace, metric)
                assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
            assert sorted(result["metrics"]) == sorted(m["name"] for m in listed), (name, trace)
            assert result["correct"] and result["failed"] == 0, (name, trace, lines)
        print(f"smoke: {name}: every listed metric printed with its unit", flush=True)

    # the recorded reference: first screen-panel series of slot 0 pass, perturbed ones fail
    name = "screen-panel-500"
    workload = WORKLOADS[name]
    recorded = load_reference()[name]["0"][:3]
    workdir = WORK / f"smoke-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        rep = workload.run(workload.prepare(0, str(workdir), count=3))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tally = Tally(recorded)
    tally.add(rep, full_check=True)
    assert tally.failed == 0, tally.problems
    perturbed = json.loads(json.dumps(recorded))
    perturbed[1]["approx"]["setar_rss"] *= 1 + 1e-4
    perturbed[2]["exact"]["best_aic"] += 1
    tally = Tally(perturbed)
    tally.add(rep, full_check=True)
    assert tally.failed == 2 and tally.problems[0].startswith("item 1: setar_rss"), tally.problems
    print(f"smoke: perturbed reference values caught: {tally.problems}")
    print("smoke: ok")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    try:
        _import_program()
    except ImportError as exc:
        return _fail(str(exc))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.smoke:
        return smoke()
    if args.record_reference:
        return record_reference([args.workload] if args.workload else list(WORKLOADS))
    if args.workload not in WORKLOADS:
        return _fail(f"--workload must be one of {', '.join(WORKLOADS)}")
    if not REFERENCE_PATH.is_file():
        return _fail(f"missing {REFERENCE_PATH.name}")
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
