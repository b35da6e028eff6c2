"""Command-line interface.

Subcommands mirror the pipeline stages so each one is usable standalone:
ingest, transform, test-unitroot, test-linearity, fit, compare, simulate,
and run (the whole chain).  Every failure prints one structured error line
to stderr and exits nonzero: 2 for a usage error, 1 for any other.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

from . import dataio, pipeline
from .errors import PipelineError, RegimevolError
from .pipeline import ModelRequest, PipelineConfig
from .regimes import THRESHOLD_KINDS
from .regimes import simulate as simulate_model
from .stationarity import NULL_BREAK, TREND_BREAK


def _emit(payload: dict, output: str | None) -> None:
    if output:
        dataio.write_json(output, payload)
    else:
        print(json.dumps(dataio._plain(payload), sort_keys=True, indent=2))


def _cmd_ingest(args) -> int:
    prices = dataio.ingest(args.input)
    _emit(
        {
            "observations": len(prices),
            "first_date": prices.timestamps[0].isoformat(),
            "last_date": prices.timestamps[-1].isoformat(),
            "min_close": float(prices.values.min()),
            "max_close": float(prices.values.max()),
        },
        args.output,
    )
    return 0


def _cmd_transform(args) -> int:
    prices = dataio.ingest(args.input)
    dataio.make_output_dir(args.output_dir)
    returns_path = os.path.join(args.output_dir, "returns.csv")
    vol_path = os.path.join(args.output_dir, "volatility.csv")
    returns, volatility = pipeline.transform(
        prices, args.volatility_window, not args.uncentered, returns_path, vol_path
    )
    print(f"wrote {returns_path} ({len(returns)} rows) and {vol_path} ({len(volatility)} rows)")
    return 0


def _cmd_test_unitroot(args) -> int:
    prices = dataio.ingest(args.input)
    significance = PipelineConfig.significance  # the run's default
    _emit(
        pipeline.unitroot(
            prices, args.break_date, args.break_index, args.specification, significance
        ),
        args.output,
    )
    return 0


def _cmd_test_linearity(args) -> int:
    values = dataio.read_series_csv(args.input)
    _emit(pipeline.linearity(values, args.significance, ar_order=args.ar_order), args.output)
    return 0


def _given(args, cls) -> dict:
    """The options given that name a field of ``cls``; one left out keeps its default."""
    return {f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)}


def _cmd_fit(args) -> int:
    request = ModelRequest(**_given(args, ModelRequest))
    values = dataio.read_series_csv(args.input)
    model = pipeline.fit(request, values, args.seed)
    # made once the fit is done, so a failed fit leaves no directory behind
    dataio.make_output_dir(args.output_dir)
    model_path = os.path.join(args.output_dir, "model.json")
    fitted_path = os.path.join(args.output_dir, "fitted.csv")
    pipeline.write_fit(model, values, model_path, fitted_path)
    print(f"wrote {model_path} and {fitted_path}")
    return 0


_FLAGS = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


def _parse_model_spec(spec: str) -> ModelRequest:
    """Parse compact specs like ``setar:order=1,regimes=3``.

    The keys are the fields of ``ModelRequest`` after ``kind``, each value
    read as the type of its field.
    """
    kind, _, rest = spec.partition(":")
    payload: dict = {"kind": kind.strip()}
    keys = {f.name for f in fields(ModelRequest)} - {"kind"}
    for part in rest.split(",") if rest else ():
        key, _, value = (side.strip() for side in part.partition("="))
        if not key or not value:
            raise RegimevolError(f"bad model spec fragment {part!r} in {spec!r}")
        if key not in keys:
            raise RegimevolError(f"unknown key {key!r} in model spec {spec!r}")
        cast = pipeline.field_types(ModelRequest)[key][0]
        try:
            payload[key] = _FLAGS[value.lower()] if cast is bool else cast(value)
        except (KeyError, ValueError):
            expected = "/".join(_FLAGS) if cast is bool else cast.__name__
            raise RegimevolError(
                f"{key!r} in model spec {spec!r} must be {expected}, got {value!r}"
            ) from None
    try:
        return ModelRequest.from_dict(payload)
    except (TypeError, ValueError) as exc:
        raise RegimevolError(f"bad model spec {spec!r}: {exc}") from exc


def _cmd_compare(args) -> int:
    values = dataio.read_series_csv(args.input)
    requests = [_parse_model_spec(s) for s in args.model]
    if len(requests) < 2:
        raise RegimevolError("compare needs at least two --model specs")
    models = [pipeline.fit(r, values, args.seed) for r in requests]
    dataio.make_output_dir(args.output_dir)
    report = pipeline.compare(
        models,
        values,
        os.path.join(args.output_dir, "comparison.json"),
        os.path.join(args.output_dir, "comparison.txt"),
    )
    print(report.to_text())
    return 0


def _run_config(args) -> PipelineConfig:
    if args.config:
        payload = dataio.read_json_object(args.config)
    elif hasattr(args, "input_path"):
        payload = _given(args, PipelineConfig)
    else:
        raise RegimevolError("provide --config or --input")
    return PipelineConfig.from_dict(payload)


def _cmd_run(args) -> int:
    with pipeline._stage("config"):
        config = _run_config(args)
    artifacts = pipeline.run_pipeline(config)
    for name in sorted(artifacts):
        print(f"{name}: {artifacts[name]}")
    return 0


def _cmd_simulate(args) -> int:
    model = dataio.load_model_json(args.model)
    # an option left out is not set, so the regimes.simulate default applies
    options = {name: getattr(args, name) for name in ("seed", "burn_in") if hasattr(args, name)}
    values = simulate_model(model, args.length, args.noise_sd, **options)
    if args.output:
        dataio.write_series_csv(args.output, values)
        print(f"wrote {args.output} ({len(values)} rows)")
    else:
        for v in values:
            print(repr(float(v)))
    return 0


class _UsageError(Exception):
    """A command line argparse rejects, raised in place of its exit."""

    def __init__(self, stage: str, message: str):
        super().__init__(" ".join(message.split()))
        self.stage = stage


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ``_UsageError``.

    argparse would print its usage block and an ``error:`` line and exit 2;
    ``main`` prints one ``ERROR stage=...`` line instead.  A subcommand's
    parser has the prog "regimevol <command>", and the command is the stage.
    """

    def error(self, message):
        _, _, command = self.prog.partition(" ")
        raise _UsageError(command or "usage", message)


def _field_option(parser, cls, name: str, flag: str | None = None, **kwargs) -> None:
    """Add ``flag`` (by default ``--`` and the field name dashed) for field
    ``name`` of ``cls``: stored under the field name, typed by its annotation,
    and with a metavar spelt from the flag, so --help names the flag."""
    flag = flag or "--" + name.replace("_", "-")
    metavar = flag[2:].replace("-", "_").upper()
    kwargs.setdefault("type", pipeline.field_types(cls)[name][0])
    parser.add_argument(flag, dest=name, metavar=metavar, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="regimevol",
        description="Structural breaks and regime-switching volatility models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate a date,close CSV")
    p.add_argument("input")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("transform", help="prices -> log returns -> realized volatility")
    p.add_argument("input")
    _field_option(p, PipelineConfig, "volatility_window", "--window",
                  default=PipelineConfig.volatility_window)
    p.add_argument("--uncentered", action="store_true",
                   help="use the uncentered root mean square instead of the sample std dev")
    _field_option(p, PipelineConfig, "output_dir", default=PipelineConfig.output_dir)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("test-unitroot", help="Perron detrend + Phillips-Perron test")
    p.add_argument("input")
    breaks = p.add_mutually_exclusive_group(required=True)
    for name in ("break_date", "break_index"):
        _field_option(breaks, PipelineConfig, name)
    p.add_argument("--specification", choices=[TREND_BREAK, NULL_BREAK],
                   default=PipelineConfig.detrend_specification)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_test_unitroot)

    p = sub.add_parser("test-linearity", help="Taylor-expansion linearity tests")
    p.add_argument("input")
    p.add_argument("--ar-order", type=int, help="default: the AIC choice, as in run")
    _field_option(p, PipelineConfig, "significance", default=PipelineConfig.significance)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_test_linearity)

    # an option left out is not set, so the ModelRequest default applies
    p = sub.add_parser("fit", help="fit one model to a series CSV",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("kind", choices=pipeline.MODEL_KINDS)
    p.add_argument("input")
    for f in fields(ModelRequest)[1:]:  # every field after kind
        if f.name == "threshold":
            p.add_argument("--threshold", choices=THRESHOLD_KINDS)
        elif f.name == "standardize":
            p.add_argument("--raw-inputs", dest="standardize", action="store_false",
                           help="train the network on raw inputs (no standardization)")
        elif f.name == "gamma_step":
            _field_option(p, ModelRequest, f.name,
                          help="exact arithmetic gamma grid step (default: coarse log grid)")
        else:
            _field_option(p, ModelRequest, f.name)
    _field_option(p, PipelineConfig, "seed", default=PipelineConfig.seed)
    _field_option(p, PipelineConfig, "output_dir", default=PipelineConfig.output_dir)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("compare", help="fit several models and rank them")
    p.add_argument("input")
    p.add_argument("--model", action="append", required=True,
                   help="e.g. ar:order=1 or setar:order=1,regimes=3 (repeatable)")
    _field_option(p, PipelineConfig, "seed", default=PipelineConfig.seed)
    _field_option(p, PipelineConfig, "output_dir", default=PipelineConfig.output_dir)
    p.set_defaults(func=_cmd_compare)

    # an option left out is not set, so the PipelineConfig default applies
    p = sub.add_parser("run", help="full pipeline from a config file or flags",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--config", default=None, help="JSON config file")
    _field_option(p, PipelineConfig, "input_path", "--input")
    for name in ("break_date", "break_index"):
        _field_option(p, PipelineConfig, name)
    _field_option(p, PipelineConfig, "volatility_window", "--window")
    for name in ("ar_max_order", "significance", "seed", "output_dir"):
        _field_option(p, PipelineConfig, name)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("simulate", help="simulate a saved model JSON",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("model")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--noise-sd", type=float, default=0.0)
    p.add_argument("--seed", type=int)
    p.add_argument("--burn-in", type=int)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"ERROR stage={exc.stage}: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except PipelineError as exc:
        # the message already starts with "stage=<name>: "
        print(f"ERROR {exc}", file=sys.stderr)
        return 1
    except (RegimevolError, ValueError) as exc:
        print(f"ERROR stage={args.command}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # e.g. a --gamma-step so fine that the grid cannot be allocated
        print(f"ERROR stage={args.command}: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
