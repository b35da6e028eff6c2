import contextlib
import datetime as dt
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from regimevol import PipelineConfig, run_pipeline
from regimevol.cli import _given, _parse_model_spec, build_parser, main
from regimevol.errors import PipelineError, RegimevolError
from regimevol.pipeline import MODEL_KINDS, ModelRequest, field_types
from regimevol.regimes import LAGGED_VALUE, ThresholdVariable, TransitionSpec
from tests.conftest import make_regime_model


def synthetic_prices(n=300, break_at=150, seed=7):
    """Price path with a level drop and volatility reduction at the break."""
    rng = np.random.default_rng(seed)
    sd = np.where(np.arange(n) < break_at, 0.02, 0.008)
    returns = rng.normal(0.0005, 1.0, n) * sd
    prices = 25.0 * np.exp(np.cumsum(returns))
    prices[break_at:] *= 0.9
    return prices


def write_price_csv(path, prices, start=dt.date(2006, 1, 2)):
    rows = ["date,close"]
    for i, p in enumerate(prices):
        rows.append(f"{start + dt.timedelta(days=i)},{p:.6f}")
    path.write_text("\n".join(rows) + "\n")
    return str(path)


@pytest.fixture(scope="module")
def price_csv(tmp_path_factory):
    root = tmp_path_factory.mktemp("prices")
    return write_price_csv(root / "prices.csv", synthetic_prices())


@pytest.fixture(scope="module")
def break_date():
    return (dt.date(2006, 1, 2) + dt.timedelta(days=150)).isoformat()


def small_config(price_csv, break_date, outdir):
    return PipelineConfig(
        input_path=price_csv,
        break_date=break_date,
        volatility_window=30,
        ar_max_order=8,
        models=[
            {"kind": "ar", "order": 1},
            {"kind": "setar", "order": 1, "regimes": 3},
            {"kind": "lstar", "order": 1, "transitions": 1},
            {"kind": "nnet", "order": 1, "hidden": 2, "restarts": 2},
        ],
        seed=3,
        output_dir=str(outdir),
    )


class TestRunPipeline:
    def test_full_chain_artifacts(self, price_csv, break_date, tmp_path):
        config = small_config(price_csv, break_date, tmp_path / "out")
        artifacts = run_pipeline(config)
        for key in ("returns", "volatility", "unitroot", "linearity", "comparison"):
            assert key in artifacts
        unitroot = json.loads(open(artifacts["unitroot"]).read())
        assert {"z_statistic", "p_value", "bandwidth", "long_run_variance"} <= unitroot.keys()
        assert unitroot["break_index"] == 151
        linearity = json.loads(open(artifacts["linearity"]).read())
        assert linearity["verdict"] in ("linear", "lstar", "estar")
        assert linearity["first_order"]["nonlinear_terms_f"]["df_num"] == 3
        comparison = json.loads(open(artifacts["comparison"]).read())
        assert len(comparison["scores"]) == 4
        assert comparison["schema_version"] == 1

    def test_single_model_pipeline_has_one_row(self, price_csv, break_date, tmp_path):
        config = PipelineConfig(
            input_path=price_csv,
            break_date=break_date,
            volatility_window=30,
            ar_max_order=5,
            models=[{"kind": "ar", "order": 1}],
            output_dir=str(tmp_path / "solo"),
        )
        artifacts = run_pipeline(config)
        comparison = json.loads(open(artifacts["comparison"]).read())
        assert len(comparison["scores"]) == 1

    def test_byte_identical_reruns(self, price_csv, break_date, tmp_path):
        a = run_pipeline(small_config(price_csv, break_date, tmp_path / "a"))
        b = run_pipeline(small_config(price_csv, break_date, tmp_path / "b"))
        for key in sorted(a):
            bytes_a = open(a[key], "rb").read()
            bytes_b = open(b[key], "rb").read()
            assert bytes_a == bytes_b, f"artifact {key} differs between runs"

    def test_artifacts_do_not_depend_on_grid_workers(self, tmp_path, monkeypatch):
        from regimevol import regimes

        prices_path = write_price_csv(tmp_path / "prices.csv", synthetic_prices(600, 300, seed=13))
        runs = {}
        for workers in (1, 2):
            monkeypatch.setattr(regimes, "_WORKERS", workers)
            artifacts = run_pipeline(PipelineConfig(
                input_path=prices_path,
                break_date=(dt.date(2006, 1, 2) + dt.timedelta(days=300)).isoformat(),
                volatility_window=30,
                ar_max_order=8,
                models=[
                    {"kind": "setar", "order": 1, "regimes": 3},
                    {"kind": "setar", "order": 1, "regimes": 3, "threshold": "lagged_value"},
                    {"kind": "lstar", "order": 1, "transitions": 1, "gamma_points": 20},
                ],
                output_dir=str(tmp_path / f"workers-{workers}"),
            ))
            runs[workers] = {key: open(path, "rb").read() for key, path in artifacts.items()}
        assert len(runs[1]) == len(runs[2]) > 6
        for key in sorted(runs[1]):
            assert runs[1][key] == runs[2][key], f"artifact {key} differs between 1 and 2 workers"

    def test_fitted_csv_cells_are_plain_numbers(self, price_csv, break_date, tmp_path):
        artifacts = run_pipeline(small_config(price_csv, break_date, tmp_path / "out"))
        fitted = sorted(k for k in artifacts if k.startswith("fitted_"))
        assert any("setar" in k for k in fitted) and any("nnet" in k for k in fitted)
        for key in fitted:
            header, *rows = open(artifacts[key]).read().splitlines()
            assert header.startswith("index,")
            for row in rows:
                cells = row.split(",")
                int(cells[0])
                for cell in cells[1:]:
                    float(cell)

    def test_missing_break_date_fails_with_stage(self, price_csv, tmp_path):
        config = PipelineConfig(
            input_path=price_csv,
            break_date="1999-01-01",
            volatility_window=30,
            models=[{"kind": "ar"}],
            output_dir=str(tmp_path / "x"),
        )
        with pytest.raises(PipelineError) as err:
            run_pipeline(config)
        assert err.value.stage == "unitroot"

    def test_config_validation(self, price_csv):
        with pytest.raises(ValueError):
            PipelineConfig(input_path=price_csv, break_date="2006-01-05", break_index=10)
        with pytest.raises(ValueError):
            PipelineConfig(input_path=price_csv, break_date="2006-01-05", volatility_window=1)
        with pytest.raises(ValueError):
            PipelineConfig(input_path=price_csv, break_date="2006-01-05", significance=0.7)

    def test_empty_model_list_is_a_config_error(self, price_csv):
        with pytest.raises(ValueError, match="'models'"):
            PipelineConfig(input_path=price_csv, break_date="2006-01-05", models=[])


class TestCliCommands:
    def test_ingest_summary(self, price_csv, capsys):
        assert main(["ingest", price_csv]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["observations"] == 300

    def test_transform_writes_series(self, price_csv, tmp_path, capsys):
        out = tmp_path / "t"
        assert main(["transform", price_csv, "--window", "30", "--output-dir", str(out)]) == 0
        vol = (out / "volatility.csv").read_text().strip().splitlines()
        assert len(vol) - 1 == 300 - 30

    def test_unitroot_command(self, price_csv, break_date, capsys):
        assert main(["test-unitroot", price_csv, "--break-date", break_date]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["break_index"] == 151
        assert 0.0 <= payload["p_value"] <= 1.0

    def test_linearity_command(self, price_csv, tmp_path, capsys):
        out = tmp_path / "series"
        main(["transform", price_csv, "--window", "30", "--output-dir", str(out)])
        capsys.readouterr()
        assert main(["test-linearity", str(out / "volatility.csv"), "--ar-order", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["first_order"]["nonlinear_terms_f"]["df_num"] == 3

    def test_fit_and_simulate_round_trip(self, price_csv, tmp_path, capsys):
        series_dir = tmp_path / "series"
        main(["transform", price_csv, "--window", "30", "--output-dir", str(series_dir)])
        fit_dir = tmp_path / "fit"
        assert main([
            "fit", "setar", str(series_dir / "volatility.csv"),
            "--order", "1", "--regimes", "2", "--output-dir", str(fit_dir),
        ]) == 0
        sim_path = tmp_path / "sim.csv"
        assert main([
            "simulate", str(fit_dir / "model.json"),
            "--length", "40", "--noise-sd", "0.01", "--seed", "2",
            "--output", str(sim_path),
        ]) == 0
        lines = sim_path.read_text().strip().splitlines()
        assert len(lines) - 1 == 40

    def test_fit_and_simulate_neural_model(self, price_csv, tmp_path, capsys):
        series_dir = tmp_path / "series"
        main(["transform", price_csv, "--window", "30", "--output-dir", str(series_dir)])
        fit_dir = tmp_path / "fit"
        assert main([
            "fit", "nnet", str(series_dir / "volatility.csv"),
            "--restarts", "2", "--output-dir", str(fit_dir),
        ]) == 0
        sim_path = tmp_path / "sim.csv"
        assert main([
            "simulate", str(fit_dir / "model.json"),
            "--length", "25", "--noise-sd", "0.01", "--seed", "2",
            "--output", str(sim_path),
        ]) == 0
        lines = sim_path.read_text().strip().splitlines()
        assert len(lines) - 1 == 25

    def test_cli_stages_write_the_run_artifacts(self, price_csv, break_date, tmp_path, capsys):
        models = ["setar:order=1,regimes=3", "nnet:order=1,hidden=2,restarts=2"]
        config = PipelineConfig(
            input_path=price_csv,
            break_date=break_date,
            volatility_window=30,
            models=[
                {"kind": "setar", "order": 1, "regimes": 3},
                {"kind": "nnet", "order": 1, "hidden": 2, "restarts": 2},
            ],
            seed=3,
            output_dir=str(tmp_path / "run"),
        )
        artifacts = run_pipeline(config)
        cli = tmp_path / "cli"
        vol = str(cli / "volatility.csv")
        assert main(["transform", price_csv, "--window", "30", "--output-dir", str(cli)]) == 0
        assert main(["test-unitroot", price_csv, "--break-date", break_date,
                     "--output", str(cli / "unitroot.json")]) == 0
        assert main(["test-linearity", vol, "--output", str(cli / "linearity.json")]) == 0
        assert main(["fit", "setar", vol, "--regimes", "3",
                     "--output-dir", str(cli / "setar")]) == 0
        assert main(["fit", "nnet", vol, "--restarts", "2", "--seed", "3",
                     "--output-dir", str(cli / "nnet")]) == 0
        assert main(["compare", vol, "--model", models[0], "--model", models[1],
                     "--seed", "3", "--output-dir", str(cli)]) == 0
        pairs = {
            "returns": cli / "returns.csv",
            "volatility": cli / "volatility.csv",
            "unitroot": cli / "unitroot.json",
            "linearity": cli / "linearity.json",
            "model_01_setar3_p1": cli / "setar" / "model.json",
            "fitted_01_setar3_p1": cli / "setar" / "fitted.csv",
            "model_02_nnet1_2": cli / "nnet" / "model.json",
            "fitted_02_nnet1_2": cli / "nnet" / "fitted.csv",
            "comparison": cli / "comparison.json",
            "comparison_text": cli / "comparison.txt",
        }
        for key, path in pairs.items():
            assert path.read_bytes() == open(artifacts[key], "rb").read(), key

    def test_compare_command(self, price_csv, tmp_path, capsys):
        series_dir = tmp_path / "series"
        main(["transform", price_csv, "--window", "30", "--output-dir", str(series_dir)])
        out = tmp_path / "cmp"
        code = main([
            "compare", str(series_dir / "volatility.csv"),
            "--model", "ar:order=1",
            "--model", "setar:order=1,regimes=2",
            "--output-dir", str(out),
        ])
        assert code == 0
        payload = json.loads((out / "comparison.json").read_text())
        assert len(payload["scores"]) == 2

    def test_run_with_config_file(self, price_csv, break_date, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "input_path": price_csv,
            "break_date": break_date,
            "volatility_window": 30,
            "ar_max_order": 5,
            "models": [{"kind": "ar", "order": 1}],
            "output_dir": str(tmp_path / "run-out"),
        }))
        assert main(["run", "--config", str(config_path)]) == 0
        assert (tmp_path / "run-out" / "comparison.txt").exists()

    def test_error_path_is_single_structured_line(self, tmp_path, capsys):
        code = main(["ingest", str(tmp_path / "missing.csv")])
        captured = capsys.readouterr()
        assert code == 1
        err_lines = [l for l in captured.err.splitlines() if l.strip()]
        assert len(err_lines) == 1
        assert err_lines[0].startswith("ERROR stage=")
        assert err_lines[0].count("stage=") == 1

    @pytest.mark.parametrize(
        "argv, stage, fragment",
        [
            pytest.param(
                ["run", "--input", "{tmp}/missing.csv", "--break-index", "10",
                 "--output-dir", "{tmp}/out"],
                "ingest", "cannot open", id="run-missing-input",
            ),
            pytest.param(
                ["run", "--config", "{tmp}/unknown-key.json"],
                "config", "'colour'", id="config-unknown-key",
            ),
            pytest.param(
                ["run", "--config", "{tmp}/unknown-model-key.json"],
                "config", "'lags'", id="model-entry-unknown-key",
            ),
            pytest.param(
                ["run", "--config", "{tmp}/list.json"],
                "config", "list.json: expected a JSON object, got list", id="config-not-an-object",
            ),
            pytest.param(
                ["run", "--config", "{tmp}/absent.json"],
                "config", "cannot open", id="config-missing",
            ),
            pytest.param(
                ["run", "--config", "{tmp}/truncated.json"],
                "config", "truncated.json: invalid JSON", id="config-invalid-json",
            ),
            pytest.param(
                ["run", "--config", "{tmp}/latin1.json"],
                "config", "latin1.json: invalid JSON", id="config-not-utf8",
            ),
            pytest.param(
                ["run", "--config", "{tmp}/string-model.json"],
                "config", "JSON object", id="model-entry-not-an-object",
            ),
            pytest.param(
                ["run", "--config", "{tmp}/string-window.json"],
                "config", "'volatility_window'", id="config-window-not-an-int",
            ),
            pytest.param(
                ["run", "--config", "{tmp}/int-models.json"],
                "config", "'models'", id="config-models-not-a-list",
            ),
            pytest.param(
                ["run", "--config", "{tmp}/string-order.json"],
                "config", "'order'", id="model-entry-order-not-an-int",
            ),
            pytest.param(["fit", "ar", "{tmp}/nan.csv"], "fit", "line 4", id="fit-ar-nan"),
            pytest.param(["fit", "setar", "{tmp}/nan.csv"], "fit", "line 4", id="fit-setar-nan"),
            pytest.param(["fit", "lstar", "{tmp}/inf.csv"], "fit", "line 4", id="fit-lstar-inf"),
            pytest.param(
                ["transform", "{tmp}/prices.csv", "--output-dir", "{tmp}/series.csv/out"],
                "transform", "cannot create output directory", id="transform-dir-under-a-file",
            ),
            pytest.param(
                ["fit", "ar", "{tmp}/series.csv", "--output-dir", "{tmp}/series.csv/out"],
                "fit", "cannot create output directory", id="fit-dir-under-a-file",
            ),
            pytest.param(
                ["run", "--input", "{tmp}/prices.csv", "--break-index", "150",
                 "--output-dir", "{tmp}/series.csv/out"],
                "run", "cannot create output directory", id="run-dir-under-a-file",
            ),
            pytest.param(
                ["simulate", "{tmp}/ar-model.json", "--length", "10", "--burn-in", "-5"],
                "simulate", "burn_in", id="simulate-negative-burn-in",
            ),
            pytest.param(
                ["simulate", "{tmp}/ar-model.json", "--length", "5", "--noise-sd", "nan"],
                "simulate", "noise_sd must be finite", id="simulate-nan-noise-sd",
            ),
            pytest.param(
                ["simulate", "{tmp}/ar-model.json", "--length", "5", "--noise-sd", "inf"],
                "simulate", "noise_sd must be finite", id="simulate-inf-noise-sd",
            ),
            # a SETAR(0) on x_{t-1} reads a lag it does not have
            pytest.param(
                ["simulate", "{tmp}/setar0-lagged-model.json", "--length", "5"],
                "simulate", "delay 1 exceeds order 0", id="simulate-delay-above-order",
            ),
            pytest.param(
                ["simulate", "{tmp}/latin1.json", "--length", "5"],
                "simulate", "latin1.json: invalid JSON", id="simulate-model-not-utf8",
            ),
            pytest.param(
                ["simulate", "{tmp}/list-model.json", "--length", "5"],
                "simulate", "list-model.json: expected a JSON object, got list",
                id="simulate-model-not-an-object",
            ),
            pytest.param(
                ["simulate", "{tmp}/nnet-no-hidden-model.json", "--length", "5"],
                "simulate", "nnet-no-hidden-model.json: missing key 'n_hidden'",
                id="simulate-nnet-missing-key",
            ),
            pytest.param(
                ["simulate", "{tmp}/nnet-short-output-weights-model.json", "--length", "5"],
                "simulate", "nnet-short-output-weights-model.json: output weights",
                id="simulate-nnet-weight-count",
            ),
            pytest.param(
                ["simulate", "{tmp}/setar-no-thresholds-model.json", "--length", "5"],
                "simulate", "setar-no-thresholds-model.json: missing key 'thresholds'",
                id="simulate-setar-missing-key",
            ),
            pytest.param(
                ["simulate", "{tmp}/regimes-not-a-list-model.json", "--length", "5"],
                "simulate", "regimes-not-a-list-model.json: 'int' object is not iterable",
                id="simulate-regimes-not-a-list",
            ),
            pytest.param(
                ["simulate", "{tmp}/unknown-kind-model.json", "--length", "5"],
                "simulate", "kind must be one of ar, setar, lstar, estar, got 'foo'",
                id="simulate-unknown-kind",
            ),
            pytest.param(
                ["simulate", "{tmp}/setar-two-thresholds-model.json", "--length", "5"],
                "simulate", "thresholds: 1 expected for setar with 2 regimes, got 2",
                id="simulate-setar-threshold-count",
            ),
            pytest.param(
                ["simulate", "{tmp}/ar2-two-coefficients-model.json", "--length", "5"],
                "simulate", "regimes[0] has 2 coefficients, order 2 needs 3",
                id="simulate-coefficient-count",
            ),
            pytest.param(
                ["simulate", "{tmp}/ar-threshold-model.json", "--length", "5"],
                "simulate", "thresholds: 0 expected for ar with 1 regimes, got 1",
                id="simulate-ar-with-threshold",
            ),
            pytest.param(
                ["simulate", "{tmp}/setar-one-regime-model.json", "--length", "5"],
                "simulate", "regimes: at least 2 expected for setar, got 1",
                id="simulate-setar-one-regime",
            ),
            pytest.param(
                ["simulate", "{tmp}/lstar-no-transition-model.json", "--length", "5"],
                "simulate", "transitions: 1 expected for lstar with 2 regimes, got 0",
                id="simulate-lstar-transition-count",
            ),
            pytest.param(
                ["fit", "nnet", "{tmp}/series.csv", "--restarts", "0",
                 "--output-dir", "{tmp}/out"],
                "fit", "restarts", id="fit-nnet-zero-restarts",
            ),
            pytest.param(
                ["fit", "nnet", "{tmp}/series.csv", "--hidden", "0",
                 "--output-dir", "{tmp}/out"],
                "fit", "hidden units", id="fit-nnet-no-hidden-units",
            ),
            pytest.param(
                ["fit", "nnet", "{tmp}/series.csv", "--order", "0",
                 "--output-dir", "{tmp}/out"],
                "fit", "lagged inputs", id="fit-nnet-no-inputs",
            ),
            pytest.param(
                ["test-linearity", "{tmp}/series.csv", "--significance", "7"],
                "test-linearity", "significance", id="test-linearity-significance-7",
            ),
            pytest.param(
                ["fit", "setar", "{tmp}/series.csv", "--min-fraction", "nan",
                 "--output-dir", "{tmp}/out"],
                "fit", "min_fraction", id="fit-setar-nan-min-fraction",
            ),
            pytest.param(
                ["compare", "{tmp}/series.csv", "--model", "ar:order=1",
                 "--model", "nnet:standardize=maybe", "--output-dir", "{tmp}/out"],
                "compare", "standardize", id="compare-standardize-not-a-flag",
            ),
            pytest.param(
                ["fit", "lstar", "{tmp}/series.csv", "--gamma-points", "0",
                 "--output-dir", "{tmp}/out"],
                "fit", "gamma grid points", id="fit-lstar-zero-gamma-points",
            ),
            pytest.param(
                ["fit", "lstar", "{tmp}/series.csv", "--gamma-lo", "nan",
                 "--output-dir", "{tmp}/out"],
                "fit", "gamma grid lo", id="fit-lstar-nan-gamma-lo",
            ),
            pytest.param(
                ["fit", "estar", "{tmp}/series.csv", "--gamma-hi", "inf",
                 "--output-dir", "{tmp}/out"],
                "fit", "gamma grid hi", id="fit-estar-inf-gamma-hi",
            ),
            pytest.param(
                ["fit", "lstar", "{tmp}/series.csv", "--gamma-step", "nan",
                 "--output-dir", "{tmp}/out"],
                "fit", "gamma grid step", id="fit-lstar-nan-gamma-step",
            ),
            pytest.param(
                ["run", "--config", "{tmp}/zero-gamma-points.json"],
                "config", "gamma grid points", id="config-lstar-zero-gamma-points",
            ),
            pytest.param(
                ["compare", "{tmp}/series.csv", "--model", "ar:order=1",
                 "--model", "lstar:gamma_lo=nan", "--output-dir", "{tmp}/out"],
                "compare", "gamma grid lo", id="compare-lstar-nan-gamma-lo",
            ),
            pytest.param(
                ["compare", "{tmp}/series.csv", "--model", "ar:order=1",
                 "--model", "ar:foo=x", "--output-dir", "{tmp}/out"],
                "compare", "'foo'", id="compare-unknown-spec-key",
            ),
            # the kind goes before the colon; as a key it would turn this AR into a SETAR
            pytest.param(
                ["compare", "{tmp}/series.csv", "--model", "ar:order=2",
                 "--model", "ar:order=1,kind=setar", "--output-dir", "{tmp}/out"],
                "compare", "'kind'", id="compare-kind-as-a-spec-key",
            ),
            pytest.param(
                ["run", "--input", "{tmp}/prices.csv", "--break-index", "150",
                 "--ar-max-order", "-3", "--output-dir", "{tmp}/out"],
                "linearity", "max_order", id="run-negative-ar-max-order",
            ),
            pytest.param(
                ["run", "--config", "{tmp}/no-models.json"],
                "config", "'models'", id="config-empty-model-list",
            ),
            # a later model's setting fails before the first stage runs
            pytest.param(
                ["run", "--config", "{tmp}/negative-min-fraction.json"],
                "config", "min_fraction", id="config-second-model-negative-min-fraction",
            ),
            pytest.param(
                ["run", "--config", "{tmp}/zero-delay.json"],
                "config", "delay", id="config-second-model-zero-delay",
            ),
            pytest.param(
                ["run", "--config", "{tmp}/delay-above-order.json"],
                "config", "delay 3 exceeds order 1", id="config-second-model-delay-above-order",
            ),
            pytest.param(
                ["run", "--config", "{tmp}/four-regimes.json"],
                "config", "n_regimes must be 2 or 3, got 4", id="config-second-model-four-regimes",
            ),
            pytest.param(
                ["run", "--config", "{tmp}/three-transitions.json"],
                "config", "n_transitions must be 1 or 2, got 3",
                id="config-second-model-three-transitions",
            ),
            pytest.param(
                ["run", "--config", "{tmp}/zero-restarts.json"],
                "config", "restarts must be at least 1, got 0", id="config-second-model-zero-restarts",
            ),
            pytest.param(
                ["run", "--config", "{tmp}/no-hidden-units.json"],
                "config", "number of hidden units", id="config-second-model-no-hidden-units",
            ),
            pytest.param(
                ["run", "--config", "{tmp}/nnet-no-inputs.json"],
                "config", "number of lagged inputs", id="config-second-model-nnet-no-inputs",
            ),
            pytest.param(
                ["run", "--config", "{tmp}/negative-order.json"],
                "config", "order must be non-negative, got -1", id="config-second-model-negative-order",
            ),
            # a negative seed fails before the first stage, not at the network
            pytest.param(
                ["run", "--input", "{tmp}/prices.csv", "--break-index", "150",
                 "--seed", "-3", "--output-dir", "{tmp}/run-out"],
                "config", "seed must be a non-negative integer, got -3", id="run-negative-seed",
            ),
            pytest.param(
                ["run", "--config", "{tmp}/negative-seed.json"],
                "config", "seed must be a non-negative integer, got -3", id="config-negative-seed",
            ),
            pytest.param(
                ["fit", "nnet", "{tmp}/series.csv", "--seed", "-1", "--output-dir", "{tmp}/out"],
                "fit", "seed must be a non-negative integer, got -1", id="fit-nnet-negative-seed",
            ),
            # a 1e-13 step asks for about 2e15 gammas; the allocation fails
            # at once, before any memory is used
            pytest.param(
                ["fit", "lstar", "{tmp}/series.csv", "--gamma-step", "1e-13",
                 "--output-dir", "{tmp}/out"],
                "fit", "out of memory", id="fit-lstar-grid-too-large",
            ),
        ],
    )
    def test_malformed_input_is_one_error_line(
        self, argv, stage, fragment, price_csv, break_date, tmp_path, capsys
    ):
        config = {
            "input_path": price_csv,
            "break_date": break_date,
            "volatility_window": 30,
            "output_dir": str(tmp_path / "run-out"),
        }
        (tmp_path / "unknown-key.json").write_text(
            json.dumps({**config, "colour": "blue"})
        )
        (tmp_path / "unknown-model-key.json").write_text(
            json.dumps({**config, "models": [{"kind": "ar", "order": 1, "lags": 2}]})
        )
        (tmp_path / "list.json").write_text(json.dumps([config]))
        (tmp_path / "truncated.json").write_text(json.dumps(config)[:-1])
        (tmp_path / "latin1.json").write_bytes(
            json.dumps({**config, "output_dir": "é"}, ensure_ascii=False).encode("latin-1")
        )
        (tmp_path / "string-model.json").write_text(json.dumps({**config, "models": ["ar"]}))
        (tmp_path / "string-window.json").write_text(
            json.dumps({**config, "volatility_window": "60"})
        )
        (tmp_path / "int-models.json").write_text(json.dumps({**config, "models": 5}))
        (tmp_path / "no-models.json").write_text(json.dumps({**config, "models": []}))
        (tmp_path / "negative-seed.json").write_text(json.dumps({**config, "seed": -3}))
        (tmp_path / "setar0-lagged-model.json").write_text(json.dumps(make_regime_model(
            "setar", [[0.5], [-0.5]], thresholds=[0.0], tv=ThresholdVariable(LAGGED_VALUE, 1)
        ).to_dict()))
        ar_model = make_regime_model("ar", [[0.0, 0.5]]).to_dict()
        setar_model = make_regime_model("setar", [[0.5, 0.1], [-0.5, 0.1]], thresholds=[100.0]).to_dict()
        lstar_model = make_regime_model(
            "lstar", [[0.5, 0.1], [-0.5, 0.1]], thresholds=[100.0],
            transitions=[TransitionSpec("logistic", 2.0, 100.0)],
        ).to_dict()
        setar_no_thresholds = dict(setar_model)
        del setar_no_thresholds["thresholds"]
        for name, payload in (
            ("ar", ar_model),
            ("list", [1, 2]),
            ("nnet-no-hidden", {"model": "nnet", "n_inputs": 1}),
            ("nnet-short-output-weights", {
                "model": "nnet", "n_inputs": 1, "n_hidden": 2, "output_bias": 0.0,
                "output_weights": [1.0], "hidden_biases": [0.0, 0.0], "hidden_weights": [[1.0, 1.0]],
            }),
            ("setar-no-thresholds", setar_no_thresholds),
            ("regimes-not-a-list", {**ar_model, "regimes": 5}),
            ("unknown-kind", {**ar_model, "kind": "foo"}),
            ("setar-two-thresholds", {**setar_model, "thresholds": [100.0, 200.0]}),
            ("ar2-two-coefficients", {**ar_model, "order": 2}),
            ("ar-threshold", {**ar_model, "thresholds": [100.0]}),
            ("setar-one-regime", {**setar_model, "regimes": [[0.5, 0.1]], "thresholds": []}),
            ("lstar-no-transition", {**lstar_model, "transitions": []}),
        ):
            (tmp_path / f"{name}-model.json").write_text(json.dumps(payload))
        (tmp_path / "string-order.json").write_text(
            json.dumps({**config, "models": [{"kind": "ar", "order": "1"}]})
        )
        (tmp_path / "zero-gamma-points.json").write_text(
            json.dumps({**config, "models": [{"kind": "lstar", "gamma_points": 0}]})
        )
        (tmp_path / "negative-min-fraction.json").write_text(json.dumps({
            **config, "models": [{"kind": "ar"}, {"kind": "setar", "min_fraction": -0.5}],
        }))
        (tmp_path / "zero-delay.json").write_text(json.dumps({
            **config,
            "models": [{"kind": "ar"}, {"kind": "lstar", "threshold": "lagged_value", "delay": 0}],
        }))
        for name, second in (
            ("delay-above-order",
             {"kind": "setar", "threshold": "lagged_value", "delay": 3, "order": 1}),
            ("four-regimes", {"kind": "setar", "regimes": 4}),
            ("three-transitions", {"kind": "lstar", "transitions": 3}),
            ("zero-restarts", {"kind": "nnet", "restarts": 0}),
            ("no-hidden-units", {"kind": "nnet", "hidden": 0}),
            ("nnet-no-inputs", {"kind": "nnet", "order": 0}),
            ("negative-order", {"kind": "ar", "order": -1}),
        ):
            (tmp_path / f"{name}.json").write_text(
                json.dumps({**config, "models": [{"kind": "ar"}, second]})
            )
        values = [f"{i},{0.01 + 0.001 * (i % 7)}" for i in range(1, 61)]
        (tmp_path / "series.csv").write_text("\n".join(["index,value"] + values) + "\n")
        with open(price_csv) as handle:
            (tmp_path / "prices.csv").write_text(handle.read())
        for cell in ("nan", "inf"):
            rows = ["index,value"] + values
            rows[3] = f"3,{cell}"
            (tmp_path / f"{cell}.csv").write_text("\n".join(rows) + "\n")

        code = main([a.format(tmp=tmp_path) for a in argv])
        err = capsys.readouterr().err
        err_lines = [l for l in err.splitlines() if l.strip()]
        assert code == 1
        assert len(err_lines) == 1, err
        assert err_lines[0].startswith(f"ERROR stage={stage}: ")
        assert err_lines[0].count("stage=") == 1
        assert fragment in err_lines[0]
        assert "Traceback" not in err
        if stage == "config":
            assert not (tmp_path / "run-out").exists()
        if stage == "fit":
            # the directory is made once the fit is done
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "seed, fragment",
        [("-3", "seed must be a non-negative integer, got -3"),
         ("abc", "REGIMEVOL_SEED must be an integer, got 'abc'")],
    )
    def test_bad_seed_in_the_environment_is_one_config_error_line(
        self, seed, fragment, price_csv, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("REGIMEVOL_SEED", seed)
        out = tmp_path / "run-out"
        code = main(["run", "--input", price_csv, "--break-index", "150", "--output-dir", str(out)])
        err_lines = [l for l in capsys.readouterr().err.splitlines() if l.strip()]
        assert code == 1
        assert err_lines == [f"ERROR stage=config: {fragment}"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, stage, fragment",
        [
            pytest.param(["fit", "ar", "s.csv", "--order", "x"], "fit",
                         "argument --order: invalid int value: 'x'", id="fit-order-not-a-number"),
            pytest.param(["fitt", "ar", "s.csv"], "usage",
                         "invalid choice: 'fitt'", id="unknown-subcommand"),
            pytest.param(["fit", "setar", "s.csv", "--threshold", "calendar"], "fit",
                         "argument --threshold: invalid choice: 'calendar'", id="fit-bad-threshold"),
            pytest.param(["simulate", "model.json"], "simulate",
                         "the following arguments are required: --length", id="simulate-no-length"),
            pytest.param([], "usage", "required: command", id="no-subcommand"),
            pytest.param(["test-unitroot", "p.csv"], "test-unitroot",
                         "one of the arguments --break-date --break-index is required",
                         id="test-unitroot-no-break"),
            pytest.param(["test-unitroot", "p.csv", "--break-date", "2006-06-01",
                          "--break-index", "150"], "test-unitroot",
                         "argument --break-index: not allowed with argument --break-date",
                         id="test-unitroot-two-breaks"),
        ],
    )
    def test_usage_error_is_one_error_line(self, argv, stage, fragment, capsys):
        # argparse's own handling prints a usage block and an "error:" line
        code = main(argv)
        captured = capsys.readouterr()
        err_lines = [l for l in captured.err.splitlines() if l.strip()]
        assert code == 2
        assert captured.out == ""
        assert len(err_lines) == 1, captured.err
        assert err_lines[0].startswith(f"ERROR stage={stage}: ")
        assert fragment in err_lines[0]

    @pytest.mark.parametrize("argv", [["--help"], ["fit", "--help"]])
    def test_help_still_exits_zero_with_its_text(self, argv, capsys):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: regimevol")
        assert captured.err == ""

    def test_fit_flags_left_out_keep_the_request_defaults(self):
        args = build_parser().parse_args(
            ["fit", "lstar", "s.csv", "--delay", "2", "--gamma-step", "0.5", "--raw-inputs"]
        )
        assert _given(args, ModelRequest) == {
            "kind": "lstar", "delay": 2, "gamma_step": 0.5, "standardize": False,
        }
        assert ModelRequest(**_given(args, ModelRequest)) == ModelRequest(
            kind="lstar", delay=2, gamma_step=0.5, standardize=False
        )

    def test_run_flags_left_out_keep_the_config_defaults(self):
        args = build_parser().parse_args(
            ["run", "--input", "p.csv", "--break-index", "150", "--window", "30"]
        )
        assert _given(args, PipelineConfig) == {
            "input_path": "p.csv", "break_index": 150, "volatility_window": 30,
        }

    def test_env_override_of_seed_and_output_dir(self, price_csv, break_date, tmp_path, monkeypatch):
        override_dir = tmp_path / "env-out"
        monkeypatch.setenv("REGIMEVOL_OUTPUT_DIR", str(override_dir))
        monkeypatch.setenv("REGIMEVOL_SEED", "17")
        config = PipelineConfig.from_dict({
            "input_path": price_csv,
            "break_date": break_date,
            "volatility_window": 30,
            "models": [{"kind": "ar", "order": 1}],
            "output_dir": str(tmp_path / "ignored"),
        })
        assert config.output_dir == str(override_dir)
        assert config.seed == 17

    def test_console_entry_point(self, price_csv):
        proc = subprocess.run(
            [sys.executable, "-m", "regimevol.cli", "ingest", price_csv],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["observations"] == 300


_SPEC_KEYS = [f.name for f in fields(ModelRequest)] + ["foo", ""]  # "" is an empty fragment
_SPEC_VALUES = ["nan", "inf", "-1", "0", "1e3", "x", "", "true"]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    kind=st.sampled_from(MODEL_KINDS + ("x",)),
    pairs=st.lists(
        st.tuples(st.sampled_from(_SPEC_KEYS), st.sampled_from(_SPEC_VALUES)), max_size=4
    ),
)
def test_a_model_spec_is_a_typed_request_or_one_regimevol_error(kind, pairs):
    spec = kind + ":" + ",".join(f"{key}={value}" if key else "" for key, value in pairs)
    try:
        request = _parse_model_spec(spec)
    except RegimevolError:
        return
    assert isinstance(request, ModelRequest)
    assert request.kind == kind
    for key, _ in pairs:
        assert key not in ("kind", "foo")
        if key:
            assert isinstance(getattr(request, key), field_types(ModelRequest)[key][0])
        else:
            assert spec == kind + ":"  # a lone empty fragment is an empty spec


_RUN_KEYS = [f.name for f in fields(PipelineConfig)]
_MODEL_KEYS = [f.name for f in fields(ModelRequest)]
_CONFIG_VALUES = [
    float("nan"), float("inf"), float("-inf"), -1, 0, 1e9, 10**9, "x", "", True, None,
]


@settings(max_examples=500, derandomize=True, deadline=None)
@given(
    kind=st.sampled_from(MODEL_KINDS),
    target=st.one_of(
        st.tuples(st.just("run"), st.sampled_from(_RUN_KEYS)),
        st.tuples(st.just("model"), st.sampled_from(_MODEL_KEYS)),
    ),
    value=st.sampled_from(_CONFIG_VALUES),
)
def test_a_run_config_is_a_config_or_one_value_error(kind, target, value):
    # one run key, or one key of the second model, set to a hostile value
    payload = {
        "input_path": "prices.csv",
        "break_index": 150,
        "models": [{"kind": "ar"}, {"kind": kind}],
    }
    where, key = target
    if where == "run":
        payload[key] = value
    else:
        payload["models"][1][key] = value
    try:
        config = PipelineConfig.from_dict(payload)
    except (ValueError, RegimevolError):
        return
    assert isinstance(config, PipelineConfig)
    assert all(isinstance(m, ModelRequest) for m in config.models)


@pytest.mark.parametrize("payload", [[1, 2], 3, "ab", None])
def test_a_run_config_that_is_not_an_object_is_one_value_error(payload):
    with pytest.raises(ValueError, match="^the run config must be a JSON object, got "):
        PipelineConfig.from_dict(payload)


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """A 120-price CSV, its 100-row volatility CSV and a saved lagged-value SETAR."""
    root = tmp_path_factory.mktemp("cli-fuzz")
    prices = write_price_csv(root / "prices.csv", synthetic_prices(n=120, break_at=60))
    assert main(["transform", prices, "--window", "20", "--output-dir", str(root)]) == 0
    volatility = str(root / "volatility.csv")
    assert main(["fit", "setar", volatility, "--threshold", "lagged_value",
                 "--output-dir", str(root / "setar")]) == 0
    return {"prices": prices, "volatility": volatility, "model": str(root / "setar" / "model.json")}


# a quick baseline of each subcommand but run, whose config keys are fuzzed
# above: the command and its input file, then its flags
_CLI_BASELINES = {
    "ingest": ("ingest {prices}", "--output ingest.json"),
    "transform": ("transform {prices}", "--window 20 --output-dir out"),
    "test-unitroot": ("test-unitroot {prices}",
                      "--break-index 60 --specification trend_break --output unitroot.json"),
    "test-linearity": ("test-linearity {volatility}",
                       "--ar-order 1 --significance 0.05 --output linearity.json"),
    "fit-setar": ("fit setar {volatility}",
                  "--order 1 --regimes 2 --threshold lagged_value --delay 1 --min-fraction 0.15"
                  " --output-dir out"),
    "fit-lstar": ("fit lstar {volatility}",
                  "--order 1 --transitions 1 --gamma-lo 1 --gamma-hi 50 --gamma-points 5"
                  " --min-fraction 0.15 --seed 0 --output-dir out"),
    "fit-estar": ("fit estar {volatility}",
                  "--order 1 --gamma-step 10 --gamma-lo 1 --gamma-hi 40 --output-dir out"),
    "fit-ar": ("fit ar {volatility}", "--order 2 --output-dir out"),
    "compare": ("compare {volatility}",
                "--model ar:order=1 --model setar:order=1 --seed 0 --output-dir out"),
    "simulate": ("simulate {model}", "--length 30 --noise-sd 0.01 --seed 1 --burn-in 5"),
}
_CLI_VALUES = ["nan", "inf", "-inf", "-1", "0", "x", ""]
# checked before anything the size of the value is allocated
_CLI_HUGE = {"--order", "--window", "--break-index"}


def _cli_targets(name):
    """What an example may set: "input" (the input file) or one of the flags."""
    return ["input"] + [word for word in _CLI_BASELINES[name][1].split() if word.startswith("--")]


@settings(max_examples=400, derandomize=True, deadline=None)
@given(
    case=st.sampled_from(list(_CLI_BASELINES)).flatmap(
        lambda name: st.tuples(st.just(name), st.sampled_from(_cli_targets(name)))
    ),
    value=st.sampled_from(_CLI_VALUES + ["1000000000"]),
)
def test_a_command_line_exits_0_1_or_2_with_one_error_line(cli_inputs, case, value):
    # one flag's value (or the input path) of a quick command set to a hostile value
    name, target = case
    assume(value != "1000000000" or target in _CLI_HUGE)
    command, flags = _CLI_BASELINES[name]
    argv = command.format(**cli_inputs).split()
    words = flags.split()
    if target == "input":
        argv[-1] = value
    else:
        words[words.index(target) + 1] = value
    argv += words
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as work, contextlib.chdir(work):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        written = [
            Path(folder, file).read_text() for folder, _, files in os.walk(work) for file in files
        ]
    err_lines = err.getvalue().splitlines()
    if code == 0:
        assert err.getvalue() == ""
        # a "wrote <path>" line names a path, which may be the hostile value
        printed = [line for line in out.getvalue().splitlines() if not line.startswith("wrote ")]
        for text in [*printed, *written]:
            assert not re.search(r"\b(nan|inf|infinity)\b", text, re.IGNORECASE), (argv, text)
    else:
        assert code in (1, 2), argv
        assert len(err_lines) == 1, (argv, err.getvalue())
        assert err_lines[0].startswith("ERROR stage=") and err_lines[0].count("stage=") == 1
        assert "Traceback" not in err.getvalue()
