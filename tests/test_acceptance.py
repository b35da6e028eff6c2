"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
Criterion 9 needs the original daily-close series (500 rows spanning
2006-12-12) supplied via the REGIMEVOL_RHT_CSV environment variable and is
skipped otherwise.
"""

import os
import time

import numpy as np
import pytest

from regimevol import (
    PipelineConfig,
    TrainConfig,
    TransitionSpec,
    compare,
    fit_ar,
    fit_lstar,
    fit_setar,
    gradient,
    ingest,
    log_returns,
    ols_fit,
    one_step_fitted,
    phillips_perron,
    realized_volatility,
    run_pipeline,
    simulate,
    terasvirta_first_order,
    terasvirta_zero_order,
    train_nnet_ar,
)
from regimevol.neural import NnetArModel, predict
from regimevol.regimes import LAGGED_VALUE, TIME, ThresholdVariable
from regimevol.series import lag_design
from tests.conftest import make_regime_model


def report(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:>2} {name}: {status} {detail}".rstrip())
    return passed


def test_criterion_01_ols_oracle_equivalence():
    start = time.time()
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 51))
        k = int(rng.integers(1, 6))
        design = np.column_stack([np.ones(n)] + [rng.normal(size=n) for _ in range(k - 1)])
        response = rng.normal(size=n)
        fit = ols_fit(design, response)
        xtx_inv = np.linalg.inv(design.T @ design)
        beta = xtx_inv @ design.T @ response
        resid = response - design @ beta
        sigma2 = resid @ resid / (n - k)
        se = np.sqrt(np.diag(sigma2 * xtx_inv))
        scale_b = np.maximum(np.abs(beta), 1e-10)
        scale_s = np.maximum(np.abs(se), 1e-10)
        worst = max(
            worst,
            float(np.max(np.abs(fit.coefficients - beta) / scale_b)),
            float(np.max(np.abs(fit.standard_errors - se) / scale_s)),
        )
    elapsed = time.time() - start
    ok = worst < 1e-8 and elapsed < 5.0
    assert report(1, "OLS matches normal-equations oracle", ok,
                  f"(worst rel err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_02_setar_recovery():
    # Generator: each regime's coefficient vector is 0.5 resp. -0.5 (c=0,
    # sigma=0.1, threshold on the lagged value, low regime positive; the
    # mirrored assignment is degenerate).  NOTE: the +-0.1 coefficient
    # tolerance is a ~2-sigma event per regime slope at this design (the
    # oracle fit at the TRUE threshold fails the same seeds), so the stated
    # >=95/100 target sits above the information bound of about 91/100.
    # See the decisions ledger for the full blocking analysis.
    start = time.time()
    generator = make_regime_model(
        "setar", [[0.5, 0.5], [-0.5, -0.5]], thresholds=[0.0],
        tv=ThresholdVariable(LAGGED_VALUE, 1),
    )
    hits = 0
    for seed in range(100):
        x = simulate(generator, 500, 0.1, seed=seed)
        m = fit_setar(x, 1, 2, ThresholdVariable(LAGGED_VALUE, 1))
        errs = np.concatenate([np.abs(m.regimes[0] - 0.5), np.abs(m.regimes[1] + 0.5)])
        hits += abs(m.thresholds[0]) <= 0.1 and np.all(errs <= 0.1)
    elapsed = time.time() - start
    ok = hits >= 95 and elapsed < 60.0
    assert report(2, "SETAR recovery >= 95/100", ok, f"({hits}/100, {elapsed:.1f}s)")


def test_criterion_03_lstar_recovery():
    start = time.time()
    generator = make_regime_model(
        "lstar", [[0.5, 0.8], [-1.0, -0.6]], thresholds=[0.0],
        transitions=[TransitionSpec("logistic", 10.0, 0.0)],
        tv=ThresholdVariable(LAGGED_VALUE, 1),
    )
    hits = 0
    for seed in range(100):
        x = simulate(generator, 500, 0.1, seed=seed)
        span = x.max() - x.min()
        m = fit_lstar(x, 1, 1, ThresholdVariable(LAGGED_VALUE, 1))
        c_ok = abs(m.transitions[0].c) <= 0.05 * span
        g_ok = 5.0 <= m.transitions[0].gamma <= 20.0
        hits += c_ok and g_ok
    elapsed = time.time() - start
    ok = hits >= 90 and elapsed < 300.0
    assert report(3, "LSTAR recovery >= 90/100 (coarse grid)", ok, f"({hits}/100, {elapsed:.1f}s)")


def test_criterion_04_terasvirta_size_and_power():
    start = time.time()
    linear = make_regime_model("ar", [[0.02, 0.5]])
    rejections = 0
    for seed in range(200):
        x = simulate(linear, 440, 0.1, seed=seed)
        rejections += terasvirta_first_order(x, 1).nonlinear_terms_f.p_value < 0.05
    size_ok = 4 <= rejections <= 20

    lstar = make_regime_model(
        "lstar", [[0.02, 0.95], [0.0, -0.3]], thresholds=[220.0],
        transitions=[TransitionSpec("logistic", 10.0 / 440.0, 220.0)],
        tv=ThresholdVariable(TIME),
    )
    power_rejections = 0
    lstar_verdicts = 0
    for seed in range(100):
        x = simulate(lstar, 440, 0.01, seed=seed)
        rep = terasvirta_first_order(x, 1)
        if rep.nonlinear_terms_f.p_value < 0.05:
            power_rejections += 1
            lstar_verdicts += rep.verdict == "lstar"
    power_ok = power_rejections >= 70 and lstar_verdicts > power_rejections / 2
    elapsed = time.time() - start
    ok = size_ok and power_ok and elapsed < 120.0
    assert report(4, "linearity test size in [2%,10%], power >= 70% w/ lstar verdict", ok,
                  f"(size {rejections}/200, power {power_rejections}/100, lstar {lstar_verdicts}, {elapsed:.1f}s)")


def test_criterion_05_phillips_perron_size_and_power():
    start = time.time()
    null_rejections = 0
    alt_rejections = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        walk = np.cumsum(rng.normal(size=500))
        null_rejections += phillips_perron(walk).p_value < 0.05
        eps = rng.normal(size=500)
        e = np.empty(500)
        e[0] = eps[0]
        for i in range(1, 500):
            e[i] = 0.5 * e[i - 1] + eps[i]
        alt_rejections += phillips_perron(e).p_value < 0.05
    elapsed = time.time() - start
    ok = (100 - null_rejections) >= 90 and alt_rejections >= 80 and elapsed < 60.0
    assert report(5, "PP: random walks kept >= 90, AR(0.5) rejected >= 80", ok,
                  f"(null rejections {null_rejections}, alt rejections {alt_rejections}, {elapsed:.1f}s)")


def test_criterion_06_gradient_check():
    start = time.time()
    worst = 0.0
    for case in range(50):
        rng = np.random.default_rng(1000 + case)
        m = int(rng.integers(1, 4))
        d = int(rng.integers(1, 5))
        skip = bool(rng.integers(0, 2))
        n_weights = (m + 1) * d + (d + 1) + (m if skip else 0)
        model = NnetArModel.from_vector(m, d, rng.uniform(-0.8, 0.8, n_weights), skip)
        lags = rng.normal(size=(30, m))
        targets = rng.normal(size=30)
        analytic = gradient(model, lags, targets)

        def loss(vec):
            mod = NnetArModel.from_vector(m, d, vec, skip)
            r = targets - predict(mod, lags)
            return 0.5 * float(r @ r)

        theta = model.to_vector()
        numeric = np.empty_like(theta)
        for j in range(len(theta)):
            up, down = theta.copy(), theta.copy()
            up[j] += 1e-6
            down[j] -= 1e-6
            numeric[j] = (loss(up) - loss(down)) / 2e-6
        # vector-norm relative error: per-component ratios only measure the
        # difference quotient's own roundoff on near-zero entries
        worst = max(worst, float(np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)))
    elapsed = time.time() - start
    ok = worst < 1e-6 and elapsed < 10.0
    assert report(6, "analytic gradient matches finite differences", ok,
                  f"(worst rel err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_07_structural_arithmetic():
    rng = np.random.default_rng(12)
    from regimevol import PriceSeries

    prices = PriceSeries.from_values(30.0 * np.exp(np.cumsum(rng.normal(0, 0.02, 500))))
    returns = log_returns(prices)
    volatility = realized_volatility(returns, 60)
    zero = terasvirta_zero_order(volatility, 1)
    first = terasvirta_first_order(volatility, 1)
    ok = (
        len(returns) == 499
        and len(volatility) == 440
        and (zero.overall_f.df_num, zero.overall_f.df_den) == (4, 434)
        and (zero.nonlinear_terms_f.df_num, zero.nonlinear_terms_f.df_den) == (3, 434)
        and (first.overall_f.df_num, first.overall_f.df_den) == (4, 434)
        and (first.nonlinear_terms_f.df_num, first.nonlinear_terms_f.df_den) == (3, 434)
    )
    assert report(7, "500 -> 499 -> 440 chain with (4,434)/(3,434) dfs", ok,
                  f"(returns {len(returns)}, volatility {len(volatility)})")


def test_criterion_08_sharp_lstar_matches_setar():
    setar = make_regime_model(
        "setar", [[0.1, 0.6], [-0.2, 0.3]], thresholds=[250.0], tv=ThresholdVariable(TIME),
    )
    lstar = make_regime_model(
        "lstar", [[0.1, 0.6], [-0.3, -0.3]], thresholds=[250.0],
        transitions=[TransitionSpec("logistic", 1e4, 250.0)], tv=ThresholdVariable(TIME),
    )
    x = simulate(setar, 500, 0.1, seed=8)
    f_setar, _ = one_step_fitted(setar, x)
    f_lstar, _ = one_step_fitted(lstar, x)
    z = np.arange(2, 501, dtype=float)
    away = np.abs(z - 250.0) > 1.0
    gap = float(np.max(np.abs(f_setar[away] - f_lstar[away])))
    ok = gap < 1e-4
    assert report(8, "LSTAR at gamma=1e4 matches SETAR off-threshold", ok, f"(max gap {gap:.2e})")


def test_criterion_09_conditional_redhat_ranking():
    path = os.environ.get("REGIMEVOL_RHT_CSV")
    if not path:
        report(9, "conditional Red Hat ranking", True, "(SKIPPED: set REGIMEVOL_RHT_CSV to run)")
        pytest.skip("original Red Hat series not supplied (REGIMEVOL_RHT_CSV unset)")
    prices = ingest(path)
    volatility = realized_volatility(log_returns(prices), 60)
    linear = fit_ar(volatility, 1)
    setar3 = fit_setar(volatility, 1, 3, ThresholdVariable(TIME))
    lstar2 = fit_lstar(volatility, 1, 1, ThresholdVariable(TIME))
    lstar3 = fit_lstar(volatility, 1, 2, ThresholdVariable(TIME))
    nnet = train_nnet_ar(volatility, 1, 2, TrainConfig(seed=0)).model
    rep = compare([linear, lstar2, setar3, lstar3, nnet], volatility)
    linear_mape = rep.scores[0].mape
    ok = (
        rep.best_by_aic == setar3.label
        and rep.best_by_bic == setar3.label
        and abs(linear_mape - 3.05) <= 1.0
    )
    assert report(9, "conditional Red Hat ranking", ok,
                  f"(best AIC {rep.best_by_aic}, best BIC {rep.best_by_bic}, linear MAPE {linear_mape:.2f}%)")


def test_criterion_10_pipeline_determinism(tmp_path):
    import datetime as dt

    rng = np.random.default_rng(5)
    n, break_at = 300, 150
    sd = np.where(np.arange(n) < break_at, 0.02, 0.009)
    prices = 25.0 * np.exp(np.cumsum(rng.normal(0.0005, 1.0, n) * sd))
    prices[break_at:] *= 0.92
    rows = ["date,close"] + [
        f"{dt.date(2006, 1, 2) + dt.timedelta(days=i)},{p:.6f}" for i, p in enumerate(prices)
    ]
    csv_path = tmp_path / "prices.csv"
    csv_path.write_text("\n".join(rows) + "\n")

    def config(outdir):
        return PipelineConfig(
            input_path=str(csv_path),
            break_date=(dt.date(2006, 1, 2) + dt.timedelta(days=break_at)).isoformat(),
            volatility_window=30,
            ar_max_order=8,
            models=[
                {"kind": "ar", "order": 1},
                {"kind": "setar", "order": 1, "regimes": 3},
                {"kind": "lstar", "order": 1, "transitions": 1},
                {"kind": "nnet", "order": 1, "hidden": 2, "restarts": 2},
            ],
            seed=11,
            output_dir=str(outdir),
        )

    first = run_pipeline(config(tmp_path / "a"))
    second = run_pipeline(config(tmp_path / "b"))
    mismatched = [
        key for key in sorted(first)
        if open(first[key], "rb").read() != open(second[key], "rb").read()
    ]
    ok = not mismatched
    assert report(10, "byte-identical pipeline reruns", ok,
                  f"({'all identical' if ok else 'differs: ' + ','.join(mismatched)})")
