import math

import numpy as np
import pytest

from regimevol import (
    AllZeroActuals,
    TrainConfig,
    ZeroRss,
    aic,
    bic,
    compare,
    fit_ar,
    fit_setar,
    mape,
    simulate,
    train_nnet_ar,
)
from regimevol.regimes import LAGGED_VALUE, ThresholdVariable
from regimevol.selection import score_models
from tests.conftest import make_regime_model


class TestInformationCriteria:
    def test_no_parameter_case(self):
        assert aic(2.0, 50, 0) == bic(2.0, 50, 0) == pytest.approx(50 * math.log(2.0 / 50))

    def test_unit_variance_case(self):
        assert aic(440.0, 440, 3) == pytest.approx(6.0)

    def test_bic_at_least_aic_for_n_at_least_8(self):
        for n in (8, 20, 440):
            for k in (1, 2, 5):
                assert bic(1.7, n, k) >= aic(1.7, n, k)

    def test_zero_rss_signalled(self):
        with pytest.raises(ZeroRss):
            aic(0.0, 100, 2)
        with pytest.raises(ZeroRss):
            bic(-1.0, 100, 2)

    def test_monotone_in_rss_and_ranking_invariance(self):
        rss = np.linspace(0.5, 5.0, 20)
        a_vals = [aic(r, 100, 3) for r in rss]
        assert all(x < y for x, y in zip(a_vals, a_vals[1:]))
        # argmin over candidates is invariant to a uniform monotone transform
        cands = [1.3, 0.7, 2.2]
        base = min(range(3), key=lambda i: aic(cands[i], 100, 3))
        squashed = min(range(3), key=lambda i: aic(cands[i] ** 2, 100, 3))
        assert base == squashed

    def test_scale_comparable_to_reported_magnitudes(self):
        # a length-440 fit with rss around 0.07 lands in the -3xxx range
        value = aic(0.07, 440, 2)
        assert -4000 < value < -3000


class TestMape:
    def test_perfect_fit(self):
        assert mape([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_direct_arithmetic(self):
        assert mape([1.0, 2.0], [1.1, 1.8]) == pytest.approx(10.0)

    def test_zero_actuals_excluded(self):
        assert mape([0.0, 1.0, 2.0], [5.0, 1.1, 1.8]) == pytest.approx(10.0)

    def test_all_zero_actuals(self):
        with pytest.raises(AllZeroActuals):
            mape([0.0, 0.0], [1.0, 2.0])

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        actual = rng.normal(1.0, 0.1, 50)
        fitted = actual + rng.normal(0, 0.05, 50)
        assert mape(actual * 3.0, fitted * 3.0) == pytest.approx(mape(actual, fitted), rel=1e-12, abs=0)


class TestCompare:
    def test_identical_models_tie_broken_by_order(self, ar1_model):
        x = simulate(ar1_model, 300, 0.1, seed=0)
        a = fit_ar(x, 1)
        b = fit_ar(x, 1)
        report = compare([a, b], x, labels=["first", "second"])
        assert report.scores[0].aic == report.scores[1].aic
        assert report.best_by_aic == "first"
        assert report.best_by_mape == "first"

    def test_needs_two_candidates(self, ar1_model):
        x = simulate(ar1_model, 200, 0.1, seed=1)
        with pytest.raises(ValueError):
            compare([fit_ar(x, 1)], x)
        single = score_models([fit_ar(x, 1)], x)
        assert len(single.scores) == 1

    def test_common_sample_trims_to_largest_order(self, ar1_model):
        x = simulate(ar1_model, 300, 0.1, seed=2)
        a = fit_ar(x, 1)
        b = fit_ar(x, 4)
        report = compare([a, b], x)
        assert report.common_sample == 296
        assert all(s.n_obs == 296 for s in report.scores)

    def test_setar_beats_ar_on_setar_data(self, setar_generator):
        wins = 0
        for seed in range(100):
            x = simulate(setar_generator, 500, 0.1, seed=seed)
            ar = fit_ar(x, 1)
            setar = fit_setar(x, 1, 2, ThresholdVariable(LAGGED_VALUE, 1))
            report = compare([ar, setar], x)
            wins += report.best_by_aic == setar.label
        assert wins >= 90

    def test_full_candidate_set_ranks_three_regime_setar_first(self):
        from regimevol import fit_lstar

        gen = make_regime_model(
            "setar",
            [[0.30, 0.3], [0.0, 0.5], [-0.30, 0.3]],
            thresholds=[150.0, 300.0],
            tv=ThresholdVariable("time"),
        )
        x = simulate(gen, 440, 0.05, seed=2)
        candidates = [
            fit_ar(x, 1),
            fit_lstar(x, 1, 1, ThresholdVariable("time")),
            fit_setar(x, 1, 3, ThresholdVariable("time")),
            train_nnet_ar(x, 1, 2, TrainConfig(restarts=2, max_iters=800, seed=0)).model,
        ]
        report = compare(candidates, x)
        assert report.best_by_aic == "setar-3regime(1)"

    def test_permutation_invariance_up_to_tie_break(self, setar_generator):
        x = simulate(setar_generator, 400, 0.1, seed=3)
        ar = fit_ar(x, 1)
        setar = fit_setar(x, 1, 2, ThresholdVariable(LAGGED_VALUE, 1))
        fwd = compare([ar, setar], x)
        rev = compare([setar, ar], x)
        assert fwd.best_by_aic == rev.best_by_aic
        assert {s.model_id: s.aic for s in fwd.scores} == {s.model_id: s.aic for s in rev.scores}

    def test_mixed_model_kinds_share_interface(self, ar1_model):
        x = simulate(ar1_model, 260, 0.1, seed=4)
        ar = fit_ar(x, 1)
        nnet = train_nnet_ar(x, 1, 2, TrainConfig(restarts=2, max_iters=400, seed=0))
        report = compare([ar, nnet.model], x)
        names = [s.model_id for s in report.scores]
        assert names == ["ar(1)", "nnet(1-2-1)"]
        assert report.scores[1].n_params == 7

    def test_report_text_layout(self, ar1_model):
        x = simulate(ar1_model, 260, 0.1, seed=5)
        report = compare([fit_ar(x, 1), fit_ar(x, 2)], x)
        text = report.to_text()
        assert "Model" in text and "AIC" in text and "MAPE" in text
        assert "best by AIC" in text
