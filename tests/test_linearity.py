import tracemalloc

import numpy as np
import pytest

from regimevol import (
    SeriesTooShort,
    TransitionSpec,
    simulate,
    taylor_transition_approx,
    terasvirta_first_order,
    terasvirta_zero_order,
)
from tests.conftest import make_regime_model


class TestTaylorApprox:
    def test_vanishes_at_zero(self):
        assert taylor_transition_approx(0.0) == 0.0

    def test_direct_arithmetic(self):
        assert taylor_transition_approx(2.0) == pytest.approx(1.0 / 3.0)

    @pytest.mark.parametrize("h", [0.1, 0.7, 1.3, 2.9])
    def test_odd_function(self, h):
        assert taylor_transition_approx(-h) == -taylor_transition_approx(h)


@pytest.fixture(scope="module")
def ar_series():
    gen = make_regime_model("ar", [[0.02, 0.5]])
    return simulate(gen, 440, 0.1, seed=42)


class TestStructure:
    def test_zero_order_degrees_of_freedom(self, ar_series):
        rep = terasvirta_zero_order(ar_series, 1)
        assert (rep.overall_f.df_num, rep.overall_f.df_den) == (4, 434)
        assert (rep.nonlinear_terms_f.df_num, rep.nonlinear_terms_f.df_den) == (3, 434)
        assert rep.cubic_term_t.df == 434

    def test_first_order_degrees_of_freedom(self, ar_series):
        rep = terasvirta_first_order(ar_series, 1)
        assert (rep.overall_f.df_num, rep.overall_f.df_den) == (4, 434)
        assert (rep.nonlinear_terms_f.df_num, rep.nonlinear_terms_f.df_den) == (3, 434)

    def test_higher_order_counts_interactions_per_lag(self, ar_series):
        rep = terasvirta_first_order(ar_series, 2)
        # 2 lags x 3 powers of t
        assert rep.nonlinear_terms_f.df_num == 6
        assert rep.aux_fit.n_params == 9

    def test_too_short_raises(self):
        with pytest.raises(SeriesTooShort):
            terasvirta_zero_order(np.arange(5.0), 1)

    @pytest.mark.parametrize("significance", [0.0, 0.7, 7.0, float("nan")])
    @pytest.mark.parametrize("test", [terasvirta_zero_order, terasvirta_first_order])
    def test_significance_outside_run_range_is_rejected(self, ar_series, test, significance):
        with pytest.raises(ValueError, match="significance"):
            test(ar_series, 1, significance)

    def test_verdict_consistency(self, ar_series):
        rep = terasvirta_first_order(ar_series, 1)
        if rep.nonlinear_terms_f.p_value >= rep.significance:
            assert rep.verdict == "linear"
        elif rep.cubic_term_t.p_value < rep.significance:
            assert rep.verdict == "lstar"
        else:
            assert rep.verdict == "estar"


    def test_first_order_design_is_held_once(self):
        # at order 20 on 2,000 values the auxiliary design is 1,980 x 81,
        # D = 1.28 MB.  ols_fit holds it with its standardized copy and
        # QR's two arrays of the same size, 4 D; the base design (21 of 81
        # columns), the powers of t and a few vectors add under half a D.
        # So the peak stays under 5 D; the interaction columns held apart
        # from the design, twice over, took it to 5.9 D
        x = np.abs(1.0 + 0.01 * np.cumsum(np.random.default_rng(0).normal(size=2000)))
        tracemalloc.start()
        try:
            terasvirta_first_order(x, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 1980 * 81 * 8


class TestInvariances:
    def test_zero_order_affine_invariance(self, ar_series):
        # the zero-order aux design spans an intercept and pure time powers,
        # so y -> a*y + b leaves every statistic unchanged
        base = terasvirta_zero_order(ar_series, 1)
        moved = terasvirta_zero_order(3.7 * ar_series + 11.0, 1)
        assert moved.nonlinear_terms_f.p_value == pytest.approx(
            base.nonlinear_terms_f.p_value, rel=1e-8, abs=1e-12
        )
        assert moved.overall_f.p_value == pytest.approx(base.overall_f.p_value, rel=1e-8, abs=1e-12)
        assert moved.cubic_term_t.p_value == pytest.approx(base.cubic_term_t.p_value, rel=1e-8, abs=1e-12)

    def test_first_order_scale_invariance(self, ar_series):
        # the interacted design contains no pure time powers, so only pure
        # rescaling (no shift) preserves the column span
        base = terasvirta_first_order(ar_series, 1)
        moved = terasvirta_first_order(3.7 * ar_series, 1)
        assert moved.nonlinear_terms_f.p_value == pytest.approx(
            base.nonlinear_terms_f.p_value, rel=1e-8, abs=1e-12
        )
        assert moved.cubic_term_t.p_value == pytest.approx(base.cubic_term_t.p_value, rel=1e-8, abs=1e-12)

    @pytest.mark.parametrize("variant", [terasvirta_zero_order, terasvirta_first_order])
    def test_scaling_the_time_axis(self, ar_series, variant):
        n = len(ar_series)
        base = variant(ar_series, 1)
        scaled = variant(ar_series, 1, threshold=np.arange(1, n + 1) / n)
        assert scaled.nonlinear_terms_f.p_value == pytest.approx(
            base.nonlinear_terms_f.p_value, rel=1e-7, abs=1e-12
        )
        assert scaled.cubic_term_t.p_value == pytest.approx(
            base.cubic_term_t.p_value, rel=1e-7, abs=1e-12
        )


class TestSizeAndPower:
    def test_size_within_band(self):
        gen = make_regime_model("ar", [[0.02, 0.5]])
        rejections = 0
        for seed in range(200):
            x = simulate(gen, 440, 0.1, seed=seed)
            rejections += terasvirta_first_order(x, 1).nonlinear_terms_f.p_value < 0.05
        assert 4 <= rejections <= 20  # [2%, 10%] of 200

    def test_zero_order_size_within_band(self):
        gen = make_regime_model("ar", [[0.02, 0.5]])
        rejections = 0
        for seed in range(200):
            x = simulate(gen, 440, 0.1, seed=seed)
            rejections += terasvirta_zero_order(x, 1).nonlinear_terms_f.p_value < 0.05
        assert 4 <= rejections <= 20

    def test_power_and_lstar_verdict(self, lstar_time_generator):
        rejections = 0
        lstar_verdicts = 0
        for seed in range(100):
            x = simulate(lstar_time_generator, 440, 0.01, seed=seed)
            rep = terasvirta_first_order(x, 1)
            if rep.nonlinear_terms_f.p_value < 0.05:
                rejections += 1
                lstar_verdicts += rep.verdict == "lstar"
        assert rejections >= 70
        assert lstar_verdicts > rejections / 2
        assert lstar_verdicts >= 70  # lstar verdict in >= 70% of the seeds

    def test_zero_order_power_on_sharp_transition(self):
        gen = make_regime_model(
            "lstar",
            [[0.02, 0.3], [0.08, 0.4]],
            thresholds=[220.0],
            transitions=[TransitionSpec("logistic", 1.0, 220.0)],
        )
        rejections = 0
        for seed in range(50):
            x = simulate(gen, 440, 0.05, seed=seed)
            rejections += terasvirta_zero_order(x, 1).nonlinear_terms_f.p_value < 0.05
        assert rejections >= 40
