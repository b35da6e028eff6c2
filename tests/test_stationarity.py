import numpy as np
import pytest

from regimevol import (
    BreakOutOfRange,
    SeriesTooShort,
    build_dummies,
    perron_detrend,
    phillips_perron,
)
from regimevol.stationarity import NULL_BREAK, TREND_BREAK, _df_pvalue, bartlett_long_run_variance


class TestBuildDummies:
    def test_direct_enumeration(self):
        d = build_dummies(5, 2)
        assert d.d_tb.tolist() == [0, 0, 1, 0, 0]
        assert d.du.tolist() == [0, 0, 1, 1, 1]
        assert d.dt.tolist() == [0, 0, 1, 2, 3]

    def test_break_at_last_feasible_index(self):
        d = build_dummies(6, 5)
        assert d.d_tb.tolist() == [0, 0, 0, 0, 0, 1]
        assert d.d_tb.sum() == 1

    def test_out_of_range(self):
        with pytest.raises(BreakOutOfRange):
            build_dummies(5, 0)
        with pytest.raises(BreakOutOfRange):
            build_dummies(5, 1)
        with pytest.raises(BreakOutOfRange):
            build_dummies(5, 5)

    def test_pulse_sums_to_one_and_ramp_increments(self):
        d = build_dummies(30, 11)
        assert d.d_tb.sum() == 1.0
        assert np.all(np.diff(d.du) >= 0)
        ramp = d.dt[d.dt > 0]
        assert ramp.tolist() == list(range(1, 20))


class TestPerronDetrend:
    def test_pure_trend_nests_no_break(self):
        t = np.arange(1, 201, dtype=float)
        prices = 3.0 + 0.01 * t
        res = perron_detrend(prices, 100, TREND_BREAK)
        assert abs(res.coefficients[2]) < 1e-8
        assert abs(res.coefficients[3]) < 1e-8
        assert np.max(np.abs(res.residuals)) < 1e-8

    def test_exact_break_recovery(self):
        length, tb = 300, 120
        d = build_dummies(length, tb)
        t = np.arange(1, length + 1, dtype=float)
        prices = 2.0 + 0.03 * t + 5.0 * d.du + 0.4 * d.dt
        res = perron_detrend(prices, tb, TREND_BREAK)
        assert res.coefficients == pytest.approx([2.0, 0.03, 5.0, 0.4], abs=1e-8)
        assert np.max(np.abs(res.residuals)) < 1e-8

    def test_null_break_first_difference_form(self):
        length, tb = 250, 100
        d = build_dummies(length, tb)
        drift = 0.2 + 2.5 * d.d_tb + 0.7 * d.du
        prices = 50.0 + np.cumsum(drift)
        res = perron_detrend(prices, tb, NULL_BREAK)
        assert res.coefficients == pytest.approx([0.2, 2.5, 0.7], abs=1e-8)
        assert len(res.residuals) == length - 1

    def test_constant_shift_changes_only_intercept(self):
        rng = np.random.default_rng(8)
        length, tb = 220, 90
        prices = 20 + 0.05 * np.arange(length) + np.cumsum(rng.normal(0, 0.3, length))
        a = perron_detrend(prices, tb, TREND_BREAK)
        b = perron_detrend(prices + 100.0, tb, TREND_BREAK)
        assert b.coefficients[0] - a.coefficients[0] == pytest.approx(100.0, abs=1e-8)
        assert b.coefficients[1:] == pytest.approx(a.coefficients[1:], abs=1e-10)
        assert b.residuals == pytest.approx(a.residuals, abs=1e-10)

    def test_too_few_post_break_observations(self):
        with pytest.raises(BreakOutOfRange):
            perron_detrend(np.arange(1.0, 31.0), 28, TREND_BREAK)


class TestPhillipsPerron:
    def test_series_too_short(self):
        with pytest.raises(SeriesTooShort):
            phillips_perron(np.arange(10.0))

    def test_bandwidth_formula_fixed_point(self):
        # floor(4 * (440/100)^(2/9)) = floor(5.5597...) = 5
        rng = np.random.default_rng(0)
        res = phillips_perron(rng.normal(size=440))
        assert res.bandwidth == 5

    def test_white_noise_is_strongly_rejected(self):
        rng = np.random.default_rng(7)
        res = phillips_perron(rng.normal(size=440))
        assert res.z_statistic < res.critical_values[0.01]
        assert res.p_value <= 0.001

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        e = np.cumsum(rng.normal(size=300))
        a = phillips_perron(e)
        b = phillips_perron(e * 37.5)
        assert b.z_statistic == pytest.approx(a.z_statistic, rel=1e-10, abs=0)
        assert b.p_value == pytest.approx(a.p_value, rel=1e-10, abs=0)

    def test_random_walk_nulls_rarely_rejected(self):
        rejections = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            walk = np.cumsum(rng.normal(size=500))
            rejections += phillips_perron(walk).p_value < 0.05
        assert rejections <= 10

    def test_stationary_alternative_usually_rejected(self):
        rejections = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            eps = rng.normal(size=500)
            e = np.empty(500)
            e[0] = eps[0]
            for i in range(1, 500):
                e[i] = 0.5 * e[i - 1] + eps[i]
            rejections += phillips_perron(e).p_value < 0.05
        assert rejections >= 80

    def test_pvalue_monotone_against_table(self):
        stats = np.linspace(-4.0, 3.0, 60)
        ps = [_df_pvalue(s, 400) for s in stats]
        assert all(a <= b + 1e-15 for a, b in zip(ps, ps[1:]))
        # tabulated anchors
        assert _df_pvalue(-1.95, 500) == pytest.approx(0.05, rel=1e-6, abs=0)
        assert _df_pvalue(-2.58, 500) == pytest.approx(0.01, rel=1e-6, abs=0)

    def test_bartlett_variance_matches_direct_sum(self):
        rng = np.random.default_rng(5)
        u = rng.normal(size=200)
        q = 4
        direct = u @ u / 200
        for j in range(1, q + 1):
            direct += 2 * (1 - j / (q + 1)) * (u[j:] @ u[:-j]) / 200
        assert bartlett_long_run_variance(u, q) == pytest.approx(direct, rel=1e-12, abs=0)
