import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regimevol import (
    GammaGrid,
    NonPositivePrice,
    OrderTooLarge,
    PriceSeries,
    ReturnSeries,
    TooShort,
    TrainConfig,
    WindowTooLarge,
    WindowTooSmall,
    fit_ar,
    fit_lstar,
    fit_setar,
    lag_design,
    log_returns,
    realized_volatility,
    terasvirta_first_order,
    train_nnet_ar,
)


def prices(values):
    return PriceSeries.from_values(values)


class TestPriceSeries:
    def test_rejects_non_positive(self):
        with pytest.raises(NonPositivePrice):
            prices([100.0, -1.0])
        with pytest.raises(NonPositivePrice):
            prices([100.0, 0.0])

    def test_rejects_single_observation(self):
        with pytest.raises(TooShort):
            prices([100.0])

    def test_rejects_non_increasing_dates(self):
        stamps = (dt.date(2020, 1, 2), dt.date(2020, 1, 1))
        with pytest.raises(ValueError):
            PriceSeries(timestamps=stamps, values=np.array([1.0, 2.0]))

    def test_values_are_read_only(self):
        p = prices([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            p.values[0] = 5.0


class TestLogReturns:
    def test_constant_prices_give_zero_returns(self):
        for c in (0.5, 1.0, 73.2):
            assert log_returns(prices([c, c, c])).values.tolist() == [0.0, 0.0]

    def test_unit_return(self):
        r = log_returns(prices([1.0, np.e]))
        assert r.values[0] == pytest.approx(1.0, abs=1e-15)

    def test_oracle_value(self):
        # high-precision natural log oracle
        r = log_returns(prices([100.0, 101.0]))
        assert r.values[0] == pytest.approx(0.00995033085316808, abs=1e-15)

    def test_length_bookkeeping(self):
        r = log_returns(prices([1.0, 2.0, 3.0, 4.0]))
        assert len(r) == r.origin_length - 1 == 3

    def test_round_trip_reconstructs_prices(self):
        rng = np.random.default_rng(11)
        p = prices(np.exp(np.cumsum(rng.normal(0, 0.02, 300))) * 40.0)
        r = log_returns(p)
        rebuilt = p.values[0] * np.exp(np.cumsum(r.values))
        assert np.max(np.abs(rebuilt - p.values[1:]) / p.values[1:]) < 1e-12


class TestRealizedVolatility:
    def test_constant_returns_zero_volatility(self):
        r = ReturnSeries(values=np.full(30, 0.007), origin_length=31)
        assert np.all(realized_volatility(r, 5).values == 0.0)

    def test_direct_variance_oracle(self):
        r = ReturnSeries(values=np.array([0.01, -0.01, 0.01, -0.01]), origin_length=5)
        v = realized_volatility(r, 4)
        # mean 0, sum of squares 4e-4, divisor 3
        assert v.values == pytest.approx([np.sqrt(4e-4 / 3)], abs=1e-15)
        assert v.values == pytest.approx([0.0115470], abs=1e-7)

    def test_paper_shape_chain(self):
        # 500 prices -> 499 returns -> length-440 volatility at window 60
        p = prices(np.linspace(10, 20, 500) + np.sin(np.arange(500)))
        r = log_returns(p)
        assert len(r) == 499
        v = realized_volatility(r, 60)
        assert len(v) == 440

    def test_window_errors(self):
        r = ReturnSeries(values=np.ones(10) * 0.1, origin_length=11)
        with pytest.raises(WindowTooSmall):
            realized_volatility(r, 1)
        with pytest.raises(WindowTooLarge):
            realized_volatility(r, 11)

    def test_uncentered_option(self):
        r = ReturnSeries(values=np.array([0.03, 0.03, 0.03]), origin_length=4)
        v = realized_volatility(r, 3, centered=False)
        assert v.values == pytest.approx([0.03])

    @given(
        shift=st.floats(-0.05, 0.05, allow_nan=False),
        scale=st.floats(0.1, 10.0, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_shift_equivariance_and_scaling(self, shift, scale):
        rng = np.random.default_rng(5)
        base = rng.normal(0, 0.01, 120)
        r0 = ReturnSeries(values=base, origin_length=121)
        shifted = ReturnSeries(values=base + shift, origin_length=121)
        scaled = ReturnSeries(values=base * scale, origin_length=121)
        v0 = realized_volatility(r0, 20).values
        assert realized_volatility(shifted, 20).values == pytest.approx(v0, abs=1e-14)
        assert realized_volatility(scaled, 20).values == pytest.approx(v0 * scale, rel=1e-10, abs=0)

    @given(n=st.integers(3, 200), window=st.integers(2, 60))
    @settings(max_examples=60, deadline=None)
    def test_output_length_equation(self, n, window):
        rng = np.random.default_rng(n * 1000 + window)
        r = ReturnSeries(values=rng.normal(0, 0.01, n), origin_length=n + 1)
        if window > n:
            with pytest.raises(WindowTooLarge):
                realized_volatility(r, window)
        else:
            assert len(realized_volatility(r, window)) == n - window + 1


class TestLagDesign:
    def test_order_one_enumeration(self):
        design, response = lag_design([1.0, 2.0, 3.0, 4.0], 1)
        assert response.tolist() == [2.0, 3.0, 4.0]
        assert design.tolist() == [[1.0, 1.0], [1.0, 2.0], [1.0, 3.0]]

    def test_order_three_boundary(self):
        design, response = lag_design([1.0, 2.0, 3.0, 4.0], 3)
        assert design.shape == (1, 4)
        assert response.tolist() == [4.0]
        assert design[0].tolist() == [1.0, 3.0, 2.0, 1.0]

    def test_order_too_large(self):
        with pytest.raises(OrderTooLarge):
            lag_design([1.0, 2.0, 3.0, 4.0], 4)

    def test_order_zero_intercept_only(self):
        design, response = lag_design([5.0, 6.0, 7.0], 0)
        assert design.shape == (3, 1)
        assert response.tolist() == [5.0, 6.0, 7.0]


class TestNonFiniteValues:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "fit",
        [
            pytest.param(lambda x: fit_ar(x, 1), id="fit_ar"),
            pytest.param(lambda x: fit_setar(x, 1, 2), id="fit_setar"),
            pytest.param(lambda x: fit_lstar(x, 1, gamma_grid=GammaGrid(points=5)), id="fit_lstar"),
            pytest.param(lambda x: train_nnet_ar(x, 1, 2, TrainConfig(restarts=1)), id="train_nnet_ar"),
            pytest.param(lambda x: terasvirta_first_order(x, 1), id="terasvirta_first_order"),
        ],
    )
    def test_first_non_finite_index_is_named(self, fit, bad):
        x = np.random.default_rng(0).normal(size=80)
        x[17] = bad
        x[40] = np.nan
        with pytest.raises(ValueError, match="at index 17$"):
            fit(x)
