import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from regimevol import (
    ExplosivePath,
    GammaGrid,
    NoFeasibleThreshold,
    RankDeficient,
    SeriesTooShort,
    TransitionSpec,
    exponential_transition,
    fit_ar,
    fit_lstar,
    fit_setar,
    logistic_transition,
    one_step_fitted,
    regimes,
    select_ar_order,
    simulate,
)
from regimevol.regimes import LAGGED_VALUE, TIME, ThresholdVariable
from regimevol.regression import NlsFit, ols_fit
from regimevol.series import lag_design
from tests.conftest import make_regime_model


class TestTransitionFunctions:
    def test_logistic_midpoint(self):
        assert logistic_transition(5.0, 2.0, 5.0) == 0.5

    def test_logistic_analytic_point(self):
        assert logistic_transition(np.log(3.0), 1.0, 0.0) == pytest.approx(0.75, abs=1e-15)

    def test_logistic_saturation(self):
        # high-precision oracle: 1/(1+exp(-20)) differs from 1 by ~2e-9
        assert 1.0 - logistic_transition(0.1, 200.0, 0.0) < 1e-3
        assert logistic_transition(0.1, 200.0, 0.0) == pytest.approx(1.0 / (1.0 + np.exp(-20.0)), rel=1e-12, abs=0)

    def test_logistic_monotone_and_bounded(self):
        z = np.linspace(-30, 30, 301)
        w = logistic_transition(z, 0.7, 1.3)
        assert np.all(np.diff(w) > 0)
        assert np.all((w > 0) & (w < 1))

    def test_exponential_vanishes_at_threshold(self):
        assert exponential_transition(2.0, 3.0, 2.0) == 0.0

    def test_exponential_analytic_point(self):
        z = np.sqrt(np.log(2.0))
        assert exponential_transition(z, 1.0, 0.0) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("a", [0.1, 0.5, 2.0, 7.0])
    def test_exponential_even_symmetry(self, a):
        c = 0.8
        assert exponential_transition(c + a, 1.7, c) == pytest.approx(
            exponential_transition(c - a, 1.7, c), abs=1e-15
        )

    @pytest.mark.parametrize("kind", ["logistic", "exponential"])
    def test_weights_in_place_equal_allocating_form(self, kind):
        # +-0 and arguments where exp overflows (logistic) or underflows
        rng = np.random.default_rng(3)
        root = np.sqrt(800.0)
        z = np.concatenate([[0.0, -0.0, 800.0, -800.0, root, -root], rng.normal(size=58)])
        gamma = np.array([[1.0], [0.5], [37.0]])
        c = np.array([[0.0], [-0.0], [0.3]])
        with np.errstate(over="ignore"):
            if kind == "logistic":
                expected = 1.0 / (1.0 + np.exp(-gamma * (z - c)))
            else:
                diff = z - c
                expected = 1.0 - np.exp(-gamma * diff * diff)
        out = np.full((3, len(z)), np.nan)
        filled = regimes._transition_weights(kind, z, gamma, c, out)
        assert filled is out
        assert out.tobytes() == expected.tobytes()
        assert regimes._transition_weights(kind, z, gamma, c).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kind", ["logistic", "exponential"])
    def test_every_entry_point_gives_the_same_bits(self, kind):
        z = np.random.default_rng(5).normal(size=64)
        if kind == "logistic":
            entry, expected = logistic_transition, regimes._masked_logistic(3.7 * (z - 0.2))
        else:
            entry, expected = exponential_transition, regimes._transition_weights(kind, z, 3.7, 0.2)
        for weights in (entry(z, 3.7, 0.2), TransitionSpec(kind, 3.7, 0.2).weights(z)):
            assert weights.tobytes() == expected.tobytes()
        scalar = entry(float(z[0]), 3.7, 0.2)
        assert type(scalar) is float and scalar == expected[0]

    def test_masked_logistic_is_the_two_quotient_form(self):
        # one division gives the bits of 1/(1+e) for arg >= 0 and e/(1+e) below
        special = [0.0, -0.0, 1e-300, -1e-300, 700.0, -700.0, 800.0, -800.0, np.inf, -np.inf, np.nan]
        rng = np.random.default_rng(12)
        arg = np.concatenate([special, rng.normal(0.0, 1.0, 2000), rng.normal(0.0, 40.0, 2000)])
        e = np.exp(-np.abs(arg))
        expected = np.where(arg >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        got = regimes._masked_logistic(arg)
        assert np.isnan(got[10]) and np.isnan(expected[10])
        finite = ~np.isnan(expected)
        assert np.array_equal(got[finite], expected[finite])
        assert got[finite].tobytes() == expected[finite].tobytes()  # signed zeros too
        e3 = np.exp(-3.0)
        assert regimes._masked_logistic(np.float64(-3.0)) == e3 / (1.0 + e3)

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError):
            logistic_transition(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            TransitionSpec("logistic", -1.0, 0.0)


class TestFitAr:
    def test_recovers_known_coefficient(self, ar1_model):
        hits = 0
        for seed in range(20):
            x = simulate(ar1_model, 500, 0.1, seed=seed)
            m = fit_ar(x, 1)
            hits += abs(m.regimes[0][1] - 0.9) <= 0.05
        assert hits >= 18

    def test_constant_series_is_rank_deficient(self):
        with pytest.raises(RankDeficient):
            fit_ar(np.full(50, 3.2), 1)

    def test_parameter_count_and_label(self, ar1_model):
        x = simulate(ar1_model, 200, 0.1, seed=0)
        m = fit_ar(x, 2)
        assert m.n_parameters == 3
        assert m.label == "ar(2)"

    def test_fitted_plus_residuals_reconstructs_response(self, ar1_model):
        x = simulate(ar1_model, 300, 0.1, seed=1)
        m = fit_ar(x, 1)
        # residuals are defined as response minus fitted, bit for bit
        assert np.array_equal(m.residuals, x[1:] - m.fitted)
        np.testing.assert_allclose(m.fitted + m.residuals, x[1:], rtol=0, atol=1e-15)


class TestSelectArOrder:
    def test_white_noise_prefers_zero_by_bic(self):
        gen = make_regime_model("ar", [[0.0, 0.0]])
        hits = 0
        for seed in range(100):
            x = simulate(gen, 300, 1.0, seed=seed)
            hits += select_ar_order(x, 6).best_bic == 0
        assert hits >= 90

    def test_ar1_signal_found_by_aic(self):
        gen = make_regime_model("ar", [[0.0, 0.9]])
        hits = 0
        for seed in range(100):
            x = simulate(gen, 300, 0.1, seed=seed)
            hits += select_ar_order(x, 6).best_aic >= 1
        assert hits >= 95

    def test_common_sample_is_shared(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=120)
        table = select_ar_order(x, 10)
        assert [row[0] for row in table.rows] == list(range(11))

    def test_negative_max_order_is_named(self):
        x = np.random.default_rng(0).normal(size=50)
        with pytest.raises(ValueError, match="max_order must be non-negative, got -1"):
            select_ar_order(x, -1)


class TestFitSetar:
    def test_recovery_pass_rate(self, setar_generator):
        # slope standard errors put single-seed misses around 10%; see the
        # acceptance suite for the full criterion run
        hits = 0
        for seed in range(30):
            x = simulate(setar_generator, 500, 0.1, seed=seed)
            m = fit_setar(x, 1, 2, ThresholdVariable(LAGGED_VALUE, 1))
            errs = np.concatenate(
                [np.abs(m.regimes[0] - 0.5), np.abs(m.regimes[1] + 0.5)]
            )
            hits += abs(m.thresholds[0]) <= 0.1 and np.all(errs <= 0.1)
        assert hits >= 24

    def test_nested_in_ar(self, ar1_model):
        # at n=2500 the searched-threshold overfitting gain is well under 1%
        x = simulate(ar1_model, 2500, 0.1, seed=3)
        ar = fit_ar(x, 1)
        setar2 = fit_setar(x, 1, 2, ThresholdVariable(LAGGED_VALUE, 1))
        assert setar2.rss <= ar.rss + 1e-12
        assert setar2.rss >= ar.rss * 0.99

    def test_three_regimes_nest_two(self, setar_generator):
        x = simulate(setar_generator, 500, 0.1, seed=7)
        two = fit_setar(x, 1, 2, ThresholdVariable(LAGGED_VALUE, 1), min_fraction=0.10)
        three = fit_setar(x, 1, 3, ThresholdVariable(LAGGED_VALUE, 1), min_fraction=0.10)
        assert three.rss <= two.rss + 1e-12

    def test_proportions_respect_min_fraction(self, setar_generator):
        x = simulate(setar_generator, 500, 0.1, seed=11)
        m = fit_setar(x, 1, 3, ThresholdVariable(LAGGED_VALUE, 1), min_fraction=0.10)
        assert np.all(m.regime_proportions >= 0.10 - 1e-12)
        assert m.regime_proportions.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(m.thresholds) > 0)

    def test_tie_break_prefers_smallest_threshold(self):
        # an exact AR(1) relation makes every split a perfect fit, so the
        # tie-break must return the smallest feasible time threshold
        t = np.arange(1, 121)
        x = 1.0 + 0.97**t
        m = fit_setar(x, 1, 2, ThresholdVariable(TIME))
        rows = 119
        min_count = max(int(np.ceil(0.15 * rows)), 3)
        assert m.thresholds[0] == float(2 + min_count)
        assert m.rss == pytest.approx(0.0, abs=1e-18)

    def test_no_feasible_threshold(self):
        x = np.linspace(0.0, 1.0, 30) ** 2
        with pytest.raises((NoFeasibleThreshold, Exception)):
            fit_setar(x, 1, 2, min_fraction=0.6)

    def test_every_threshold_rank_deficient(self):
        # a constant series makes the lag column repeat the intercept in every regime
        with pytest.raises(NoFeasibleThreshold, match="every candidate threshold is rank deficient"):
            fit_setar(np.ones(60), 1, 2, ThresholdVariable(TIME))

    def test_time_threshold_grid(self):
        gen = make_regime_model(
            "setar",
            [[0.3, 0.2], [-0.3, 0.2]],
            thresholds=[150.0],
            tv=ThresholdVariable(TIME),
        )
        x = simulate(gen, 400, 0.1, seed=5)
        m = fit_setar(x, 1, 2, ThresholdVariable(TIME))
        assert abs(m.thresholds[0] - 150.0) <= 10
        assert np.array_equal(m.fitted + m.residuals, x[1:])

    def test_determinism(self, setar_generator):
        x = simulate(setar_generator, 400, 0.1, seed=13)
        a = fit_setar(x, 1, 2, ThresholdVariable(LAGGED_VALUE, 1))
        b = fit_setar(x, 1, 2, ThresholdVariable(LAGGED_VALUE, 1))
        assert np.array_equal(a.thresholds, b.thresholds)
        assert all(np.array_equal(p, q) for p, q in zip(a.regimes, b.regimes))


class TestFitLstar:
    def test_single_seed_recovery(self, lstar_lagged_generator):
        x = simulate(lstar_lagged_generator, 500, 0.1, seed=0)
        m = fit_lstar(x, 1, 1, ThresholdVariable(LAGGED_VALUE, 1))
        span = x.max() - x.min()
        assert abs(m.transitions[0].c) <= 0.05 * span
        assert 5.0 <= m.transitions[0].gamma <= 20.0
        assert m.kind == "lstar"
        assert m.n_parameters == 6

    def test_degenerate_second_regime_block_is_near_zero(self, ar1_model):
        misses = 0
        for seed in (0, 1, 2):
            x = simulate(ar1_model, 500, 0.1, seed=seed)
            m = fit_lstar(x, 1, 1, ThresholdVariable(LAGGED_VALUE, 1))
            misses += np.any(np.abs(m.regimes[1]) > 0.05)
        assert misses <= 1

    def test_estar_kind_and_symmetry(self, lstar_lagged_generator):
        x = simulate(lstar_lagged_generator, 400, 0.1, seed=2)
        m = fit_lstar(x, 1, 1, ThresholdVariable(LAGGED_VALUE, 1), transition="exponential")
        assert m.kind == "estar"
        assert m.transitions[0].kind == "exponential"

    def test_two_transitions_ordered_thresholds(self):
        gen = make_regime_model(
            "lstar",
            [[0.01, 0.9], [0.05, -0.3], [0.04, -0.4]],
            thresholds=[150.0, 300.0],
            transitions=[
                TransitionSpec("logistic", 0.05, 150.0),
                TransitionSpec("logistic", 0.05, 300.0),
            ],
            tv=ThresholdVariable(TIME),
        )
        x = simulate(gen, 450, 0.05, seed=4)
        m = fit_lstar(x, 1, 2, ThresholdVariable(TIME))
        assert len(m.transitions) == 2
        assert m.thresholds[0] < m.thresholds[1]
        assert m.n_parameters == 10

    def test_infeasible_transition_is_named(self):
        # a lagged value near 0.015: gamma (z - c)^2 stays small, so each
        # exponential block is close to a cubic in z, and the second one is
        # nearly collinear with the base and the first
        x = simulate(make_regime_model("ar", [[0.002, 0.85]]), 150, 0.002, seed=3)
        tv = ThresholdVariable(LAGGED_VALUE, 1)
        grid = GammaGrid(points=10)
        fit_lstar(x, 1, 1, tv, gamma_grid=grid, transition="exponential", refine=False)
        with pytest.raises(NoFeasibleThreshold, match="^transition 2: "):
            fit_lstar(x, 1, 2, tv, gamma_grid=grid, transition="exponential", refine=False)

    def test_exact_gamma_grid_values(self):
        grid = GammaGrid(lo=1.0, hi=2.0, step=0.25)
        assert grid.values().tolist() == [1.0, 1.25, 1.5, 1.75, 2.0]

    def test_exact_arithmetic_grid_mode(self, lstar_lagged_generator):
        x = simulate(lstar_lagged_generator, 200, 0.1, seed=6)
        m = fit_lstar(
            x, 1, 1, ThresholdVariable(LAGGED_VALUE, 1),
            gamma_grid=GammaGrid(lo=1.0, hi=20.0, step=0.5),
        )
        assert 1.0 <= m.transitions[0].gamma <= 20.0

    def test_grid_determinism(self, lstar_lagged_generator):
        x = simulate(lstar_lagged_generator, 300, 0.1, seed=9)
        a = fit_lstar(x, 1, 1, ThresholdVariable(LAGGED_VALUE, 1), refine=False)
        b = fit_lstar(x, 1, 1, ThresholdVariable(LAGGED_VALUE, 1), refine=False)
        assert a.transitions[0].gamma == b.transitions[0].gamma
        assert a.transitions[0].c == b.transitions[0].c


def _grid_inputs(x, tv):
    """Design, response, threshold values and c candidates as fit_lstar builds them."""
    design, y = lag_design(x, 1)
    z = tv.values(x, 1)
    z_sorted = np.sort(z, kind="stable")
    positions = regimes._split_positions(z_sorted, regimes._min_count(len(y), 0.15, 1))
    return design, y, z, z_sorted[positions]


def _weights(kind, z, gamma, c):
    return TransitionSpec(kind, gamma, c).weights(z)


def _chunked_grid(base, block, y, z, gammas, c_values, kind, time_threshold=False, every=False):
    """The (gamma, c) grid scored the direct way: each candidate's weights
    evaluated on z, gathered ``_GRID_CHUNK`` candidates at a time, one
    (chunk, rows) product per Gram block, and ``regimes._screened_rss``.

    With ``time_threshold`` the products take the grid's layout for a time
    threshold, w @ [cross | block*y] and (w*w) @ auto zero-padded to the same
    width: under the small-matrix kernel's limit, the padding moves bits.
    With ``every`` it returns every candidate's RSS, gamma-major."""
    rows, kb = base.shape
    ka = block.shape[1]
    k = kb + ka
    btb, bty, yy = base.T @ base, base.T @ y, float(y @ y)
    cross = (base[:, :, None] * block[:, None, :]).reshape(rows, kb * ka)
    tri = np.triu_indices(ka)
    auto = (block[:, :, None] * block[:, None, :])[:, tri[0], tri[1]]
    block_y = block * y[:, None]
    n_c = len(c_values)
    lin = np.hstack([cross, block_y])
    auto_wide = np.zeros_like(lin)
    auto_wide[:, : auto.shape[1]] = auto

    def products(weights, squares):
        if not time_threshold:
            return weights @ cross, weights @ block_y, squares @ auto
        both = weights @ lin
        return both[:, : kb * ka], both[:, kb * ka :], (squares @ auto_wide)[:, : auto.shape[1]]

    def score(start, stop):
        candidates = np.arange(start, stop)
        g_par, c_par = gammas[candidates // n_c, None], c_values[candidates % n_c, None]
        weights = regimes._transition_weights(kind, z[None, :], g_par, c_par)
        upper, rhs_tail, lower_entries = products(weights, weights * weights)
        m = len(candidates)
        gram = np.empty((m, k, k))
        gram[:, :kb, :kb] = btb
        upper = upper.reshape(m, kb, ka)
        gram[:, :kb, kb:] = upper
        gram[:, kb:, :kb] = upper.transpose(0, 2, 1)
        lower = np.zeros((m, ka, ka))
        lower[:, tri[0], tri[1]] = lower_entries
        lower[:, tri[1], tri[0]] = lower_entries
        gram[:, kb:, kb:] = lower
        rhs = np.empty((m, k))
        rhs[:, :kb] = bty
        rhs[:, kb:] = rhs_tail
        return regimes._screened_rss(gram, rhs, yy)

    n_candidates = len(gammas) * n_c
    if every:
        # the grid's own 2 MiB tiles keep the chunks' memory small
        step = -(-regimes._TIME_TILE_BYTES // (8 * rows))
        return np.concatenate(
            [score(start, min(start + step, n_candidates))
             for start in range(0, n_candidates, step)]
        )
    best, rss = regimes._first_min(n_candidates, score)
    return float(gammas[best // n_c]), float(c_values[best % n_c]), rss


class TestProfiledGridOracle:
    """The (gamma, c) grid against a per-candidate ``ols_fit`` loop."""

    @staticmethod
    def oracle(base, block, y, z, gammas, c_values, kind):
        """Lowest RSS over the candidates, and the condition number of its design.

        A candidate counts when its design has condition number below 1e6,
        the grid's rank rule (Gram eigenvalue ratio above 1e-12).
        """
        best_rss, best_cond = np.inf, None
        for gamma in gammas:
            for c in c_values:
                candidate = np.hstack([base, _weights(kind, z, gamma, c)[:, None] * block])
                sv = np.linalg.svd(candidate, compute_uv=False)
                if not sv[-1] > sv[0] * 1e-6:
                    continue
                try:
                    rss = ols_fit(candidate, y).rss
                except RankDeficient:
                    continue
                if rss < best_rss:
                    best_rss, best_cond = rss, sv[0] / sv[-1]
        return best_rss, best_cond

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(30, 80),
        tv_kind=st.sampled_from([TIME, LAGGED_VALUE]),
        kind=st.sampled_from(["logistic", "exponential"]),
        second=st.booleans(),
        gammas=st.lists(st.floats(0.5, 200.0), min_size=1, max_size=10, unique=True),
        small_tile=st.booleans(),
    )
    @example(seed=0, n=80, tv_kind=TIME, kind="logistic", second=True, gammas=[1.0, 7.0, 60.0],
             small_tile=True)
    def test_grid_minimum_matches_oracle(self, seed, n, tv_kind, kind, second, gammas, small_tile):
        # every drawn grid fits one default tile; a 16-candidate tile makes
        # a time threshold's grids larger than one, so they take the banded
        # bounds and score only their survivors
        tile_bytes = 8 * 16 * n if small_tile else regimes._TIME_TILE_BYTES
        with mock.patch.object(regimes, "_TIME_TILE_BYTES", tile_bytes):
            self.check(seed, n, tv_kind, kind, second, gammas)

    def check(self, seed, n, tv_kind, kind, second, gammas):
        rng = np.random.default_rng(seed)
        noise = rng.normal(size=n)
        x = np.empty(n)
        x[0] = noise[0]
        for t in range(1, n):
            x[t] = 0.5 * x[t - 1] + noise[t]
        tv = ThresholdVariable(tv_kind, 1)
        design, y, z, c_values = _grid_inputs(x, tv)
        gammas = np.sort(gammas)
        base = design
        if second:
            first = _weights(kind, z, 2.0, c_values[len(c_values) // 2])
            base = np.hstack([design, first[:, None] * design])

        expected, cond = self.oracle(base, design, y, z, gammas, c_values, kind)
        if not np.isfinite(expected):
            with pytest.raises(NoFeasibleThreshold):
                regimes._profiled_grid(base, design, y, z, gammas, c_values, kind, tv_kind == TIME)
            return
        gamma, c, rss = regimes._profiled_grid(
            base, design, y, z, gammas, c_values, kind, tv_kind == TIME
        )
        winner = np.hstack([base, _weights(kind, z, gamma, c)[:, None] * design])
        sv = np.linalg.svd(winner, compute_uv=False)
        cond = max(cond, sv[0] / sv[-1])
        # the grid solves normal equations, whose RSS carries an error of
        # about eps * cond^2 * y'y; well-conditioned winners meet 1e-9 alone
        tolerance = 1e-9 + np.finfo(float).eps * cond**2 * (y @ y) / expected
        assert rss == pytest.approx(expected, rel=tolerance, abs=0)


class TestSetarGridOracle:
    """The 2- and 3-regime threshold grid against a per-candidate ``ols_fit`` loop."""

    @staticmethod
    def oracle(x, order, n_regimes, tv):
        """Lowest total RSS over the candidate splits, its thresholds, and the
        largest condition number among the segments scored.

        Rows are sorted by the threshold variable and cut at the feasible
        positions, as ``fit_setar`` does.  A segment counts when it has more
        rows than coefficients and a design condition number below 1e6, the
        grid's rank rule (Gram eigenvalue ratio above 1e-12).  Pairs are
        scanned first cut major, and ties keep the first.
        """
        design, y = lag_design(x, order)
        z = tv.values(x, order)
        sort_idx = np.argsort(z, kind="stable")
        design, y, z_sorted = design[sort_idx], y[sort_idx], z[sort_idx]
        rows = len(y)
        min_count = regimes._min_count(rows, 0.15 if n_regimes == 2 else 0.10, order)
        positions = [int(p) for p in regimes._split_positions(z_sorted, min_count)]
        segments = {}

        def segment(start, stop):
            if (start, stop) not in segments:
                part = design[start:stop]
                sv = np.linalg.svd(part, compute_uv=False)
                rss, cond = np.inf, 0.0
                if stop - start > part.shape[1] and sv[-1] > sv[0] * 1e-6:
                    try:
                        rss, cond = ols_fit(part, y[start:stop]).rss, sv[0] / sv[-1]
                    except RankDeficient:
                        pass
                segments[start, stop] = rss, cond
            return segments[start, stop]

        if n_regimes == 2:
            cuts = [(a,) for a in positions]
        else:
            cuts = [(a, b) for a in positions for b in positions if b - a >= min_count]
        best_rss, best_cut, worst_cond = np.inf, None, 0.0
        for cut in cuts:
            bounds = (0, *cut, rows)
            parts = [segment(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
            total = sum(rss for rss, _ in parts)
            worst_cond = max([worst_cond] + [cond for _, cond in parts])
            if total < best_rss:
                best_rss, best_cut = total, cut
        thresholds = None if best_cut is None else z_sorted[list(best_cut)]
        return best_rss, thresholds, worst_cond

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(30, 80),
        tv_kind=st.sampled_from([TIME, LAGGED_VALUE]),
        n_regimes=st.sampled_from([2, 3]),
        order=st.sampled_from([0, 1, 2]),
    )
    def test_grid_winner_matches_oracle(self, seed, n, tv_kind, n_regimes, order):
        # k = order + 1 coefficients per regime; a lagged threshold needs a lag
        assume(order > 0 or tv_kind == TIME)
        rng = np.random.default_rng(seed)
        noise = rng.normal(size=n)
        x = np.empty(n)
        x[0] = noise[0]
        for t in range(1, n):
            x[t] = (0.5 if x[t - 1] < 0 else -0.3) * x[t - 1] + noise[t]
        tv = ThresholdVariable(tv_kind, 1)

        expected, thresholds, cond = self.oracle(x, order, n_regimes, tv)
        if thresholds is None:
            with pytest.raises(NoFeasibleThreshold):
                fit_setar(x, order, n_regimes, tv)
            return
        model = fit_setar(x, order, n_regimes, tv)
        _, y = lag_design(x, order)
        assert np.array_equal(model.thresholds, thresholds)
        # the grid scores by normal equations, whose RSS carries an error of
        # about eps * cond^2 * y'y; the model refits its regimes by ols_fit
        tolerance = 1e-9 + np.finfo(float).eps * cond**2 * (y @ y) / expected
        assert model.rss == pytest.approx(expected, rel=tolerance, abs=0)


def _split_inputs(x, order, tv):
    """What ``fit_setar`` hands the 3-regime split: prefix sums of the rows
    sorted by the threshold variable, the cut positions, the fewest rows a
    regime may keep, and the RSS below and above each cut."""
    _, design, y, _, sort_idx, _, positions, min_count = regimes._grid_setup(x, order, tv, None, 3)
    sxx, sxy, syy = regimes._prefix_stats(design[sort_idx], y[sort_idx])
    zeros = np.zeros(len(positions), dtype=int)
    low = regimes._segment_rss(sxx, sxy, syy, zeros, positions)
    high = regimes._segment_rss(sxx, sxy, syy, positions, zeros + len(y))
    return sxx, sxy, syy, positions, min_count, low, high


def _unpruned_split(sxx, sxy, syy, positions, min_count, low, high):
    """Every threshold pair scored, a-major, the first lowest winning: the
    3-regime scan without branch and bound, kept as its reference."""
    later = np.searchsorted(positions, positions + min_count, side="left")
    counts = len(positions) - later
    ends = np.cumsum(counts)
    shift = later - (ends - counts)

    def pair(flat):
        a = np.searchsorted(ends, flat, side="right")
        return a, flat + shift[a]

    def score(start, stop):
        a, b = pair(np.arange(start, stop))
        return low[a] + regimes._segment_rss(sxx, sxy, syy, positions[a], positions[b]) + high[b]

    best, rss = regimes._first_min(int(ends[-1]), score)
    a, b = pair(best)
    return int(a), int(b), rss


class _SolveCounter:
    """Counts the segments ``_screened_rss`` is asked to solve, while active."""

    def __init__(self):
        self.solved = 0
        self.calls = 0

    def __enter__(self):
        computed = regimes._screened_rss

        def counting(gram, *args, **kwargs):
            self.solved += len(gram)
            self.calls += 1
            return computed(gram, *args, **kwargs)

        self.patch = mock.patch.object(regimes, "_screened_rss", counting)
        self.patch.start()
        return self

    def __exit__(self, *exc):
        self.patch.stop()
        return False


def _series(shape, n, seed):
    """A test series of one of the shapes the pruned 3-regime scan must survive."""
    rng = np.random.default_rng(seed)
    if shape == "piecewise":
        # noise-free and linear between kinks: many splits tie at RSS ~ 0
        kinks = np.sort(rng.integers(1, n, rng.integers(0, 4)))
        slopes = rng.choice([-1.0, -0.25, 0.0, 0.5, 2.0], len(kinks) + 1)
        return 3.0 + np.cumsum(slopes[np.searchsorted(kinks, np.arange(n), side="right")])
    noise = rng.normal(size=n)
    x = np.empty(n)
    x[0] = noise[0]
    for t in range(1, n):
        x[t] = (0.5 if x[t - 1] < 0 else -0.3) * x[t - 1] + noise[t]
    if shape == "constant":
        # flat stretches make rank-deficient inner segments
        for _ in range(rng.integers(1, 3)):
            start = rng.integers(0, n - 10)
            x[start : start + rng.integers(10, n // 2)] = x[start]
    elif shape == "repeated":
        x = np.round(x, 1)
    return x


class TestPrunedSetarScan:
    """The branch-and-bound 3-regime scan against scoring every pair."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(40, 400),
        shape=st.sampled_from(["noise", "piecewise", "constant", "repeated"]),
        scale=st.sampled_from([1e-100, 1.0, 1e100]),
        tv_kind=st.sampled_from([TIME, LAGGED_VALUE]),
        order=st.sampled_from([0, 1, 2]),
        block_rows=st.sampled_from([1, 8]),
        blocks=st.sampled_from([4, 128]),
    )
    # a noise-free line: the winner's bound is its score, so a cutoff one
    # ulp below the incumbent's RSS prunes it
    @example(
        seed=0, n=40, shape="piecewise", scale=1.0, tv_kind=TIME, order=1, block_rows=1, blocks=4
    )
    def test_pruned_scan_equals_every_pair_scored(
        self, seed, n, shape, scale, tv_kind, order, block_rows, blocks
    ):
        assume(order > 0 or tv_kind == TIME)
        x = scale * _series(shape, n, seed)
        tv = ThresholdVariable(tv_kind, 1)
        with mock.patch.multiple(regimes, _SETAR3_BLOCK_ROWS=block_rows, _SETAR3_BLOCKS=blocks):
            try:
                inputs = _split_inputs(x, order, tv)
            except (NoFeasibleThreshold, SeriesTooShort):
                return
            try:
                a, b, rss = _unpruned_split(*inputs)
                expected = (a, b, rss.hex())
            except NoFeasibleThreshold as exc:
                expected = str(exc)
            outcomes, solved = set(), set()
            # 97-pair chunks give even short series several
            for chunk, workers in ((8192, 1), (97, 1), (97, 2), (8192, 3)):
                with mock.patch.multiple(
                    regimes, _GRID_CHUNK=chunk, _WORKERS=workers
                ), _SolveCounter() as counter:
                    try:
                        a, b, rss = regimes._three_regime_split(*inputs)
                        outcomes.add((a, b, rss.hex()))
                    except NoFeasibleThreshold as exc:
                        outcomes.add(str(exc))
                solved.add(counter.solved)
        assert outcomes == {expected}
        # the cutoff is fixed before the scan: neither a chunk nor a thread
        # can lower it for the chunks after it
        assert len(solved) == 1

    @pytest.mark.parametrize("n", [150, 300])
    @pytest.mark.parametrize("tv_kind", [TIME, LAGGED_VALUE])
    def test_exact_fits_keep_the_first_of_many_ties(self, n, tv_kind):
        # x_t = x_(t-1) + 0.1 holds in every segment, so every split scores
        # roundoff or the clamp's 0, and the last bits decide the first
        # lowest; a floor without its margin loses it
        x = 2.0 + 0.1 * np.arange(n)
        inputs = _split_inputs(x, 1, ThresholdVariable(tv_kind, 1))
        assert regimes._three_regime_split(*inputs) == _unpruned_split(*inputs)

    @pytest.mark.parametrize("tv_kind", [TIME, LAGGED_VALUE])
    def test_most_pairs_never_reach_the_solve(self, tv_kind):
        # a 3-regime series, so the pruning cannot silently switch off
        tv = ThresholdVariable(tv_kind, 1)
        thresholds = [334.0, 667.0] if tv_kind == TIME else [-0.3, 0.4]
        generator = make_regime_model(
            "setar", [[0.5, 0.6], [0.0, -0.4], [-0.5, 0.3]], thresholds=thresholds, tv=tv
        )
        x = simulate(generator, 1000, 0.2, seed=9)
        inputs = _split_inputs(x, 1, tv)
        positions, min_count = inputs[3], inputs[4]
        pairs = int(np.sum(len(positions) - np.searchsorted(positions, positions + min_count)))
        with _SolveCounter() as counter:
            split = regimes._three_regime_split(*inputs)
        assert split == _unpruned_split(*inputs)
        assert pairs > 200_000
        assert counter.solved < 0.2 * pairs


class TestTimeThresholdGrid:
    """A time threshold's banded bounds and tiles of survivors against
    every candidate scored directly."""

    @staticmethod
    def grid_results(monkeypatch, x, transitions, kind, shifted):
        results = []
        computed = regimes._profiled_grid

        def recording(*args):
            assert args[-1] is True  # fit_lstar takes the time-threshold path
            out = computed(*args) if shifted else _chunked_grid(*args)
            results.append((out, len(args[4]) * len(args[5])))
            return out

        with monkeypatch.context() as patch:
            patch.setattr(regimes, "_profiled_grid", recording)
            fit_lstar(
                x, 1, transitions, ThresholdVariable(TIME),
                gamma_grid=GammaGrid(points=40), transition=kind, refine=False,
            )
        return results

    @pytest.mark.parametrize("kind", ["logistic", "exponential"])
    @pytest.mark.parametrize("transitions", [1, 2])
    @pytest.mark.parametrize("n", [60, 300])
    def test_shifted_windows_equal_computed_weights(
        self, monkeypatch, lstar_time_generator, n, transitions, kind
    ):
        x = simulate(lstar_time_generator, n, 0.05, seed=n + transitions)
        shifted = self.grid_results(monkeypatch, x, transitions, kind, True)
        computed = self.grid_results(monkeypatch, x, transitions, kind, False)
        assert len(shifted) == transitions
        assert shifted == computed
        if n == 300:
            # the first grid spans more than one chunk and one tile
            assert shifted[0][1] > regimes._GRID_CHUNK

    @pytest.mark.parametrize("kind", ["logistic", "exponential"])
    def test_slabs_across_a_c_gap_and_a_gamma_boundary(
        self, monkeypatch, lstar_time_generator, kind
    ):
        # a second transition's c grid skips the band around the first c,
        # and a tile holds the rows of several gammas: both cut a tile's
        # copy of the transition's windows into slabs.  With no candidate
        # bounded, every one of them reaches the tiles
        x = simulate(lstar_time_generator, 300, 0.05, seed=8)
        design, y, z, c_values = _grid_inputs(x, ThresholdVariable(TIME))
        at = len(c_values) // 3
        base = np.hstack([design, _weights(kind, z, 0.05, c_values[at])[:, None] * design])
        gap = regimes._min_count(len(y), 0.15, 1)
        c_values = c_values[np.abs(np.arange(len(c_values)) - at) >= gap]
        gammas = GammaGrid(points=40).values()
        assert np.any(np.diff(c_values) > 1)
        tile = -(-regimes._TIME_TILE_BYTES // (8 * len(y)))
        assert len(c_values) < tile < len(gammas) * len(c_values)

        def unbounded(kind, at, gammas, *args):
            count = len(gammas) * len(at)
            yield 0, np.full(count, -np.inf), np.full(count, np.inf)

        monkeypatch.setattr(regimes, "_banded_bounds", unbounded)
        got = regimes._profiled_grid(base, design, y, z, gammas, c_values, kind, True)
        assert got == _chunked_grid(base, design, y, z, gammas, c_values, kind, True)


def _break_volatility(n_prices, slot):
    """Realized volatility of the benchmark's break prices, 60-day window."""
    from perfbench.workloads import break_prices
    from regimevol.series import log_returns, realized_volatility

    prices, _ = break_prices(np.random.default_rng([7, n_prices, slot]), n_prices)
    return realized_volatility(log_returns(prices), 60)


def _random_walk():
    return 10.0 + np.cumsum(np.random.default_rng(5).normal(size=400))


def _time_grids(monkeypatch, x, transitions, kind, points):
    """The arguments of each time-threshold grid of a fit, in order."""
    calls = []
    computed = regimes._profiled_grid

    def recording(*args):
        calls.append(args)
        return computed(*args)

    with monkeypatch.context() as patch:
        patch.setattr(regimes, "_profiled_grid", recording)
        fit_lstar(
            x, 1, transitions, ThresholdVariable(TIME), gamma_grid=GammaGrid(points=points),
            transition=kind, refine=False,
        )
    return calls


class TestGridFloors:
    """Every time-threshold candidate's tile RSS lies between its banded floor and ceiling."""

    @staticmethod
    def bounds(base, block, y, z, gammas, c_values, kind):
        rows, kb = base.shape
        ka = block.shape[1]
        cross = (base[:, :, None] * block[:, None, :]).reshape(rows, kb * ka)
        tri = np.triu_indices(ka)
        auto = (block[:, :, None] * block[:, None, :])[:, tri[0], tri[1]]
        lin = np.hstack([cross, block * y[:, None]])
        at = (c_values - z[0]).astype(np.intp)
        btb, bty, yy = base.T @ base, base.T @ y, float(y @ y)
        chunks = list(regimes._banded_bounds(kind, at, gammas, lin, auto, btb, bty, yy))
        assert [start for start, _, _ in chunks] == list(
            np.cumsum([0] + [len(floor) for _, floor, _ in chunks[:-1]])
        )
        return np.concatenate([c[1] for c in chunks]), np.concatenate([c[2] for c in chunks])

    @pytest.mark.parametrize("kind", ["logistic", "exponential"])
    @pytest.mark.parametrize("transitions", [1, 2])
    @pytest.mark.parametrize(
        "source, points",
        [
            pytest.param(lambda: _break_volatility(560, 0), 40, id="vol560-0"),
            pytest.param(lambda: _break_volatility(560, 1), 40, id="vol560-1"),
            pytest.param(lambda: _break_volatility(2060, 0), 10, id="vol2060-0"),
            pytest.param(lambda: _break_volatility(2060, 1), 10, id="vol2060-1"),
            pytest.param(_random_walk, 40, id="walk"),
            pytest.param(lambda: simulate(
                make_regime_model(
                    "lstar", [[0.02, 0.95], [0.0, -0.3]], thresholds=[220.0],
                    transitions=[TransitionSpec("logistic", 10.0 / 440.0, 220.0)],
                    tv=ThresholdVariable(TIME),
                ), 300, 0.05, seed=4), 40, id="lstar-time"),
        ],
    )
    def test_floor_and_ceiling_hold_the_tile_rss(
        self, monkeypatch, source, points, transitions, kind
    ):
        x = source()
        for args in _time_grids(monkeypatch, x, transitions, kind, points):
            floor, ceiling = self.bounds(*args[:7])
            rss = _chunked_grid(*args[:7], True, every=True)
            assert np.all(floor <= rss) and np.all(rss <= ceiling)
            # a ceiling is finite only where the tiles' rank screen passes
            assert np.all(np.isfinite(rss[np.isfinite(ceiling)]))
            if kind == "logistic" and source is not _random_walk:
                # on these series nearly every logistic Gram is floored
                assert np.mean(np.isfinite(floor)) > 0.99


class TestBandedSurvivors:
    """Only the candidates the banded bounds cannot rule out reach the tiles."""

    @pytest.mark.parametrize("transitions", [1, 2])
    @pytest.mark.parametrize(
        "n_prices, slot, points", [(560, 0, 200), (560, 1, 200), (2060, 0, 40), (2060, 1, 40)]
    )
    def test_one_padded_tile_per_logistic_grid(
        self, monkeypatch, n_prices, slot, points, transitions
    ):
        x = _break_volatility(n_prices, slot)
        candidates = []
        computed = regimes._profiled_grid

        def recording(*args):
            candidates.append(len(args[4]) * len(args[5]))
            return computed(*args)

        monkeypatch.setattr(regimes, "_profiled_grid", recording)
        with _SolveCounter() as counter:
            fit_lstar(
                x, 1, transitions, ThresholdVariable(TIME), gamma_grid=GammaGrid(points=points),
                refine=False,
            )
        tile = -(-regimes._TIME_TILE_BYTES // (8 * (len(x) - 1)))
        assert len(candidates) == transitions and min(candidates) > tile
        # each grid's survivors are solved once, in one padded tile
        assert counter.calls == transitions
        assert counter.solved <= transitions * tile
        assert counter.solved < 0.01 * sum(candidates)


class TestTiledGrid:
    """The grid's tiles, on both threshold kinds, against the directly scored grid."""

    @staticmethod
    def grid_calls(monkeypatch, x, tv_kind, kind):
        calls = []
        computed = regimes._profiled_grid

        def recording(*args):
            calls.append((computed(*args), len(args[4]) * len(args[5])))
            return calls[-1][0]

        with monkeypatch.context() as patch:
            patch.setattr(regimes, "_profiled_grid", recording)
            fit_lstar(
                x, 1, 2, ThresholdVariable(tv_kind, 1),
                gamma_grid=GammaGrid(points=40), transition=kind, refine=False,
            )
        return calls

    @pytest.mark.parametrize("kind", ["logistic", "exponential"])
    @pytest.mark.parametrize("tv_kind", [TIME, LAGGED_VALUE])
    def test_grid_does_not_depend_on_chunk_size(
        self, monkeypatch, lstar_lagged_generator, tv_kind, kind
    ):
        # 50-candidate lagged tiles fall under BLAS's small-matrix kernel,
        # whose bits depend on where a tile starts; no grid here ends on a
        # tile boundary, so each last tile reaches back.  A time grid keeps
        # its tiles, in the blocked kernel, while the chunk size moves its
        # banded chunks and which survivors share a tile
        x = simulate(lstar_lagged_generator, 300, 0.1, seed=21)
        monkeypatch.setattr(regimes, "_LAGGED_TILE_BYTES", 8 * 299 * 50)
        default = self.grid_calls(monkeypatch, x, tv_kind, kind)
        assert len(default) == 2
        for chunk in (7, 64, 1000):
            monkeypatch.setattr(regimes, "_GRID_CHUNK", chunk)
            assert self.grid_calls(monkeypatch, x, tv_kind, kind) == default

    @pytest.mark.parametrize("kind", ["logistic", "exponential"])
    def test_default_lagged_tile_does_not_depend_on_chunks_or_workers(
        self, monkeypatch, lstar_lagged_generator, kind
    ):
        # most products of the default lagged tiles run in the small-matrix
        # kernel too; a chunk of 7 or 64 candidates still holds one whole
        # tile, and one of 1,000 one or two
        x = simulate(lstar_lagged_generator, 300, 0.1, seed=21)
        tile = -(-regimes._LAGGED_TILE_BYTES // (8 * 299))
        monkeypatch.setattr(regimes, "_WORKERS", 1)
        default = self.grid_calls(monkeypatch, x, LAGGED_VALUE, kind)
        assert len(default) == 2
        # several tiles per grid, and the last one reaches back
        assert all(n > 2 * tile and n % tile for _, n in default)
        for workers in (1, 2):
            monkeypatch.setattr(regimes, "_WORKERS", workers)
            for chunk in (7, 64, 1000):
                monkeypatch.setattr(regimes, "_GRID_CHUNK", chunk)
                assert self.grid_calls(monkeypatch, x, LAGGED_VALUE, kind) == default

    @pytest.mark.parametrize("tile_bytes", [8 * 149 * 37, None])
    @pytest.mark.parametrize("kind", ["logistic", "exponential"])
    @pytest.mark.parametrize("second", [False, True])
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("tv_kind", [TIME, LAGGED_VALUE])
    def test_matches_chunked_reference(
        self, monkeypatch, lstar_lagged_generator, tv_kind, seed, second, kind, tile_bytes
    ):
        x = simulate(lstar_lagged_generator, 150, 0.1, seed=seed)
        design, y, z, c_values = _grid_inputs(x, ThresholdVariable(tv_kind, 1))
        gammas = GammaGrid(points=60).values()
        base = design
        if second:
            first = _weights(kind, z, 2.0, c_values[len(c_values) // 3])
            base = np.hstack([design, first[:, None] * design])
        if tile_bytes is not None:
            monkeypatch.setattr(regimes, "_TIME_TILE_BYTES", tile_bytes)
            monkeypatch.setattr(regimes, "_LAGGED_TILE_BYTES", tile_bytes)
        # a lagged grid does not end on a tile boundary, so its last tile
        # reaches back; a time grid is larger than a tile
        default = regimes._TIME_TILE_BYTES if tv_kind == TIME else regimes._LAGGED_TILE_BYTES
        tile = -(-default // (8 * len(y)))
        assert len(gammas) * len(c_values) % tile and len(gammas) * len(c_values) > tile

        expected = _chunked_grid(base, design, y, z, gammas, c_values, kind, tv_kind == TIME)
        got = regimes._profiled_grid(base, design, y, z, gammas, c_values, kind, tv_kind == TIME)
        # the bound of TestProfiledGridOracle: normal equations carry an RSS
        # error of about eps * cond^2 * y'y
        winner = np.hstack([base, _weights(kind, z, got[0], got[1])[:, None] * design])
        sv = np.linalg.svd(winner, compute_uv=False)
        tolerance = 1e-9 + np.finfo(float).eps * (sv[0] / sv[-1]) ** 2 * (y @ y) / expected[2]
        assert got[2] == pytest.approx(expected[2], rel=tolerance, abs=0)
        if got[:2] != expected[:2]:
            # small tiles round in the small-matrix kernel, and a time
            # threshold's steep logistic gammas tie to roundoff (ROADMAP
            # item 1), so only there may the first-wins pick move, and only
            # to a candidate the reference scores as a tie
            assert tv_kind == TIME and tile_bytes is not None
            tie = _chunked_grid(
                base, design, y, z, np.array(got[:1]), np.array(got[1:2]), kind, True
            )
            assert tie[2] == pytest.approx(expected[2], rel=tolerance, abs=0)

    @staticmethod
    def time_grid_peak(points, kind="logistic"):
        x = 1.0 + 0.01 * np.cumsum(np.random.default_rng(0).normal(size=2001))
        tracemalloc.start()
        try:
            fit_lstar(
                x, 1, 1, ThresholdVariable(TIME), gamma_grid=GammaGrid(points=points),
                transition=kind, refine=False,
            )
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("points", [5, 40])
    def test_time_threshold_memory_is_bounded_by_tiles(self, points):
        # the banded pass holds one chunk of about 4,096 4x4 normal
        # equations with their certificate, solve and bounds (about 600
        # bytes a candidate) and one block of band rows (at most 1 MB); the
        # survivors take one 2 MiB tile with their table and product rows.
        # With inputs of a few columns of 2,000 rows, under two tiles
        assert self.time_grid_peak(points) < 2 * regimes._TIME_TILE_BYTES

    def test_two_grid_threads_hold_a_tile_each(self, monkeypatch):
        # nearly every exponential Gram is doubtful, so the tiles score the
        # grid on two threads in chunks of 4,092 candidates: a thread holds
        # its 2 MiB tile with the chunk's product rows, table and indices
        # (about 0.6 MB) or, once the tile is freed, the chunk's Grams with
        # their screen and solve (about 2.5 MB).  Two threads and the inputs
        # (about 0.6 MB) make under 6.5 MB, within three and a half tiles
        monkeypatch.setattr(regimes, "_WORKERS", 2)
        assert self.time_grid_peak(40, "exponential") < 3.5 * regimes._TIME_TILE_BYTES

    def test_tile_buffer_is_released_before_the_solve(self, monkeypatch):
        monkeypatch.setattr(regimes, "_WORKERS", 1)
        # one thread scores the exponential grid's doubtful Grams in chunks
        # of 8,184 candidates: it holds either its 2 MiB tile with the
        # chunk's product rows, table and indices (about 1 MB) or, once the
        # tile is freed, the chunk's 4x4 normal equations with their screen
        # and solve (about 4 MB), never both; with inputs of a few columns of
        # 2,000 rows, under two and three quarter tiles.  A tile held
        # through the solve adds one
        assert self.time_grid_peak(40, "exponential") < 2.75 * regimes._TIME_TILE_BYTES

    @pytest.mark.parametrize("kind", ["logistic", "exponential"])
    def test_lagged_memory_is_bounded_by_tiles(self, monkeypatch, kind):
        x = 1.0 + 0.01 * np.cumsum(np.random.default_rng(0).normal(size=2001))

        def peak(points, workers):
            monkeypatch.setattr(regimes, "_WORKERS", workers)
            tracemalloc.start()
            try:
                # 201 c values of 2,000 rows keep the 400-point grid quick
                fit_lstar(
                    x, 1, 1, ThresholdVariable(LAGGED_VALUE, 1), gamma_grid=GammaGrid(points=points),
                    min_fraction=0.45, transition=kind, refine=False,
                )
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # two 1 MiB (tile, rows) buffers, _GRID_CHUNK 4x4 normal equations
        # in flight on the two grid threads with their screen and solve
        # (about 600 bytes a candidate, 5 MB) and inputs of a few columns of
        # 2,000 rows: under eight lagged tiles
        assert peak(40, 2) < 8 * regimes._LAGGED_TILE_BYTES
        # on one thread the peak does not depend on how two threads' chunks
        # overlap; a table of exps over the whole gamma grid would grow it by
        # 6.4 MB (360 more gammas of 2,000 rows), more than one tile
        assert peak(400, 1) < peak(40, 1) + regimes._LAGGED_TILE_BYTES


class TestPaddedTileProducts:
    """A time threshold's padded tile products against separate 4 MiB ones."""

    @pytest.mark.parametrize("kb", [2, 4])
    @pytest.mark.parametrize("rows", [499, 1999])
    def test_padded_products_keep_the_bits_of_separate_ones(self, rows, kb):
        # the grid takes w @ [cross | block*y] and (w*w) @ [auto | 0]; in
        # OpenBLAS's blocked kernel each entry has the bits of w @ cross,
        # w @ block*y and (w*w) @ auto taken on 4 MiB tiles, as the grid
        # took them before, whatever the tile's rows and a row's place in it
        rng = np.random.default_rng(rows + kb)
        ka = 2
        base, block, y = rng.normal(size=(rows, kb)), rng.normal(size=(rows, ka)), rng.normal(size=rows)
        cross = (base[:, :, None] * block[:, None, :]).reshape(rows, kb * ka)
        tri = np.triu_indices(ka)
        auto = (block[:, :, None] * block[:, None, :])[:, tri[0], tri[1]]
        block_y = block * y[:, None]
        lin = np.hstack([cross, block_y])
        auto_wide = np.zeros_like(lin)
        auto_wide[:, : auto.shape[1]] = auto
        big = -(-(1 << 22) // (8 * rows))
        w = rng.uniform(size=(2 * big, rows))
        separate = [
            np.vstack([part @ right for part in np.split(w ** power, [big])])
            for power, right in ((1, cross), (1, block_y), (2, auto))
        ]
        # the grid's tiles, starting at offsets of a third of a tile in the
        # 4 MiB ones, and a tile of a few rows from anywhere padded with
        # zeros, as the grid scores its survivors
        tile = -(-regimes._TIME_TILE_BYTES // (8 * rows))
        picks = np.sort(rng.choice(len(w), size=tile // 5, replace=False))
        padded = np.zeros((tile, rows))
        padded[: len(picks)] = w[picks]
        tiles = [(w[start : start + tile], np.arange(start, start + tile))
                 for start in range(0, len(w) - tile + 1, tile // 3)]
        for part, rows_in in [*tiles, (padded, picks)]:
            both = (part @ lin)[: len(rows_in)]
            squares = ((part * part) @ auto_wide)[: len(rows_in)]
            assert both[:, : kb * ka].tobytes() == separate[0][rows_in].tobytes()
            assert both[:, kb * ka :].tobytes() == separate[1][rows_in].tobytes()
            assert squares[:, : auto.shape[1]].tobytes() == separate[2][rows_in].tobytes()

    @pytest.mark.parametrize("rows", [59, 499, 1999])
    def test_time_tiles_stay_in_the_blocked_kernel(self, rows):
        # the narrowest product, 6 columns for a first transition of order
        # 1, of any full tile takes more multiply-adds than the 1e6 under
        # which OpenBLAS switches to its small-matrix kernel; a tile takes
        # the tile bytes, plus under a row
        tile = -(-regimes._TIME_TILE_BYTES // (8 * rows))
        assert tile * rows * 6 > 1_000_000
        assert (tile - 1) * rows * 8 < regimes._TIME_TILE_BYTES


class TestSplitLogistic:
    """Lagged-value logistic weights from one outer product per gamma."""

    @staticmethod
    def both_forms(z, c, gamma):
        split = regimes._split_logistic(z, c)(gamma, c, np.empty((len(c), len(z))))
        return split, regimes._transition_weights("logistic", z, gamma, c[:, None])

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(-3.0, 3.0),
        offset=st.floats(-5.0, 5.0),
        steepness=st.floats(0.0, 1.0),
    )
    def test_within_the_roundoff_of_both_forms(self, seed, scale, offset, steepness):
        rng = np.random.default_rng(seed)
        z = 10.0**scale * (offset + rng.normal(size=200))
        c = np.append(rng.choice(z, 30), rng.uniform(z.min(), z.max(), 30))
        mid = z.min() / 2 + z.max() / 2
        half = max(np.abs(z - mid).max(), np.abs(c - mid).max())
        # gamma * half from 0.01 up to the limit of the split form
        gamma = 10.0 ** (-2 + steepness * (np.log10(regimes._OUTER_EXP_LIMIT) + 2)) / half
        assume(gamma * half <= regimes._OUTER_EXP_LIMIT)
        split, direct = self.both_forms(z, c, gamma)
        # Each form is within (4 gamma h + 4) u of the exact weight,
        # relative: the direct argument -gamma (z - c), up to 2 gamma h,
        # takes two roundings (4 gamma h u after exp), as do the split
        # form's two arguments of up to gamma h each; the rest is one
        # rounding for each exp, the product, the add and the divide.  So
        # the two forms differ by at most twice that.  Below the smallest
        # normal number a weight carries an absolute error instead.
        u = np.finfo(float).eps / 2
        bound = 2 * (4 * gamma * half + 4) * u
        assert np.all(np.abs(split - direct) <= bound * direct + np.finfo(float).tiny)

    @pytest.mark.parametrize("steepness", [1.0001, 2.0, 1e6])
    def test_steeper_gammas_take_the_direct_form_bit_for_bit(self, steepness):
        # a random walk's half-range is about 25, so gammas above 28 fall back
        z = np.cumsum(np.random.default_rng(3).normal(size=500))
        c = np.sort(z)[75:425]
        mid = z.min() / 2 + z.max() / 2
        half = max(np.abs(z - mid).max(), np.abs(c - mid).max())
        split, direct = self.both_forms(z, c, steepness * regimes._OUTER_EXP_LIMIT / half)
        assert np.array_equal(split, direct)

    def test_saturated_weights_are_exactly_0_and_1(self):
        z = np.linspace(-1.0, 1.0, 401)
        c = z[::8]
        gamma = 0.95 * regimes._OUTER_EXP_LIMIT  # half-range 1: the split form
        split, direct = self.both_forms(z, c, gamma)
        arg = gamma * (z - c[:, None])
        # exp(-38) < u / 2, so 1 + e rounds to 1; exp overflows above 709.79
        ones, zeros = arg > 38, arg < -710
        assert ones.sum() > 1000 and zeros.sum() > 1000
        assert np.all(direct[ones] == 1) and np.all(split[ones] == 1)
        assert np.all(direct[zeros] == 0) and np.all(split[zeros] == 0)


def _eigvalsh_screened_rss(gram, rhs, yy, feasible=True):
    """The grid's screened solve with the rank screen as one eigvalsh per Gram."""
    eigs = np.linalg.eigvalsh(gram)
    feasible = feasible & (eigs[:, 0] > eigs[:, -1] * regimes._EIG_RATIO) & (eigs[:, -1] > 0)
    rss = np.full(len(gram), np.inf)
    if np.any(feasible):
        beta = np.linalg.solve(gram[feasible], rhs[feasible][..., None])[..., 0]
        yy = np.broadcast_to(yy, rss.shape)[feasible]
        vals = yy - np.einsum("mk,mk->m", rhs[feasible], beta)
        rss[feasible] = np.where(np.isfinite(vals), np.maximum(vals, 0.0), np.inf)
    return rss


def _adversarial_gram(rng, k, shape):
    """One k x k Gram of the given shape, scaled by a random power of ten."""
    if shape == "zero":
        return np.zeros((k, k))
    if shape == "singular":
        x = rng.normal(size=(k - 1, k))  # fewer rows than columns: rank k - 1
        gram = x.T @ x
    else:
        # eigenvalue ratio on either side of _EIG_RATIO or of the certificate's
        # ratio, or anywhere from 1e-16 to 1
        anchor = {"eig": regimes._EIG_RATIO, "cert": regimes._CERTIFY_RATIO}.get(shape)
        if anchor is None:
            ratio = 10.0 ** rng.uniform(-16, 0)
        else:
            ratio = anchor * (1 + rng.choice([-1, 1]) * 10.0 ** rng.uniform(-6, -1))
        spectrum = np.concatenate([[ratio, 1.0], 10.0 ** rng.uniform(np.log10(ratio), 0, k)])
        q, _ = np.linalg.qr(rng.normal(size=(k, k)))
        gram = (q * spectrum[:k]) @ q.T
        if shape == "scaled":
            scale = 10.0 ** rng.uniform(-4, 4, k)
            gram = gram * scale[:, None] * scale[None, :]
        gram = (gram + gram.T) / 2
    # now and then near the ends of the float range, where the certificate
    # must not pass a Gram through underflow or overflow
    gram = gram * 10.0 ** (rng.uniform(-3, 3) if rng.random() < 0.9 else rng.choice([-300, 300]))
    if shape == "nonfinite":
        i, j = rng.integers(0, k, 2)
        gram[i, j] = rng.choice([np.nan, np.inf, -np.inf])
    return gram


class TestCertifiedScreen:
    """The batched Cholesky certificate in front of the rank screen."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        k=st.integers(1, 8),
        m=st.integers(1, 24),
        shapes=st.lists(
            st.sampled_from(["eig", "cert", "any", "scaled", "singular", "zero", "nonfinite"]),
            min_size=1, max_size=4,
        ),
        masked=st.booleans(),
    )
    def test_screen_equals_eigvalsh_reference(self, seed, k, m, shapes, masked):
        rng = np.random.default_rng(seed)
        gram = np.stack([_adversarial_gram(rng, k, shapes[i % len(shapes)]) for i in range(m)])
        rhs = rng.normal(size=(m, k))
        yy = 10.0 ** rng.uniform(-2, 4, m)
        feasible = rng.random(m) < 0.7 if masked else True
        try:
            expected = _eigvalsh_screened_rss(gram, rhs, yy, feasible)
        except np.linalg.LinAlgError as exc:
            with pytest.raises(type(exc)):
                regimes._screened_rss(gram, rhs, yy, feasible)
            return
        assert np.array_equal(regimes._screened_rss(gram, rhs, yy, feasible), expected)

    def test_grids_call_no_eigvalsh_on_a_well_conditioned_series(
        self, monkeypatch, lstar_lagged_generator
    ):
        x = simulate(lstar_lagged_generator, 200, 0.1, seed=3)
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            calls.append(len(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        grid = GammaGrid(points=20)
        fit_setar(x, 1, 3)
        fit_lstar(x, 1, gamma_grid=grid)
        fit_lstar(x, 1, threshold_variable=ThresholdVariable(LAGGED_VALUE, 1), gamma_grid=grid)
        assert calls == []


class TestScreenedSolve:
    """One solve over the whole stack, with stand-ins for the Grams not scored."""

    SHAPES = ("good", "short", "singular", "good", "rejected", "short", "good")

    def stack(self, scale):
        rng = np.random.default_rng(5)
        grams, rhss, yys = [], [], []
        for shape in self.SHAPES:
            x = rng.normal(size=(40, 3))
            y = x @ [0.5, -1.0, 2.0] + rng.normal(size=40)
            if shape == "rejected":
                # an eigenvalue ratio near 1e-16, far under _EIG_RATIO
                x[:, 2] = x[:, 1] + 1e-8 * rng.normal(size=40)
            x, y = x * scale, y * scale
            gram, rhs = x.T @ x, x.T @ y
            if shape == "singular":
                # the last row and column repeat the second: singular to the bit
                gram, rhs = gram[np.ix_([0, 1, 1], [0, 1, 1])], rhs[[0, 1, 1]]
            grams.append(gram)
            rhss.append(rhs)
            yys.append(y @ y)
        feasible = np.array([shape != "short" for shape in self.SHAPES])
        return np.stack(grams), np.stack(rhss), np.array(yys), feasible

    @pytest.mark.parametrize("scale", [1.0, 1e100])
    def test_scored_entries_are_each_grams_own_solve(self, scale):
        gram, rhs, yy, feasible = self.stack(scale)
        singular = self.SHAPES.index("singular")
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(gram[singular], rhs[singular])
        # neither the singular Gram nor the rejected one may raise or warn,
        # also at 1e100, where Grams and right-hand sides are near 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rss = regimes._screened_rss(gram, rhs, yy, feasible)
        for i, shape in enumerate(self.SHAPES):
            if shape != "good":
                assert rss[i] == np.inf, shape
                continue
            beta = np.linalg.solve(gram[i], rhs[i])
            # the product sums in the order of the stacked einsum
            assert rss[i] == max(yy[i] - np.einsum("k,k->", rhs[i], beta), 0.0)
            assert 0.0 < rss[i] < np.inf


class TestSharedScan:
    """The first-wins rule of the SETAR and STAR grids, whatever the chunk size."""

    @pytest.mark.parametrize("chunk", [7, 64])
    @pytest.mark.parametrize("n_regimes", [2, 3])
    @pytest.mark.parametrize("tv_kind", [TIME, LAGGED_VALUE])
    @pytest.mark.parametrize("exact", [False, True])
    def test_setar_winner_does_not_depend_on_chunk_size(
        self, monkeypatch, setar_generator, chunk, n_regimes, tv_kind, exact
    ):
        # the exact AR(1) relation makes many splits tie at zero RSS, so the
        # first-wins rule has to hold across chunk boundaries
        t = np.arange(1, 151)
        x = 1.0 + 0.97**t if exact else simulate(setar_generator, 150, 0.1, seed=11)
        tv = ThresholdVariable(tv_kind, 1)
        default = fit_setar(x, 1, n_regimes, tv)
        monkeypatch.setattr(regimes, "_GRID_CHUNK", chunk)
        chunked = fit_setar(x, 1, n_regimes, tv)
        assert np.array_equal(chunked.thresholds, default.thresholds)
        assert chunked.rss == default.rss

    @pytest.mark.parametrize("tv_kind", [TIME, LAGGED_VALUE])
    def test_second_transition_keeps_min_count_in_every_regime(
        self, monkeypatch, lstar_time_generator, tv_kind
    ):
        x = simulate(lstar_time_generator, 150, 0.05, seed=4)
        tv = ThresholdVariable(tv_kind, 1)
        calls = []
        computed = regimes._profiled_grid

        def recording(*args):
            out = computed(*args)
            calls.append((args[5], out))
            return out

        monkeypatch.setattr(regimes, "_profiled_grid", recording)
        fit_lstar(x, 1, 2, tv, gamma_grid=GammaGrid(points=10), refine=False)
        assert len(calls) == 2

        z_sorted = np.sort(tv.values(x, 1), kind="stable")
        rows = len(z_sorted)
        min_count = regimes._min_count(rows, 0.10, 1)
        positions = regimes._split_positions(z_sorted, min_count)
        first = int(np.searchsorted(z_sorted, calls[0][1][1], side="left"))
        expected = []
        for pos in positions:
            lo, hi = sorted([first, int(pos)])
            if min(lo, hi - lo, rows - hi) >= min_count:
                expected.append(z_sorted[pos])
        assert np.array_equal(calls[0][0], z_sorted[positions])
        assert np.array_equal(calls[1][0], expected)


def _fit_bits(model):
    """Everything a fit reports, as exactly comparable values."""
    return (
        model.rss,
        model.thresholds.tobytes(),
        tuple((t.gamma, t.c) for t in model.transitions),
        tuple(r.tobytes() for r in model.regimes),
        model.fitted.tobytes(),
        None if model.standard_errors is None else model.standard_errors.tobytes(),
        model.converged,
    )


class TestParallelScan:
    """Grid chunks scored on worker threads, reduced in chunk order."""

    @staticmethod
    def pools_started(monkeypatch):
        started = []
        pool = regimes.ThreadPoolExecutor

        def counting(workers):
            started.append(workers)
            return pool(workers)

        monkeypatch.setattr(regimes, "ThreadPoolExecutor", counting)
        return started

    @pytest.mark.parametrize(
        "n, fit, pooled",
        [
            # SETAR-2 takes one argmin over its 12,000 thresholds on the calling thread
            pytest.param(12_000, lambda x, tv: fit_setar(x, 1, 2, tv), {}, id="setar2"),
            # the pruned 3-regime scan runs on the calling thread
            pytest.param(300, lambda x, tv: fit_setar(x, 1, 3, tv), {}, id="setar3"),
            # a time threshold's logistic survivors take one tile on the
            # calling thread; its doubtful exponential Grams take the pool
            *[
                pytest.param(
                    300,
                    lambda x, tv, kind=kind, nt=nt: fit_lstar(
                        x, 1, nt, tv, gamma_grid=GammaGrid(points=40), transition=kind
                    ),
                    {LAGGED_VALUE, TIME} if kind == "exponential" else {LAGGED_VALUE},
                    id=f"{kind}{nt}",
                )
                for kind in ("logistic", "exponential")
                for nt in (1, 2)
            ],
            # the small-matrix kernel case; 400 gammas give it two chunks
            pytest.param(
                60,
                lambda x, tv: fit_lstar(x, 1, 1, tv, gamma_grid=GammaGrid(points=400)),
                {LAGGED_VALUE},
                id="logistic1-n60",
            ),
        ],
    )
    @pytest.mark.parametrize("tv_kind", [TIME, LAGGED_VALUE])
    def test_worker_count_cannot_move_a_bit(
        self, monkeypatch, lstar_lagged_generator, n, fit, pooled, tv_kind
    ):
        x = simulate(lstar_lagged_generator, n, 0.1, seed=n)
        tv = ThresholdVariable(tv_kind, 1)
        started = self.pools_started(monkeypatch)
        results, pools = {}, {}
        threads = threading.active_count()
        for workers in (1, 2, 3):
            monkeypatch.setattr(regimes, "_WORKERS", workers)
            before = len(started)
            results[workers] = _fit_bits(fit(x, tv))
            pools[workers] = started[before:]
            assert threading.active_count() == threads
        assert results[2] == results[1]
        assert results[3] == results[1]
        # every STAR grid here spans several chunks, so the pool ran where
        # the scan uses one; one worker never starts one
        assert pools[1] == []
        assert bool(pools[2]) is (tv_kind in pooled) and bool(pools[3]) is (tv_kind in pooled)

    def test_star_grid_memory_does_not_grow_with_workers(self, monkeypatch):
        # the bound of test_two_grid_threads_hold_a_tile_each, with more
        # workers than a STAR grid may use; the doubtful exponential Grams
        # past the first banded chunk take one pool
        monkeypatch.setattr(regimes, "_WORKERS", 8)
        started = self.pools_started(monkeypatch)
        peak = TestTiledGrid.time_grid_peak(5, "exponential")
        assert started == [2]
        assert peak < 3.5 * regimes._TIME_TILE_BYTES

    def test_tile_buffers_survive_frequent_thread_switches(
        self, monkeypatch, lstar_lagged_generator
    ):
        # threads sharing one tile buffer would overwrite each other's
        # weights; 50-candidate tiles make about 170 chunks for the grid's
        # two threads, which switch every microsecond
        x = simulate(lstar_lagged_generator, 300, 0.1, seed=5)
        tv = ThresholdVariable(LAGGED_VALUE, 1)
        grid = GammaGrid(points=40)
        monkeypatch.setattr(regimes, "_LAGGED_TILE_BYTES", 8 * 299 * 50)
        monkeypatch.setattr(regimes, "_WORKERS", 1)
        serial = _fit_bits(fit_lstar(x, 1, 1, tv, gamma_grid=grid, refine=False))
        monkeypatch.setattr(regimes, "_WORKERS", 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                assert _fit_bits(fit_lstar(x, 1, 1, tv, gamma_grid=grid, refine=False)) == serial
        finally:
            sys.setswitchinterval(interval)

    def test_blas_threads_cannot_move_a_lagged_fit(self, lstar_lagged_generator):
        # tier-1 pins BLAS to one thread, which leaves two grid workers on
        # two or more CPUs; users run it unpinned, which leaves one.  Simulated lagged-LSTAR
        # series are identified, unlike the steep-gamma plateau of a random
        # walk (ROADMAP item 1), so every fit must be the same
        child = (
            "import json, sys\n"
            "from regimevol import fit_lstar\n"
            "from regimevol.regimes import LAGGED_VALUE, ThresholdVariable\n"
            "tv = ThresholdVariable(LAGGED_VALUE, 1)\n"
            "x = json.load(sys.stdin)\n"
            "fits = []\n"
            "for kind in ('logistic', 'exponential'):\n"
            "    for transitions in (1, 2):\n"
            "        m = fit_lstar(x, 1, transitions, tv, transition=kind)\n"
            "        fits.append([m.to_dict(), m.fitted.tolist()])\n"
            "print(json.dumps(fits))\n"
        )
        series = json.dumps(simulate(lstar_lagged_generator, 500, 0.1, seed=0).tolist())
        src = os.path.dirname(os.path.dirname(regimes.__file__))
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        fits = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
            proc = subprocess.run(
                [sys.executable, "-c", child], input=series, capture_output=True, text=True,
                env=env, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            fits.append(json.loads(proc.stdout.splitlines()[-1]))
        assert len(fits[0]) == 4
        assert fits[0] == fits[1]

    def test_infeasible_grid_raises_alike_and_joins_its_threads(self, monkeypatch):
        # as in test_infeasible_transition_is_named, over a grid of several chunks
        x = simulate(make_regime_model("ar", [[0.002, 0.85]]), 300, 0.002, seed=3)
        tv = ThresholdVariable(LAGGED_VALUE, 1)
        started = self.pools_started(monkeypatch)
        messages = set()
        for workers in (1, 2, 3):
            monkeypatch.setattr(regimes, "_WORKERS", workers)
            threads = threading.active_count()
            with pytest.raises(NoFeasibleThreshold) as raised:
                fit_lstar(
                    x, 1, 2, tv, gamma_grid=GammaGrid(points=40),
                    transition="exponential", refine=False,
                )
            messages.add(str(raised.value))
            assert threading.active_count() == threads
        assert messages == {"transition 2: every candidate threshold is rank deficient"}
        # both grids of both multi-worker fits, each on at most two threads
        assert started == [2, 2, 2, 2]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_first_error_in_chunk_order_wins_and_pending_chunks_are_cancelled(
        self, monkeypatch, workers
    ):
        monkeypatch.setattr(regimes, "_WORKERS", workers)
        scored = []

        def score(start, stop):
            scored.append(start)
            if start in (20, 40):
                raise NoFeasibleThreshold(f"chunk at {start}")
            time.sleep(0.02)
            return np.full(stop - start, 1.0)

        threads = threading.active_count()
        with pytest.raises(NoFeasibleThreshold, match="^chunk at 20$"):
            regimes._first_min(1000, score, 10)
        assert threading.active_count() == threads
        # the chunks still pending at the error never run
        if workers == 1:
            assert scored == [0, 10, 20]
        assert len(scored) < 100

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_ties_keep_the_first_index_across_chunks(self, monkeypatch, workers):
        monkeypatch.setattr(regimes, "_WORKERS", workers)
        rss = np.full(1000, 5.0)
        rss[[37, 38, 512, 999]] = 1.0
        rss[[3, 700]] = np.inf
        assert regimes._first_min(1000, lambda a, b: rss[a:b], 7) == (37, 1.0)
        with pytest.raises(NoFeasibleThreshold):
            regimes._first_min(1000, lambda a, b: np.full(b - a, np.inf), 7)


class TestWorkerCount:
    """Grid threads fill the CPUs that OpenBLAS's own threads leave idle."""

    @pytest.mark.parametrize(
        "environ, workers_on_1_2_4_cpus",
        [
            # unset or not a positive integer: OpenBLAS takes every CPU
            ({}, (1, 1, 1)),
            ({"OPENBLAS_NUM_THREADS": "1"}, (1, 2, 4)),
            ({"OPENBLAS_NUM_THREADS": "2"}, (1, 1, 2)),
            ({"OPENBLAS_NUM_THREADS": ""}, (1, 1, 1)),
            ({"OPENBLAS_NUM_THREADS": "abc"}, (1, 1, 1)),
            ({"OPENBLAS_NUM_THREADS": "0"}, (1, 1, 1)),
            ({"OMP_NUM_THREADS": "1"}, (1, 2, 4)),
            ({"OMP_NUM_THREADS": "2"}, (1, 1, 2)),
            ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, (1, 1, 2)),
            ({"OPENBLAS_NUM_THREADS": "abc", "OMP_NUM_THREADS": "1"}, (1, 2, 4)),
        ],
    )
    def test_rule(self, environ, workers_on_1_2_4_cpus):
        got = tuple(regimes._worker_count(environ, cpus) for cpus in (1, 2, 4))
        assert got == workers_on_1_2_4_cpus

    def test_rule_never_exceeds_cpus(self):
        for cpus in range(1, 9):
            for value in ("1", "2", "3", "16", "-1", "1.5"):
                assert 1 <= regimes._worker_count({"OPENBLAS_NUM_THREADS": value}, cpus) <= cpus


@pytest.mark.parametrize("min_fraction", [float("nan"), float("inf"), -0.1])
@pytest.mark.parametrize("fit", [fit_setar, fit_lstar])
def test_min_fraction_must_be_finite_and_non_negative(ar1_model, fit, min_fraction):
    x = simulate(ar1_model, 100, 0.1, seed=0)
    with pytest.raises(ValueError, match="min_fraction"):
        fit(x, 1, min_fraction=min_fraction)


class TestOneStepFitted:
    def test_zero_coefficient_ar_predicts_intercept(self):
        m = make_regime_model("ar", [[0.7, 0.0]])
        fitted, resid = one_step_fitted(m, np.array([1.0, 2.0, 3.0, 4.0]))
        assert np.all(fitted == 0.7)
        assert resid.tolist() == [1.3, 2.3, 3.3]

    def test_setar_self_consistency_bitwise(self, setar_generator):
        x = simulate(setar_generator, 400, 0.1, seed=21)
        m = fit_setar(x, 1, 2, ThresholdVariable(LAGGED_VALUE, 1))
        fitted, resid = one_step_fitted(m, x)
        assert np.array_equal(fitted, m.fitted)
        assert np.array_equal(resid, m.residuals)

    def test_sharp_lstar_approaches_setar(self, setar_generator):
        x = simulate(setar_generator, 300, 0.1, seed=17)
        setar = make_regime_model(
            "setar", [[0.5, 0.5], [-0.5, -0.5]], thresholds=[0.0],
            tv=ThresholdVariable(LAGGED_VALUE, 1),
        )
        lstar = make_regime_model(
            "lstar", [[0.5, 0.5], [-1.0, -1.0]], thresholds=[0.0],
            transitions=[TransitionSpec("logistic", 200.0, 0.0)],
            tv=ThresholdVariable(LAGGED_VALUE, 1),
        )
        f_setar, _ = one_step_fitted(setar, x)
        f_lstar, _ = one_step_fitted(lstar, x)
        away = np.abs(x[:-1] - 0.0) > 0.05
        assert np.max(np.abs(f_setar[away] - f_lstar[away])) < 1e-2


class TestSimulate:
    def test_zero_model_zero_noise_is_all_zeros(self):
        m = make_regime_model("ar", [[0.0, 0.0]])
        assert np.all(simulate(m, 50, 0.0, seed=0) == 0.0)

    def test_explosive_path_raises(self):
        m = make_regime_model("ar", [[0.0, 1.5]])
        with pytest.raises(ExplosivePath):
            simulate(m, 500, 1.0, seed=0)

    def test_same_seed_identical(self, setar_generator):
        a = simulate(setar_generator, 200, 0.1, seed=33)
        b = simulate(setar_generator, 200, 0.1, seed=33)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self, setar_generator):
        a = simulate(setar_generator, 200, 0.1, seed=1)
        b = simulate(setar_generator, 200, 0.1, seed=2)
        assert not np.array_equal(a, b)

    def test_negative_burn_in_is_rejected(self):
        m = make_regime_model("ar", [[0.0, 0.5]])
        with pytest.raises(ValueError, match="burn_in"):
            simulate(m, 10, 0.0, burn_in=-5)

    def test_delay_above_the_order_raises_in_simulate_as_in_one_step(self):
        # a SETAR(0) switching on x_{t-1} reads a lag the model does not have
        m = make_regime_model(
            "setar", [[0.5], [-0.5]], thresholds=[0.0], tv=ThresholdVariable(LAGGED_VALUE, 1)
        )
        with pytest.raises(ValueError, match="^delay 1 exceeds order 0$"):
            simulate(m, 10, 0.1, seed=0)
        with pytest.raises(ValueError, match="^delay 1 exceeds order 0$"):
            m.one_step(np.arange(10.0))


class TestThresholdVariable:
    @pytest.mark.parametrize("delay, order", [(1, 1), (2, 3), (3, 3)])
    def test_a_lagged_value_reads_x_t_minus_delay(self, delay, order):
        x = np.arange(1.0, 11.0)  # x_t = t
        z = ThresholdVariable(LAGGED_VALUE, delay).values(x, order)
        # the design rows respond at t = order + 1..n
        assert z.tolist() == [t - delay for t in range(order + 1, 11)]

    def test_time_is_the_response_index_at_any_order(self):
        tv = ThresholdVariable(TIME, 5)
        tv.check_order(0)
        assert tv.values(np.zeros(6), 2).tolist() == [3.0, 4.0, 5.0, 6.0]

    @pytest.mark.parametrize("delay, order", [(1, 0), (2, 1), (4, 3)])
    def test_a_delay_above_the_order_is_rejected(self, delay, order):
        tv = ThresholdVariable(LAGGED_VALUE, delay)
        message = f"^delay {delay} exceeds order {order}$"
        with pytest.raises(ValueError, match=message):
            tv.check_order(order)
        with pytest.raises(ValueError, match=message):
            tv.values(np.zeros(10), order)
        with pytest.raises(ValueError, match=message):
            fit_setar(np.random.default_rng(0).normal(size=100), order, 2, tv)


class TestRefinedTransitionOrder:
    """fit_lstar's one permutation of the refined vector, with nls_fit stubbed.

    With order 1 the vector is base 0-1, blocks 2-3 and 4-5, gammas 6-7 and
    cs 8-9.  The stub's standard errors are the positions 0..9, so each
    reported error names the refined entry it belongs to.
    """

    @staticmethod
    def _fit(monkeypatch, refine):
        def fake_nls(residual, theta0, bounds):
            theta = refine(theta0)
            return NlsFit(theta, np.arange(len(theta), dtype=float), 0.0, True, 1)

        x = simulate(make_regime_model("ar", [[0.01, 0.9]]), 200, 0.05, seed=4)
        monkeypatch.setattr(regimes, "nls_fit", fake_nls)
        return x, fit_lstar(x, 1, 2, gamma_grid=GammaGrid(points=8))

    # one of the two leaves the thresholds in decreasing order
    @pytest.mark.parametrize("moved", [list(range(10)), [0, 1, 2, 3, 4, 5, 6, 7, 9, 8]])
    def test_transitions_are_reported_in_increasing_c(self, monkeypatch, moved):
        refined = {}

        def refine(theta0):
            refined["theta"] = theta0[moved] + 0.001
            return refined["theta"]

        _, model = self._fit(monkeypatch, refine)
        theta = refined["theta"]
        first, second = np.argsort(theta[8:], kind="stable")
        positions = [
            0, 1, 2 + 2 * first, 3 + 2 * first, 2 + 2 * second, 3 + 2 * second,
            6 + first, 6 + second, 8 + first, 8 + second,
        ]
        reported = [*model.regimes, [t.gamma for t in model.transitions], model.thresholds]
        assert np.concatenate(reported).tolist() == theta[positions].tolist()
        assert model.standard_errors.tolist() == positions
        assert [t.c for t in model.transitions] == model.thresholds.tolist()
        assert model.thresholds[0] < model.thresholds[1]
        assert model.converged

    def test_collapsed_thresholds_keep_the_grid_solution(self, monkeypatch):
        def collapse(theta0):
            theta = theta0 + 0.001
            theta[9] = theta[8]
            return theta

        x, model = self._fit(monkeypatch, collapse)
        grid = fit_lstar(x, 1, 2, gamma_grid=GammaGrid(points=8), refine=False)
        assert not model.converged
        assert model.standard_errors is None
        assert model.to_dict() == grid.to_dict()
