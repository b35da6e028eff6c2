import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import betainc, gammaln

from regimevol import (
    InvalidDf,
    NoConvergence,
    NonFiniteResidual,
    RankDeficient,
    SingularJacobian,
    f_test,
    nls_fit,
    ols_fit,
    t_pvalue,
)
from regimevol import regression
from regimevol.regression import _betainc, f_sf


def normal_equations_oracle(design, response):
    """Brute-force (X'X)^-1 X'y with textbook standard errors."""
    xtx_inv = np.linalg.inv(design.T @ design)
    beta = xtx_inv @ design.T @ response
    resid = response - design @ beta
    sigma2 = resid @ resid / (len(response) - design.shape[1])
    return beta, np.sqrt(np.diag(sigma2 * xtx_inv))


class TestOlsFit:
    def test_exact_fit(self):
        x = np.arange(1.0, 7.0)
        design = np.column_stack([np.ones(6), x])
        fit = ols_fit(design, 2.0 * x)
        assert fit.coefficients == pytest.approx([0.0, 2.0], abs=1e-12)
        assert fit.rss == pytest.approx(0.0, abs=1e-20)

    def test_symbolic_normal_equations(self):
        design = np.column_stack([np.ones(3), [0.0, 1.0, 2.0]])
        fit = ols_fit(design, np.array([0.0, 1.0, 3.0]))
        assert fit.coefficients == pytest.approx([-1.0 / 6.0, 3.0 / 2.0], abs=1e-12)

    def test_intercept_only_is_mean(self):
        fit = ols_fit(np.ones((3, 1)), np.array([1.0, 2.0, 3.0]))
        assert fit.coefficients == pytest.approx([2.0])

    def test_rank_deficient_raises(self):
        x = np.arange(10.0)
        design = np.column_stack([np.ones(10), x, 2.0 * x])
        with pytest.raises(RankDeficient):
            ols_fit(design, x)

    def test_rss_and_orthogonality_invariants(self):
        rng = np.random.default_rng(0)
        design = np.column_stack([np.ones(40), rng.normal(size=(40, 3))])
        response = rng.normal(size=40)
        fit = ols_fit(design, response)
        assert fit.rss == pytest.approx(float(fit.residuals @ fit.residuals), rel=1e-14, abs=0)
        scale = np.linalg.norm(design, axis=0) * np.linalg.norm(fit.residuals)
        assert np.all(np.abs(design.T @ fit.residuals) < 1e-8 * scale)

    def test_matches_normal_equations_on_random_designs(self):
        # 100 seeded well-conditioned problems
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(10, 51))
            k = int(rng.integers(1, 6))
            design = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))]) if k > 1 else np.ones((n, 1))
            response = rng.normal(size=n)
            fit = ols_fit(design, response)
            beta, se = normal_equations_oracle(design, response)
            assert fit.coefficients == pytest.approx(beta, rel=1e-8, abs=1e-10)
            assert fit.standard_errors == pytest.approx(se, rel=1e-8, abs=1e-10)

    def test_badly_scaled_cubic_time_columns(self):
        # the linearity tests regress on t, t^2, t^3 with t up to 440
        t = np.arange(1.0, 441.0)
        rng = np.random.default_rng(3)
        design = np.column_stack([np.ones(440), t, t**2, t**3])
        truth = np.array([0.5, 1e-3, -2e-6, 3e-9])
        response = design @ truth + rng.normal(0, 0.01, 440)
        fit = ols_fit(design, response)
        beta, se = normal_equations_oracle(design, response)
        assert fit.coefficients == pytest.approx(beta, rel=1e-6, abs=0)
        assert fit.standard_errors == pytest.approx(se, rel=1e-6, abs=0)


def f_density(x, d1, d2):
    log_pdf = (
        0.5 * d1 * np.log(d1) + 0.5 * d2 * np.log(d2)
        + (0.5 * d1 - 1.0) * np.log(x)
        - 0.5 * (d1 + d2) * np.log(d2 + d1 * x)
        - (gammaln(0.5 * d1) + gammaln(0.5 * d2) - gammaln(0.5 * (d1 + d2)))
    )
    return np.exp(log_pdf)


def t_density(x, df):
    log_pdf = (
        gammaln(0.5 * (df + 1)) - gammaln(0.5 * df)
        - 0.5 * np.log(df * np.pi)
        - 0.5 * (df + 1) * np.log1p(x * x / df)
    )
    return np.exp(log_pdf)


class TestTailProbabilities:
    def test_no_improvement_gives_unit_pvalue(self):
        ft = f_test(1.0, 1.0, 1, 10)
        assert ft.statistic == 0.0
        assert ft.p_value == 1.0

    def test_f_example_against_quadrature(self):
        ft = f_test(2.0, 1.0, 1, 10)
        assert ft.statistic == pytest.approx(10.0)
        tail, _ = integrate.quad(f_density, 10.0, np.inf, args=(1, 10))
        assert ft.p_value == pytest.approx(tail, abs=1e-10)
        assert ft.p_value == pytest.approx(0.0101, abs=2e-4)

    def test_paper_rejection_case(self):
        # F = 5.14 on (3, 434) rejects at 5%
        ft = f_test(1.0 + 5.14 * 3.0 / 434.0, 1.0, 3, 434)
        assert ft.statistic == pytest.approx(5.14, rel=1e-12, abs=0)
        assert ft.p_value < 0.05

    def test_f_pvalue_monotone_in_statistic(self):
        ps = [f_test(1.0 + f * 2.0 / 50.0, 1.0, 2, 50).p_value for f in np.linspace(0.0, 30.0, 40)]
        assert all(a >= b for a, b in zip(ps, ps[1:]))

    def test_invalid_df(self):
        with pytest.raises(InvalidDf):
            f_test(2.0, 1.0, 0, 10)
        with pytest.raises(InvalidDf):
            f_test(2.0, 1.0, 1, 0)
        with pytest.raises(InvalidDf):
            t_pvalue(1.0, 0)

    def test_t_center_and_cauchy_quartile(self):
        assert t_pvalue(0.0, 7) == pytest.approx(1.0)
        assert t_pvalue(1.0, 1) == pytest.approx(0.5, abs=1e-12)

    def test_t_example_against_quadrature(self):
        p = t_pvalue(2.878, 434)
        tail, _ = integrate.quad(t_density, 2.878, np.inf, args=(434,))
        assert p == pytest.approx(2.0 * tail, abs=1e-10)
        assert p == pytest.approx(0.0042, abs=1e-4)  # cross-checks the reported 0.00412

    def test_densities_integrate_to_one(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            d1, d2 = int(rng.integers(1, 20)), int(rng.integers(2, 300))
            total, _ = integrate.quad(f_density, 0, np.inf, args=(d1, d2), limit=200)
            assert total == pytest.approx(1.0, abs=1e-10)
            df = int(rng.integers(1, 300))
            total, _ = integrate.quad(t_density, -np.inf, np.inf, args=(df,), limit=200)
            assert total == pytest.approx(1.0, abs=1e-10)


class TestIncompleteBeta:
    """``_betainc`` behind f_sf and t_pvalue, against closed forms and scipy."""

    @pytest.mark.parametrize(
        "statistic, f_p, t_p",
        [(math.nan, math.nan, math.nan), (math.inf, 0.0, 0.0), (-math.inf, 1.0, 0.0), (0.0, 1.0, 1.0)],
    )
    def test_special_statistics(self, statistic, f_p, t_p):
        for got, want in ((f_sf(statistic, 3, 40), f_p), (t_pvalue(statistic, 40), t_p)):
            assert got == want or (math.isnan(got) and math.isnan(want))

    def test_nan_test_statistic_is_not_significant(self):
        # a 0/0 t statistic must not read as p = 0
        assert math.isnan(regression.t_test(math.nan, 30).p_value)
        assert math.isnan(f_test(math.nan, 1.0, 2, 30).p_value)

    def test_nan_skips_the_fraction_and_an_unconverged_fraction_raises(self, monkeypatch):
        monkeypatch.setattr(regression, "_BETA_TERMS", 0)
        for args in ((math.nan, 1.0, 0.5, 0.5), (1.0, math.nan, 0.5, 0.5), (1.0, 1.0, math.nan, math.nan)):
            assert math.isnan(_betainc(*args))
        with pytest.raises(NoConvergence, match="did not converge"):
            f_sf(1.5, 4, 5000)

    @pytest.mark.parametrize("t", [1e-8, 1e-6, 1e-3, 0.03, 0.3, 1.0, 2.5, 17.0, 1e3, 1e6])
    def test_t_closed_forms(self, t):
        # df = 1: 1 - (2/pi) atan|t|; df = 2: 1 - |t| / sqrt(2 + t^2), written
        # without cancellation.  Near p = 1 the tail, about sqrt(1 - x), would
        # turn the 1e-16 absolute error of a float 1.0 - x into about
        # 1e-16 / |t|; t_pvalue passes 1 - x as t^2 / (df + t^2) instead
        root = math.sqrt(2.0 + t * t)
        for sign in (1.0, -1.0):
            assert t_pvalue(sign * t, 1) == pytest.approx(2.0 / math.pi * math.atan(1.0 / t), rel=1e-13, abs=0)
            assert t_pvalue(sign * t, 2) == pytest.approx(2.0 / (root * (root + t)), rel=1e-13, abs=0)

    @pytest.mark.parametrize("d", [1, 2, 7, 30, 150])
    @pytest.mark.parametrize("f", [1e-8, 1e-5, 1e-2, 0.7, 3.0, 40.0, 1e3])
    def test_f2_closed_form(self, f, d):
        # (1 + 2F/d)^(-d/2) = x^(d/2) with x = d / (d + 2F): the rounding of x
        # itself moves it by about d/2 ulps, so d stays small for 1e-13
        assert f_sf(f, 2, d) == pytest.approx(math.exp(-0.5 * d * math.log1p(2.0 * f / d)), rel=1e-13, abs=0)

    def test_t_at_large_df_just_below_the_switch(self):
        # a = df/2 = 4478.5 multiplies ln x; x = 0.9996 is taken from 1 - x = 4.0e-4.
        # The reference is mpmath.betainc(df/2, 1/2, 0, df/(df + t^2)) at 60
        # digits, t the double nearest 1.9
        exact = 0.057465203234313738256796693770037948522746422262889
        assert abs(t_pvalue(1.900, 8957) - exact) <= 1e-13 * exact

    def test_t_at_df_9358_just_below_the_switch(self):
        # x = 0.99968 with a = 4679: the a * ln x prefactor, taken from 1 - x,
        # was 1.4e-12 off before it was.  The reference is
        # mpmath.betainc(df/2, 1/2, 0, df/(df + t^2)) at 50 digits, t the double
        # nearest 10**0.24
        exact = 0.08227881067342223369642204
        assert t_pvalue(10**0.24, 9358) == pytest.approx(exact, rel=1e-13, abs=0)

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(
        df=st.integers(1, 10_000),
        q=st.integers(1, 20),
        log10_statistic=st.floats(-8.0, 4.0),
    )
    def test_matches_scipy(self, df, q, log10_statistic):
        statistic = 10.0**log10_statistic
        scaled, square = q * statistic, statistic * statistic
        cases = (
            (f_sf(statistic, q, df), df / 2.0, q / 2.0, df, scaled),
            (t_pvalue(statistic, df), df / 2.0, 0.5, df, square),
        )
        for got, a, b, df_part, stat_part in cases:
            x = df_part / (df_part + stat_part)
            reference = betainc(a, b, x)
            if x > 0.5 and reference > 1e-3:
                # near x = 1 the rounded x loses 1 - x, which the p-values
                # keep; I_x(a, b) = 1 - I_{1-x}(b, a) gives scipy it too
                reference = 1.0 - betainc(b, a, stat_part / (df_part + stat_part))
            if reference > 1e-300:
                assert abs(got - reference) <= 1e-12 * reference, (got, reference)


class TestNlsFit:
    def test_linear_model_matches_ols(self):
        rng = np.random.default_rng(4)
        design = np.column_stack([np.ones(30), rng.normal(size=30)])
        response = design @ np.array([0.4, -1.2]) + rng.normal(0, 0.1, 30)
        ols = ols_fit(design, response)
        fit = nls_fit(lambda th: response - design @ th, [0.0, 0.0])
        assert fit.coefficients == pytest.approx(ols.coefficients, abs=1e-8)

    def test_exponential_decay_recovery(self):
        t = np.linspace(0.0, 8.0, 60)
        y = 2.0 * np.exp(-0.5 * t)
        fit = nls_fit(lambda th: y - th[0] * np.exp(th[1] * t), [1.0, -1.0])
        assert fit.converged
        assert fit.coefficients == pytest.approx([2.0, -0.5], abs=1e-6)

    def test_start_at_optimum_stops_immediately(self):
        t = np.linspace(0.0, 8.0, 60)
        y = 2.0 * np.exp(-0.5 * t)
        fit = nls_fit(lambda th: y - th[0] * np.exp(th[1] * t), [2.0, -0.5])
        assert fit.converged
        assert fit.iterations <= 2
        assert fit.coefficients == pytest.approx([2.0, -0.5], abs=1e-12)

    def test_rss_never_increases_across_accepted_steps(self):
        t = np.linspace(0.0, 5.0, 50)
        y = 1.5 * np.exp(-0.8 * t) + np.random.default_rng(9).normal(0, 0.02, 50)
        trace: list = []
        fit = nls_fit(lambda th: y - th[0] * np.exp(th[1] * t), [0.5, -2.0], trace=trace)
        assert len(trace) >= 2
        assert all(a >= b for a, b in zip(trace, trace[1:]))
        assert trace[-1] == pytest.approx(fit.rss, rel=1e-12, abs=0)

    def test_non_finite_residual_raises(self):
        with pytest.raises(NonFiniteResidual):
            nls_fit(lambda th: np.array([np.nan, 1.0, 2.0]), [1.0])

    def test_bounds_are_respected(self):
        t = np.linspace(0.0, 5.0, 40)
        y = 2.0 * np.exp(-3.0 * t)
        lower = np.array([-np.inf, -1.0])
        upper = np.array([np.inf, np.inf])
        fit = nls_fit(lambda th: y - th[0] * np.exp(th[1] * t), [1.0, -0.5], bounds=(lower, upper))
        assert fit.coefficients[1] >= -1.0 - 1e-12
