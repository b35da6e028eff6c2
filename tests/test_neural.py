import numpy as np
import pytest

from regimevol import (
    DimensionMismatch,
    NnetArModel,
    TrainConfig,
    forward,
    gradient,
    simulate,
    train_nnet_ar,
)
from regimevol.neural import predict
from regimevol.series import lag_design
from tests.conftest import make_regime_model


def random_model(rng, m, d, skip=False, scale=0.8):
    n_weights = (m + 1) * d + (d + 1) + (m if skip else 0)
    return NnetArModel.from_vector(m, d, rng.uniform(-scale, scale, n_weights), skip)


def fd_gradient(model, lag_matrix, targets, step=1e-6):
    theta = model.to_vector()
    skip = model.skip_weights is not None
    grad = np.empty_like(theta)

    def loss(vec):
        mod = NnetArModel.from_vector(model.n_inputs, model.n_hidden, vec, skip)
        r = targets - predict(mod, lag_matrix)
        return 0.5 * float(r @ r)

    for j in range(len(theta)):
        up, down = theta.copy(), theta.copy()
        up[j] += step
        down[j] -= step
        grad[j] = (loss(up) - loss(down)) / (2 * step)
    return grad


class TestForward:
    def test_zero_network_outputs_zero(self):
        m = NnetArModel(1, 2, 0.0, np.zeros(2), np.zeros(2), np.zeros((1, 2)))
        assert forward(m, [1.23]) == 0.0

    def test_logistic_midpoint_unit(self):
        m = NnetArModel(1, 1, 0.0, np.array([1.0]), np.array([0.0]), np.array([[1.0]]))
        assert forward(m, [0.0]) == pytest.approx(0.5)

    def test_paper_architecture_weight_count(self):
        # "1-2-1 with 7 weights": (1+1)*2 + (2+1), no skip connections
        m = NnetArModel(1, 2, 0.1, np.ones(2), np.ones(2), np.ones((1, 2)))
        assert m.n_weights == 7
        with_skip = NnetArModel(1, 2, 0.1, np.ones(2), np.ones(2), np.ones((1, 2)), np.ones(1))
        assert with_skip.n_weights == 8

    def test_dimension_mismatch(self):
        m = NnetArModel(2, 2, 0.0, np.zeros(2), np.zeros(2), np.zeros((2, 2)))
        with pytest.raises(DimensionMismatch):
            forward(m, [1.0])

    def test_round_trip_vector_packing(self):
        rng = np.random.default_rng(0)
        m = random_model(rng, 3, 4, skip=True)
        again = NnetArModel.from_vector(3, 4, m.to_vector(), skip=True)
        assert np.array_equal(m.to_vector(), again.to_vector())


class TestSymmetries:
    def test_hidden_unit_permutation(self):
        rng = np.random.default_rng(1)
        m = random_model(rng, 2, 4)
        perm = np.array([2, 0, 3, 1])
        permuted = NnetArModel(
            2, 4, m.output_bias, m.output_weights[perm], m.hidden_biases[perm],
            m.hidden_weights[:, perm],
        )
        lags = rng.normal(size=(20, 2))
        assert predict(permuted, lags) == pytest.approx(predict(m, lags), abs=1e-14)

    def test_logistic_sign_symmetry(self):
        # g(-x) = 1 - g(x): negate unit j's input weights, flip beta_j, add it to the bias
        rng = np.random.default_rng(2)
        m = random_model(rng, 2, 3)
        j = 1
        ow = m.output_weights.copy()
        hb = m.hidden_biases.copy()
        hw = m.hidden_weights.copy()
        bias = m.output_bias + ow[j]
        hb[j] = -hb[j]
        hw[:, j] = -hw[:, j]
        ow[j] = -ow[j]
        mirrored = NnetArModel(2, 3, bias, ow, hb, hw)
        lags = rng.normal(size=(25, 2))
        assert predict(mirrored, lags) == pytest.approx(predict(m, lags), abs=1e-14)


class TestGradient:
    def test_zero_residuals_zero_gradient(self):
        rng = np.random.default_rng(3)
        m = random_model(rng, 1, 2)
        lags = rng.normal(size=(15, 1))
        targets = predict(m, lags)
        g = gradient(m, lags, targets)
        assert np.max(np.abs(g)) < 1e-12

    def test_bias_gradient_is_negative_residual_sum(self):
        rng = np.random.default_rng(4)
        m = random_model(rng, 2, 3)
        lags = rng.normal(size=(30, 2))
        targets = rng.normal(size=30)
        resid = targets - predict(m, lags)
        g = gradient(m, lags, targets)
        assert g[0] == pytest.approx(-resid.sum(), rel=1e-12)

    @pytest.mark.parametrize("config", [(1, 1, False), (2, 3, False), (3, 4, True), (1, 2, True)])
    def test_matches_finite_differences(self, config):
        m_in, d, skip = config
        rng = np.random.default_rng(hash(config) % 2**32)
        model = random_model(rng, m_in, d, skip)
        lags = rng.normal(size=(40, m_in))
        targets = rng.normal(size=40)
        analytic = gradient(model, lags, targets)
        numeric = fd_gradient(model, lags, targets)
        assert np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric) < 1e-6


class TestTraining:
    def test_constant_target_fits_exactly(self):
        res = train_nnet_ar(np.full(80, 0.37), 1, 2, TrainConfig(restarts=3, seed=0))
        assert res.rss < 1e-10

    @pytest.mark.parametrize(
        "m, d, fragment", [(0, 2, "m, the number of lagged inputs"), (1, 0, "d, the number of hidden units")]
    )
    def test_network_needs_an_input_and_a_hidden_unit(self, m, d, fragment):
        with pytest.raises(ValueError, match=fragment):
            train_nnet_ar(np.linspace(0.0, 1.0, 80), m, d, TrainConfig(restarts=1))

    def test_close_to_linear_fit_on_ar_data(self):
        from regimevol import fit_ar

        gen = make_regime_model("ar", [[0.02, 0.6]])
        wins = 0
        for seed in range(20):
            x = simulate(gen, 250, 0.1, seed=seed)
            ar = fit_ar(x, 1)
            res = train_nnet_ar(x, 1, 2, TrainConfig(restarts=2, max_iters=2000, seed=seed))
            wins += res.rss <= 1.05 * ar.rss
        assert wins >= 18

    def test_bitwise_determinism(self):
        gen = make_regime_model("ar", [[0.02, 0.6]])
        x = simulate(gen, 150, 0.1, seed=5)
        cfg = TrainConfig(restarts=3, max_iters=300, seed=9)
        a = train_nnet_ar(x, 1, 2, cfg)
        b = train_nnet_ar(x, 1, 2, cfg)
        assert np.array_equal(a.model.to_vector(), b.model.to_vector())
        assert a.rss == b.rss
        assert a.restart_index == b.restart_index

    def test_loss_never_increases_along_accepted_steps(self):
        from regimevol.neural import _descend

        gen = make_regime_model("ar", [[0.0, 0.5]])
        x = simulate(gen, 120, 0.1, seed=2)
        design, targets = lag_design(x, 1)
        lags = design[:, 1:]
        rng = np.random.default_rng(0)
        trace: list = []
        _descend(rng.uniform(-0.5, 0.5, 7), 1, 2, False, lags, targets, 200, 1e-8, trace=trace)
        assert len(trace) >= 2
        assert all(a >= b for a, b in zip(trace, trace[1:]))

    def test_standardize_flag_round_trips_weights(self):
        gen = make_regime_model("ar", [[5.0, 0.3]])  # large level
        x = simulate(gen, 200, 0.5, seed=3)
        raw = train_nnet_ar(x, 1, 2, TrainConfig(restarts=2, max_iters=800, seed=1, standardize=False))
        std = train_nnet_ar(x, 1, 2, TrainConfig(restarts=2, max_iters=800, seed=1, standardize=True))
        # destandardized weights must predict in raw units
        fitted, _ = std.model.one_step(x)
        assert np.all(np.isfinite(fitted))
        assert std.rss <= raw.rss * 1.5  # standardization should not hurt badly

    def test_training_standardizes_by_default(self):
        gen = make_regime_model("ar", [[0.004, 0.6]])  # the scale of daily volatility
        x = simulate(gen, 200, 0.002, seed=4)
        default = train_nnet_ar(x, 1, 2, TrainConfig(restarts=2))
        explicit = train_nnet_ar(x, 1, 2, TrainConfig(restarts=2, standardize=True))
        assert np.array_equal(default.model.to_vector(), explicit.model.to_vector())
        assert default.rss == explicit.rss
        assert default.restart_index == explicit.restart_index
