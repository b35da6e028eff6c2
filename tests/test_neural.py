import json
import os
import subprocess
import sys

import numpy as np
import pytest

import regimevol
from regimevol import (
    DimensionMismatch,
    NnetArModel,
    NonFiniteLoss,
    TrainConfig,
    forward,
    gradient,
    simulate,
    train_nnet_ar,
)
from regimevol import neural
from regimevol.neural import predict
from regimevol.regimes import _masked_logistic
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
        assert g[0] == pytest.approx(-resid.sum(), rel=1e-12, abs=0)

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
        # a descent cut after k steps is the first k steps of a longer one
        gen = make_regime_model("ar", [[0.0, 0.5]])
        x = simulate(gen, 120, 0.1, seed=2)
        inputs, targets = neural._lag_inputs(x, 1)
        theta0 = np.random.default_rng(0).uniform(-0.5, 0.5, (1, 7))
        losses = [
            neural._lockstep_descent(theta0, 1, 2, False, inputs, targets, k, 1e-8)[1][0]
            for k in range(0, 60)
        ]
        assert all(a >= b for a, b in zip(losses, losses[1:]))
        assert losses[-1] < losses[0]

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


# Gradient descent one restart at a time, with BLAS products: the oracle for
# ``_lockstep_descent``.
def _reference_forward(theta, m, d, skip, lag_matrix):
    bias, output_weights, hidden_biases, hidden_weights, skip_weights = neural._unpack(
        theta, m, d, skip
    )
    activations = _masked_logistic(hidden_biases + lag_matrix @ hidden_weights)
    out = bias + activations @ output_weights
    if skip:
        out = out + lag_matrix @ skip_weights
    return activations, out


def _reference_gradient(theta, m, d, skip, lag_matrix, targets, state):
    activations, out = state
    resid = targets - out
    output_weights = neural._unpack(theta, m, d, skip)[1]
    back = -(resid[:, None] * output_weights[None, :]) * activations * (1.0 - activations)
    skip_part = -(resid @ lag_matrix) if skip else None
    parts = (-resid.sum(), -(resid @ activations), back.sum(axis=0), lag_matrix.T @ back, skip_part)
    return neural._pack(parts, m, d, skip)


def _reference_half_rss(theta, m, d, skip, lag_matrix, targets):
    state = _reference_forward(theta, m, d, skip, lag_matrix)
    resid = targets - state[1]
    return 0.5 * float(resid @ resid), state


def _reference_descend(theta, m, d, skip, lag_matrix, targets, max_iters, tol):
    """(theta, half RSS, iterations, converged), or None for a non-finite initial loss."""
    loss, state = _reference_half_rss(theta, m, d, skip, lag_matrix, targets)
    if not np.isfinite(loss):
        return None
    step = 1.0
    iterations = 0
    for iterations in range(1, max_iters + 1):
        grad = _reference_gradient(theta, m, d, skip, lag_matrix, targets, state)
        gnorm2 = float(grad @ grad)
        if gnorm2 == 0.0:
            return theta, loss, iterations, True
        alpha = step
        while alpha >= neural._MIN_STEP:
            candidate = theta - alpha * grad
            cand_loss, cand_state = _reference_half_rss(candidate, m, d, skip, lag_matrix, targets)
            if np.isfinite(cand_loss) and cand_loss <= loss - neural._ARMIJO * alpha * gnorm2:
                break
            alpha *= 0.5
        else:
            return theta, loss, iterations, True
        relative_drop = (loss - cand_loss) / max(loss, 1e-300)
        theta, loss, state = candidate, cand_loss, cand_state
        step = min(alpha * 2.0, 1e6)
        if relative_drop < tol:
            return theta, loss, iterations, True
    return theta, loss, iterations, False


def _initial_weights(cfg, m, d):
    n_weights = neural._n_weights(m, d, cfg.skip)
    return np.stack([
        np.random.default_rng([cfg.seed, r]).uniform(-neural._INIT_SCALE, neural._INIT_SCALE, n_weights)
        for r in range(cfg.restarts)
    ])


def _standardized(x):
    return (x - x.mean()) / x.std()


class TestLockstepOracle:
    """The lockstep trainer against the one-restart-at-a-time descent."""

    def _compare(self, x, m, d, cfg, theta0=None):
        inputs, targets = neural._lag_inputs(_standardized(x) if cfg.standardize else x, m)
        theta0 = _initial_weights(cfg, m, d) if theta0 is None else theta0
        got = neural._lockstep_descent(
            theta0, m, d, cfg.skip, inputs, targets, cfg.max_iters, cfg.tol
        )
        lag_matrix = np.ascontiguousarray(inputs[1:].T)
        want = [
            _reference_descend(t, m, d, cfg.skip, lag_matrix, targets, cfg.max_iters, cfg.tol)
            for t in theta0
        ]
        for k, ref in enumerate(want):
            if ref is None:
                assert np.isnan(got[1][k])
                continue
            theta, loss, iterations, converged = ref
            assert got[2][k] == iterations
            assert got[3][k] == converged
            assert abs(got[1][k] - loss) <= 1e-12 * loss
            assert np.max(np.abs(got[0][k] - theta)) <= 1e-9 * np.max(np.abs(theta))
        return want

    def test_every_restart_runs_to_max_iters(self):
        gen = make_regime_model("ar", [[0.02, 0.6]])
        x = simulate(gen, 300, 0.1, seed=11)
        cfg = TrainConfig(restarts=6, max_iters=300, seed=4)
        want = self._compare(x, 1, 2, cfg)
        assert [ref[2:] for ref in want] == [(300, False)] * 6
        fit = train_nnet_ar(x, 1, 2, cfg)
        assert fit.restart_index == int(np.argmin([ref[1] for ref in want]))
        assert (fit.iterations, fit.converged) == (300, False)

    def test_restarts_stop_at_different_iterations(self):
        gen = make_regime_model("ar", [[0.1, 0.5, 0.2]])
        x = simulate(gen, 250, 0.2, seed=3)
        cfg = TrainConfig(restarts=8, max_iters=400, seed=2, skip=True, tol=1e-6)
        want = self._compare(x, 2, 3, cfg)
        stopped = [ref[2] for ref in want]
        assert len(set(stopped)) > 3 and max(stopped) < 400
        winner = int(np.argmin([ref[1] for ref in want]))
        fit = train_nnet_ar(x, 2, 3, cfg)
        assert (fit.restart_index, fit.iterations, fit.converged) == (
            winner, want[winner][2], want[winner][3]
        )

    def test_a_restart_with_a_non_finite_loss_is_dropped(self):
        gen = make_regime_model("ar", [[0.02, 0.6]])
        x = simulate(gen, 200, 0.1, seed=8)
        cfg = TrainConfig(restarts=4, max_iters=200, seed=1)
        theta0 = _initial_weights(cfg, 1, 2)
        theta0[2, 1:3] = 1e200  # output weights whose squared residuals overflow
        with np.errstate(over="ignore"):
            want = self._compare(x, 1, 2, cfg, theta0)
        assert want[2] is None
        assert all(ref is not None for k, ref in enumerate(want) if k != 2)

    def test_a_restart_out_of_acceptable_steps_stops(self, monkeypatch):
        # with no step under 0.01 allowed, restarts stop when every allowed one fails
        monkeypatch.setattr(neural, "_MIN_STEP", 0.01)
        gen = make_regime_model("ar", [[0.02, 0.6]])
        x = simulate(gen, 200, 0.1, seed=0)
        want = self._compare(x, 1, 2, TrainConfig(restarts=6, max_iters=300, seed=2))
        assert any(ref[3] and ref[2] < 300 for ref in want)

    def test_a_zero_gradient_stops_a_restart(self):
        cfg = TrainConfig(restarts=3, max_iters=5, seed=1, standardize=False)
        theta0 = _initial_weights(cfg, 1, 2)
        theta0[0] = 0.0  # fits the all-zero series exactly
        want = self._compare(np.zeros(40), 1, 2, cfg, theta0)
        assert want[0][2:] == (1, True)

    def test_every_restart_dropped_raises(self):
        x = np.full(60, 1e200) * np.linspace(1.0, 2.0, 60)
        with pytest.raises(NonFiniteLoss, match="every restart"):
            train_nnet_ar(x, 1, 2, TrainConfig(restarts=3, standardize=False))


class TestRestartIndependence:
    """A restart's bits do not depend on the batch it descends in."""

    @pytest.mark.parametrize("m, d, skip", [(1, 2, False), (2, 3, True)])
    def test_batch_of_1_4_and_20(self, m, d, skip):
        gen = make_regime_model("ar", [[0.02, 0.6]])
        x = _standardized(simulate(gen, 200, 0.1, seed=6))
        inputs, targets = neural._lag_inputs(x, m)
        theta0 = _initial_weights(TrainConfig(restarts=20, seed=5, skip=skip), m, d)
        runs = {
            size: neural._lockstep_descent(theta0[:size], m, d, skip, inputs, targets, 150, 1e-8)
            for size in (1, 4, 20)
        }
        for k in range(4):
            alone = neural._lockstep_descent(theta0[k : k + 1], m, d, skip, inputs, targets, 150, 1e-8)
            for size in (4, 20):
                assert np.array_equal(runs[size][0][k], alone[0][0])
                assert runs[size][1][k] == alone[1][0]
                assert runs[size][2][k] == alone[2][0]
        assert np.array_equal(runs[1][0][0], runs[20][0][0])

    def test_restart_groups_give_the_single_batch_result(self, monkeypatch):
        gen = make_regime_model("ar", [[0.02, 0.6]])
        x = simulate(gen, 200, 0.1, seed=7)
        cfg = TrainConfig(restarts=7, max_iters=200, seed=3)
        whole = train_nnet_ar(x, 1, 2, cfg)
        monkeypatch.setattr(neural, "_BATCH_VALUES", 1)  # one restart per group
        alone = train_nnet_ar(x, 1, 2, cfg)
        assert np.array_equal(whole.model.to_vector(), alone.model.to_vector())
        assert (whole.restart_index, whole.iterations) == (alone.restart_index, alone.iterations)

    def test_blas_thread_count_does_not_move_a_fit(self):
        child = (
            "import json, numpy as np\n"
            "from regimevol import TrainConfig, simulate, train_nnet_ar\n"
            "from tests.conftest import make_regime_model\n"
            "x = simulate(make_regime_model('ar', [[0.1, 0.5, 0.2]]), 300, 0.2, seed=9)\n"
            "fit = train_nnet_ar(x, 2, 3, TrainConfig(restarts=6, max_iters=200, skip=True))\n"
            "print(json.dumps([fit.model.to_vector().tolist(), fit.rss, fit.restart_index]))\n"
        )
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        src = os.path.dirname(os.path.dirname(regimevol.__file__))
        path = os.pathsep.join([src, root, os.environ.get("PYTHONPATH", "")])
        fits = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
            proc = subprocess.run(
                [sys.executable, "-c", child], capture_output=True, text=True, env=env,
                cwd=root, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            fits.append(json.loads(proc.stdout.splitlines()[-1]))
        assert fits[0] == fits[1]
