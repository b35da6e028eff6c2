"""Single-hidden-layer autoregressive neural network.

The network maps the last m values of a series through D logistic hidden
units (optionally plus direct input-output connections) to a one-step-ahead
prediction.  Training is full-batch gradient descent on half the residual
sum of squares with a backtracking line search and multiple random restarts;
gradients are exact and analytic.  The restarts descend in lockstep: each
descent step makes one gradient call, and each line-search round one forward
call, for the whole batch, and boolean masks pick the rows a round updates
in place.  A restart that stops keeps its row, which is not updated again.
Memory is O(restarts x hidden units x rows) up to a cap, past which
the restarts descend in groups.  By default training runs on the
standardized series and the weights are mapped back to raw units exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng  # loaded at import, not in a caller's first run

from .errors import DimensionMismatch, NonFiniteLoss, SeriesTooShort
from .regimes import _masked_logistic
from .series import lag_design, series_values

_ARMIJO = 1e-4
_INIT_SCALE = 0.5
_MIN_STEP = 1e-18
# a line-search round tries a step and its next two halvings: on the default
# network a restart takes the first, second or third about equally often
_HALVINGS = 0.5 ** np.arange(3)
# restarts descend in groups whose line-search rounds hold at most this many
# activations (512 KiB an array), which bounds memory on long series: on 2,000
# rows, 20 restarts of nnet(1, 2) peak at 3.7 MB in groups of 5 and at 14.8 MB
# all at once (tracemalloc, first 20 iterations).  Up to ~540 rows they make
# one group
_BATCH_VALUES = 1 << 16


@dataclass(frozen=True)
class NnetArModel:
    """Weights of an m-input, D-hidden-unit, one-output network."""

    n_inputs: int
    n_hidden: int
    output_bias: float
    output_weights: np.ndarray   # (D,)
    hidden_biases: np.ndarray    # (D,)
    hidden_weights: np.ndarray   # (m, D)
    skip_weights: np.ndarray | None = None  # (m,) direct input->output

    def __post_init__(self):
        object.__setattr__(self, "output_weights", np.asarray(self.output_weights, float))
        object.__setattr__(self, "hidden_biases", np.asarray(self.hidden_biases, float))
        object.__setattr__(self, "hidden_weights", np.asarray(self.hidden_weights, float))
        if self.skip_weights is not None:
            object.__setattr__(self, "skip_weights", np.asarray(self.skip_weights, float))
        m, d = self.n_inputs, self.n_hidden
        if self.output_weights.shape != (d,) or self.hidden_biases.shape != (d,):
            raise DimensionMismatch("output weights and hidden biases must have length D")
        if self.hidden_weights.shape != (m, d):
            raise DimensionMismatch(f"hidden weights must be {m}x{d}")
        if self.skip_weights is not None and self.skip_weights.shape != (m,):
            raise DimensionMismatch("skip weights must have length m")
        if not np.all(np.isfinite(self.to_vector())):
            raise ValueError("all weights must be finite")

    @property
    def n_weights(self) -> int:
        return _n_weights(self.n_inputs, self.n_hidden, self.skip_weights is not None)

    # model-comparison interface
    @property
    def n_parameters(self) -> int:
        return self.n_weights

    @property
    def order(self) -> int:
        return self.n_inputs

    @property
    def label(self) -> str:
        return f"nnet({self.n_inputs}-{self.n_hidden}-1)"

    def to_vector(self) -> np.ndarray:
        parts = (self.output_bias, self.output_weights, self.hidden_biases,
                 self.hidden_weights, self.skip_weights)
        return _pack(parts, self.n_inputs, self.n_hidden, self.skip_weights is not None)

    @classmethod
    def from_vector(cls, n_inputs: int, n_hidden: int, vector, skip: bool = False) -> "NnetArModel":
        vector = np.asarray(vector, dtype=float)
        expected = _n_weights(n_inputs, n_hidden, skip)
        if vector.shape != (expected,):
            raise DimensionMismatch(f"expected {expected} weights, got {vector.shape}")
        bias, *weights = _unpack(vector, n_inputs, n_hidden, skip)
        return cls(n_inputs, n_hidden, float(bias), *weights)

    def one_step(self, series) -> tuple[np.ndarray, np.ndarray]:
        """In-sample one-step-ahead predictions, mirroring the regime models."""
        x = series_values(series)
        if len(x) <= self.n_inputs:
            raise SeriesTooShort(f"need more than {self.n_inputs} observations")
        inputs, targets = _lag_inputs(x, self.n_inputs)
        fitted = _output(self, inputs)
        return fitted, targets - fitted

    def step(self, history, t: float) -> float:
        """Noise-free next value after ``history`` (oldest first); ``t`` is unused."""
        return forward(self, history[-self.n_inputs :][::-1])

    def fitted_columns(self, series) -> dict[str, np.ndarray]:
        """Columns of the fitted CSV: row index and one-step fitted value."""
        fitted, _ = self.one_step(series)
        start = self.n_inputs + 1
        return {"index": np.arange(start, start + len(fitted)), "fitted": fitted}

    def to_dict(self) -> dict:
        return {
            "model": "nnet",
            "n_inputs": self.n_inputs,
            "n_hidden": self.n_hidden,
            "output_bias": self.output_bias,
            "output_weights": list(self.output_weights),
            "hidden_biases": list(self.hidden_biases),
            "hidden_weights": [list(row) for row in self.hidden_weights],
            "skip_weights": None if self.skip_weights is None else list(self.skip_weights),
            "n_parameters": self.n_parameters,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "NnetArModel":
        skip = payload.get("skip_weights")
        return cls(
            n_inputs=int(payload["n_inputs"]),
            n_hidden=int(payload["n_hidden"]),
            output_bias=float(payload["output_bias"]),
            output_weights=np.array(payload["output_weights"], dtype=float),
            hidden_biases=np.array(payload["hidden_biases"], dtype=float),
            hidden_weights=np.array(payload["hidden_weights"], dtype=float),
            skip_weights=None if skip is None else np.array(skip, dtype=float),
        )


def _n_weights(m: int, d: int, skip: bool) -> int:
    return (m + 1) * d + (d + 1) + (m if skip else 0)


def _unpack(theta: np.ndarray, m: int, d: int, skip: bool):
    """Views of the output bias (0-d), output weights, hidden biases, hidden
    weights (m, D) and skip weights (None without skip) in ``theta``.  A
    (restarts, weights) array gives every view a leading restart axis."""
    hidden_end = 1 + 2 * d + m * d
    return (
        theta[..., 0],
        theta[..., 1 : 1 + d],
        theta[..., 1 + d : 1 + 2 * d],
        theta[..., 1 + 2 * d : hidden_end].reshape(theta.shape[:-1] + (m, d)),
        theta[..., hidden_end:] if skip else None,
    )


def _pack(parts, m: int, d: int, skip: bool) -> np.ndarray:
    """The flat weight vector holding ``parts``, ordered as :func:`_unpack` reads them."""
    theta = np.empty(_n_weights(m, d, skip))
    for view, part in zip(_unpack(theta, m, d, skip), parts):
        if view is not None:
            view[...] = part
    return theta


def _hidden_layer(theta: np.ndarray, m: int, d: int) -> np.ndarray:
    """View of the hidden biases and hidden weights in ``theta`` as one (m + 1, D)
    matrix: the weights on the inputs (1, X_{t-1}, ..., X_{t-m})."""
    return theta[..., 1 + d : 1 + 2 * d + m * d].reshape(theta.shape[:-1] + (m + 1, d))


def _lag_inputs(x: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The inputs (1, X_{t-1}, ..., X_{t-m}) as m + 1 contiguous rows, and the targets X_t."""
    design, targets = lag_design(x, m)
    return np.ascontiguousarray(design.T), targets


def _forward(theta, m, d, skip, inputs) -> tuple[np.ndarray, np.ndarray]:
    """Hidden activations (restarts, D, rows) and outputs (restarts, rows) of
    each row of ``theta`` on ``inputs`` (m + 1, rows), as from :func:`_lag_inputs`.

    No product mixes restarts: each sum runs over one restart's own terms, so
    a restart's bits do not depend on the others in the batch.
    """
    bias, output_weights, _, _, skip_weights = _unpack(theta, m, d, skip)
    activations = _masked_logistic(np.einsum("rjd,jn->rdn", _hidden_layer(theta, m, d), inputs))
    out = np.einsum("rd,rdn->rn", output_weights, activations)
    out += bias[:, None]
    if skip:
        out += np.einsum("rj,jn->rn", skip_weights, inputs[1:])
    return activations, out


def _gradient(theta, m, d, skip, inputs, activations, resid) -> np.ndarray:
    """Gradient (restarts, weights) of half the RSS at each row of ``theta``,
    given its forward pass's ``activations`` and residuals ``resid``."""
    output_weights = _unpack(theta, m, d, skip)[1]
    # the residual times each hidden unit's slope; the output weight multiplies the sum
    back = resid[:, None] * (activations * (1.0 - activations))
    grad = np.empty(theta.shape)
    bias, to_output, _, _, to_skip = _unpack(grad, m, d, skip)
    bias[...] = resid.sum(axis=-1)
    to_output[...] = np.einsum("rn,rdn->rd", resid, activations)
    _hidden_layer(grad, m, d)[...] = output_weights[:, None] * np.einsum("rdn,jn->rjd", back, inputs)
    if skip:
        to_skip[...] = np.einsum("rn,jn->rj", resid, inputs[1:])
    return np.negative(grad, out=grad)


def _checked_inputs(model: NnetArModel, lag_matrix) -> np.ndarray:
    """Rows of lagged inputs as the (m + 1, rows) inputs :func:`_forward` takes."""
    lag_matrix = np.atleast_2d(np.asarray(lag_matrix, dtype=float))
    if lag_matrix.shape[1] != model.n_inputs:
        raise DimensionMismatch(f"expected {model.n_inputs} lag columns, got {lag_matrix.shape[1]}")
    return np.vstack((np.ones(len(lag_matrix)), lag_matrix.T))


def _output(model: NnetArModel, inputs: np.ndarray) -> np.ndarray:
    """Network output on ``inputs`` (m + 1, rows), as from :func:`_lag_inputs`."""
    skip = model.skip_weights is not None
    theta = model.to_vector()[None]
    return _forward(theta, model.n_inputs, model.n_hidden, skip, inputs)[1][0]


def predict(model: NnetArModel, lag_matrix: np.ndarray) -> np.ndarray:
    """Network output for each row of lagged inputs."""
    return _output(model, _checked_inputs(model, lag_matrix))


def forward(model: NnetArModel, lags) -> float:
    """Single prediction from a length-m lag vector (most recent first)."""
    lags = np.asarray(lags, dtype=float)
    if lags.shape != (model.n_inputs,):
        raise DimensionMismatch(f"expected {model.n_inputs} lags, got {lags.shape}")
    return float(predict(model, lags[None, :])[0])


def gradient(model: NnetArModel, lag_matrix: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Exact gradient of (1/2) sum (target - forward)^2, flat in ``to_vector`` order:
    the training gradient, for a batch of one restart."""
    inputs = _checked_inputs(model, lag_matrix)
    targets = np.asarray(targets, dtype=float)
    if inputs.shape[1] != targets.shape[0]:
        raise DimensionMismatch("lag matrix and targets disagree on row count")
    m, d, skip = model.n_inputs, model.n_hidden, model.skip_weights is not None
    theta = model.to_vector()[None]
    activations, out = _forward(theta, m, d, skip, inputs)
    return _gradient(theta, m, d, skip, inputs, activations, targets - out)[0]


@dataclass(frozen=True)
class TrainConfig:
    """Training settings.  ``standardize``, the default, trains on (x - mean) / std
    and maps the weights back to raw units: descent stalls on raw inputs below ~0.1.
    The ``restarts`` descend in lockstep, so training memory grows as restarts x
    hidden units x rows, up to a cap past which they descend in groups."""

    restarts: int = 20
    max_iters: int = 2000
    seed: int = 0
    skip: bool = False
    standardize: bool = True
    tol: float = 1e-8

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError(f"restarts must be at least 1, got {self.restarts}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")


@dataclass(frozen=True)
class NnetFitResult:
    model: NnetArModel
    rss: float
    fitted: np.ndarray
    residuals: np.ndarray
    restart_index: int
    iterations: int
    converged: bool


def _lockstep_descent(theta, m, d, skip, inputs, targets, max_iters, tol):
    """Gradient descent with a backtracking line search, on every row of
    ``theta`` (restarts, weights) at once.

    Returns the final weights, half the RSS (NaN for a restart dropped because
    its loss is not finite at its initial weights), the iterations and the
    converged flags, one per restart.  Each restart keeps its own step size
    and takes the first halving of it that passes the Armijo test, as a
    one-at-a-time search would.  A descent step makes one gradient call, then
    one forward call per line-search round, each on the whole batch; a round
    tries a step and its next halvings at once (``_HALVINGS``) and writes the
    steps it accepts into their rows in place.  A restart stops when it
    converges - its gradient is zero, no step of at least ``_MIN_STEP``
    passes, or its relative loss drop falls below ``tol`` - and its row is
    not updated again; the others go on, up to ``max_iters`` steps.
    """
    theta = np.array(theta, dtype=float)
    loss = np.full(len(theta), np.nan)
    iterations = np.zeros(len(theta), dtype=int)
    converged = np.zeros(len(theta), dtype=bool)
    activations, out = _forward(theta, m, d, skip, inputs)
    resid = targets - out
    half = 0.5 * np.einsum("rn,rn->r", resid, resid)
    live = np.isfinite(half)
    # one row per live restart: its weights, activations, residuals and half-RSS
    state = theta[live], activations[live], resid[live], half[live]
    weights, activations, resid, half = state
    n_live = len(weights)
    going = np.ones(n_live, dtype=bool)
    stopped_at = np.full(n_live, max_iters)
    step = np.ones(n_live)
    for iteration in range(1, max_iters + 1):
        if not going.any():
            break
        grad = _gradient(weights, m, d, skip, inputs, activations, resid)
        gnorm2 = np.einsum("rw,rw->r", grad, grad)
        before = half.copy()
        alpha = step.copy()
        accepted = np.zeros(n_live, dtype=bool)
        searching = going & (gnorm2 != 0.0)
        while searching.any():
            # row (k, i): restart i at alpha / 2**k
            trials = _HALVINGS[:, None] * alpha
            candidate = (weights - trials[..., None] * grad).reshape(-1, weights.shape[1])
            cand_activations, cand_out = _forward(candidate, m, d, skip, inputs)
            cand_resid = targets - cand_out
            cand_half = 0.5 * np.einsum("rn,rn->r", cand_resid, cand_resid)
            tried = cand_half.reshape(trials.shape)
            passed = (trials >= _MIN_STEP) & np.isfinite(tried) & (
                tried <= half - _ARMIJO * trials * gnorm2
            )
            first = passed.argmax(axis=0)
            ok = searching & passed.any(axis=0)
            rows = (first * n_live + np.arange(n_live))[ok]
            for target, value in zip(state, (candidate, cand_activations, cand_resid, cand_half)):
                target[ok] = value[rows]
            accepted |= ok
            factor = np.where(ok, _HALVINGS[first], 0.5 * _HALVINGS[-1])
            np.multiply(alpha, factor, out=alpha, where=searching)
            searching &= ~ok & (alpha >= _MIN_STEP)
        # a restart without an acceptable step sits at a local minimum and stays there
        relative_drop = (before - half) / np.maximum(before, 1e-300)
        step = np.minimum(alpha * 2.0, 1e6)
        stop = going & (~accepted | (relative_drop < tol))
        stopped_at[stop] = iteration
        going &= ~stop
    theta[live], loss[live], iterations[live], converged[live] = weights, half, stopped_at, ~going
    return theta, loss, iterations, converged


def check_network(m: int, d: int) -> None:
    """Reject a network without a lagged input or without a hidden unit."""
    if m < 1:
        raise ValueError(f"m, the number of lagged inputs, must be at least 1, got {m}")
    if d < 1:
        raise ValueError(f"d, the number of hidden units, must be at least 1, got {d}")


def train_nnet_ar(series, m: int, d: int, config: TrainConfig | None = None) -> NnetFitResult:
    """Train the network on a series with multiple random restarts.

    Each restart draws initial weights uniformly from
    [-_INIT_SCALE, _INIT_SCALE] with its own deterministic generator, descends
    until the relative loss change falls below ``tol`` or ``max_iters``, and
    the restart with the lowest final RSS wins (index breaks ties).  All
    restarts descend in lockstep (see ``_lockstep_descent``), in groups when
    the series is long (``_BATCH_VALUES``); one that stops keeps its row,
    not updated again, and each gets the weights it would get alone.
    Restarts whose loss is not finite at their initial weights are dropped;
    if all are, NonFiniteLoss.
    """
    check_network(m, d)
    cfg = config or TrainConfig()
    x = series_values(series)
    if cfg.standardize:
        center, scale = float(x.mean()), float(x.std())
        if scale == 0:
            scale = 1.0
        x_train = (x - center) / scale
    else:
        center, scale = 0.0, 1.0
        x_train = x
    n_weights = _n_weights(m, d, cfg.skip)
    if len(x) - m <= n_weights:
        raise SeriesTooShort(f"{max(len(x) - m, 0)} rows cannot support {n_weights} weights")
    inputs, targets = _lag_inputs(x_train, m)

    theta0 = np.stack([
        default_rng([cfg.seed, restart]).uniform(-_INIT_SCALE, _INIT_SCALE, size=n_weights)
        for restart in range(cfg.restarts)
    ])
    group = max(1, _BATCH_VALUES // (len(_HALVINGS) * d * len(targets)))
    runs = [
        _lockstep_descent(
            theta0[lo : lo + group], m, d, cfg.skip, inputs, targets, cfg.max_iters, cfg.tol
        )
        for lo in range(0, cfg.restarts, group)
    ]
    thetas, losses, iterations, converged = (np.concatenate(parts) for parts in zip(*runs))
    finished = np.flatnonzero(np.isfinite(losses))
    if not finished.size:
        raise NonFiniteLoss("every restart diverged")
    # argmin returns the first of equal values: the lowest index breaks ties
    restart = int(finished[np.argmin(losses[finished])])

    theta = thetas[restart]
    if cfg.standardize:
        theta = _destandardize(theta, m, d, cfg.skip, center, scale)
    model = NnetArModel.from_vector(m, d, theta, cfg.skip)
    fitted, residuals = model.one_step(x)
    return NnetFitResult(
        model=model,
        rss=float(residuals @ residuals),
        fitted=fitted,
        residuals=residuals,
        restart_index=restart,
        iterations=int(iterations[restart]),
        converged=bool(converged[restart]),
    )


def _destandardize(theta, m, d, skip, center: float, scale: float) -> np.ndarray:
    """Rewrite weights trained on (x - center)/scale to act on raw inputs."""
    bias, output_weights, hidden_biases, hidden_weights, skip_weights = _unpack(theta, m, d, skip)
    bias = bias * scale + center
    if skip:
        bias -= center * float(skip_weights.sum())
    hidden_biases = hidden_biases - (center / scale) * hidden_weights.sum(axis=0)
    parts = (bias, output_weights * scale, hidden_biases, hidden_weights / scale, skip_weights)
    return _pack(parts, m, d, skip)
