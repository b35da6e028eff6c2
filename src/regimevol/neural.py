"""Single-hidden-layer autoregressive neural network.

The network maps the last m values of a series through D logistic hidden
units (optionally plus direct input-output connections) to a one-step-ahead
prediction.  Training is full-batch gradient descent on half the residual
sum of squares with a backtracking line search and multiple random restarts;
gradients are exact and analytic.  By default training runs on the
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
_MIN_STEP = 1e-18


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
        lag_matrix, targets = _lag_inputs(x, self.n_inputs)
        fitted = predict(self, lag_matrix)
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
    weights (m, D) and skip weights (None without skip) in ``theta``."""
    hidden_end = 1 + 2 * d + m * d
    return (
        theta[:1].reshape(()),
        theta[1 : 1 + d],
        theta[1 + d : 1 + 2 * d],
        theta[1 + 2 * d : hidden_end].reshape(m, d),
        theta[hidden_end:] if skip else None,
    )


def _pack(parts, m: int, d: int, skip: bool) -> np.ndarray:
    """The flat weight vector holding ``parts``, ordered as :func:`_unpack` reads them."""
    theta = np.empty(_n_weights(m, d, skip))
    for view, part in zip(_unpack(theta, m, d, skip), parts):
        if view is not None:
            view[...] = part
    return theta


def _lag_inputs(x: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows of (X_{t-1}, ..., X_{t-m}) and the targets X_t."""
    design, targets = lag_design(x, m)
    # a contiguous copy: the strided column view moves the matmul result bits
    return np.ascontiguousarray(design[:, 1:]), targets


def _forward(theta, m, d, skip, lag_matrix) -> tuple[np.ndarray, np.ndarray]:
    """Hidden activations and network output for each row of lagged inputs."""
    bias, output_weights, hidden_biases, hidden_weights, skip_weights = _unpack(theta, m, d, skip)
    activations = _masked_logistic(hidden_biases + lag_matrix @ hidden_weights)
    out = bias + activations @ output_weights
    if skip:
        out = out + lag_matrix @ skip_weights
    return activations, out


def _gradient(theta, m, d, skip, lag_matrix, targets, state) -> np.ndarray:
    """Gradient at ``theta``, given its forward pass ``state`` = (activations, output)."""
    activations, out = state
    resid = targets - out
    output_weights = _unpack(theta, m, d, skip)[1]
    back = -(resid[:, None] * output_weights[None, :]) * activations * (1.0 - activations)
    skip_part = -(resid @ lag_matrix) if skip else None
    parts = (-resid.sum(), -(resid @ activations), back.sum(axis=0), lag_matrix.T @ back, skip_part)
    return _pack(parts, m, d, skip)


def _checked_lags(model: NnetArModel, lag_matrix) -> np.ndarray:
    lag_matrix = np.atleast_2d(np.asarray(lag_matrix, dtype=float))
    if lag_matrix.shape[1] != model.n_inputs:
        raise DimensionMismatch(f"expected {model.n_inputs} lag columns, got {lag_matrix.shape[1]}")
    return lag_matrix


def predict(model: NnetArModel, lag_matrix: np.ndarray) -> np.ndarray:
    """Network output for each row of lagged inputs."""
    skip = model.skip_weights is not None
    lag_matrix = _checked_lags(model, lag_matrix)
    return _forward(model.to_vector(), model.n_inputs, model.n_hidden, skip, lag_matrix)[1]


def forward(model: NnetArModel, lags) -> float:
    """Single prediction from a length-m lag vector (most recent first)."""
    lags = np.asarray(lags, dtype=float)
    if lags.shape != (model.n_inputs,):
        raise DimensionMismatch(f"expected {model.n_inputs} lags, got {lags.shape}")
    return float(predict(model, lags[None, :])[0])


def gradient(model: NnetArModel, lag_matrix: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Exact gradient of (1/2) sum (target - forward)^2, flat in ``to_vector`` order."""
    lag_matrix = _checked_lags(model, lag_matrix)
    targets = np.asarray(targets, dtype=float)
    if lag_matrix.shape[0] != targets.shape[0]:
        raise DimensionMismatch("lag matrix and targets disagree on row count")
    skip = model.skip_weights is not None
    theta = model.to_vector()
    state = _forward(theta, model.n_inputs, model.n_hidden, skip, lag_matrix)
    return _gradient(theta, model.n_inputs, model.n_hidden, skip, lag_matrix, targets, state)


@dataclass(frozen=True)
class TrainConfig:
    """Training settings.  ``standardize``, the default, trains on (x - mean) / std
    and maps the weights back to raw units: descent stalls on raw inputs below ~0.1."""

    restarts: int = 20
    max_iters: int = 2000
    seed: int = 0
    init_scale: float = 0.5
    skip: bool = False
    standardize: bool = True
    tol: float = 1e-8

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError(f"restarts must be at least 1, got {self.restarts}")


@dataclass(frozen=True)
class NnetFitResult:
    model: NnetArModel
    rss: float
    fitted: np.ndarray
    residuals: np.ndarray
    restart_index: int
    iterations: int
    converged: bool


def _half_rss(theta, m, d, skip, lag_matrix, targets):
    """Half the RSS at ``theta``, and the forward pass (activations, output) behind it."""
    state = _forward(theta, m, d, skip, lag_matrix)
    resid = targets - state[1]
    return 0.5 * float(resid @ resid), state


def _descend(theta, m, d, skip, lag_matrix, targets, max_iters, tol, trace=None):
    """Backtracking-line-search gradient descent; returns (theta, loss, iters, converged).

    ``trace``, when a list, receives the starting loss and each accepted loss.
    """
    loss, state = _half_rss(theta, m, d, skip, lag_matrix, targets)
    if not np.isfinite(loss):
        raise NonFiniteLoss("loss not finite at the initial weights")
    if trace is not None:
        trace.append(loss)
    step = 1.0
    iterations = 0
    for iterations in range(1, max_iters + 1):
        grad = _gradient(theta, m, d, skip, lag_matrix, targets, state)
        gnorm2 = float(grad @ grad)
        if gnorm2 == 0.0:
            return theta, loss, iterations, True
        alpha = step
        while alpha >= _MIN_STEP:
            candidate = theta - alpha * grad
            cand_loss, cand_state = _half_rss(candidate, m, d, skip, lag_matrix, targets)
            if np.isfinite(cand_loss) and cand_loss <= loss - _ARMIJO * alpha * gnorm2:
                break
            alpha *= 0.5
        else:
            # no descent step exists at the smallest stride: local minimum
            return theta, loss, iterations, True
        relative_drop = (loss - cand_loss) / max(loss, 1e-300)
        # the accepted candidate's forward pass serves the next gradient
        theta, loss, state = candidate, cand_loss, cand_state
        if not np.isfinite(loss):
            raise NonFiniteLoss(f"loss became non-finite at iteration {iterations}")
        if trace is not None:
            trace.append(loss)
        step = min(alpha * 2.0, 1e6)
        if relative_drop < tol:
            return theta, loss, iterations, True
    return theta, loss, iterations, False


def train_nnet_ar(series, m: int, d: int, config: TrainConfig | None = None) -> NnetFitResult:
    """Train the network on a series with multiple random restarts.

    Each restart draws initial weights uniformly from
    [-init_scale, init_scale] with its own deterministic generator, descends
    until the relative loss change falls below ``tol`` or ``max_iters``, and
    the restart with the lowest final RSS wins (index breaks ties).  Restarts
    whose loss turns non-finite are dropped; if all fail, NonFiniteLoss.
    """
    if m < 1:
        raise ValueError(f"m, the number of lagged inputs, must be at least 1, got {m}")
    if d < 1:
        raise ValueError(f"d, the number of hidden units, must be at least 1, got {d}")
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
    lag_matrix, targets = _lag_inputs(x_train, m)

    best = None
    for restart in range(cfg.restarts):
        rng = default_rng([cfg.seed, restart])
        theta0 = rng.uniform(-cfg.init_scale, cfg.init_scale, size=n_weights)
        try:
            theta, loss, iterations, converged = _descend(
                theta0, m, d, cfg.skip, lag_matrix, targets, cfg.max_iters, cfg.tol
            )
        except NonFiniteLoss:
            continue
        rss = 2.0 * loss
        if best is None or rss < best[0]:
            best = (rss, restart, theta, iterations, converged)
    if best is None:
        raise NonFiniteLoss("every restart diverged")

    rss, restart, theta, iterations, converged = best
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
        iterations=iterations,
        converged=converged,
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
