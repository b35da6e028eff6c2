"""Single-hidden-layer autoregressive neural network.

The network maps the last m values of a series through D logistic hidden
units (optionally plus direct input-output connections) to a one-step-ahead
prediction.  Training is full-batch gradient descent on half the residual
sum of squares with a backtracking line search and multiple random restarts;
gradients are exact and analytic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteLoss, SeriesTooShort
from .regimes import _masked_logistic
from .series import series_values

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
        for part in (self.output_bias, self.output_weights, self.hidden_biases, self.hidden_weights):
            if not np.all(np.isfinite(part)):
                raise ValueError("all weights must be finite")
        if self.skip_weights is not None and not np.all(np.isfinite(self.skip_weights)):
            raise ValueError("all weights must be finite")

    @property
    def n_weights(self) -> int:
        m, d = self.n_inputs, self.n_hidden
        return (m + 1) * d + (d + 1) + (m if self.skip_weights is not None else 0)

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
        parts = [
            [self.output_bias],
            self.output_weights,
            self.hidden_biases,
            self.hidden_weights.ravel(),
        ]
        if self.skip_weights is not None:
            parts.append(self.skip_weights)
        return np.concatenate(parts)

    @classmethod
    def from_vector(cls, n_inputs: int, n_hidden: int, vector, skip: bool = False) -> "NnetArModel":
        vector = np.asarray(vector, dtype=float)
        m, d = n_inputs, n_hidden
        expected = (m + 1) * d + (d + 1) + (m if skip else 0)
        if vector.shape != (expected,):
            raise DimensionMismatch(f"expected {expected} weights, got {vector.shape}")
        pos = 0
        output_bias = float(vector[pos]); pos += 1
        output_weights = vector[pos : pos + d]; pos += d
        hidden_biases = vector[pos : pos + d]; pos += d
        hidden_weights = vector[pos : pos + m * d].reshape(m, d); pos += m * d
        skip_weights = vector[pos : pos + m] if skip else None
        return cls(
            n_inputs=m,
            n_hidden=d,
            output_bias=output_bias,
            output_weights=output_weights,
            hidden_biases=hidden_biases,
            hidden_weights=hidden_weights,
            skip_weights=skip_weights,
        )

    def one_step(self, series) -> tuple[np.ndarray, np.ndarray]:
        """In-sample one-step-ahead predictions, mirroring the regime models."""
        x = series_values(series)
        if len(x) <= self.n_inputs:
            raise SeriesTooShort(f"need more than {self.n_inputs} observations")
        lag_matrix, targets = lag_matrix_for(x, self.n_inputs)
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


def lag_matrix_for(values, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows of (X_{t-1}, ..., X_{t-m}) and the targets X_t."""
    x = series_values(values)
    n = len(x)
    if n <= m:
        raise SeriesTooShort(f"need more than {m} observations, got {n}")
    cols = [x[m - k : n - k] for k in range(1, m + 1)]
    return np.column_stack(cols), x[m:]


def predict(model: NnetArModel, lag_matrix: np.ndarray) -> np.ndarray:
    """Network output for each row of lagged inputs."""
    lag_matrix = np.atleast_2d(np.asarray(lag_matrix, dtype=float))
    if lag_matrix.shape[1] != model.n_inputs:
        raise DimensionMismatch(
            f"expected {model.n_inputs} lag columns, got {lag_matrix.shape[1]}"
        )
    activations = _masked_logistic(model.hidden_biases + lag_matrix @ model.hidden_weights)
    out = model.output_bias + activations @ model.output_weights
    if model.skip_weights is not None:
        out = out + lag_matrix @ model.skip_weights
    return out


def forward(model: NnetArModel, lags) -> float:
    """Single prediction from a length-m lag vector (most recent first)."""
    lags = np.asarray(lags, dtype=float)
    if lags.shape != (model.n_inputs,):
        raise DimensionMismatch(f"expected {model.n_inputs} lags, got {lags.shape}")
    return float(predict(model, lags[None, :])[0])


@dataclass(frozen=True)
class NnetGradient:
    """Gradient of half-RSS, shaped like the model weights."""

    output_bias: float
    output_weights: np.ndarray
    hidden_biases: np.ndarray
    hidden_weights: np.ndarray
    skip_weights: np.ndarray | None = None

    def to_vector(self) -> np.ndarray:
        parts = [
            [self.output_bias],
            self.output_weights,
            self.hidden_biases,
            self.hidden_weights.ravel(),
        ]
        if self.skip_weights is not None:
            parts.append(self.skip_weights)
        return np.concatenate(parts)


def gradient(model: NnetArModel, lag_matrix: np.ndarray, targets: np.ndarray) -> NnetGradient:
    """Exact gradient of (1/2) sum (target - forward)^2 in every weight."""
    lag_matrix = np.atleast_2d(np.asarray(lag_matrix, dtype=float))
    targets = np.asarray(targets, dtype=float)
    if lag_matrix.shape[0] != targets.shape[0]:
        raise DimensionMismatch("lag matrix and targets disagree on row count")
    if lag_matrix.shape[1] != model.n_inputs:
        raise DimensionMismatch(
            f"expected {model.n_inputs} lag columns, got {lag_matrix.shape[1]}"
        )
    activations = _masked_logistic(model.hidden_biases + lag_matrix @ model.hidden_weights)
    out = model.output_bias + activations @ model.output_weights
    if model.skip_weights is not None:
        out = out + lag_matrix @ model.skip_weights
    resid = targets - out

    d_bias = -float(resid.sum())
    d_output = -(resid @ activations)
    back = -(resid[:, None] * model.output_weights[None, :]) * activations * (1.0 - activations)
    d_hidden_biases = back.sum(axis=0)
    d_hidden_weights = lag_matrix.T @ back
    d_skip = -(resid @ lag_matrix) if model.skip_weights is not None else None
    return NnetGradient(
        output_bias=d_bias,
        output_weights=d_output,
        hidden_biases=d_hidden_biases,
        hidden_weights=d_hidden_weights,
        skip_weights=d_skip,
    )


@dataclass(frozen=True)
class TrainConfig:
    restarts: int = 20
    max_iters: int = 2000
    seed: int = 0
    init_scale: float = 0.5
    skip: bool = False
    standardize: bool = False
    tol: float = 1e-8


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
    model = NnetArModel.from_vector(m, d, theta, skip)
    resid = targets - predict(model, lag_matrix)
    return 0.5 * float(resid @ resid)


def _descend(theta, m, d, skip, lag_matrix, targets, max_iters, tol, trace=None):
    """Backtracking-line-search gradient descent; returns (theta, loss, iters, converged).

    ``trace``, when a list, receives the starting loss and each accepted loss.
    """
    loss = _half_rss(theta, m, d, skip, lag_matrix, targets)
    if not np.isfinite(loss):
        raise NonFiniteLoss("loss not finite at the initial weights")
    if trace is not None:
        trace.append(loss)
    step = 1.0
    iterations = 0
    for iterations in range(1, max_iters + 1):
        model = NnetArModel.from_vector(m, d, theta, skip)
        grad = gradient(model, lag_matrix, targets).to_vector()
        gnorm2 = float(grad @ grad)
        if gnorm2 == 0.0:
            return theta, loss, iterations, True
        alpha = step
        new_theta = theta
        new_loss = loss
        while alpha >= _MIN_STEP:
            candidate = theta - alpha * grad
            cand_loss = _half_rss(candidate, m, d, skip, lag_matrix, targets)
            if np.isfinite(cand_loss) and cand_loss <= loss - _ARMIJO * alpha * gnorm2:
                new_theta, new_loss = candidate, cand_loss
                break
            alpha *= 0.5
        else:
            # no descent step exists at the smallest stride: local minimum
            return theta, loss, iterations, True
        relative_drop = (loss - new_loss) / max(loss, 1e-300)
        theta, loss = new_theta, new_loss
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
    lag_matrix, targets = lag_matrix_for(x_train, m)
    n_weights = (m + 1) * d + (d + 1) + (m if cfg.skip else 0)
    if len(targets) <= n_weights:
        raise SeriesTooShort(f"{len(targets)} rows cannot support {n_weights} weights")

    best = None
    for restart in range(cfg.restarts):
        rng = np.random.default_rng([cfg.seed, restart])
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
    model = NnetArModel.from_vector(m, d, theta, cfg.skip)
    if cfg.standardize:
        model = _destandardize(model, center, scale)
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


def _destandardize(model: NnetArModel, center: float, scale: float) -> NnetArModel:
    """Rewrite weights trained on (x - center)/scale to act on raw inputs."""
    hidden_weights = model.hidden_weights / scale
    hidden_biases = model.hidden_biases - (center / scale) * model.hidden_weights.sum(axis=0)
    output_weights = model.output_weights * scale
    output_bias = model.output_bias * scale + center
    skip = model.skip_weights
    if skip is not None:
        output_bias -= center * float(skip.sum())
    return NnetArModel(
        n_inputs=model.n_inputs,
        n_hidden=model.n_hidden,
        output_bias=float(output_bias),
        output_weights=output_weights,
        hidden_biases=hidden_biases,
        hidden_weights=hidden_weights,
        skip_weights=skip,
    )
