"""Two-layer sigmoid network trained by full-batch gradient descent with
momentum, used as the iterative baseline for the direct-solve classifier.

Both layers are sigmoidal.  The cost is the plain sum of squared errors
over all samples and output units:

    C = sum_j || forward(x_j) - y_j ||^2

:func:`mlp_gradient` returns the exact gradient of that sum (verifiable
against finite differences).  The training loop, however, scales its
step by the sample count: stepping with the raw sum gradient at the
documented learning rate produces first moves large enough to saturate
every sigmoid on a few-thousand-sample split, and training never
recovers from the flat spots.  The update therefore uses

    step = learning_rate * _MEAN_STEP_GAIN / n_samples

per unit of the summed gradient, i.e. a gained mean-per-sample step.
The gain is an empirical convergence constant: 3.0 brings the reference
operating point (rate 0.25, momentum 0.2, 2200 iterations) close to its
asymptotic accuracy on scenes of a few thousand samples, while 1.0
undertrains badly there.  The gradient definition is untouched.

Each training iteration runs one fused forward/backward pass
(``_loss_and_gradient``): the pass that computes the gradient at the
current parameters also yields the cost there, which is the loss
recorded after the previous step.  The pass after the final step is
taken for its loss alone; its gradient goes unused.
Both sigmoid layers use the one logistic kernel of :mod:`elmkit.elm`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .data import LabeledDataset, ScalingParams, _frozen_array, fit_scaling, scale_features
from .elm import _sigmoid, decode_scores, encode_targets


# Gain applied to the mean-per-sample gradient step; see module docstring.
_MEAN_STEP_GAIN = 3.0


class MlpDivergenceError(RuntimeError):
    """Training loss became non-finite; carries the iteration index."""

    def __init__(self, iteration: int, loss: float):
        self.iteration = iteration
        self.loss = loss
        super().__init__(f"training diverged at iteration {iteration}: loss {loss!r}")


@dataclass(frozen=True)
class MlpConfig:
    """Hyperparameters for the momentum-descent baseline.

    The defaults (26 hidden nodes, learning rate 0.25, momentum 0.2,
    2200 iterations) are the reference operating point used by the
    benchmark harness.
    """

    hidden_nodes: int = 26
    learning_rate: float = 0.25
    momentum: float = 0.2
    iterations: int = 2200
    seed: int = 0

    def __post_init__(self):
        if self.hidden_nodes < 1:
            raise ValueError(f"hidden_nodes must be >= 1, got {self.hidden_nodes}")
        if not (self.learning_rate > 0 and np.isfinite(self.learning_rate)):
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")


@dataclass(frozen=True)
class MlpModel:
    """Trained two-layer network plus the feature scaling fitted with it.

    ``loss_history`` holds the cost before training and after every
    iteration (length iterations + 1); it is informational and is not
    serialized, as is ``train_time_s``.
    """

    w_hidden: np.ndarray   # (hidden, features)
    b_hidden: np.ndarray   # (hidden,)
    w_out: np.ndarray      # (classes, hidden)
    b_out: np.ndarray      # (classes,)
    config: MlpConfig
    class_names: tuple[str, ...]
    scaling: ScalingParams
    loss_history: tuple[float, ...] = field(default=(), compare=False)
    train_time_s: float = field(default=0.0, compare=False)

    def __post_init__(self):
        for name in ("w_hidden", "b_hidden", "w_out", "b_out"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))
        h, p = self.w_hidden.shape
        m = len(self.class_names)
        if self.b_hidden.shape != (h,) or self.w_out.shape != (m, h) or self.b_out.shape != (m,):
            raise ValueError("layer shapes are inconsistent")
        object.__setattr__(self, "class_names", tuple(str(n) for n in self.class_names))
        object.__setattr__(self, "loss_history", tuple(float(v) for v in self.loss_history))

    @property
    def n_features(self) -> int:
        return self.w_hidden.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)


def init_mlp_params(n_features: int, n_classes: int,
                    config: MlpConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Draw all four parameter arrays from one seeded uniform stream.

    Every draw lies in [-0.5, 0.5].  Draw order: hidden weights, hidden
    biases, output weights, output biases.
    """
    rng = np.random.default_rng(config.seed)
    w_hidden = rng.uniform(-0.5, 0.5, size=(config.hidden_nodes, n_features))
    b_hidden = rng.uniform(-0.5, 0.5, size=config.hidden_nodes)
    w_out = rng.uniform(-0.5, 0.5, size=(n_classes, config.hidden_nodes))
    b_out = rng.uniform(-0.5, 0.5, size=n_classes)
    return w_hidden, b_hidden, w_out, b_out


def mlp_forward(features, w_hidden, b_hidden, w_out, b_out):
    """Forward pass; returns (hidden activations, output activations)."""
    features = np.asarray(features, dtype=np.float64)
    hidden = _sigmoid(features @ w_hidden.T + b_hidden)
    output = _sigmoid(hidden @ w_out.T + b_out)
    return hidden, output


def mlp_cost(features, targets, w_hidden, b_hidden, w_out, b_out) -> float:
    """Sum of squared errors of the forward pass against the targets."""
    _, output = mlp_forward(features, w_hidden, b_hidden, w_out, b_out)
    return float(np.sum((output - np.asarray(targets)) ** 2))


def _loss_and_gradient(features, targets, w_hidden, b_hidden, w_out, b_out):
    """Summed squared error and its exact gradient from one forward pass.

    Returns ``(loss, (g_w_hidden, g_b_hidden, g_w_out, g_b_out))``; the
    loss is bit-identical to :func:`mlp_cost` at the same parameters.
    """
    features = np.asarray(features, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    hidden, output = mlp_forward(features, w_hidden, b_hidden, w_out, b_out)
    error = output - targets
    loss = float(np.sum(error ** 2))
    # cost is sum of (output - target)^2: chain through both sigmoids
    delta_out = 2.0 * error * output * (1.0 - output)
    g_w_out = delta_out.T @ hidden
    g_b_out = delta_out.sum(axis=0)
    delta_hidden = (delta_out @ w_out) * hidden * (1.0 - hidden)
    g_w_hidden = delta_hidden.T @ features
    g_b_hidden = delta_hidden.sum(axis=0)
    return loss, (g_w_hidden, g_b_hidden, g_w_out, g_b_out)


def mlp_gradient(features, targets, w_hidden, b_hidden, w_out, b_out):
    """Exact gradient of the summed squared-error cost.

    Returns gradients in parameter order (w_hidden, b_hidden, w_out,
    b_out); each matches its parameter's shape.
    """
    return _loss_and_gradient(features, targets, w_hidden, b_hidden, w_out, b_out)[1]


def train_mlp(train: LabeledDataset, config: MlpConfig | None = None) -> MlpModel:
    """Fit the baseline network by full-batch momentum descent.

    Features are scaled to [-1, 1] with parameters fitted on the split.
    Each iteration updates every parameter with a heavy-ball step on the
    mean-per-sample gradient (see the module docstring).  Divergence
    means a non-finite loss, and nothing else: with sigmoid outputs the
    summed cost is bounded by samples x classes, so a runaway step shows
    up as an overflow to inf or nan.  Raises :class:`MlpDivergenceError`,
    naming the iteration, when that happens.
    """
    if config is None:
        config = MlpConfig()
    start = time.perf_counter()
    scaling = fit_scaling(train)
    features = scale_features(train.features, scaling)
    targets = encode_targets(train.labels, train.n_classes)
    params = list(init_mlp_params(train.n_features, train.n_classes, config))
    velocities = [np.zeros_like(p) for p in params]
    step = config.learning_rate * _MEAN_STEP_GAIN / train.n_samples

    loss, grads = _loss_and_gradient(features, targets, *params)
    history = [loss]
    # Divergence is reported by the loss check below, not by numpy warnings.
    with np.errstate(invalid="ignore", over="ignore"):
        for iteration in range(1, config.iterations + 1):
            for i in range(4):
                velocities[i] = config.momentum * velocities[i] - step * grads[i]
                params[i] = params[i] + velocities[i]
            loss, grads = _loss_and_gradient(features, targets, *params)
            if not np.isfinite(loss):
                raise MlpDivergenceError(iteration, loss)
            history.append(loss)
    elapsed = time.perf_counter() - start
    return MlpModel(
        w_hidden=params[0],
        b_hidden=params[1],
        w_out=params[2],
        b_out=params[3],
        config=config,
        class_names=train.class_names,
        scaling=scaling,
        loss_history=tuple(history),
        train_time_s=elapsed,
    )


def mlp_predict_scores(model: MlpModel, features: np.ndarray) -> np.ndarray:
    """Output-layer activations (samples, classes) for unscaled inputs."""
    scaled = scale_features(features, model.scaling)
    _, output = mlp_forward(scaled, model.w_hidden, model.b_hidden, model.w_out, model.b_out)
    return output


def mlp_predict(model: MlpModel, features: np.ndarray) -> np.ndarray:
    """Predicted label indices for unscaled inputs."""
    return decode_scores(mlp_predict_scores(model, features))
