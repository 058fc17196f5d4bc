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

All numerics run through one private pass (``_pass``) that keeps every
activation, error and delta array as (units, samples): the hidden layer
is ``w_hidden @ X^T`` with the bias added as a column, the bias
gradients are contiguous row sums, and the weight gradients are
``delta_out @ hidden^T`` and ``delta_hidden @ X``.  The pass writes into
five work arrays (``_Scratch``: two of hidden x samples, three of
classes x samples) with ``out=`` and in-place ufuncs.  ``train_mlp``
allocates them, and transposes the scaled features and the one-hot
targets, once per fit, so no iteration allocates a samples-sized array.
:func:`mlp_forward`, :func:`mlp_cost`, :func:`mlp_gradient` and
:func:`mlp_predict_scores` run the same pass on arrays allocated per call
and return (samples, units) arrays.

Each training iteration runs one pass: the pass that computes the
gradient at the current parameters also yields the cost there, which is
the loss recorded after the previous step.  The pass after the final
step is taken for its loss alone; its gradient goes unused.
Both sigmoid layers use the one logistic kernel of :mod:`elmkit.elm`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .data import (LabeledDataset, ScalingParams, _check_seed, _class_names, _frozen_array,
                   fit_scaling, scale_features)
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
        _check_seed(self.seed)


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
        object.__setattr__(self, "class_names", _class_names(self.class_names))
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


class _Scratch:
    """The pass's work arrays, all (units, samples) and C-ordered."""

    def __init__(self, n_hidden: int, n_classes: int, n_samples: int):
        self.hidden, self.delta_hidden = (np.empty((n_hidden, n_samples)) for _ in range(2))
        self.output, self.error, self.delta_out = (
            np.empty((n_classes, n_samples)) for _ in range(3))


def _layout(features):
    """Features as C-ordered (samples, features) and (features, samples) copies.

    Every caller of :func:`_pass` goes through here, so the GEMMs see the
    same memory layout, and give the same bits, whatever the input order.
    """
    features = np.ascontiguousarray(features, dtype=np.float64)
    return features, features.T.copy()


def _pass(features, features_t, targets_t, params, scratch):
    """One forward pass, and with targets a backward one, in the (units, samples) layout.

    Fills ``scratch.hidden`` and ``scratch.output``.  With ``targets_t``
    (classes, samples) it returns the summed squared error and the exact
    gradient in parameter order, and leaves ``1 - activation`` in those
    two arrays; otherwise it returns (None, None).
    """
    w_hidden, b_hidden, w_out, b_out = params
    s = scratch
    np.matmul(w_hidden, features_t, out=s.hidden)
    s.hidden += b_hidden[:, None]
    _sigmoid(s.hidden, out=s.hidden)
    np.matmul(w_out, s.hidden, out=s.output)
    s.output += b_out[:, None]
    _sigmoid(s.output, out=s.output)
    if targets_t is None:
        return None, None
    np.subtract(s.output, targets_t, out=s.error)
    loss = float(np.square(s.error, out=s.delta_out).sum())
    # cost is sum of (output - target)^2: chain through both sigmoids
    np.multiply(s.error, 2.0, out=s.delta_out)
    s.delta_out *= s.output
    np.subtract(1.0, s.output, out=s.output)
    s.delta_out *= s.output
    g_w_out = s.delta_out @ s.hidden.T
    g_b_out = s.delta_out.sum(axis=1)
    np.matmul(w_out.T, s.delta_out, out=s.delta_hidden)
    s.delta_hidden *= s.hidden
    np.subtract(1.0, s.hidden, out=s.hidden)
    s.delta_hidden *= s.hidden
    g_w_hidden = s.delta_hidden @ features
    g_b_hidden = s.delta_hidden.sum(axis=1)
    return loss, (g_w_hidden, g_b_hidden, g_w_out, g_b_out)


def _pass_once(features, targets, params):
    """:func:`_pass` on work arrays allocated for this call alone."""
    features, features_t = _layout(features)
    targets_t = None if targets is None else np.asarray(targets, dtype=np.float64).T.copy()
    scratch = _Scratch(len(params[1]), len(params[3]), len(features))
    loss, grads = _pass(features, features_t, targets_t, params, scratch)
    return scratch, loss, grads


def mlp_forward(features, w_hidden, b_hidden, w_out, b_out):
    """Forward pass; returns (hidden activations, output activations),
    each (samples, units)."""
    scratch, _, _ = _pass_once(features, None, (w_hidden, b_hidden, w_out, b_out))
    return scratch.hidden.T, scratch.output.T


def mlp_cost(features, targets, w_hidden, b_hidden, w_out, b_out) -> float:
    """Sum of squared errors of the forward pass against the targets."""
    return _pass_once(features, targets, (w_hidden, b_hidden, w_out, b_out))[1]


def mlp_gradient(features, targets, w_hidden, b_hidden, w_out, b_out):
    """Exact gradient of the summed squared-error cost.

    Returns gradients in parameter order (w_hidden, b_hidden, w_out,
    b_out); each matches its parameter's shape.
    """
    return _pass_once(features, targets, (w_hidden, b_hidden, w_out, b_out))[2]


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
    features, features_t = _layout(scale_features(train.features, scaling))
    targets_t = encode_targets(train.labels, train.n_classes).T.copy()
    params = init_mlp_params(train.n_features, train.n_classes, config)
    velocities = [np.zeros_like(p) for p in params]
    scratch = _Scratch(config.hidden_nodes, train.n_classes, train.n_samples)
    step = config.learning_rate * _MEAN_STEP_GAIN / train.n_samples

    loss, grads = _pass(features, features_t, targets_t, params, scratch)
    history = [loss]
    # Divergence is reported by the loss check below, not by numpy warnings.
    with np.errstate(invalid="ignore", over="ignore"):
        for iteration in range(1, config.iterations + 1):
            for param, velocity, grad in zip(params, velocities, grads):
                velocity *= config.momentum
                velocity -= step * grad
                param += velocity
            loss, grads = _pass(features, features_t, targets_t, params, scratch)
            if not np.isfinite(loss):
                raise MlpDivergenceError(iteration, loss)
            history.append(loss)
    elapsed = time.perf_counter() - start
    w_hidden, b_hidden, w_out, b_out = params
    return MlpModel(
        w_hidden=w_hidden,
        b_hidden=b_hidden,
        w_out=w_out,
        b_out=b_out,
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
