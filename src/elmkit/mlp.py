"""Two-layer sigmoid network trained by full-batch gradient descent with
momentum, used as the iterative baseline for the direct-solve classifier.

Both layers are sigmoidal.  The cost is the plain sum of squared errors
over all samples and output units:

    C = sum_j || forward(x_j) - y_j ||^2

The training pass computes the exact gradient of that sum (verifiable
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

Training runs through one private pass object (``_Pass``), built once
per fit from the scaled features, the targets and the hidden width.  It
lays out the features with a ones column, in both orders, and the
targets, and owns five work arrays (two of hidden x samples, three of
classes x samples), so no iteration allocates a samples-sized array.
Called with the two layers, each one array ``[W | b]``, it runs one
forward and one backward pass with every array as (units, samples).  Its
forward steps are the layer step of :mod:`elmkit.elm` (one GEMM by the
negated layer on inputs with a ones row, then the logistic in place)
that :func:`elmkit.elm.build_hidden_matrix`, and so scoring, runs too:
scoring gives the pass's forward bits.  Each gradient ``[g_W | g_b]`` is
one GEMM too, ``delta_out @ hidden^T`` and ``delta_hidden @ X``, ones
included.  No pass adds a bias or sums a row.

Each training iteration runs one pass, whose cost at the current
parameters is the loss recorded after the previous step; the pass after
the final step is taken for its loss alone.  ``train_mlp`` mutes exp's
overflow flags once per fit and holds one OpenBLAS thread for it
(:func:`elmkit.linalg._one_blas_thread`), so the weights do not depend
on the machine's core count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .data import (LabeledDataset, ScalingParams, _check_int, _check_real, _Model, _set_fields,
                   fit_scaling, scale_features)
from .elm import _logistic_layer, _with_ones_row, build_hidden_matrix, encode_targets
from .linalg import _one_blas_thread


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
        _set_fields(self, hidden_nodes=_check_int("hidden_nodes", self.hidden_nodes, 1),
                    learning_rate=float(_check_real("learning_rate", self.learning_rate)),
                    momentum=float(_check_real("momentum", self.momentum)),
                    iterations=_check_int("iterations", self.iterations, 1),
                    seed=_check_int("seed", self.seed))
        if not (self.learning_rate > 0 and np.isfinite(self.learning_rate)):
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")


@dataclass(frozen=True)
class MlpModel(_Model):
    """Trained two-layer network plus the feature scaling fitted with it.

    Its arrays are listed in ``_ARRAYS`` (see :class:`elmkit.data._Model`).
    ``loss_history`` holds the cost before training and after every
    iteration (length iterations + 1); it is informational and is not
    serialized, as is ``train_time_s``.
    """

    w_hidden: np.ndarray
    b_hidden: np.ndarray
    w_out: np.ndarray
    b_out: np.ndarray
    config: MlpConfig
    class_names: tuple[str, ...]
    scaling: ScalingParams
    loss_history: tuple[float, ...] = field(default=(), compare=False)
    train_time_s: float = field(default=0.0, compare=False)

    _ARRAYS = (("w_hidden", "hidden", "features"), ("b_hidden", "hidden", None),
               ("w_out", "classes", "hidden"), ("b_out", "classes", None))

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "loss_history", tuple(float(v) for v in self.loss_history))


def _init_mlp_params(n_features: int, n_classes: int,
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


class _Pass:
    """The summed squared error against fixed targets, and its exact gradient, in the
    (units, samples) layout of the module docstring.  Built from the features, the
    targets and the hidden width; a call with the two layers ``[weights | biases]``
    returns ``(loss, (g_hidden, g_out))``, each gradient in its layer's shape.  Every
    call reuses one layout and the same work arrays, so the GEMMs give the same bits
    whatever the caller's array order.  The caller mutes exp's overflow and underflow
    flags.  A call leaves ``1 - activation`` in ``hidden`` and ``output``.
    """

    def __init__(self, features, targets, n_hidden: int):
        self.features_t = _with_ones_row(np.asarray(features, dtype=np.float64))
        self.features = self.features_t.T.copy()
        self.targets_t = np.asarray(targets, dtype=np.float64).T.copy()
        n_classes, n_samples = self.targets_t.shape
        # hidden's last row of ones, which no call writes, is the output bias's input
        self.hidden = np.ones((n_hidden + 1, n_samples))
        self.delta_hidden = np.empty((n_hidden, n_samples))
        self.output, self.error, self.delta_out = (
            np.empty((n_classes, n_samples)) for _ in range(3))

    def __call__(self, hidden_layer, out_layer):
        hidden = self.hidden[:-1]
        _logistic_layer(hidden_layer, self.features_t, hidden)
        _logistic_layer(out_layer, self.hidden, self.output)
        np.subtract(self.output, self.targets_t, out=self.error)
        loss = float(np.square(self.error, out=self.delta_out).sum())
        # cost is sum of (output - target)^2: chain through both sigmoids
        delta_out = np.multiply(self.error, 2.0, out=self.delta_out)
        delta_out *= self.output
        np.subtract(1.0, self.output, out=self.output)
        delta_out *= self.output
        g_out = delta_out @ self.hidden.T
        delta_hidden = np.matmul(out_layer[:, :-1].T, delta_out, out=self.delta_hidden)
        delta_hidden *= hidden
        np.subtract(1.0, hidden, out=hidden)
        delta_hidden *= hidden
        return loss, (delta_hidden @ self.features, g_out)


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
    run_pass = _Pass(scale_features(train.features, scaling),
                     encode_targets(train.labels, train.n_classes), config.hidden_nodes)
    params = _init_mlp_params(train.n_features, train.n_classes, config)
    params = np.column_stack(params[:2]), np.column_stack(params[2:])  # [W | b] per layer
    velocities = [np.zeros_like(p) for p in params]
    step = config.learning_rate * _MEAN_STEP_GAIN / train.n_samples

    # Divergence is reported by the loss check below, not by numpy warnings;
    # the logistic's exp may overflow or underflow on any pass.
    with _one_blas_thread(), np.errstate(invalid="ignore", over="ignore", under="ignore"):
        loss, grads = run_pass(*params)
        history = [loss]
        for iteration in range(1, config.iterations + 1):
            for param, velocity, grad in zip(params, velocities, grads):
                velocity *= config.momentum
                velocity -= step * grad
                param += velocity
            loss, grads = run_pass(*params)
            if not np.isfinite(loss):
                raise MlpDivergenceError(iteration, loss)
            history.append(loss)
    elapsed = time.perf_counter() - start
    (w_hidden, b_hidden), (w_out, b_out) = ((p[:, :-1], p[:, -1]) for p in params)
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


def _scores(model: MlpModel, scaled: np.ndarray) -> np.ndarray:
    """Output-layer activations (samples, classes) for scaled inputs, layer by layer."""
    hidden = build_hidden_matrix(scaled, model.w_hidden, model.b_hidden)
    return build_hidden_matrix(hidden, model.w_out, model.b_out)
