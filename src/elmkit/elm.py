"""Single-hidden-layer feedforward classifier trained by a direct
least-squares solve.

The hidden layer (input weights and biases) is drawn once at random and
never adjusted.  Training reduces to collecting the hidden-layer
activations for all samples into one matrix and solving a linear system
for the output weights by minimum-norm least squares.  There is no
iteration and no learning rate; the only knobs are the hidden-layer
width, the activation, and the seed.

Given train features X (K x p), frozen weights W (H x p) and biases c:

    A[j, i] = f(W[i] . X[j] + c[i])          (K x H activations)
    B       = argmin ||A B - Y||  with minimum norm   (H x m outputs)

where Y one-hot encodes the labels.  Prediction scores new samples with
``f(X W^T + c) B`` and picks the best-scoring class.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .data import (LabeledDataset, ScalingParams, _check_seed, _class_names, _frozen_array,
                   fit_scaling, scale_features)
from .linalg import _check_rank_tol, _one_blas_thread, min_norm_lstsq


def _sigmoid(x, out=None):
    # The logistic function as 0.5 * (1 + tanh(x / 2)): tanh saturates at
    # +-1, so neither end can overflow, and the in-place ufuncs allocate
    # nothing beyond the output array.  *out* (which may be *x* itself)
    # receives the result; without it a new array does and *x* is untouched.
    out = np.multiply(x, 0.5, out=out, dtype=np.float64)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def _hardlimit(x, out=None):
    # 1.0 where x >= 0, else 0.0; *out* as in _sigmoid
    if out is None:
        out = np.empty(np.shape(x))
    return np.greater_equal(x, 0.0, out=out)


ACTIVATIONS = {
    "sigmoid": _sigmoid,
    "tanh": np.tanh,
    "hardlimit": _hardlimit,
}


@dataclass(frozen=True)
class ElmConfig:
    """Hyperparameters for the randomized-hidden-layer classifier."""

    hidden_nodes: int = 300
    activation: str = "sigmoid"
    seed: int = 0
    rank_tol: float = 1e-10

    def __post_init__(self):
        if self.hidden_nodes < 1:
            raise ValueError(f"hidden_nodes must be >= 1, got {self.hidden_nodes}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(
                f"unknown activation '{self.activation}'; choose from {sorted(ACTIVATIONS)}"
            )
        _check_rank_tol(self.rank_tol)
        _check_seed(self.seed)


@dataclass(frozen=True)
class ElmModel:
    """Trained classifier: frozen hidden layer plus solved output weights.

    ``weights`` is (hidden_nodes, n_features), ``biases`` is
    (hidden_nodes,), ``output_weights`` is (hidden_nodes, n_classes).
    ``scaling`` is the feature map fitted on the training split.
    ``train_time_s`` is informational and is not serialized.
    """

    weights: np.ndarray
    biases: np.ndarray
    output_weights: np.ndarray
    config: ElmConfig
    class_names: tuple[str, ...]
    scaling: ScalingParams
    train_time_s: float = field(default=0.0, compare=False)

    def __post_init__(self):
        for name in ("weights", "biases", "output_weights"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))
        h, p = self.weights.shape
        if self.biases.shape != (h,):
            raise ValueError(f"biases shape {self.biases.shape} does not match {h} hidden nodes")
        if self.output_weights.shape != (h, len(self.class_names)):
            raise ValueError(
                f"output_weights shape {self.output_weights.shape} does not match "
                f"({h}, {len(self.class_names)})"
            )
        object.__setattr__(self, "class_names", _class_names(self.class_names))

    @property
    def n_features(self) -> int:
        return self.weights.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)


def init_random_layer(n_features: int, config: ElmConfig) -> tuple[np.ndarray, np.ndarray]:
    """Draw the frozen hidden layer for the given input width.

    The (hidden_nodes, n_features) weight matrix and the bias vector are
    uniform on [-1, 1], from one stream seeded by ``config.seed``;
    weights are drawn first, then biases, so the layer is reproducible.
    """
    if n_features < 1:
        raise ValueError(f"n_features must be >= 1, got {n_features}")
    rng = np.random.default_rng(config.seed)
    weights = rng.uniform(-1.0, 1.0, size=(config.hidden_nodes, n_features))
    biases = rng.uniform(-1.0, 1.0, size=config.hidden_nodes)
    return weights, biases


def build_hidden_matrix(features: np.ndarray, weights: np.ndarray, biases: np.ndarray,
                        activation: str) -> np.ndarray:
    """Activations of every hidden node on every sample: (samples, hidden).

    The matrix is built as one (hidden, samples) C-ordered array, biases
    added per row and the activation applied in place, and returned
    transposed: (samples, hidden) in Fortran order, the layout LAPACK
    factorises in place, so a solve needs no copy of it.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {features.shape}")
    if features.shape[1] != weights.shape[1]:
        raise ValueError(
            f"feature width {features.shape[1]} does not match weights width {weights.shape[1]}"
        )
    hidden = weights @ features.T
    hidden += np.reshape(biases, (-1, 1))
    return ACTIVATIONS[activation](hidden, out=hidden).T


def encode_targets(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """One-hot target matrix, one row per sample, one column per class."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError("labels must be a 1-D vector")
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValueError(f"labels out of range [0, {n_classes})")
    targets = np.zeros((labels.shape[0], n_classes))
    targets[np.arange(labels.shape[0]), labels] = 1.0
    return targets


def decode_scores(scores: np.ndarray) -> np.ndarray:
    """Predicted label per row: highest score, lowest index on ties."""
    scores = np.asarray(scores)
    if scores.ndim != 2:
        raise ValueError("scores must be 2-D")
    return scores.argmax(axis=1).astype(np.int64)


def train_elm(train: LabeledDataset, config: ElmConfig | None = None) -> ElmModel:
    """Fit the classifier on a training split.

    Fits the [-1, 1] feature scaling on the split, draws the hidden
    layer, and solves for the output weights in one least-squares pass.
    The hidden-layer product and the solve run on one BLAS thread (see
    :func:`elmkit.linalg._one_blas_thread`), and the solve factorises a
    tall hidden matrix in place, so such a fit holds one copy of it.
    A class with no training samples gets an identically zero output
    column, so it can only be predicted when every other class scores
    non-positive.
    """
    if config is None:
        config = ElmConfig()
    start = time.perf_counter()
    scaling = fit_scaling(train)
    scaled = scale_features(train.features, scaling)
    weights, biases = init_random_layer(train.n_features, config)
    targets = encode_targets(train.labels, train.n_classes)
    with _one_blas_thread():
        hidden = build_hidden_matrix(scaled, weights, biases, config.activation)
        output_weights = min_norm_lstsq(hidden, targets, rank_tol=config.rank_tol,
                                        overwrite_a=True)
    elapsed = time.perf_counter() - start
    return ElmModel(
        weights=weights,
        biases=biases,
        output_weights=output_weights,
        config=config,
        class_names=train.class_names,
        scaling=scaling,
        train_time_s=elapsed,
    )


def predict_scores(model: ElmModel, features: np.ndarray) -> np.ndarray:
    """Raw class scores (samples, classes) for unscaled input features."""
    scaled = scale_features(features, model.scaling)
    hidden = build_hidden_matrix(scaled, model.weights, model.biases, model.config.activation)
    return hidden @ model.output_weights


def predict(model: ElmModel, features: np.ndarray) -> np.ndarray:
    """Predicted label indices for unscaled input features."""
    return decode_scores(predict_scores(model, features))

