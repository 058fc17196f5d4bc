"""Single-hidden-layer feedforward classifier trained by a direct
least-squares solve.

The hidden layer (input weights and biases) is drawn once at random and
never adjusted.  Training reduces to collecting the hidden-layer
activations for all samples into one matrix and solving a linear system
for the output weights by minimum-norm least squares.  There is no
iteration and no learning rate: the one parameter is the hidden-layer
width, and the seed picks the draw.

Given train features X (K x p), frozen weights W (H x p) and biases c:

    A[j, i] = f(W[i] . X[j] + c[i])          (K x H activations)
    B       = argmin ||A B - Y||  with minimum norm   (H x m outputs)

where f is the logistic function and Y one-hot encodes the labels.
Prediction scores new samples with ``f(X W^T + c) B`` and picks the
best-scoring class.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .data import (LabeledDataset, ScalingParams, _check_int, _frozen_ints, _Model, _set_fields,
                   fit_scaling, scale_features)
from .linalg import _one_blas_thread, min_norm_lstsq


def _logistic_layer(layer, inputs, out):
    # The logistic activations of a layer [W | b] on *inputs*, whose last row is ones,
    # into *out*: z = -[W | b] @ inputs by one GEMM (negation is exact and rounding
    # symmetric, so z has the bits of -(Wx + b)), then 1 / (1 + exp(z)) in three
    # in-place ufuncs.  exp overflows above z = 709, giving an exact 0, and underflows
    # below -745, giving 1; the caller mutes both flags.
    np.matmul(np.negative(layer), inputs, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


@dataclass(frozen=True)
class ElmConfig:
    """Hyperparameters for the randomized-hidden-layer classifier: the width
    of the hidden layer, and the seed of its draw."""

    hidden_nodes: int = 300
    seed: int = 0

    def __post_init__(self):
        _set_fields(self, hidden_nodes=_check_int("hidden_nodes", self.hidden_nodes, 1),
                    seed=_check_int("seed", self.seed))


@dataclass(frozen=True)
class ElmModel(_Model):
    """Trained classifier: frozen hidden layer plus solved output weights.

    Its arrays are listed in ``_ARRAYS`` (see :class:`elmkit.data._Model`);
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

    _ARRAYS = (("weights", "hidden", "features"), ("biases", "hidden", None),
               ("output_weights", "hidden", "classes"))


def _init_random_layer(n_features: int, config: ElmConfig) -> tuple[np.ndarray, np.ndarray]:
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


def build_hidden_matrix(features: np.ndarray, weights: np.ndarray,
                        biases: np.ndarray) -> np.ndarray:
    """Logistic activations of every node of a layer ``[weights | biases]`` on every
    sample, (samples, nodes): the ELM's hidden layer, or either layer of the MLP.

    It is built by the layer step that the MLP's training pass runs too, so it has
    that pass's forward bits: one (nodes, samples) C-ordered GEMM, ``-[weights |
    biases] @ [features | 1]^T``, then the logistic in place.  It is returned
    transposed: (samples, nodes) in Fortran order, the layout LAPACK factorises in
    place, so a solve needs no copy of it.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {features.shape}")
    if features.shape[1] != weights.shape[1]:
        raise ValueError(
            f"feature width {features.shape[1]} does not match weights width {weights.shape[1]}"
        )
    with np.errstate(over="ignore", under="ignore"):
        return _logistic_layer(np.column_stack([weights, biases]), _with_ones_row(features),
                               np.empty((len(weights), len(features)))).T


def _with_ones_row(features: np.ndarray) -> np.ndarray:
    """(features + 1, samples) C-ordered: the inputs transposed over a row of ones."""
    out = np.ones((features.shape[1] + 1, features.shape[0]))
    out[:-1] = features.T
    return out


def encode_targets(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """One-hot target matrix, one row per sample, one column per class."""
    labels = _frozen_ints("labels", labels)
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
    layer, and solves for the output weights in one least-squares pass
    with :func:`elmkit.linalg.min_norm_lstsq`, which counts a singular
    value at or below 1e-10 times the largest as zero.  The
    hidden-layer product and the solve run on one BLAS thread (see
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
    weights, biases = _init_random_layer(train.n_features, config)
    targets = encode_targets(train.labels, train.n_classes)
    with _one_blas_thread():
        hidden = build_hidden_matrix(scaled, weights, biases)
        output_weights = min_norm_lstsq(hidden, targets, overwrite_a=True)
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


def _scores(model: ElmModel, scaled: np.ndarray) -> np.ndarray:
    """Raw class scores (samples, classes) for scaled input features."""
    return build_hidden_matrix(scaled, model.weights, model.biases) @ model.output_weights

