"""Metamorphic relations of both classifiers on the bundled split of three scenes.

Each relation changes the data without changing the problem, so it must
leave every test prediction as it was:

* permuting the training rows;
* duplicating every training row (the MLP's step divides by the sample
  count, so its trajectory is the same);
* permuting the rows given to ``predict``, whose labels permute with
  them, and whose scores do to their last bits;
* a positive affine map of each feature, x -> a·x + b, on the train and
  the predict inputs alike, which the [-1, 1] scaling undoes;
* for the ELM, reversing the class list and remapping the labels, whose
  predictions map back and whose output-weight columns permute with them.

The first two also hold for the ELM on the solve without the QR route
(``np.linalg.lstsq``, as on a numpy without its bundled OpenBLAS).

Only the order of the sums over samples, or the rounding of the scaled
features, changes, so the weights may move in their last bits and no
further.  The ELM's output weights solve a
least-squares system, whose rounding is amplified by the condition number
κ of its hidden matrix: they may move by κ·eps relative (measured: 0.05
to 0.08 of that).  The MLP's weights may move by 32 eps relative per
array (measured: at most 6.6 eps after 300 iterations).  The MLP is left
out of the class-order relation: its ``w_out`` draw follows class order,
so the reordered fit starts from other weights.
"""

from dataclasses import replace

import numpy as np
import pytest

from elmkit import (ElmConfig, LabeledDataset, MlpConfig, default_split_spec, generate_synthetic,
                    littleport_like_config, predict, predict_scores, stratified_split, train_elm,
                    train_mlp)
from elmkit.data import scale_features
from elmkit.elm import build_hidden_matrix

EPS = np.finfo(np.float64).eps
KINDS = {"elm": (train_elm, ElmConfig(hidden_nodes=300)),
         "mlp": (train_mlp, MlpConfig(iterations=300))}
WEIGHTS = {"elm": ("output_weights",), "mlp": ("w_hidden", "b_hidden", "w_out", "b_out")}


@pytest.fixture(scope="module", params=[42, 0, 7], ids=lambda seed: f"scene{seed}")
def scene(request):
    """(train, test, relation name -> transformed train) of the bundled split."""
    seed = request.param
    train, test = stratified_split(generate_synthetic(littleport_like_config(seed=seed)),
                                   default_split_spec(seed))
    order = np.random.default_rng(seed).permutation(train.n_samples)
    duplicated = LabeledDataset(np.vstack([train.features] * 2), np.tile(train.labels, 2),
                                train.class_names)
    return train, test, {"permuted": train.subset(order), "duplicated": duplicated}


@pytest.fixture(scope="module", params=sorted(KINDS))
def fits(request, scene):
    """(kind, model on the split, relation name -> model on the transformed split,
    relative bound on each weight array's move, test)."""
    train, test, transformed = scene
    fit, config = KINDS[request.param]
    model = fit(train, config)
    bound = condition_number(model, train) * EPS if request.param == "elm" else 32 * EPS
    return (request.param, model, {name: fit(rows, config) for name, rows in transformed.items()},
            bound, test)


def condition_number(model, train):
    """κ of the ELM's hidden matrix over the singular values its solve keeps."""
    hidden = build_hidden_matrix(scale_features(train.features, model.scaling), model.weights,
                                 model.biases)
    values = np.linalg.svd(hidden, compute_uv=False)
    kept = values[values > 1e-10 * values[0]]
    return kept[0] / kept[-1]


def score_tolerance(model):
    """2·n·eps times the largest 1-norm of the weights into one score, n of them: the
    error bound of two length-n sums whose other factors are at most 1 in size (hidden
    activations and the ones row).  The MLP's output logistic only shrinks an error."""
    if hasattr(model, "output_weights"):
        weights = model.output_weights.T
    else:
        weights = np.column_stack([model.w_out, model.b_out])
    return 2 * weights.shape[1] * EPS * np.abs(weights).sum(axis=1).max()


def assert_weights_within(kind, model, other, bound):
    """Each weight array of *other* lies within *bound* relative of *model*'s."""
    for name in WEIGHTS[kind]:
        before, after = getattr(model, name), getattr(other, name)
        assert np.linalg.norm(after - before) <= bound * np.linalg.norm(before), name


@pytest.mark.parametrize("relation", ["permuted", "duplicated"])
def test_training_rows_relation(fits, relation):
    kind, model, moved, bound, test = fits
    other = moved[relation]
    np.testing.assert_array_equal(predict(other, test.features), predict(model, test.features))
    assert_weights_within(kind, model, other, bound)


@pytest.mark.parametrize("relation", ["permuted", "duplicated"])
def test_elm_training_rows_relation_on_lstsq_route(scene, relation, lstsq_route):
    """Measured on the three scenes: the output weights moved by 0.04-0.06 of κ·eps."""
    train, test, transformed = scene
    fit, config = KINDS["elm"]
    model, other = fit(train, config), fit(transformed[relation], config)
    np.testing.assert_array_equal(predict(other, test.features), predict(model, test.features))
    assert_weights_within("elm", model, other, condition_number(model, train) * EPS)


def test_elm_class_order_reversed(scene):
    """The hidden layer and the hidden matrix do not depend on class order, so only the
    target columns permute.  Measured on the three scenes: the output weights permuted
    bit for bit on OpenBLAS's SkylakeX kernels, and moved by at most 4.8e-6 of κ·eps on
    its Haswell and Zen kernels."""
    train, test, _ = scene
    fit, config = KINDS["elm"]
    last = train.n_classes - 1
    model = fit(train, config)
    other = fit(LabeledDataset(train.features, last - train.labels, train.class_names[::-1]),
                config)
    np.testing.assert_array_equal(last - predict(other, test.features),
                                  predict(model, test.features))
    back = replace(other, output_weights=other.output_weights[:, ::-1],
                   class_names=train.class_names)
    assert_weights_within("elm", model, back, condition_number(model, train) * EPS)


def test_positive_affine_feature_map(fits, scene):
    """a ~ U(0.5, 3) and b ~ U(-50, 50) per feature.  Measured on the three scenes: the
    ELM's output weights moved by 0.05-0.07 of κ·eps, the MLP's by at most 2.2 eps."""
    kind, model, _, bound, test = fits
    train = scene[0]
    rng = np.random.default_rng(3)
    a, b = rng.uniform(0.5, 3.0, train.n_features), rng.uniform(-50.0, 50.0, train.n_features)
    fit, config = KINDS[kind]
    other = fit(LabeledDataset(train.features * a + b, train.labels, train.class_names), config)
    np.testing.assert_array_equal(predict(other, test.features * a + b),
                                  predict(model, test.features))
    assert_weights_within(kind, model, other, bound)


def test_predict_rows_permuted(fits):
    """Labels permute exactly and scores within :func:`score_tolerance`.  The GEMMs may
    round a row differently at another position: the ELM's output GEMM moved scores by
    up to 1e-12 (under 1e-4 of the tolerance).  The MLP's scores permuted bit for bit
    on OpenBLAS's default kernels here, and moved by one ulp on its Haswell kernels."""
    kind, model, _, _, test = fits
    order = np.random.default_rng(1).permutation(test.n_samples)
    scores = predict_scores(model, test.features)
    permuted = predict_scores(model, test.features[order])
    np.testing.assert_array_equal(predict(model, test.features[order]),
                                  predict(model, test.features)[order])
    assert np.abs(permuted - scores[order]).max() <= score_tolerance(model)
