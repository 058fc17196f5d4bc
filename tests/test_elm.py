"""Tests for the randomized-hidden-layer classifier."""

from dataclasses import fields

import numpy as np
import pytest

from elmkit import elm
from elmkit.data import LabeledDataset
from elmkit.elm import (
    _init_random_layer,
    _logistic_layer,
    ElmConfig,
    ElmModel,
    build_hidden_matrix,
    decode_scores,
    encode_targets,
    train_elm,
)
from elmkit.evaluate import predict, predict_scores, training_cost


def blobs(rng, n_per_class=40, spread=1.0):
    """Three noisy 2-D clusters."""
    centers = np.array([[0.0, 0.0], [6.0, 0.0], [3.0, 5.0]])
    rows, labels = [], []
    for cls, center in enumerate(centers):
        rows.append(center + spread * rng.standard_normal((n_per_class, 2)))
        labels.append(np.full(n_per_class, cls))
    return LabeledDataset(np.vstack(rows), np.concatenate(labels), ("a", "b", "c"))


def sigmoid(x):
    """The logistic function through the layer step: one node, weight 1 and bias 0."""
    x = np.asarray(x, dtype=np.float64)
    return _logistic_layer(np.array([[1.0, 0.0]]), np.vstack([x, np.ones_like(x)]),
                           np.empty((1, x.size)))[0]


class TestLogistic:
    def test_midpoint_and_symmetry(self):
        out = sigmoid([0.0, 2.0, -2.0])
        assert out[0] == 0.5
        np.testing.assert_allclose(out[1] + out[2], 1.0, atol=1e-15)

    def test_reference_value(self):
        np.testing.assert_allclose(sigmoid([1.0])[0], 1.0 / (1.0 + np.exp(-1.0)))

    def test_extremes_give_0_and_1_without_warnings(self):
        """exp overflows and underflows here; the hidden-matrix build mutes both flags."""
        with np.errstate(all="raise"):
            got = build_hidden_matrix(np.ones((1, 1)), np.array([[-1000.0], [1000.0]]),
                                      np.zeros(2))
        np.testing.assert_array_equal(got, [[0.0, 1.0]])

    def test_matches_masked_formula(self):
        """The one-sided exp form stays within 2.3e-16 of the two-sided formula."""
        x = np.linspace(-60.0, 60.0, 240_001)
        masked = np.empty_like(x)
        pos = x >= 0
        masked[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        masked[~pos] = ex / (1.0 + ex)
        with np.errstate(all="raise"):
            out = sigmoid(x)
        assert np.abs(out - masked).max() <= 2.3e-16

    def test_leaves_inputs_untouched_and_writes_out(self, rng):
        layer = rng.standard_normal((4, 3))
        inputs = np.vstack([rng.standard_normal((2, 5)), np.ones(5)])
        before = layer.copy(), inputs.copy()
        out = np.empty((4, 5))
        assert _logistic_layer(layer, inputs, out) is out
        np.testing.assert_array_equal(layer, before[0])
        np.testing.assert_array_equal(inputs, before[1])
        np.testing.assert_allclose(out, 1.0 / (1.0 + np.exp(-(layer @ inputs))), rtol=1e-15)


class TestElmConfig:
    def test_defaults(self):
        """Width and seed are the only fields: the activation and the solve's cutoff are fixed."""
        config = ElmConfig()
        assert [f.name for f in fields(config)] == ["hidden_nodes", "seed"]
        assert config.hidden_nodes == 300
        assert config.seed == 0

    def test_bad_hidden_nodes(self):
        with pytest.raises(ValueError, match="hidden_nodes"):
            ElmConfig(hidden_nodes=0)


class TestInitRandomLayer:
    def test_shapes_and_range(self):
        config = ElmConfig(hidden_nodes=20, seed=4)
        weights, biases = _init_random_layer(5, config)
        assert weights.shape == (20, 5)
        assert biases.shape == (20,)
        assert (np.abs(weights) <= 1.0).all()
        assert (np.abs(biases) <= 1.0).all()

    def test_draw_order_is_weights_then_biases(self):
        config = ElmConfig(hidden_nodes=7, seed=99)
        weights, biases = _init_random_layer(4, config)
        rng = np.random.default_rng(99)
        np.testing.assert_array_equal(weights, rng.uniform(-1, 1, size=(7, 4)))
        np.testing.assert_array_equal(biases, rng.uniform(-1, 1, size=7))

    def test_deterministic(self):
        config = ElmConfig(hidden_nodes=10, seed=5)
        a = _init_random_layer(3, config)
        b = _init_random_layer(3, config)
        assert a[0].tobytes() == b[0].tobytes()
        assert a[1].tobytes() == b[1].tobytes()


class TestBuildHiddenMatrix:
    def test_matches_scalar_oracle(self, rng):
        """Entry (j, i) is the logistic of node i's affine response to sample j."""
        features = rng.standard_normal((6, 3))
        weights = rng.standard_normal((4, 3))
        biases = rng.standard_normal(4)
        got = build_hidden_matrix(features, weights, biases)
        assert got.shape == (6, 4)
        for j in range(6):
            for i in range(4):
                z = float(weights[i] @ features[j]) + biases[i]
                np.testing.assert_allclose(got[j, i], 1.0 / (1.0 + np.exp(-z)), rtol=1e-12)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_matches_textbook_affine_map(self, rng, order):
        """The bias rides in the GEMM as a column of [W | b]; the result matches
        1 / (1 + exp(-(X @ W.T + b))) within an absolute 1e-13, and stays
        Fortran-ordered."""
        features = np.asarray(rng.uniform(-1, 1, size=(700, 6)), order=order)
        weights = rng.uniform(-1, 1, size=(300, 6))
        biases = rng.uniform(-1, 1, size=300)
        z = features @ weights.T + biases
        got = build_hidden_matrix(features, weights, biases)
        assert got.shape == (700, 300)
        assert got.flags.f_contiguous
        np.testing.assert_allclose(got, 1.0 / (1.0 + np.exp(-z)), rtol=0, atol=1e-13)

    def test_negated_layer_gives_the_bits_of_the_negated_product(self, rng):
        """The GEMM by -[W | b] is exactly -([W | b] @ [X | 1]^T): negation is exact
        and rounding symmetric, so the logistic sees the same bits as when the
        product was negated after the GEMM."""
        features = rng.uniform(-1, 1, size=(500, 6))
        weights = rng.uniform(-1, 1, size=(300, 6))
        biases = rng.uniform(-1, 1, size=300)
        product = np.column_stack([weights, biases]) @ np.vstack([features.T, np.ones(500)])
        want = 1.0 / (1.0 + np.exp(np.negative(product)))
        got = build_hidden_matrix(features, weights, biases)
        assert got.T.tobytes() == want.tobytes()

    def test_width_mismatch(self, rng):
        with pytest.raises(ValueError, match="width"):
            build_hidden_matrix(rng.standard_normal((3, 2)),
                                rng.standard_normal((4, 3)),
                                np.zeros(4))


class TestEncodeTargets:
    def test_known_encoding(self):
        out = encode_targets(np.array([1, 0, 2, 1]), 3)
        np.testing.assert_array_equal(out, [
            [0, 1, 0],
            [1, 0, 0],
            [0, 0, 1],
            [0, 1, 0],
        ])

    def test_row_sums_are_one(self, rng):
        labels = rng.integers(0, 5, size=30)
        out = encode_targets(labels, 5)
        np.testing.assert_array_equal(out.sum(axis=1), np.ones(30))
        np.testing.assert_array_equal(out.sum(axis=0), np.bincount(labels, minlength=5))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="range"):
            encode_targets(np.array([0, 3]), 3)

    @pytest.mark.parametrize("labels, dtype", [([0.0, 1.9], "float64"), ([True, False], "bool")])
    def test_labels_a_cast_would_change_rejected(self, labels, dtype):
        """A cast would encode 1.9 as class 1, and True as class 1."""
        with pytest.raises(ValueError, match=f"^labels must be integers that int64 holds, "
                                             f"got {dtype} labels$"):
            encode_targets(labels, 2)


class TestDecodeScores:
    def test_argmax(self):
        scores = np.array([[0.1, 0.9], [0.8, 0.2]])
        np.testing.assert_array_equal(decode_scores(scores), [1, 0])

    def test_tie_goes_to_lowest_index(self):
        scores = np.array([[0.5, 0.5, 0.2], [0.1, 0.7, 0.7]])
        np.testing.assert_array_equal(decode_scores(scores), [0, 1])

    def test_invariant_under_monotone_shift(self, rng):
        scores = rng.standard_normal((40, 6))
        base = decode_scores(scores)
        np.testing.assert_array_equal(decode_scores(scores * 3.0 + 11.0), base)


class TestTrainElm:
    def test_xor_exact_fit(self):
        """Four hidden nodes interpolate the four XOR points exactly."""
        features = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        labels = np.array([0, 1, 1, 0])
        ds = LabeledDataset(features, labels, ("even", "odd"))
        model = train_elm(ds, ElmConfig(hidden_nodes=4, seed=7))
        assert training_cost(model, ds) < 1e-10
        np.testing.assert_array_equal(predict(model, features), labels)

    def test_interpolation_when_hidden_matches_samples(self, rng):
        """With as many hidden nodes as samples the fit is exact."""
        for seed in range(5):
            local = np.random.default_rng(300 + seed)
            features = local.uniform(-1, 1, size=(10, 4))
            labels = local.integers(0, 3, size=10)
            labels[:3] = [0, 1, 2]
            ds = LabeledDataset(features, labels, ("a", "b", "c"))
            model = train_elm(ds, ElmConfig(hidden_nodes=10, seed=seed))
            assert training_cost(model, ds) < 1e-6

    def test_deterministic_for_fixed_config(self, rng):
        ds = blobs(rng)
        a = train_elm(ds, ElmConfig(hidden_nodes=25, seed=3))
        b = train_elm(ds, ElmConfig(hidden_nodes=25, seed=3))
        assert a.output_weights.tobytes() == b.output_weights.tobytes()
        assert a.weights.tobytes() == b.weights.tobytes()

    def test_seed_changes_hidden_layer(self, rng):
        ds = blobs(rng)
        a = train_elm(ds, ElmConfig(hidden_nodes=25, seed=3))
        b = train_elm(ds, ElmConfig(hidden_nodes=25, seed=4))
        assert not np.array_equal(a.weights, b.weights)

    def test_separable_blobs_are_learned(self, rng):
        train = blobs(rng, n_per_class=60, spread=0.6)
        test = blobs(rng, n_per_class=40, spread=0.6)
        model = train_elm(train, ElmConfig(hidden_nodes=30, seed=0))
        accuracy = (predict(model, test.features) == test.labels).mean()
        assert accuracy > 0.95

    def test_wider_layer_fits_train_better(self, rng):
        """Median training cost over seeds drops as the layer widens."""
        ds = blobs(rng, n_per_class=50, spread=1.5)
        costs = {}
        for h in (10, 50):
            costs[h] = np.median([
                training_cost(train_elm(ds, ElmConfig(hidden_nodes=h, seed=s)), ds)
                for s in range(11)
            ])
        assert costs[50] < costs[10]

    def test_absent_class_gets_zero_column(self, rng):
        features = rng.standard_normal((12, 3))
        labels = np.array([0, 1] * 6)
        ds = LabeledDataset(features, labels, ("a", "b", "ghost"))
        model = train_elm(ds, ElmConfig(hidden_nodes=6, seed=2))
        np.testing.assert_array_equal(model.output_weights[:, 2], np.zeros(6))

    def test_model_arrays_read_only(self, rng):
        model = train_elm(blobs(rng), ElmConfig(hidden_nodes=5, seed=1))
        with pytest.raises(ValueError):
            model.output_weights[0, 0] = 1.0

    def test_scaling_travels_with_model(self, rng):
        """Predicting the training features works on raw, unscaled inputs."""
        ds = blobs(rng)
        shifted = LabeledDataset(ds.features * 100.0 + 5000.0, ds.labels, ds.class_names)
        model = train_elm(shifted, ElmConfig(hidden_nodes=30, seed=0))
        accuracy = (predict(model, shifted.features) == shifted.labels).mean()
        assert accuracy > 0.9


class TestOneBlasThread:
    """The hidden layer is built on one OpenBLAS thread whatever the caller's
    count, and the caller's count is back afterwards."""

    def test_training_and_scoring(self, rng, monkeypatch, blas_threads):
        seen, inner = [], elm.build_hidden_matrix

        def recording(*args):
            seen.append(blas_threads())
            return inner(*args)

        monkeypatch.setattr(elm, "build_hidden_matrix", recording)
        ds = blobs(rng)
        model = train_elm(ds, ElmConfig(hidden_nodes=20))
        assert seen == [1] and blas_threads() == 2
        predict_scores(model, ds.features)
        assert seen == [1, 1] and blas_threads() == 2


class TestTrainingCost:
    def test_matches_manual_residual(self, rng):
        ds = blobs(rng)
        model = train_elm(ds, ElmConfig(hidden_nodes=8, seed=5))
        scores = predict_scores(model, ds.features)
        targets = encode_targets(ds.labels, 3)
        np.testing.assert_allclose(training_cost(model, ds),
                                   np.sum((scores - targets) ** 2), rtol=1e-12)


class TestElmModelValidation:
    def test_shape_mismatch_rejected(self):
        from elmkit.data import ScalingParams
        scaling = ScalingParams(np.zeros(2), np.ones(2))
        with pytest.raises(ValueError, match="output_weights"):
            ElmModel(
                weights=np.zeros((4, 2)),
                biases=np.zeros(4),
                output_weights=np.zeros((4, 3)),
                config=ElmConfig(hidden_nodes=4),
                class_names=("a", "b"),
                scaling=scaling,
            )
