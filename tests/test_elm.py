"""Tests for the randomized-hidden-layer classifier."""

import numpy as np
import pytest

from elmkit.data import LabeledDataset
from elmkit.elm import (
    ACTIVATIONS,
    _sigmoid,
    ElmConfig,
    ElmModel,
    build_hidden_matrix,
    decode_scores,
    encode_targets,
    init_random_layer,
    predict,
    predict_scores,
    train_elm,
    training_cost,
)


def blobs(rng, n_per_class=40, spread=1.0):
    """Three noisy 2-D clusters."""
    centers = np.array([[0.0, 0.0], [6.0, 0.0], [3.0, 5.0]])
    rows, labels = [], []
    for cls, center in enumerate(centers):
        rows.append(center + spread * rng.standard_normal((n_per_class, 2)))
        labels.append(np.full(n_per_class, cls))
    return LabeledDataset(np.vstack(rows), np.concatenate(labels), ("a", "b", "c"))


class TestActivations:
    def test_sigmoid_midpoint_and_symmetry(self):
        f = ACTIVATIONS["sigmoid"]
        x = np.array([0.0, 2.0, -2.0])
        out = f(x)
        assert out[0] == 0.5
        np.testing.assert_allclose(out[1] + out[2], 1.0, atol=1e-15)

    def test_sigmoid_reference_value(self):
        f = ACTIVATIONS["sigmoid"]
        np.testing.assert_allclose(f(np.array([1.0]))[0], 1.0 / (1.0 + np.exp(-1.0)))

    def test_sigmoid_extremes_do_not_overflow(self):
        f = ACTIVATIONS["sigmoid"]
        with np.errstate(over="raise"):
            out = f(np.array([-1000.0, 1000.0]))
        np.testing.assert_allclose(out, [0.0, 1.0])

    def test_sigmoid_matches_masked_formula(self):
        """The tanh form stays within 2.3e-16 of the two-sided exp formula."""
        x = np.linspace(-60.0, 60.0, 240_001)
        masked = np.empty_like(x)
        pos = x >= 0
        masked[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        masked[~pos] = ex / (1.0 + ex)
        with np.errstate(all="raise"):
            out = _sigmoid(x)
        assert np.abs(out - masked).max() <= 2.3e-16

    def test_sigmoid_leaves_input_untouched(self, rng):
        x = rng.standard_normal((4, 3))
        before = x.copy()
        _sigmoid(x)
        np.testing.assert_array_equal(x, before)

    def test_tanh_matches_numpy(self, rng):
        x = rng.standard_normal(50)
        np.testing.assert_array_equal(ACTIVATIONS["tanh"](x), np.tanh(x))

    def test_hardlimit_threshold(self):
        f = ACTIVATIONS["hardlimit"]
        np.testing.assert_array_equal(f(np.array([-0.1, 0.0, 0.1])), [0.0, 1.0, 1.0])


class TestElmConfig:
    def test_defaults(self):
        config = ElmConfig()
        assert config.hidden_nodes == 300
        assert config.activation == "sigmoid"
        assert config.weight_range == (-1.0, 1.0)

    def test_bad_hidden_nodes(self):
        with pytest.raises(ValueError, match="hidden_nodes"):
            ElmConfig(hidden_nodes=0)

    def test_bad_activation(self):
        with pytest.raises(ValueError, match="activation"):
            ElmConfig(activation="relu")

    def test_bad_weight_range(self):
        with pytest.raises(ValueError, match="weight_range"):
            ElmConfig(weight_range=(1.0, -1.0))

    @pytest.mark.parametrize("rank_tol", [-1e-12, float("nan")])
    def test_bad_rank_tol(self, rank_tol):
        """The same cutoff rule as the solve: NaN is rejected, not just negatives."""
        with pytest.raises(ValueError, match="rank_tol must be non-negative"):
            ElmConfig(rank_tol=rank_tol)


class TestInitRandomLayer:
    def test_shapes_and_range(self):
        config = ElmConfig(hidden_nodes=20, seed=4)
        weights, biases = init_random_layer(5, config)
        assert weights.shape == (20, 5)
        assert biases.shape == (20,)
        assert (np.abs(weights) <= 1.0).all()
        assert (np.abs(biases) <= 1.0).all()

    def test_custom_range(self):
        config = ElmConfig(hidden_nodes=50, seed=1, weight_range=(0.0, 0.5))
        weights, biases = init_random_layer(3, config)
        assert weights.min() >= 0.0 and weights.max() <= 0.5
        assert biases.min() >= 0.0 and biases.max() <= 0.5

    def test_draw_order_is_weights_then_biases(self):
        config = ElmConfig(hidden_nodes=7, seed=99)
        weights, biases = init_random_layer(4, config)
        rng = np.random.default_rng(99)
        np.testing.assert_array_equal(weights, rng.uniform(-1, 1, size=(7, 4)))
        np.testing.assert_array_equal(biases, rng.uniform(-1, 1, size=7))

    def test_deterministic(self):
        config = ElmConfig(hidden_nodes=10, seed=5)
        a = init_random_layer(3, config)
        b = init_random_layer(3, config)
        assert a[0].tobytes() == b[0].tobytes()
        assert a[1].tobytes() == b[1].tobytes()


class TestBuildHiddenMatrix:
    def test_matches_scalar_oracle(self, rng):
        """Entry (j, i) is the activation of node i's affine response to sample j."""
        features = rng.standard_normal((6, 3))
        weights = rng.standard_normal((4, 3))
        biases = rng.standard_normal(4)
        for name, f in ACTIVATIONS.items():
            got = build_hidden_matrix(features, weights, biases, name)
            assert got.shape == (6, 4)
            for j in range(6):
                for i in range(4):
                    expected = f(np.array([float(weights[i] @ features[j]) + biases[i]]))[0]
                    np.testing.assert_allclose(got[j, i], expected, rtol=1e-12)

    def test_width_mismatch(self, rng):
        with pytest.raises(ValueError, match="width"):
            build_hidden_matrix(rng.standard_normal((3, 2)),
                                rng.standard_normal((4, 3)),
                                np.zeros(4), "sigmoid")


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
