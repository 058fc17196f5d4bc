"""Tests for the momentum-descent baseline network."""

import numpy as np
import pytest

from elmkit import mlp
from elmkit.data import (LabeledDataset, fit_scaling, generate_synthetic, littleport_like_config,
                         scale_features)
from elmkit.elm import build_hidden_matrix, encode_targets
from elmkit.evaluate import predict, predict_scores
from elmkit.mlp import (
    _MEAN_STEP_GAIN,
    _init_mlp_params,
    MlpConfig,
    MlpDivergenceError,
    train_mlp,
)


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def blobs(rng, n_per_class=40, spread=0.8):
    centers = np.array([[0.0, 0.0], [5.0, 0.0], [2.5, 4.0]])
    rows, labels = [], []
    for cls, center in enumerate(centers):
        rows.append(center + spread * rng.standard_normal((n_per_class, 2)))
        labels.append(np.full(n_per_class, cls))
    return LabeledDataset(np.vstack(rows), np.concatenate(labels), ("a", "b", "c"))


def forward(features, w_hidden, b_hidden, w_out, b_out):
    """(hidden, output) activations, each layer by build_hidden_matrix, as scoring runs them."""
    hidden = build_hidden_matrix(features, w_hidden, b_hidden)
    return hidden, build_hidden_matrix(hidden, w_out, b_out)


def reference_train(ds, config, run_pass):
    """The unfused training loop: gradient, step, then a full cost pass, each by
    a new pass from the ``mlp_pass`` fixture (*run_pass*).

    Returns (iteration whose loss went non-finite or None, loss history,
    parameters).
    """
    features = scale_features(ds.features, fit_scaling(ds))
    targets = encode_targets(ds.labels, ds.n_classes)
    params = list(_init_mlp_params(ds.n_features, ds.n_classes, config))
    velocities = [np.zeros_like(p) for p in params]
    step = config.learning_rate * _MEAN_STEP_GAIN / ds.n_samples
    history = [run_pass(features, targets, *params)[0]]
    with np.errstate(invalid="ignore", over="ignore"):
        for iteration in range(1, config.iterations + 1):
            grads = run_pass(features, targets, *params)[1]
            for i in range(4):
                velocities[i] = config.momentum * velocities[i] - step * grads[i]
                params[i] = params[i] + velocities[i]
            loss = run_pass(features, targets, *params)[0]
            if not np.isfinite(loss):
                return iteration, history, params
            history.append(loss)
    return None, history, params


def runaway_config(iterations):
    """A step so large that blobs(default_rng(0)) overflows at iteration 22."""
    return MlpConfig(hidden_nodes=8, learning_rate=10 ** 307.5, momentum=0.99,
                     iterations=iterations, seed=1)


def tiny_params():
    """Fixed 2-input, 2-hidden, 2-output parameters for hand checks."""
    w_hidden = np.array([[0.1, -0.2], [0.3, 0.4]])
    b_hidden = np.array([0.05, -0.05])
    w_out = np.array([[0.2, -0.1], [-0.3, 0.25]])
    b_out = np.array([0.1, -0.2])
    return w_hidden, b_hidden, w_out, b_out


class TestMlpConfig:
    def test_reference_defaults(self):
        config = MlpConfig()
        assert config.hidden_nodes == 26
        assert config.learning_rate == 0.25
        assert config.momentum == 0.2
        assert config.iterations == 2200
        assert config.seed == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="learning_rate"):
            MlpConfig(learning_rate=0.0)
        with pytest.raises(ValueError, match="momentum"):
            MlpConfig(momentum=1.0)
        with pytest.raises(ValueError, match="iterations"):
            MlpConfig(iterations=0)


class TestInitParams:
    def test_shapes_and_draw_order(self):
        config = MlpConfig(hidden_nodes=5, seed=21)
        w1, b1, w2, b2 = _init_mlp_params(3, 4, config)
        assert w1.shape == (5, 3) and b1.shape == (5,)
        assert w2.shape == (4, 5) and b2.shape == (4,)
        rng = np.random.default_rng(21)
        np.testing.assert_array_equal(w1, rng.uniform(-0.5, 0.5, size=(5, 3)))
        np.testing.assert_array_equal(b1, rng.uniform(-0.5, 0.5, size=5))
        np.testing.assert_array_equal(w2, rng.uniform(-0.5, 0.5, size=(4, 5)))
        np.testing.assert_array_equal(b2, rng.uniform(-0.5, 0.5, size=4))


class TestForward:
    def test_hand_computed_two_by_two(self):
        w1, b1, w2, b2 = tiny_params()
        x = np.array([[1.0, 2.0]])
        hidden, output = forward(x, w1, b1, w2, b2)
        h0 = sigmoid(0.1 * 1.0 - 0.2 * 2.0 + 0.05)
        h1 = sigmoid(0.3 * 1.0 + 0.4 * 2.0 - 0.05)
        np.testing.assert_allclose(hidden, [[h0, h1]], rtol=1e-15)
        o0 = sigmoid(0.2 * h0 - 0.1 * h1 + 0.1)
        o1 = sigmoid(-0.3 * h0 + 0.25 * h1 - 0.2)
        np.testing.assert_allclose(output, [[o0, o1]], rtol=1e-15)

    def test_output_range(self, rng):
        params = _init_mlp_params(4, 3, MlpConfig(hidden_nodes=6, seed=1))
        _, output = forward(rng.standard_normal((20, 4)) * 50, *params)
        assert (output > 0).all() and (output < 1).all()


class TestCost:
    def test_known_value(self, mlp_pass):
        w1, b1, w2, b2 = tiny_params()
        x = np.array([[1.0, 2.0]])
        y = np.array([[1.0, 0.0]])
        _, output = forward(x, w1, b1, w2, b2)
        expected = (output[0, 0] - 1.0) ** 2 + output[0, 1] ** 2
        np.testing.assert_allclose(mlp_pass(x, y, w1, b1, w2, b2)[0], expected, rtol=1e-15)

    def test_sums_over_samples(self, rng, mlp_pass):
        params = _init_mlp_params(3, 2, MlpConfig(hidden_nodes=4, seed=3))
        x = rng.standard_normal((8, 3))
        y = encode_targets(rng.integers(0, 2, size=8), 2)
        total = mlp_pass(x, y, *params)[0]
        parts = sum(mlp_pass(x[j:j + 1], y[j:j + 1], *params)[0] for j in range(8))
        np.testing.assert_allclose(total, parts, rtol=1e-12)


class TestMemoryOrder:
    def test_c_and_fortran_ordered_inputs_give_the_same_bits(self, rng, mlp_pass):
        params = _init_mlp_params(5, 3, MlpConfig(hidden_nodes=9, seed=6))
        x = rng.uniform(-1, 1, size=(300, 5))
        y = encode_targets(rng.integers(0, 3, size=300), 3)
        fx, fy = np.asfortranarray(x), np.asfortranarray(y)
        assert not fx.flags.c_contiguous and not fy.flags.c_contiguous
        for a, b in zip(forward(x, *params), forward(fx, *params)):
            assert a.tobytes() == b.tobytes()
        (cost, grads), (f_cost, f_grads) = mlp_pass(x, y, *params), mlp_pass(fx, fy, *params)
        assert cost == f_cost
        for a, b in zip(grads, f_grads):
            assert a.tobytes() == b.tobytes()


def numerical_gradient(run_pass, features, targets, params, index, step=1e-6):
    """Central-difference gradient for one parameter array, from the costs of
    *run_pass* (the ``mlp_pass`` fixture)."""
    param = params[index]
    grad = np.zeros_like(param)
    flat = param.ravel()
    for k in range(flat.size):
        bumped = [p.copy() for p in params]
        bumped[index].ravel()[k] = flat[k] + step
        hi = run_pass(features, targets, *bumped)[0]
        bumped[index].ravel()[k] = flat[k] - step
        lo = run_pass(features, targets, *bumped)[0]
        grad.ravel()[k] = (hi - lo) / (2 * step)
    return grad


def textbook_cost_and_gradient(features, targets, w_hidden, b_hidden, w_out, b_out):
    """The summed squared error and its gradient, with each bias added on its
    own and the logistic written out: a reference for the fused pass."""
    hidden = sigmoid(features @ w_hidden.T + b_hidden)
    output = sigmoid(hidden @ w_out.T + b_out)
    delta_out = 2.0 * (output - targets) * output * (1.0 - output)
    delta_hidden = (delta_out @ w_out) * hidden * (1.0 - hidden)
    cost = float(np.sum((output - targets) ** 2))
    return cost, (delta_hidden.T @ features, delta_hidden.sum(axis=0),
                  delta_out.T @ hidden, delta_out.sum(axis=0))


class TestAgainstTextbook:
    """The pass folds each bias into its layer's GEMM; the result must match
    the separate W, b form within a relative 1e-12 (each entry scaled by its
    array's largest magnitude), whatever the memory order of the features."""

    RTOL = 1e-12

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cost_and_gradient(self, order, seed, mlp_pass):
        rng = np.random.default_rng(seed)
        params = _init_mlp_params(6, 7, MlpConfig(hidden_nodes=26, seed=seed))
        # wider weights than the initial draw, so some units saturate
        params = tuple(p * 4.0 for p in params)
        x = np.asarray(rng.uniform(-1, 1, size=(500, 6)), order=order)
        y = encode_targets(rng.integers(0, 7, size=500), 7)
        assert x.flags.f_contiguous == (order == "F")
        want_cost, want_grads = textbook_cost_and_gradient(x, y, *params)
        cost, grads = mlp_pass(x, y, *params)
        assert abs(cost - want_cost) <= self.RTOL * want_cost
        for name, got, want, param in zip(("w_hidden", "b_hidden", "w_out", "b_out"),
                                          grads, want_grads, params):
            assert got.shape == param.shape
            err = np.abs(got - want).max() / np.abs(want).max()
            assert err <= self.RTOL, f"{name}: relative error {err}"

    def test_forward(self, rng):
        params = _init_mlp_params(6, 7, MlpConfig(hidden_nodes=26, seed=3))
        x = rng.uniform(-1, 1, size=(200, 6))
        hidden, output = forward(x, *params)
        want_hidden = sigmoid(x @ params[0].T + params[1])
        np.testing.assert_allclose(hidden, want_hidden, rtol=self.RTOL, atol=0)
        np.testing.assert_allclose(output, sigmoid(want_hidden @ params[2].T + params[3]),
                                   rtol=self.RTOL, atol=0)


class TestGradient:
    def test_matches_central_differences(self, rng, mlp_pass):
        """Analytic gradient of the summed cost agrees with finite differences."""
        params = list(_init_mlp_params(3, 2, MlpConfig(hidden_nodes=4, seed=8)))
        x = rng.uniform(-1, 1, size=(6, 3))
        y = encode_targets(rng.integers(0, 2, size=6), 2)
        analytic = mlp_pass(x, y, *params)[1]
        for index in range(4):
            numeric = numerical_gradient(mlp_pass, x, y, params, index)
            scale = max(np.linalg.norm(numeric), 1e-12)
            rel = np.linalg.norm(analytic[index] - numeric) / scale
            assert rel < 1e-7, f"parameter {index}: relative error {rel}"

    def test_additive_over_samples(self, rng, mlp_pass):
        params = _init_mlp_params(3, 2, MlpConfig(hidden_nodes=5, seed=2))
        x = rng.uniform(-1, 1, size=(7, 3))
        y = encode_targets(rng.integers(0, 2, size=7), 2)
        whole = mlp_pass(x, y, *params)[1]
        for index in range(4):
            parts = sum(mlp_pass(x[j:j + 1], y[j:j + 1], *params)[1][index] for j in range(7))
            np.testing.assert_allclose(whole[index], parts, rtol=1e-10, atol=1e-12)

    def test_zero_at_perfect_output_limit(self, mlp_pass):
        """Gradient shrinks to zero as outputs approach their targets."""
        w1, b1, w2, b2 = tiny_params()
        x = np.array([[0.3, -0.4]])
        _, output = forward(x, w1, b1, w2, b2)
        grads = mlp_pass(x, output, w1, b1, w2, b2)[1]  # target == output
        for g in grads:
            np.testing.assert_allclose(g, 0.0, atol=1e-15)


class TestTrainMlp:
    def test_loss_monotone_without_momentum(self, rng):
        """Small plain-descent steps never increase the full-batch loss."""
        ds = blobs(rng)
        model = train_mlp(ds, MlpConfig(hidden_nodes=8, learning_rate=0.05,
                                        momentum=0.0, iterations=150, seed=3))
        history = np.array(model.loss_history)
        assert history.shape == (151,)
        assert (np.diff(history) <= 1e-12).all()

    def test_loss_drops_substantially(self, rng):
        ds = blobs(rng)
        model = train_mlp(ds, MlpConfig(hidden_nodes=10, learning_rate=0.5,
                                        momentum=0.2, iterations=400, seed=1))
        assert model.loss_history[-1] < 0.5 * model.loss_history[0]

    def test_deterministic(self, rng):
        ds = blobs(rng)
        config = MlpConfig(hidden_nodes=6, iterations=50, seed=9)
        a = train_mlp(ds, config)
        b = train_mlp(ds, config)
        assert a.loss_history == b.loss_history
        assert a.w_hidden.tobytes() == b.w_hidden.tobytes()
        assert a.w_out.tobytes() == b.w_out.tobytes()

    def test_two_fits_in_one_process_give_the_same_bits(self, rng):
        """Nothing a fit leaves behind, such as a ones row of its work arrays,
        reaches the next: a fit repeated after another of other sizes matches."""
        ds = blobs(rng)
        config = MlpConfig(hidden_nodes=6, learning_rate=0.5, iterations=80, seed=9)
        first = train_mlp(ds, config)
        train_mlp(ds, MlpConfig(hidden_nodes=11, iterations=30, seed=2))
        again = train_mlp(ds, config)
        assert first.loss_history == again.loss_history
        for name in ("w_hidden", "b_hidden", "w_out", "b_out"):
            assert getattr(first, name).tobytes() == getattr(again, name).tobytes(), name

    def test_learns_separable_blobs(self, rng):
        train = blobs(rng, n_per_class=60, spread=0.5)
        test = blobs(rng, n_per_class=40, spread=0.5)
        model = train_mlp(train, MlpConfig(hidden_nodes=12, learning_rate=0.5,
                                           momentum=0.2, iterations=600, seed=0))
        accuracy = (predict(model, test.features) == test.labels).mean()
        assert accuracy > 0.9

    def test_divergence_aborts_with_iteration(self):
        """A runaway learning rate overflows the loss, and training stops there."""
        with pytest.raises(MlpDivergenceError) as excinfo:
            train_mlp(blobs(np.random.default_rng(0)), runaway_config(300))
        assert excinfo.value.iteration == 22
        assert not np.isfinite(excinfo.value.loss)
        assert "iteration 22" in str(excinfo.value)

    def test_fused_loop_matches_reference_loop_bit_for_bit(self, rng, mlp_pass):
        ds = blobs(rng)
        config = MlpConfig(hidden_nodes=7, learning_rate=0.5, momentum=0.3,
                           iterations=60, seed=4)
        diverged, history, params = reference_train(ds, config, mlp_pass)
        assert diverged is None
        model = train_mlp(ds, config)
        assert model.loss_history == tuple(history)
        for got, want in zip((model.w_hidden, model.b_hidden, model.w_out, model.b_out),
                             params):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("iterations", [300, 22])
    def test_divergence_iteration_matches_reference_loop(self, iterations, mlp_pass):
        """The loss goes non-finite after step 22: mid-run, or on the last step."""
        ds = blobs(np.random.default_rng(0))
        config = runaway_config(iterations)
        diverged, _, _ = reference_train(ds, config, mlp_pass)
        assert diverged == 22
        with pytest.raises(MlpDivergenceError) as excinfo:
            train_mlp(ds, config)
        assert excinfo.value.iteration == diverged

    def test_scores_give_the_training_pass_bits(self, rng):
        """The last recorded loss is the summed squared error of the model's
        own scores on its training rows, to the bit."""
        ds = blobs(rng)
        model = train_mlp(ds, MlpConfig(hidden_nodes=7, learning_rate=0.5, iterations=40, seed=2))
        targets_t = encode_targets(ds.labels, ds.n_classes).T.copy()
        scores = predict_scores(model, ds.features)
        assert float(np.square(scores.T - targets_t).sum()) == model.loss_history[-1]

    def test_scaling_travels_with_model(self, rng):
        ds = blobs(rng, n_per_class=50, spread=0.5)
        shifted = LabeledDataset(ds.features * 40.0 + 900.0, ds.labels, ds.class_names)
        model = train_mlp(shifted, MlpConfig(hidden_nodes=12, learning_rate=0.5,
                                             momentum=0.2, iterations=600, seed=0))
        accuracy = (predict(model, shifted.features) == shifted.labels).mean()
        assert accuracy > 0.9

    def test_model_arrays_read_only(self, rng):
        model = train_mlp(blobs(rng), MlpConfig(hidden_nodes=4, iterations=5, seed=1))
        with pytest.raises(ValueError):
            model.w_out[0, 0] = 1.0


class TestOneBlasThread:
    """Every pass runs on one OpenBLAS thread whatever the caller's count, and the
    caller's count is back afterwards."""

    @pytest.fixture
    def counts_in(self, monkeypatch, blas_threads):
        """counts_in(name, owner=mlp): the thread counts seen at each call of ``owner.<name>``."""
        def spy(name, owner=mlp):
            seen, inner = [], getattr(owner, name)

            def recording(*args):
                seen.append(blas_threads())
                return inner(*args)

            monkeypatch.setattr(owner, name, recording)
            return seen

        return spy

    @pytest.fixture
    def counts_in_pass(self, counts_in):
        """The thread count seen at each call of the pass object."""
        return counts_in("__call__", mlp._Pass)

    def test_training_passes(self, rng, counts_in_pass, blas_threads):
        train_mlp(blobs(rng), MlpConfig(hidden_nodes=4, iterations=5, seed=1))
        assert counts_in_pass == [1] * 6
        assert blas_threads() == 2

    @pytest.mark.parametrize("name", ["predict_scores", "predict"])
    def test_public_passes(self, rng, counts_in, blas_threads, name):
        """Scoring builds its two layers on one thread."""
        ds = blobs(rng)
        model = train_mlp(ds, MlpConfig(hidden_nodes=4, iterations=5, seed=1))
        seen = counts_in("build_hidden_matrix")
        {"predict_scores": predict_scores, "predict": predict}[name](model, ds.features)
        assert seen == [1, 1]
        assert blas_threads() == 2

    def test_count_restored_after_divergence(self, counts_in_pass, blas_threads):
        with pytest.raises(MlpDivergenceError):
            train_mlp(blobs(np.random.default_rng(0)), runaway_config(300))
        assert counts_in_pass == [1] * 23
        assert blas_threads() == 2

    def test_weights_do_not_depend_on_the_callers_count(self, blas):
        """On 9,474 rows the MLP's GEMMs round differently on two threads."""
        scene = generate_synthetic(littleport_like_config())
        doubled = LabeledDataset(np.vstack([scene.features] * 2), np.tile(scene.labels, 2),
                                 scene.class_names)
        config = MlpConfig(iterations=20)
        before = blas.get_threads()
        models = []
        try:
            for count in (1, 2):
                blas.set_threads(count)
                models.append(train_mlp(doubled, config))
        finally:
            blas.set_threads(before)
        one, two = models
        assert one.loss_history == two.loss_history
        for name in ("w_hidden", "b_hidden", "w_out", "b_out"):
            assert getattr(one, name).tobytes() == getattr(two, name).tobytes(), name
