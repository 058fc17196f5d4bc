"""Tests for evaluation, benchmarking, and the width sweep."""

import importlib
import re
import sys
import threading
import time
from dataclasses import replace
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from elmkit import linalg
from elmkit.data import LabeledDataset, SplitSpec, scale_features, stratified_split
from elmkit.elm import ElmConfig, ElmModel, build_hidden_matrix, decode_scores, train_elm
from elmkit.evaluate import (
    BenchmarkResult,
    ConfusionMatrix,
    EvalReport,
    SweepEntry,
    SweepResult,
    _join,
    _training_report,
    benchmark,
    config_text,
    confusion,
    dataset_fingerprint,
    evaluate,
    predict,
    predict_scores,
    sweep_hidden_nodes,
    training_cost,
)
from elmkit.mlp import MlpConfig, train_mlp


def blobs(rng, n_per_class=50, spread=0.7):
    centers = np.array([[0.0, 0.0], [6.0, 0.0], [3.0, 5.0]])
    rows, labels = [], []
    for cls, center in enumerate(centers):
        rows.append(center + spread * rng.standard_normal((n_per_class, 2)))
        labels.append(np.full(n_per_class, cls))
    return LabeledDataset(np.vstack(rows), np.concatenate(labels), ("a", "b", "c"))


evaluate_module = importlib.import_module("elmkit.evaluate")


def confusion_oracle(actual, predicted, m):
    counts = np.zeros((m, m), dtype=int)
    for a, p in zip(actual, predicted):
        counts[a, p] += 1
    return counts


class TestConfusion:
    def test_matches_counting_oracle(self, rng):
        actual = rng.integers(0, 4, size=200)
        predicted = rng.integers(0, 4, size=200)
        matrix = confusion(actual, predicted, ("w", "x", "y", "z"))
        np.testing.assert_array_equal(matrix.counts,
                                      confusion_oracle(actual, predicted, 4))

    def test_perfect_prediction_is_diagonal(self):
        actual = np.array([0, 1, 2, 1, 0])
        matrix = confusion(actual, actual, ("a", "b", "c"))
        np.testing.assert_array_equal(matrix.counts, np.diag([2, 2, 1]))
        assert matrix.overall_accuracy() == 1.0

    def test_overall_accuracy_known_value(self):
        actual = np.array([0, 0, 1, 1])
        predicted = np.array([0, 1, 1, 1])
        matrix = confusion(actual, predicted, ("a", "b"))
        assert matrix.overall_accuracy() == 0.75

    def test_per_class_accuracy(self):
        actual = np.array([0, 0, 0, 1])
        predicted = np.array([0, 0, 1, 1])
        matrix = confusion(actual, predicted, ("a", "b"))
        np.testing.assert_allclose(matrix.per_class_accuracy(), [2 / 3, 1.0])

    def test_absent_class_reports_nan(self):
        matrix = confusion(np.array([0, 0]), np.array([0, 0]), ("a", "b"))
        per_class = matrix.per_class_accuracy()
        assert per_class[0] == 1.0
        assert np.isnan(per_class[1])

    def test_out_of_range_labels_rejected(self):
        with pytest.raises(ValueError, match="range"):
            confusion(np.array([0, 2]), np.array([0, 0]), ("a", "b"))

    @pytest.mark.parametrize("actual, predicted, name, dtype", [
        ([0.7, 1.2, 1.9], [0, 1, 1], "actual", "float64"),
        ([0, 1, 1], [0, np.nan, 1], "predicted", "float64"),
        ([0, 1, 1], [True, False, True], "predicted", "bool"),
    ])
    def test_labels_a_cast_would_change_rejected(self, actual, predicted, name, dtype):
        """A cast to int64 would count 0.7 as class 0 and True as class 1."""
        with pytest.raises(ValueError, match=f"^{name} must be integers that int64 holds, "
                                             f"got {dtype} {name}$"):
            confusion(actual, predicted, ("a", "b"))

    @pytest.mark.parametrize("counts, dtype", [
        ([[1.5, 0], [0, 2.9]], "float64"), ([[True, False], [False, True]], "bool"),
    ])
    def test_counts_a_cast_would_change_rejected(self, counts, dtype):
        """A cast would store [[1, 0], [0, 2]] and report accuracy 1.0."""
        with pytest.raises(ValueError, match=f"^counts must be integers that int64 holds, "
                                             f"got {dtype} counts$"):
            ConfusionMatrix(counts, ("a", "b"))

    @pytest.mark.parametrize("names", [("a", "a"), ("a\nb", " c"), ("", "b"), ("a\rb", "c"),
                                       ("a ", "b")],
                             ids=["repeated", "spaced", "empty", "carriage return", "trailing space"])
    def test_names_a_table_cannot_show_rejected(self, names):
        """The class-name rules of every dataset and model: a repeated name would
        render two rows of one class, and a line break would split the table."""
        with pytest.raises(ValueError, match="class name"):
            ConfusionMatrix([[1, 0], [0, 1]], names)

    def test_names_are_kept_as_a_tuple_of_str(self):
        cm = ConfusionMatrix([[1, 0], [0, 1]], ["a", np.str_("b")])
        assert cm.class_names == ("a", "b")
        assert type(cm.class_names) is tuple and type(cm.class_names[1]) is str

    def test_whole_float_counts_are_kept(self):
        matrix = ConfusionMatrix([[1.0, 0.0], [2.0, 3.0]], ("a", "b"))
        assert matrix.counts.dtype == np.int64 and matrix.overall_accuracy() == 4 / 6

    def test_render_contains_all_counts(self, rng):
        actual = rng.integers(0, 3, size=60)
        predicted = rng.integers(0, 3, size=60)
        matrix = confusion(actual, predicted, ("alpha", "beta", "gamma"))
        text = matrix.render_text()
        for value in matrix.counts.ravel():
            assert str(int(value)) in text


class TestFingerprint:
    def test_stable_for_equal_data(self, rng):
        ds = blobs(rng)
        copy = LabeledDataset(ds.features.copy(), ds.labels.copy(), ds.class_names)
        assert dataset_fingerprint(ds) == dataset_fingerprint(copy)

    def test_sensitive_to_any_field(self, rng):
        ds = blobs(rng)
        base = dataset_fingerprint(ds)
        bumped = ds.features.copy()
        bumped[0, 0] += 1e-9
        assert dataset_fingerprint(
            LabeledDataset(bumped, ds.labels, ds.class_names)) != base
        relabeled = ds.labels.copy()
        relabeled[0] = (relabeled[0] + 1) % 3
        assert dataset_fingerprint(
            LabeledDataset(ds.features, relabeled, ds.class_names)) != base
        assert dataset_fingerprint(
            LabeledDataset(ds.features, ds.labels, ("x", "y", "z"))) != base


class TestConfigText:
    def test_embeds_every_field(self):
        text = config_text(ElmConfig(hidden_nodes=40, seed=5))
        for token in ("classifier=elm", "hidden_nodes=40", "seed=5"):
            assert token in text
        text = config_text(MlpConfig(iterations=100))
        for token in ("classifier=mlp", "hidden_nodes=26", "learning_rate=0.25",
                      "momentum=0.2", "iterations=100", "seed=0"):
            assert token in text

    def test_model_is_not_a_config(self, rng):
        model = train_elm(blobs(rng), ElmConfig(hidden_nodes=4))
        with pytest.raises(TypeError, match="^ElmModel is not a classifier config$"):
            config_text(model)

    def test_exact_rendering(self):
        assert config_text(ElmConfig(hidden_nodes=40, seed=5)) == (
            "classifier=elm hidden_nodes=40 seed=5")
        assert config_text(MlpConfig(iterations=100)) == (
            "classifier=mlp hidden_nodes=26 learning_rate=0.25 momentum=0.2 "
            "iterations=100 seed=0")


class TestEvaluate:
    def test_predicted_a_cast_would_change_rejected(self, rng):
        ds = blobs(rng)
        report = evaluate(train_elm(ds, ElmConfig(hidden_nodes=8, seed=1)), ds, ds)
        predicted = report.predicted.astype(float)
        predicted[0] = 0.5
        with pytest.raises(ValueError, match="^predicted must be integers that int64 holds, "
                                             "got float64 predicted$"):
            replace(report, predicted=predicted)
        kept = replace(report, predicted=report.predicted.astype(float)).predicted
        assert kept.dtype == np.int64 and kept.tobytes() == report.predicted.tobytes()

    def test_predicted_for_another_test_set_rejected(self, rng):
        """A 5-sample matrix over 2 predicted labels used to construct, with n_test 5."""
        ds = blobs(rng)
        report = evaluate(train_elm(ds, ElmConfig(hidden_nodes=8, seed=1)), ds, ds)
        with pytest.raises(ValueError, match=r"^predicted must hold one label per test sample: "
                                             rf"\(2,\) labels for {ds.n_samples} samples$"):
            replace(report, predicted=report.predicted[:2])

    def test_predicted_class_counts_must_match_the_matrix(self, rng):
        """As many labels as samples, but not the labels the matrix counts."""
        ds = blobs(rng)
        report = evaluate(train_elm(ds, ElmConfig(hidden_nodes=8, seed=1)), ds, ds)
        columns = report.confusion.counts.sum(axis=0).tolist()
        message = re.escape(f"predicted must hold each class as often as the confusion "
                            f"matrix's column sums, {columns}")
        moved = report.predicted.copy()
        moved[0] = (moved[0] + 1) % ds.n_classes
        for predicted in (moved, np.full(ds.n_samples, ds.n_classes), np.full(ds.n_samples, -1)):
            with pytest.raises(ValueError, match=f"^{message}$"):
                replace(report, predicted=predicted)
        reordered = replace(report, predicted=report.predicted[::-1])  # the counts match
        assert reordered.n_test == ds.n_samples

    def test_report_fields(self, rng):
        ds = blobs(rng)
        train, test = stratified_split(ds, SplitSpec(train_fraction=0.6, seed=0))
        model = train_elm(train, ElmConfig(hidden_nodes=20, seed=1))
        report = evaluate(model, train, test)
        assert report.classifier == "elm"
        assert report.n_train == train.n_samples
        assert report.n_test == test.n_samples
        assert report.train_fingerprint == dataset_fingerprint(train)
        assert 0.0 <= report.accuracy <= 1.0
        assert report.confusion.total == test.n_samples


def _report(classifier, config, counts, train_time_s, predict_time_s):
    matrix = ConfusionMatrix(counts, ("wheat", "sugar beet", "peas"))
    return EvalReport(classifier=classifier, config=config,
                      train_fingerprint="0" * 64, test_fingerprint="f" * 64, n_train=8,
                      confusion=matrix, predicted=np.repeat([0, 1, 2], matrix.counts.sum(axis=0)),
                      train_time_s=train_time_s, predict_time_s=predict_time_s)


# Hand-built results with fixed times, so both renderings are known to the byte.
ELM_REPORT = _report("elm", "classifier=elm hidden_nodes=3 seed=0",
                     [[2, 1, 0], [0, 1, 0], [0, 0, 0]], 0.125, 0.0625)
MLP_REPORT = _report("mlp", "classifier=mlp hidden_nodes=2 learning_rate=0.25 momentum=0.2 "
                     "iterations=5 seed=0", [[1, 2, 0], [0, 1, 0], [0, 0, 0]], 2.5, 0.03125)
SWEEP = SweepResult(
    entries=(SweepEntry(5, (0.25, 0.75)), SweepEntry(10, (1.0, 0.5))),
    train_fingerprint="0" * 64, test_fingerprint="f" * 64, base_seed=3)

FINGERPRINTS_TEXT = f"train fingerprint: {'0' * 64}\ntest fingerprint: {'f' * 64}\n"
FINGERPRINTS_RECORD = f"train_fingerprint={'0' * 64}\ntest_fingerprint={'f' * 64}\n"
MATRIX_HEADER = "                 wheat sugar beet       peas\n"
ELM_TEXT = (
    "classifier: elm\n"
    "config: classifier=elm hidden_nodes=3 seed=0\n"
    + FINGERPRINTS_TEXT +
    "train samples: 8\n"
    "test samples: 4\n"
    "test accuracy: 75.0000%\n"
    "confusion matrix (rows actual, columns predicted):\n"
    + MATRIX_HEADER +
    "     wheat           2          1          0\n"
    "sugar beet           0          1          0\n"
    "      peas           0          0          0\n"
    "per-class accuracy:\n"
    "  wheat: 66.6667%\n"
    "  sugar beet: 100.0000%\n"
    "  peas: n/a\n"
    "train time seconds: 0.125000\n"
    "predict time seconds: 0.062500")
ELM_RECORD = (
    "classifier=elm\n"
    "config=classifier=elm hidden_nodes=3 seed=0\n"
    + FINGERPRINTS_RECORD +
    "n_train=8\n"
    "n_test=4\n"
    "accuracy=0.75\n"
    "confusion_row_0=2,1,0\n"
    "confusion_row_1=0,1,0\n"
    "confusion_row_2=0,0,0\n"
    "time_train_s=0.125\n"
    "time_predict_s=0.0625")
MLP_TEXT = (
    "classifier: mlp\n"
    "config: classifier=mlp hidden_nodes=2 learning_rate=0.25 momentum=0.2 iterations=5 seed=0\n"
    + FINGERPRINTS_TEXT +
    "train samples: 8\n"
    "test samples: 4\n"
    "test accuracy: 50.0000%\n"
    "confusion matrix (rows actual, columns predicted):\n"
    + MATRIX_HEADER +
    "     wheat           1          2          0\n"
    "sugar beet           0          1          0\n"
    "      peas           0          0          0\n"
    "per-class accuracy:\n"
    "  wheat: 33.3333%\n"
    "  sugar beet: 100.0000%\n"
    "  peas: n/a\n"
    "train time seconds: 2.500000\n"
    "predict time seconds: 0.031250")
MLP_RECORD = (
    "classifier=mlp\n"
    "config=classifier=mlp hidden_nodes=2 learning_rate=0.25 momentum=0.2 iterations=5 seed=0\n"
    + FINGERPRINTS_RECORD +
    "n_train=8\n"
    "n_test=4\n"
    "accuracy=0.5\n"
    "confusion_row_0=1,2,0\n"
    "confusion_row_1=0,1,0\n"
    "confusion_row_2=0,0,0\n"
    "time_train_s=2.5\n"
    "time_predict_s=0.03125")
BENCHMARK_TEXT = (
    "benchmark: direct-solve classifier vs momentum-descent baseline\n\n"
    + ELM_TEXT + "\n\n" + MLP_TEXT + "\n\n"
    "accuracy gap (elm - mlp): +25.0000 points\n"
    "train time speedup (mlp/elm): 20.00x")
BENCHMARK_RECORD = (
    "record=benchmark\n" + ELM_RECORD + "\n" + MLP_RECORD + "\n"
    "accuracy_gap_points=25.0\n"
    "time_speedup=20.0")
SWEEP_TEXT = (
    "hidden-layer width sweep\n"
    "seeds per width: 2 starting at 3\n"
    + FINGERPRINTS_TEXT +
    "hidden   median%      min%      max%\n"
    "     5   50.0000   25.0000   75.0000\n"
    "    10   75.0000   50.0000  100.0000\n"
    "best hidden width: 10 (median accuracy 75.0000%)")
SWEEP_RECORD = (
    "record=sweep\n"
    "n_seeds=2\n"
    "base_seed=3\n"
    + FINGERPRINTS_RECORD +
    "hidden_5=0.25,0.75\n"
    "hidden_10=1.0,0.5\n"
    "best_h=10\n"
    "best_accuracy=0.75")


class TestRenderings:
    """Each result's text and record are the two halves of one line-pair sequence."""

    @pytest.mark.parametrize("result,text,record", [
        (ELM_REPORT, ELM_TEXT, ELM_RECORD),
        # the models play no part in the rendering
        (BenchmarkResult(None, None, ELM_REPORT, MLP_REPORT), BENCHMARK_TEXT,
         BENCHMARK_RECORD),
        (SWEEP, SWEEP_TEXT, SWEEP_RECORD),
    ], ids=["eval-report", "benchmark", "sweep"])
    def test_exact_bytes(self, result, text, record):
        assert result.render_text() == text
        assert result.to_record() == record

    # Each result as its line pairs, built from one split and one elm, with the
    # number of pairs that depend on the wall clock.
    BUILDS = {
        "eval-report": (lambda train, test, model: evaluate(model, train, test)._lines(), 2),
        "benchmark": (lambda train, test, model: benchmark(
            train, test, ElmConfig(hidden_nodes=20, seed=1),
            MlpConfig(hidden_nodes=4, iterations=20))._lines(), 5),
        "sweep": (lambda train, test, model: sweep_hidden_nodes(
            train, test, hidden_grid=(5, 10), n_seeds=2)._lines(), 0),
        "training": (lambda train, test, model: _training_report(model, train), 1),
    }

    @pytest.mark.parametrize("build,n_timed", BUILDS.values(), ids=BUILDS)
    def test_time_rule(self, rng, build, n_timed):
        """A pair's key starts with ``time_`` exactly when its text line says
        ``time``; a line only one rendering carries says neither; and dropping
        those lines leaves two builds of one result identical in both renderings."""
        train, test = stratified_split(blobs(rng), SplitSpec(train_fraction=0.6, seed=0))
        model = train_elm(train, ElmConfig(hidden_nodes=20, seed=1))
        builds = [list(build(train, test, model)) for _ in range(2)]
        for pairs in builds:
            for record, text in pairs:
                if record is None or text is None:
                    assert "time" not in (record or text)
                else:
                    assert record.startswith("time_") == ("time" in text), (record, text)
            timed = [record for record, _ in pairs if record and record.startswith("time_")]
            assert len(timed) == n_timed
        for half in (0, 1):
            kept = [[line for line in _join(pairs, half).splitlines() if "time" not in line]
                    for pairs in builds]
            assert kept[0] == kept[1]


class TestSweepResult:
    def test_seed_count_follows_from_the_entries(self):
        assert SWEEP.n_seeds == 2
        one = replace(SWEEP, entries=(SweepEntry(5, (0.5,)),))
        assert one.n_seeds == 1
        assert one.render_text().splitlines()[1] == "seeds per width: 1 starting at 3"

    @pytest.mark.parametrize("entries, counts", [
        ((SweepEntry(5, (0.5,)), SweepEntry(10, (0.5, 0.75))), [1, 2]),
        ((), []),
    ], ids=["unequal", "none"])
    def test_entries_must_hold_one_accuracy_per_seed(self, entries, counts):
        with pytest.raises(ValueError, match=re.escape(
                f"entries must be nonempty and hold one accuracy per seed each, "
                f"got accuracy counts {counts}")):
            replace(SWEEP, entries=entries)


class TestTrainingCost:
    def test_both_kinds_match_their_scores(self, rng):
        ds = blobs(rng)
        targets = np.eye(3)[ds.labels]
        elm = train_elm(ds, ElmConfig(hidden_nodes=8, seed=5))
        mlp = train_mlp(ds, MlpConfig(hidden_nodes=4, iterations=20))
        for model in (elm, mlp):
            want = np.sum((predict_scores(model, ds.features) - targets) ** 2)
            assert training_cost(model, ds) == want


class TestPredictBothKinds:
    """``predict_scores`` is each kind's own forward pass, bit for bit, and
    ``predict`` decodes it."""

    @staticmethod
    def forward(model, features):
        scaled = scale_features(features, model.scaling)
        if isinstance(model, ElmModel):
            hidden = build_hidden_matrix(scaled, model.weights, model.biases)
            return hidden @ model.output_weights
        hidden = build_hidden_matrix(scaled, model.w_hidden, model.b_hidden)
        return build_hidden_matrix(hidden, model.w_out, model.b_out)

    @pytest.mark.parametrize("fit", [
        lambda ds: train_elm(ds, ElmConfig(hidden_nodes=12, seed=3)),
        lambda ds: train_mlp(ds, MlpConfig(hidden_nodes=4, iterations=30, seed=1)),
    ], ids=["elm", "mlp"])
    def test_scores_are_the_kinds_forward_pass(self, rng, fit):
        model = fit(blobs(rng))
        queries = rng.normal(3.0, 4.0, size=(25, 2))
        scores = predict_scores(model, queries)
        want = self.forward(model, queries)
        assert scores.dtype == want.dtype and scores.shape == (25, 3)
        assert scores.tobytes() == np.ascontiguousarray(want).tobytes()
        np.testing.assert_array_equal(predict(model, queries), decode_scores(scores))

    @pytest.mark.parametrize("call", [predict_scores, predict], ids=["predict_scores", "predict"])
    @pytest.mark.parametrize("obj", [np.zeros((3, 2)), "elm", ElmConfig(), MlpConfig()],
                             ids=["array", "str", "elm-config", "mlp-config"])
    def test_non_model_raises_type_error_naming_the_type(self, call, obj):
        """The kind is looked up before the model's scaling is read."""
        with pytest.raises(TypeError, match=f"^{type(obj).__name__} is not a classifier model$"):
            call(obj, np.zeros((4, 2)))


class TestBenchmark:
    def test_reports_share_fingerprints_and_split(self, rng):
        ds = blobs(rng, n_per_class=60)
        train, test = stratified_split(ds, SplitSpec(train_fraction=0.5, seed=2))
        result = benchmark(train, test,
                           ElmConfig(hidden_nodes=20, seed=0),
                           MlpConfig(hidden_nodes=8, iterations=60, seed=0))
        assert isinstance(result, BenchmarkResult)
        assert result.elm_report.train_fingerprint == result.mlp_report.train_fingerprint
        assert result.elm_report.test_fingerprint == result.mlp_report.test_fingerprint
        assert result.speedup == result.mlp_model.train_time_s / result.elm_model.train_time_s > 0

    def test_record_rendering_round(self, rng):
        ds = blobs(rng, n_per_class=60)
        train, test = stratified_split(ds, SplitSpec(train_fraction=0.5, seed=2))
        result = benchmark(train, test,
                           ElmConfig(hidden_nodes=20, seed=0),
                           MlpConfig(hidden_nodes=8, iterations=60, seed=0))
        record = result.to_record()
        assert "record=benchmark" in record
        assert "time_speedup=" in record
        text = result.render_text()
        assert "speedup" in text


class TestClassOrder:
    """A label index names a class only through the class names, so every
    score over a model and splits needs one list of names in one order."""

    CALLS = {
        "evaluate": lambda model, train, other: evaluate(model, train, other),
        "training_cost": lambda model, train, other: training_cost(model, other),
        "sweep_hidden_nodes": lambda model, train, other: sweep_hidden_nodes(
            train, other, hidden_grid=(5,), n_seeds=1),
        "benchmark": lambda model, train, other: benchmark(
            train, other, ElmConfig(hidden_nodes=5), MlpConfig(hidden_nodes=2, iterations=2)),
    }

    @pytest.mark.parametrize("call", CALLS)
    @pytest.mark.parametrize("names", [("c", "b", "a"), ("b", "a", "c"), ("a", "b", "x")])
    def test_other_class_list_rejected(self, rng, call, names):
        train, test = stratified_split(blobs(rng), SplitSpec(train_fraction=0.6, seed=0))
        model = train_elm(train, ElmConfig(hidden_nodes=10, seed=1))
        other = LabeledDataset(test.features, test.labels, names)
        message = re.escape(f"{('a', 'b', 'c')} vs {names}")
        with pytest.raises(ValueError, match=message):
            self.CALLS[call](model, train, other)


class TestFeatureWidth:
    @pytest.mark.parametrize("fit, label", [
        (lambda ds: train_elm(ds, ElmConfig(hidden_nodes=5)), predict),
        (lambda ds: train_mlp(ds, MlpConfig(hidden_nodes=3, iterations=2)), predict),
    ], ids=["elm", "mlp"])
    def test_predict_names_the_expected_width(self, rng, fit, label):
        features = rng.standard_normal((40, 6))
        model = fit(LabeledDataset(features, np.arange(40) % 2, ("a", "b")))
        with pytest.raises(ValueError, match=r"^expected 6 features per sample, "
                                             r"got input of shape \(40, 5\)$"):
            label(model, features[:, :5])


class TestSweep:
    def test_entries_cover_grid_with_stats(self, rng):
        ds = blobs(rng, n_per_class=40)
        train, test = stratified_split(ds, SplitSpec(train_fraction=0.5, seed=1))
        result = sweep_hidden_nodes(train, test, hidden_grid=(5, 10, 20), n_seeds=3)
        assert [e.hidden_nodes for e in result.entries] == [5, 10, 20]
        for entry in result.entries:
            assert len(entry.accuracies) == 3
            assert entry.min_accuracy <= entry.median_accuracy <= entry.max_accuracy
            assert entry.median_accuracy == np.median(entry.accuracies)

    def test_best_h_is_argmax_of_median(self, rng):
        ds = blobs(rng, n_per_class=40)
        train, test = stratified_split(ds, SplitSpec(train_fraction=0.5, seed=1))
        result = sweep_hidden_nodes(train, test, hidden_grid=(5, 10, 20, 30), n_seeds=3)
        medians = {e.hidden_nodes: e.median_accuracy for e in result.entries}
        assert result.best_accuracy == max(medians.values())
        winners = [h for h, acc in medians.items() if acc == result.best_accuracy]
        assert result.best_h == min(winners)

    def test_tie_breaks_toward_smaller_width(self, rng, monkeypatch):
        """Two widths tie on the median; the smaller, listed second, wins."""
        ds = blobs(rng, n_per_class=20)
        train, test = stratified_split(ds, SplitSpec(train_fraction=0.5, seed=1))
        accuracy = {10: (0.8, 0.9, 1.0), 5: (0.9, 0.9, 0.9), 20: (0.8, 0.8, 0.8)}
        monkeypatch.setattr(evaluate_module, "_fit_accuracy",
                            lambda train, test, hidden, seed: accuracy[hidden][seed])
        result = sweep_hidden_nodes(train, test, hidden_grid=(10, 5, 20), n_seeds=3)
        assert [e.median_accuracy for e in result.entries] == [0.9, 0.9, 0.8]
        assert (result.best_h, result.best_accuracy) == (5, 0.9)

    def test_deterministic_and_thread_pool_equivalent(self, rng):
        ds = blobs(rng, n_per_class=40)
        train, test = stratified_split(ds, SplitSpec(train_fraction=0.5, seed=1))
        a = sweep_hidden_nodes(train, test, hidden_grid=(5, 15), n_seeds=2)
        # sweeps run from a caller's thread pool match the sequential one
        with ThreadPoolExecutor(max_workers=2) as pool:
            runs = list(pool.map(
                lambda _: sweep_hidden_nodes(train, test, hidden_grid=(5, 15), n_seeds=2),
                range(2)))
        for b in runs:
            assert a.entries == b.entries
            assert a.best_h == b.best_h

    def test_identical_on_one_two_and_three_workers(self, rng, monkeypatch):
        """Every (width, seed) fit runs once, and the result does not depend on
        the worker count, with more workers than this machine may have cores."""
        ds = blobs(rng, n_per_class=40, spread=2.0)  # seeds differ in accuracy
        train, test = stratified_split(ds, SplitSpec(train_fraction=0.5, seed=1))
        fits = []

        def counted(train, config):
            fits.append((config.hidden_nodes, config.seed))
            return train_elm(train, config)

        monkeypatch.setattr(evaluate_module, "train_elm", counted)
        results = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 3):
                monkeypatch.setattr(evaluate_module, "_cores", lambda: workers)
                fits.clear()
                threads = threading.active_count()
                results[workers] = sweep_hidden_nodes(train, test, hidden_grid=(5, 15, 25, 35),
                                                       n_seeds=3)
                assert threading.active_count() == threads
                assert sorted(fits) == [(h, s) for h in (5, 15, 25, 35) for s in range(3)]
        finally:
            sys.setswitchinterval(interval)
        assert all(len(set(e.accuracies)) > 1 for e in results[1].entries)
        assert results[1] == results[2] == results[3]
        assert results[1].to_record() == results[3].to_record()

    def test_wide_fits_identical_on_one_two_and_three_workers(self, rng, monkeypatch):
        """Widths past the training rows make wide systems, solved by np.linalg.lstsq."""
        ds = blobs(rng, n_per_class=6, spread=2.0)
        train, test = stratified_split(ds, SplitSpec(train_fraction=0.5, seed=1))
        assert train.n_samples < 20
        lstsq, wide = linalg._lstsq, []

        def spy(a, *args):
            wide.append(a.shape[0] < a.shape[1])
            return lstsq(a, *args)

        monkeypatch.setattr(linalg, "_lstsq", spy)
        records = set()
        for workers in (1, 2, 3):
            monkeypatch.setattr(evaluate_module, "_cores", lambda: workers)
            result = sweep_hidden_nodes(train, test, hidden_grid=(3, 6, 12, 24, 48), n_seeds=3)
            records.add(result.to_record())
        assert wide.count(True) == 3 * 3 * 3  # widths 12, 24 and 48, three seeds, three runs
        assert len({e.median_accuracy for e in result.entries}) > 1
        assert len(records) == 1

    def test_identical_when_fits_finish_out_of_order(self, rng, monkeypatch):
        ds = blobs(rng, n_per_class=40, spread=2.0)  # seeds differ in accuracy
        train, test = stratified_split(ds, SplitSpec(train_fraction=0.5, seed=1))
        monkeypatch.setattr(evaluate_module, "_cores", lambda: 1)
        sequential = sweep_hidden_nodes(train, test, hidden_grid=(5, 15, 25), n_seeds=2)
        finished = []

        def slow_first(train, config):
            # the first fit to start is held back until the others are done
            if (config.hidden_nodes, config.seed) == (25, 0):
                time.sleep(0.2)
            model = train_elm(train, config)
            finished.append((config.hidden_nodes, config.seed))
            return model

        monkeypatch.setattr(evaluate_module, "train_elm", slow_first)
        monkeypatch.setattr(evaluate_module, "_cores", lambda: 3)
        threaded = sweep_hidden_nodes(train, test, hidden_grid=(5, 15, 25), n_seeds=2)
        assert finished[-1] == (25, 0)
        assert len(set(sequential.entries[-1].accuracies)) > 1
        assert threaded == sequential

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("failing", [35, 15, 5])  # the first, a middle and the last job
    def test_error_in_one_fit_reaches_the_caller(self, rng, monkeypatch, failing, workers):
        ds = blobs(rng, n_per_class=40)
        train, test = stratified_split(ds, SplitSpec(train_fraction=0.5, seed=1))
        started = []

        def failing_at_width(train, config):
            started.append(threading.current_thread())
            if config.hidden_nodes == failing:
                raise ValueError("least-squares SVD did not converge")
            return train_elm(train, config)

        monkeypatch.setattr(evaluate_module, "train_elm", failing_at_width)
        monkeypatch.setattr(evaluate_module, "_cores", lambda: workers)
        with pytest.raises(ValueError, match="did not converge"):
            sweep_hidden_nodes(train, test, hidden_grid=(5, 15, 25, 35), n_seeds=3)
        # the caller's thread fits nothing, and no fit outlives the call
        assert threading.current_thread() not in started
        assert not any(t.is_alive() for t in started)

    def test_easy_problem_reaches_full_accuracy(self, rng):
        """Well-separated clusters are classified perfectly at modest width."""
        ds = blobs(rng, n_per_class=40, spread=0.25)
        train, test = stratified_split(ds, SplitSpec(train_fraction=0.5, seed=3))
        result = sweep_hidden_nodes(train, test, hidden_grid=(30,), n_seeds=3)
        assert result.best_accuracy == 1.0

    def test_rejects_bad_grid(self, rng):
        ds = blobs(rng)
        train, test = stratified_split(ds, SplitSpec(train_fraction=0.5, seed=1))
        with pytest.raises(ValueError, match="hidden_grid"):
            sweep_hidden_nodes(train, test, hidden_grid=())
        with pytest.raises(ValueError, match="hidden_grid repeats width 25"):
            sweep_hidden_nodes(train, test, hidden_grid=(50, 25, 10, 25))
        with pytest.raises(ValueError, match="n_seeds"):
            sweep_hidden_nodes(train, test, hidden_grid=(5,), n_seeds=0)

    @pytest.mark.parametrize("grid, message", [
        ([2.7, 3.2], "must be an integer, got 2.7"),
        ((5, 10.0), "must be an integer, got 10.0"),
        ((5, True), "must be an integer, got True"),
        ((5, "10"), "must be an integer, got '10'"),
        ((5, 0), "must be >= 1, got 0"),
        ((5, -3), "must be >= 1, got -3"),
    ], ids=repr)
    def test_rejects_non_integer_or_non_positive_width(self, rng, grid, message):
        """A width is checked, never truncated: 2.7 does not run as width 2."""
        ds = blobs(rng)
        train, test = stratified_split(ds, SplitSpec(train_fraction=0.5, seed=1))
        with pytest.raises(ValueError, match=f"^hidden_grid width {message}$"):
            sweep_hidden_nodes(train, test, hidden_grid=grid)

    @pytest.mark.parametrize("seeds, message", [
        ({"n_seeds": True}, "^n_seeds must be an integer, got True$"),
        ({"n_seeds": 2.5}, "^n_seeds must be an integer, got 2.5$"),
        ({"n_seeds": 0}, "^n_seeds must be >= 1, got 0$"),
        ({"base_seed": 2.5}, "^base_seed must be an integer, got 2.5$"),
        ({"base_seed": True}, "^base_seed must be an integer, got True$"),
        ({"base_seed": -1}, "^base_seed must be non-negative, got -1$"),
    ], ids=repr)
    def test_rejects_bad_seed_arguments_naming_them(self, rng, seeds, message):
        """Checked before any fit: True does not run as one seed."""
        ds = blobs(rng)
        train, test = stratified_split(ds, SplitSpec(train_fraction=0.5, seed=1))
        with pytest.raises(ValueError, match=message):
            sweep_hidden_nodes(train, test, hidden_grid=(5,), **seeds)

    def test_numpy_int_widths_accepted(self, rng):
        ds = blobs(rng)
        train, test = stratified_split(ds, SplitSpec(train_fraction=0.5, seed=1))
        result = sweep_hidden_nodes(train, test, hidden_grid=np.array([5, 10]), n_seeds=1)
        assert [type(e.hidden_nodes) for e in result.entries] == [int, int]
        assert [e.hidden_nodes for e in result.entries] == [5, 10]

    def test_render_text_lists_every_width(self, rng):
        ds = blobs(rng, n_per_class=40)
        train, test = stratified_split(ds, SplitSpec(train_fraction=0.5, seed=1))
        result = sweep_hidden_nodes(train, test, hidden_grid=(5, 10), n_seeds=2)
        text = result.render_text()
        assert "best hidden width" in text
        for entry in result.entries:
            assert f"\n{entry.hidden_nodes:>6} " in text

    def test_widths_and_seeds_are_the_whole_configuration(self, rng):
        """A sweep's configuration is its widths and seeds; no config line repeats a default."""
        ds = blobs(rng, n_per_class=40)
        train, test = stratified_split(ds, SplitSpec(train_fraction=0.5, seed=1))
        result = sweep_hidden_nodes(train, test, hidden_grid=(5, 10), n_seeds=2, base_seed=3)
        keys = [line.partition("=")[0] for line in result.to_record().splitlines()]
        assert keys == ["record", "n_seeds", "base_seed", "train_fingerprint",
                        "test_fingerprint", "hidden_5", "hidden_10", "best_h", "best_accuracy"]
        assert result.render_text().splitlines()[:2] == [
            "hidden-layer width sweep", "seeds per width: 2 starting at 3"]


@pytest.mark.usefixtures("lstsq_route")
class TestSweepWithoutOpenblas(TestSweep):
    """Every case of :class:`TestSweep` on the np.linalg.lstsq route that the macOS
    arm64 wheels take, so the sweep's worker-count determinism is checked there too."""
