"""Accuracy evaluation, paired benchmarking, and hidden-layer sweeps.

Each result (and the training report) is one sequence of line pairs
(record line, text line), in report order.  Its text block joins the
second halves and its record of ``key=value`` lines joins the first;
either half is None for a fact only one rendering carries.  Every pair
that depends on the wall clock has a key starting with ``time_`` and a
text line carrying the token ``time``, so two runs of the same
experiment can be compared byte-for-byte after dropping those lines.
Everything else, model files and prediction outputs included, is
bit-reproducible.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

import numpy as np

from .data import LabeledDataset, _check_int, _class_names, _frozen_ints, scale_features
from .elm import ElmConfig, ElmModel, _scores as _elm_scores, decode_scores, encode_targets, train_elm
from .linalg import _one_blas_thread
from .mlp import MlpConfig, MlpModel, _scores as _mlp_scores, train_mlp

DEFAULT_HIDDEN_GRID = tuple(range(25, 451, 25))


class _Kind(NamedTuple):
    """Everything that differs between the two classifier kinds."""

    name: str
    model: type
    config: type
    train: Callable     # (dataset, config) -> model
    scores: Callable    # (model, scaled features) -> (samples, classes) scores


# The one table of classifier kinds, keyed by name.  Its train functions look
# their targets up at call time, so rebinding a module-level name (as tracing
# does) also reaches the calls made through the table; its scorers are private.
_KINDS = {kind.name: kind for kind in (
    _Kind("elm", ElmModel, ElmConfig, lambda data, config: train_elm(data, config), _elm_scores),
    _Kind("mlp", MlpModel, MlpConfig, lambda data, config: train_mlp(data, config), _mlp_scores),
)}


def _kind(obj, role: str = "model") -> _Kind:
    """Table entry for a trained model (or, with *role* ``"config"``, a config) of either kind."""
    for kind in _KINDS.values():
        if isinstance(obj, getattr(kind, role)):
            return kind
    raise TypeError(f"{type(obj).__name__} is not a classifier {role}")


def _config_fields(config) -> list[tuple[str, str]]:
    """Each config field as (name, text), in declaration order.

    A config holds Python ints and floats, whose ``str`` reads back exactly.
    """
    return [(f.name, str(getattr(config, f.name))) for f in fields(config)]


def dataset_fingerprint(dataset: LabeledDataset) -> str:
    """Hex digest pinning a dataset's exact contents.

    Hashes the raw float64 feature bytes, the label bytes, the shape,
    and the class names, so any change to any of them changes the
    fingerprint.
    """
    digest = hashlib.sha256()
    digest.update(str(dataset.features.shape).encode())
    digest.update(dataset.features.tobytes())
    digest.update(dataset.labels.tobytes())
    digest.update("|".join(dataset.class_names).encode())
    return digest.hexdigest()


def _field(key: str, label: str, value, shown=None) -> tuple[str, str]:
    """One fact as (``key=value``, ``label: shown``); *shown* defaults to the value.

    The record holds ``str(value)``, which for a Python float is its
    shortest round-trip ``repr``.
    """
    return f"{key}={value}", f"{label}: {value if shown is None else shown}"


def _join(lines, half: int) -> str:
    """Half 0 (record) or 1 (text) of a line-pair sequence, None halves skipped."""
    return "\n".join(pair[half] for pair in lines if pair[half] is not None)


class _Rendered:
    """A result whose ``_lines()`` yields its (record line, text line) pairs."""

    def render_text(self) -> str:
        return _join(self._lines(), 1)

    def to_record(self) -> str:
        return _join(self._lines(), 0)


def config_text(config) -> str:
    """Canonical one-line rendering of a classifier config."""
    parts = [f"classifier={_kind(config, 'config').name}"]
    parts += [f"{name}={text}" for name, text in _config_fields(config)]
    return " ".join(parts)


@dataclass(frozen=True)
class ConfusionMatrix:
    """Square count matrix: rows are actual classes, columns predicted.

    Class names obey the rules of a :class:`LabeledDataset`'s class names.
    """

    counts: np.ndarray
    class_names: tuple[str, ...]

    def __post_init__(self):
        counts = _frozen_ints("counts", self.counts)
        names = _class_names(self.class_names)
        m = len(names)
        if counts.shape != (m, m):
            raise ValueError(f"counts must be {m}x{m}, got {counts.shape}")
        if (counts < 0).any():
            raise ValueError("counts must be non-negative")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "class_names", names)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def overall_accuracy(self) -> float:
        total = self.total
        if total == 0:
            raise ValueError("confusion matrix is empty")
        return float(np.trace(self.counts) / total)

    def per_class_accuracy(self) -> np.ndarray:
        """Diagonal over row sums; classes with no samples report NaN."""
        row_sums = self.counts.sum(axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(row_sums > 0, np.diag(self.counts) / row_sums, np.nan)

    def _lines(self):
        """The header, then each row as (``confusion_row_<i>=`` counts, text row)."""
        width = max(6, *(len(n) for n in self.class_names))
        yield None, " " * (width + 2) + " ".join(f"{n:>{width}}" for n in self.class_names)
        for i, (name, row) in enumerate(zip(self.class_names, self.counts)):
            yield (f"confusion_row_{i}=" + ",".join(str(int(c)) for c in row),
                   f"{name:>{width}}  " + " ".join(f"{int(c):>{width}}" for c in row))

    def render_text(self) -> str:
        return _join(self._lines(), 1)


def confusion(actual, predicted, class_names) -> ConfusionMatrix:
    """Tally actual-vs-predicted label pairs into a ConfusionMatrix."""
    actual, predicted = _frozen_ints("actual", actual), _frozen_ints("predicted", predicted)
    if actual.shape != predicted.shape or actual.ndim != 1:
        raise ValueError("actual and predicted must be matching 1-D label vectors")
    m = len(class_names)
    for name, vec in (("actual", actual), ("predicted", predicted)):
        if vec.size and (vec.min() < 0 or vec.max() >= m):
            raise ValueError(f"{name} labels out of range [0, {m})")
    counts = np.zeros((m, m), dtype=np.int64)
    np.add.at(counts, (actual, predicted), 1)
    return ConfusionMatrix(counts, tuple(class_names))


@dataclass(frozen=True)
class EvalReport(_Rendered):
    """One classifier's held-out evaluation, with timings kept separable.

    ``predicted`` holds the label index predicted for each test sample, so
    its length and per-class counts must match ``confusion``'s total and
    column sums; ``n_test`` and ``accuracy`` follow from ``confusion``.
    """

    classifier: str
    config: str
    train_fingerprint: str
    test_fingerprint: str
    n_train: int
    confusion: ConfusionMatrix
    predicted: np.ndarray
    train_time_s: float
    predict_time_s: float

    def __post_init__(self):
        predicted = _frozen_ints("predicted", self.predicted)
        if predicted.shape != (self.n_test,):
            raise ValueError(f"predicted must hold one label per test sample: {predicted.shape} "
                             f"labels for {self.n_test} samples")
        columns = self.confusion.counts.sum(axis=0)
        in_range = predicted.size == 0 or predicted.min() >= 0  # else bincount raises its own error
        if not in_range or not np.array_equal(np.bincount(predicted, minlength=columns.size), columns):
            raise ValueError("predicted must hold each class as often as the confusion matrix's "
                             f"column sums, {columns.tolist()}")
        object.__setattr__(self, "predicted", predicted)

    @property
    def n_test(self) -> int:
        return self.confusion.total

    @property
    def accuracy(self) -> float:
        return self.confusion.overall_accuracy()

    def _lines(self):
        yield _field("classifier", "classifier", self.classifier)
        yield _field("config", "config", self.config)
        yield _field("train_fingerprint", "train fingerprint", self.train_fingerprint)
        yield _field("test_fingerprint", "test fingerprint", self.test_fingerprint)
        yield _field("n_train", "train samples", self.n_train)
        yield _field("n_test", "test samples", self.n_test)
        yield _field("accuracy", "test accuracy", self.accuracy, f"{self.accuracy * 100:.4f}%")
        yield None, "confusion matrix (rows actual, columns predicted):"
        yield from self.confusion._lines()
        yield None, "per-class accuracy:"
        for name, value in zip(self.confusion.class_names, self.confusion.per_class_accuracy()):
            yield None, f"  {name}: " + ("n/a" if np.isnan(value) else f"{value * 100:.4f}%")
        yield _field("time_train_s", "train time seconds", self.train_time_s,
                     f"{self.train_time_s:.6f}")
        yield _field("time_predict_s", "predict time seconds", self.predict_time_s,
                     f"{self.predict_time_s:.6f}")


def predict_scores(model, features: np.ndarray) -> np.ndarray:
    """Either kind's class scores (samples, classes) for unscaled features, on one BLAS thread."""
    scores, scaled = _kind(model).scores, scale_features(features, model.scaling)
    with _one_blas_thread():
        return scores(model, scaled)


def predict(model, features: np.ndarray) -> np.ndarray:
    """Either kind's label index per row of unscaled features: top score, lowest index on ties."""
    return decode_scores(predict_scores(model, features))


def _same_classes(first, second) -> None:
    """Raise unless *first* and *second* list the same class names in the same order."""
    if first.class_names != second.class_names:
        raise ValueError(f"class lists differ: {first.class_names} vs {second.class_names}")


def training_cost(model, train: LabeledDataset) -> float:
    """Sum of squared errors between either kind's scores on *train* and its one-hot targets."""
    _same_classes(model, train)
    scores = predict_scores(model, train.features)
    return float(np.sum((scores - encode_targets(train.labels, train.n_classes)) ** 2))


def evaluate(model, train: LabeledDataset, test: LabeledDataset) -> EvalReport:
    """Score a trained model on a held-out split in its class order and build its report."""
    _same_classes(model, test)
    started = time.perf_counter()
    predicted = predict(model, test.features)
    predict_time = time.perf_counter() - started
    return EvalReport(
        classifier=_kind(model).name,
        config=config_text(model.config),
        train_fingerprint=dataset_fingerprint(train),
        test_fingerprint=dataset_fingerprint(test),
        n_train=train.n_samples,
        confusion=confusion(test.labels, predicted, test.class_names),
        predicted=predicted,
        train_time_s=model.train_time_s,
        predict_time_s=predict_time,
    )


def _training_report(model, train: LabeledDataset) -> list:
    """A completed fit's config, data and training-set quality, as line pairs.

    Scores *train* once for the confusion matrix and once for the cost; the
    list is built once, so rendering it twice scores nothing more.
    """
    matrix = confusion(train.labels, predict(model, train.features), train.class_names)
    accuracy = matrix.overall_accuracy()
    return [
        ("record=training", "training report"),
        _field("config", "config", config_text(model.config)),
        _field("data_fingerprint", "data fingerprint", dataset_fingerprint(train)),
        _field("n_train", "train samples", train.n_samples),
        _field("training_accuracy", "training accuracy", accuracy, f"{100.0 * accuracy:.4f}%"),
        _field("training_cost", "training cost (sum of squared errors)",
               training_cost(model, train)),
        _field("time_train_s", "train time seconds", model.train_time_s,
               f"{model.train_time_s:.6f}"),
        (None, "confusion matrix (rows actual, columns predicted):"),
        *matrix._lines(),
    ]


@dataclass(frozen=True)
class BenchmarkResult(_Rendered):
    """Paired run of both classifiers on one identical split."""

    elm_model: ElmModel
    mlp_model: MlpModel
    elm_report: EvalReport
    mlp_report: EvalReport

    @property
    def speedup(self) -> float:
        """Train time of the mlp over that of the elm."""
        return self.mlp_report.train_time_s / self.elm_report.train_time_s

    def _lines(self):
        gap = (self.elm_report.accuracy - self.mlp_report.accuracy) * 100
        yield "record=benchmark", "benchmark: direct-solve classifier vs momentum-descent baseline"
        for report in (self.elm_report, self.mlp_report):
            yield None, ""
            yield from report._lines()
        yield None, ""
        yield _field("accuracy_gap_points", "accuracy gap (elm - mlp)", gap, f"{gap:+.4f} points")
        yield _field("time_speedup", "train time speedup (mlp/elm)", self.speedup,
                     f"{self.speedup:.2f}x")


def benchmark(train: LabeledDataset, test: LabeledDataset,
              elm_config: ElmConfig | None = None,
              mlp_config: MlpConfig | None = None) -> BenchmarkResult:
    """Train and evaluate both classifiers on the same split.

    Each classifier trains and predicts start to finish before the other
    begins, so neither timing includes the other's memory traffic.  Both
    train and score on one BLAS thread (see
    :func:`elmkit.linalg._one_blas_thread`), so the speedup compares like
    with like.
    """
    elm_config = elm_config or ElmConfig()
    mlp_config = mlp_config or MlpConfig()

    elm_model = train_elm(train, elm_config)
    elm_report = evaluate(elm_model, train, test)
    mlp_model = train_mlp(train, mlp_config)
    mlp_report = evaluate(mlp_model, train, test)
    return BenchmarkResult(elm_model, mlp_model, elm_report, mlp_report)


@dataclass(frozen=True)
class SweepEntry:
    """One hidden-layer width's test accuracy per seed, and their median, min and max."""

    hidden_nodes: int
    accuracies: tuple[float, ...]

    @property
    def median_accuracy(self) -> float:
        return float(np.median(self.accuracies))

    @property
    def min_accuracy(self) -> float:
        return min(self.accuracies)

    @property
    def max_accuracy(self) -> float:
        return max(self.accuracies)


@dataclass(frozen=True)
class SweepResult(_Rendered):
    """Hidden-layer width sweep; ``best_h`` is the smallest width
    achieving the highest median accuracy.  Every entry holds one accuracy
    per seed, so ``n_seeds`` follows from ``entries``."""

    entries: tuple[SweepEntry, ...]
    train_fingerprint: str
    test_fingerprint: str
    base_seed: int

    def __post_init__(self):
        counts = sorted({len(e.accuracies) for e in self.entries})
        if len(counts) != 1:
            raise ValueError("entries must be nonempty and hold one accuracy per seed each, "
                             f"got accuracy counts {counts}")

    @property
    def n_seeds(self) -> int:
        return len(self.entries[0].accuracies)

    @property
    def best_h(self) -> int:
        return min(self.entries, key=lambda e: (-e.median_accuracy, e.hidden_nodes)).hidden_nodes

    @property
    def best_accuracy(self) -> float:
        return max(e.median_accuracy for e in self.entries)

    def _lines(self):
        yield "record=sweep", "hidden-layer width sweep"
        yield _field("n_seeds", "seeds per width", self.n_seeds,
                     f"{self.n_seeds} starting at {self.base_seed}")
        yield f"base_seed={self.base_seed}", None
        yield _field("train_fingerprint", "train fingerprint", self.train_fingerprint)
        yield _field("test_fingerprint", "test fingerprint", self.test_fingerprint)
        yield None, f"{'hidden':>6} {'median%':>9} {'min%':>9} {'max%':>9}"
        for e in self.entries:
            yield (f"hidden_{e.hidden_nodes}=" + ",".join(repr(a) for a in e.accuracies),
                   f"{e.hidden_nodes:>6} {e.median_accuracy * 100:>9.4f} "
                   f"{e.min_accuracy * 100:>9.4f} {e.max_accuracy * 100:>9.4f}")
        yield _field("best_h", "best hidden width", self.best_h,
                     f"{self.best_h} (median accuracy {self.best_accuracy * 100:.4f}%)")
        yield f"best_accuracy={self.best_accuracy}", None


def _cores() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on macOS and Windows
        return os.cpu_count() or 1


def _fit_accuracy(train, test, hidden, seed) -> float:
    model = train_elm(train, ElmConfig(hidden_nodes=hidden, seed=seed))
    predicted = predict(model, test.features)
    return float((predicted == test.labels).mean())


def sweep_hidden_nodes(train: LabeledDataset, test: LabeledDataset,
                       hidden_grid=DEFAULT_HIDDEN_GRID,
                       n_seeds: int = 3, base_seed: int = 0) -> SweepResult:
    """Median test accuracy of the direct-solve classifier per width.

    Each width trains ``n_seeds`` models with seeds ``base_seed + k``
    and reports median, min, and max accuracy; ``best_h`` breaks median
    ties toward the smaller width; *test* must have *train*'s class order.

    The fits are independent and run on min(cores, fits) pool threads,
    largest widths first, each on one BLAS thread, while the caller's
    thread waits; each running fit holds one hidden matrix (train rows x
    width float64).  A tall fit spends nearly all its time in BLAS and
    LAPACK calls that release the GIL (``np.linalg.lstsq``, which solves
    wide fits, holds it in part).  Results do not depend on the order in
    which fits finish.

    An error in a fit reaches the caller in job order: no fit that has
    not started by then starts, and the call returns only once every
    started fit has finished, so no fit outlives it.
    """
    grid = [_check_int("hidden_grid width", h, 1) for h in hidden_grid]
    if not grid:
        raise ValueError("hidden_grid must be a nonempty list of positive widths")
    repeated = [h for h in grid if grid.count(h) > 1]
    if repeated:
        raise ValueError(f"hidden_grid repeats width {repeated[0]}")
    n_seeds, base_seed = _check_int("n_seeds", n_seeds, 1), _check_int("base_seed", base_seed)
    _same_classes(train, test)
    seeds = [base_seed + k for k in range(n_seeds)]

    # imported here: concurrent.futures loads logging, which every other command would pay for
    from concurrent.futures import ThreadPoolExecutor

    jobs = sorted([(h, seed) for h in grid for seed in seeds], key=lambda job: (-job[0], job[1]))
    with _one_blas_thread(), ThreadPoolExecutor(min(_cores(), len(jobs))) as pool:
        fits = pool.map(lambda job: _fit_accuracy(train, test, *job), jobs)
        accuracy = dict(zip(jobs, fits))
    return SweepResult(
        entries=tuple(SweepEntry(h, tuple(accuracy[(h, seed)] for seed in seeds)) for h in grid),
        train_fingerprint=dataset_fingerprint(train),
        test_fingerprint=dataset_fingerprint(test),
        base_seed=base_seed,
    )
