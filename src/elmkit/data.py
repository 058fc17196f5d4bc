"""Dataset pipeline: CSV ingestion, stratified splitting, feature scaling,
and a synthetic multispectral generator.

The on-disk format is deliberately plain text: a **labeled CSV** is
comma-delimited, UTF-8, with one header row naming the feature columns
plus a ``label`` column; features are decimal-point reals, labels are
class-name strings.  The CSV is streamed: records go from the open file
through :func:`csv.reader` into one flat buffer of floats, without a copy
of the file's text.  :func:`_read_lines` reads :mod:`elmkit.modelio`'s
model files, which are small, as a list of lines; both readers drop one
leading byte-order mark and name the line of a byte that is not UTF-8.

A malformed file raises :class:`FormatError`, a ``ValueError`` whose
message names the file and, where there is one, the physical line; an
invalid value passed in code raises a plain ``ValueError``.

Everything here is a pure function over immutable values; datasets are
frozen and their arrays are marked read-only.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import numbers
import operator
from array import array
from dataclasses import dataclass
from typing import Sequence, get_type_hints

import numpy as np


class FormatError(ValueError):
    """A malformed input file: a dataset CSV or a model file."""


def _check_real(name: str, value, kind: str = "a number"):
    # Not a bool, which a file would hold as "True", nor a string, which float() would take
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return value


def _check_int(name: str, value, minimum: int = 0) -> int:
    # operator.index rejects 2.0, which a file would hold as "2.0" and not read back
    _check_real(name, value, "an integer")
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < minimum:
        raise ValueError(f"{name} must be {f'>= {minimum}' if minimum else 'non-negative'}, got {value}")
    return value


def _set_fields(config, **values) -> None:
    # A frozen config stores its checked fields here, as Python ints and floats: a numpy
    # float32 would train with other bits than its text in a model file
    for name, value in values.items():
        object.__setattr__(config, name, value)


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


def _frozen_ints(name: str, values) -> np.ndarray:
    # A frozen int64 copy of *values*, refusing bools and whatever a cast would change (1.9)
    raw = np.asarray(values)
    with np.errstate(invalid="ignore"):  # a NaN casts to garbage, which the comparison catches
        out = _frozen_array(raw, np.int64)
    if raw.dtype == bool or not np.array_equal(out, raw):
        raise ValueError(f"{name} must be integers that int64 holds, got {raw.dtype} {name}")
    return out


def _class_names(names) -> tuple[str, ...]:
    """*names* as a tuple of two or more distinct, non-empty strings that every
    file format reads back unchanged: readers strip names and take one per line."""
    names = tuple(str(n) for n in names)
    if len(names) < 2:
        raise ValueError("at least two classes are required")
    if len(set(names)) != len(names):
        raise ValueError("class names must be distinct")
    for name in names:
        if not name or name != name.strip() or "\n" in name or "\r" in name:
            raise ValueError(f"class name {name!r} is empty or has outer whitespace or a line break")
    return names


class _Model:
    """The checks and sizes shared by the trained models of both kinds.

    ``_ARRAYS`` lists a model's arrays in file order as (field, row
    dimension, column dimension or None): ``hidden`` is
    ``config.hidden_nodes``, ``features`` the width of ``scaling`` and
    ``classes`` the number of class names.  Each array is frozen and must
    be finite and of its shape, so that the model's file reads it back.
    """

    _type_hints = staticmethod(functools.cache(get_type_hints))  # one lookup per model class

    @classmethod
    def _shapes(cls, config, features: int, classes: int):
        """(field, shape) of each array in ``_ARRAYS``."""
        sizes = {"hidden": config.hidden_nodes, "features": features, "classes": classes}
        return [(name, tuple(sizes[d] for d in dims if d)) for name, *dims in cls._ARRAYS]

    def __post_init__(self):
        if not isinstance(self.config, config_type := self._type_hints(type(self))["config"]):
            raise ValueError(f"config must be {config_type.__name__}, got {type(self.config).__name__}")
        object.__setattr__(self, "class_names", _class_names(self.class_names))
        for name, shape in self._shapes(self.config, self.n_features, self.n_classes):
            array = _frozen_array(getattr(self, name))
            if array.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {array.shape}")
            if not np.isfinite(array).all():
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, array)

    @property
    def n_features(self) -> int:
        return self.scaling.feature_min.size

    @property
    def n_classes(self) -> int:
        return len(self.class_names)


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix with integer class labels and class names.

    ``features`` is K x p (finite reals), ``labels`` K integers (not bools)
    in ``[0, len(class_names))``, and at least two distinct class names,
    none with outer whitespace or a line break, must be declared.
    """

    features: np.ndarray
    labels: np.ndarray
    class_names: tuple[str, ...]

    def __post_init__(self):
        features = _frozen_array(self.features)
        labels = _frozen_ints("labels", self.labels)
        if features.ndim != 2 or features.shape[0] < 1 or features.shape[1] < 1:
            raise ValueError(f"features must be a nonempty 2-D matrix, got shape {features.shape}")
        if not np.isfinite(features).all():
            raise ValueError("features must be finite")
        if labels.ndim != 1 or labels.shape[0] != features.shape[0]:
            raise ValueError(
                f"labels must be one per sample: {labels.shape} labels for {features.shape[0]} samples"
            )
        names = _class_names(self.class_names)
        if labels.size and (labels.min() < 0 or labels.max() >= len(names)):
            raise ValueError(f"labels must lie in [0, {len(names)}), got range "
                             f"[{labels.min()}, {labels.max()}]")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "class_names", names)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    def subset(self, indices) -> "LabeledDataset":
        """New dataset holding the given sample rows (class names unchanged)."""
        idx = _frozen_ints("indices", indices)
        return LabeledDataset(self.features[idx], self.labels[idx], self.class_names)


# ---------------------------------------------------------------------------
# Line-oriented text files
# ---------------------------------------------------------------------------

def _open_text(path, newline=None):
    """*path* opened as UTF-8 text without one leading byte-order mark; a byte
    that is not UTF-8 reads as a lone surrogate, which :func:`_utf8_lines` finds."""
    return open(path, encoding="utf-8-sig", errors="surrogateescape", newline=newline)


def _utf8_lines(handle, path):
    """The lines of a :func:`_open_text` handle, split as by :func:`open`: the first
    one holding a byte that is not UTF-8 raises :class:`FormatError` naming it."""
    for line_no, line in enumerate(handle, start=1):
        if not line.isascii():
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise FormatError(f"{path}: line {line_no}: not valid UTF-8") from None
        yield line


def _read_lines(path) -> list[str]:
    """The lines of a UTF-8 model file; bad bytes raise :class:`FormatError`."""
    with _open_text(path) as handle:
        return list(_utf8_lines(handle, path))


def _fmt_vector(vec) -> str:
    return " ".join(repr(float(v)) for v in np.asarray(vec).ravel())


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def _csv_records(lines, path):
    """Each record of *lines* after the leading ``#`` lines, with the physical line it starts on.

    The csv module's own errors (a cell longer than ``csv.field_size_limit()``,
    or a NUL byte before Python 3.11) raise :class:`FormatError` naming that line.
    """
    first = 1
    for line in lines:
        if not line.lstrip().startswith("#"):
            break
        first += 1
    else:
        return
    reader = csv.reader(itertools.chain((line,), lines))
    start = first
    try:
        for record in reader:
            yield start, record
            start = first + reader.line_num
    except csv.Error as exc:
        raise FormatError(f"{path}: row {start}: {exc}") from None


def _row_values(path, line_no: int, record: list[str], columns) -> list[float]:
    """One row's feature cells read one by one, so the first bad cell names the fault."""
    values = []
    for pos, name in columns:
        cell = record[pos].strip()
        try:
            value = float(cell)
        except ValueError:
            raise FormatError(
                f"{path}: row {line_no}, column '{name}': could not parse '{cell}' as a number"
            ) from None
        if not math.isfinite(value):
            raise FormatError(
                f"{path}: row {line_no}, column '{name}': non-finite value '{cell}'"
            )
        values.append(value)
    return values


def _parse_csv(path, label_required: bool):
    """The one strict row parser behind :func:`load_csv` and :func:`load_feature_csv`.

    The file is read one record at a time, and its faults are reported in
    file order: an invalid byte, a csv-module error, a wrong cell count or a
    bad or non-finite cell raises :class:`FormatError` for the earliest
    physical line that has one.  Returns ``(feature_names, features, codes,
    labels)``: *features* is a float64 view of the one buffer the cells are
    read into.  With *label_required*, *labels* maps each distinct stripped
    label cell, in order of first appearance, to ``(code, first line)``, and
    *codes* holds each row's code; without it both are empty.
    """
    with _open_text(path, newline="") as handle:
        records = _csv_records(_utf8_lines(handle, path), path)
        try:
            header = [h.strip() for h in next(records)[1]]
        except StopIteration:
            raise FormatError(f"{path}: file is empty") from None
        if len(set(header)) != len(header):
            raise FormatError(f"{path}: duplicate column names in header")
        label_pos = header.index("label") if "label" in header else None
        if label_required and label_pos is None:
            raise FormatError(f"{path}: missing label column 'label'")
        columns = [(pos, name) for pos, name in enumerate(header) if name != "label"]
        if not columns:
            raise FormatError(f"{path}: no feature columns")

        positions = [pos for pos, _ in columns]
        cells = array("d")
        codes = array("q")
        labels: dict[str, tuple[int, int]] = {}
        for line_no, record in records:
            if not record:
                continue
            if len(record) != len(header):
                raise FormatError(
                    f"{path}: row {line_no} has {len(record)} cells, expected {len(header)}"
                )
            # float() skips the outer whitespace that strip() removes, bar \x1c-\x1f: a row it
            # refuses, or whose sum is not finite, is read cell by cell, which words the fault
            try:
                values = [float(record[pos]) for pos in positions]
            except ValueError:
                values = None
            if values is None or not math.isfinite(sum(values)):
                values = _row_values(path, line_no, record, columns)
            cells.extend(values)
            if label_required:
                label = record[label_pos].strip()
                codes.append(labels.setdefault(label, (len(labels), line_no))[0])

    if not cells:
        raise FormatError(f"{path}: no data rows")
    features = np.frombuffer(cells, dtype=np.float64).reshape(-1, len(columns))
    return [name for _, name in columns], features, codes, labels


def load_csv(path, class_names: Sequence[str] | None = None) -> LabeledDataset:
    """Read a labeled dataset from a delimited text file.

    Leading lines starting with ``#`` are ignored, so generated files
    may carry their provenance as comments.  The header row names the
    columns; every column except ``label`` is a feature.  Label strings
    are mapped to dense indices in order of first appearance, and that
    mapping is recorded in ``class_names``; pass *class_names* explicitly
    to pin the mapping instead (required for an exact round trip of a
    dataset whose classes are not in first-appearance order).

    Raises :class:`FormatError` on an empty or non-UTF-8 file, a
    missing column, a row with the wrong cell count, an unparseable or
    non-finite cell, a cell longer than ``csv.field_size_limit()``, an
    empty or unknown class, or a class name holding a line break, each
    reported with its physical line.  In a file with several faults the
    earliest line's is reported, except that the label checks (empty,
    unknown, line break) run only once every row has been read.
    """
    _, features, codes, found = _parse_csv(path, label_required=True)

    if class_names is None:
        ordered = tuple(found)
    else:
        ordered = tuple(str(n) for n in class_names)
    mapping = {name: i for i, name in enumerate(ordered)}
    # in order of first appearance, so the first bad label is on the first bad row
    for name, (_, line_no) in found.items():
        if not name:
            raise FormatError(f"{path}: row {line_no}: empty label")
        # a model file is read line by line, so such a class name could not be read back
        if "\n" in name or "\r" in name:
            raise FormatError(f"{path}: row {line_no}: class name contains a line break")
        if name not in mapping:
            raise FormatError(f"{path}: row {line_no}: unknown class '{name}'")

    labels = np.frombuffer(codes, dtype=np.int64)
    if class_names is not None:
        labels = np.array([mapping[name] for name in found], dtype=np.int64)[labels]
    return LabeledDataset(features, labels, ordered)


def save_csv(dataset: LabeledDataset, path, feature_names: Sequence[str] | None = None,
             header_comments: Sequence[str] = ()) -> None:
    """Write a dataset in the labeled CSV layout read by :func:`load_csv`.

    Feature values are written with full round-trip precision.  Default
    column names are ``f1..fp``.  Each entry of *header_comments* is
    written as a leading ``# `` line, which readers skip: an entry with a line
    break raises ``ValueError``, and a first name starting ``#`` is quoted.
    """
    p = dataset.n_features
    if feature_names is None:
        feature_names = [f"f{i + 1}" for i in range(p)]
    else:
        feature_names = [str(n) for n in feature_names]
        if len(feature_names) != p:
            raise ValueError(f"expected {p} feature names, got {len(feature_names)}")
    if any("\n" in str(c) or "\r" in str(c) for c in header_comments):
        raise ValueError("a header comment contains a line break")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        for comment in header_comments:
            handle.write(f"# {comment}\n")
        writer = csv.writer(handle)
        if feature_names[0].lstrip().startswith("#"):  # else the header reads as a comment
            handle.write('"{}",'.format(feature_names.pop(0).replace('"', '""')))
        writer.writerow([*feature_names, "label"])
        # repr of the Python floats of tolist(): the same text as a numpy
        # scalar's, without making one per cell
        for row, label in zip(dataset.features.tolist(), dataset.labels):
            writer.writerow([*map(repr, row), dataset.class_names[label]])


def load_feature_csv(path) -> tuple[np.ndarray, list[str]]:
    """Read only the feature columns of a CSV (for prediction inputs).

    Rows are checked as strictly as by :func:`load_csv`: every row must
    have one cell per header column, ``label`` included when present.
    Every other column is parsed.  Returns ``(features, feature_names)``.
    """
    names, features, _, _ = _parse_csv(path, label_required=False)
    return features, names


# ---------------------------------------------------------------------------
# Stratified splitting
# ---------------------------------------------------------------------------

# The bundled scene's seed, and the fraction that splits its 4737 samples
# into 2700 for training and 2037 for testing
DEFAULT_SEED = 42
DEFAULT_TRAIN_FRACTION = 2700 / 4737


@dataclass(frozen=True)
class SplitSpec:
    """Stratified train/test split request at a global train fraction.

    Each class gives floor(*train_fraction* x its size) samples to the
    training side, and the remainder up to the rounded global target goes
    one sample per class in seeded order.  Splits are deterministic per
    *seed*; train and test are disjoint and together exhaust the input.
    ``SplitSpec(seed=42)`` is the bundled scene's 2700/2037 split.
    """

    train_fraction: float = DEFAULT_TRAIN_FRACTION
    seed: int = 0

    def __post_init__(self):
        _check_int("seed", self.seed)
        if not (0.0 < _check_real("train_fraction", self.train_fraction) < 1.0):
            raise ValueError(
                f"train_fraction must be in (0, 1) so the test set is nonempty, "
                f"got {self.train_fraction}"
            )


def _per_class_train_counts(class_sizes: np.ndarray, spec: SplitSpec,
                            rng: np.random.Generator) -> np.ndarray:
    # Floor per class, then one more sample for each of the first
    # `remainder` classes in seeded order.  With 0 < fraction < 1 the
    # remainder lies in [0, m] and every class has a sample left to give.
    m = len(class_sizes)
    fraction = spec.train_fraction
    if (class_sizes < 2).any():
        bad = int(np.argmax(class_sizes < 2))
        raise ValueError(
            f"fraction split requires at least 2 samples per class; class {bad} has {class_sizes[bad]}"
        )
    counts = np.floor(fraction * class_sizes).astype(np.int64)
    target = int(round(fraction * int(class_sizes.sum())))
    remainder = target - int(counts.sum())
    counts[rng.permutation(m)[:remainder]] += 1
    return counts


def stratified_split(dataset: LabeledDataset, spec: SplitSpec) -> tuple[LabeledDataset, LabeledDataset]:
    """Split a dataset into disjoint, exhaustive train/test subsets, per class.

    Per-class train counts follow :class:`SplitSpec`.  Sampling is
    without replacement inside each class and deterministic for a fixed
    seed; row order within each subset preserves the input order.  Raises
    ``ValueError`` if a class has fewer than 2 samples or if either side
    would come out empty.
    """
    rng = np.random.default_rng(spec.seed)
    labels = dataset.labels
    class_sizes = np.bincount(labels, minlength=dataset.n_classes)
    counts = _per_class_train_counts(class_sizes, spec, rng)

    train_mask = np.zeros(dataset.n_samples, dtype=bool)
    for cls in range(dataset.n_classes):
        members = np.flatnonzero(labels == cls)
        chosen = rng.permutation(members)[: counts[cls]]
        train_mask[chosen] = True

    n_train = int(train_mask.sum())
    if n_train == 0:
        raise ValueError("split produced an empty training set")
    if n_train == dataset.n_samples:
        raise ValueError("split produced an empty test set")
    train_idx = np.flatnonzero(train_mask)
    test_idx = np.flatnonzero(~train_mask)
    return dataset.subset(train_idx), dataset.subset(test_idx)


# ---------------------------------------------------------------------------
# Feature scaling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScalingParams:
    """Per-feature affine map onto [-1, 1] fitted on a training split.

    Constant features (min == max) map to 0.  Values outside the fitted
    range map outside [-1, 1]; they are not clipped.
    """

    feature_min: np.ndarray
    feature_max: np.ndarray

    def __post_init__(self):
        lo = _frozen_array(self.feature_min)
        hi = _frozen_array(self.feature_max)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ValueError("feature_min and feature_max must be matching 1-D vectors")
        # hi - lo is finite exactly when both bounds are and their range does not overflow
        with np.errstate(over="ignore", invalid="ignore"):
            ok = np.isfinite(hi - lo) & (lo <= hi)
        if not ok.all():
            raise ValueError("feature bounds must be finite, with feature_max >= feature_min and a "
                             f"finite range feature_max - feature_min (feature column {np.argmin(ok)})")
        object.__setattr__(self, "feature_min", lo)
        object.__setattr__(self, "feature_max", hi)


def fit_scaling(train: LabeledDataset) -> ScalingParams:
    """Fit per-feature min/max on a training split."""
    return ScalingParams(train.features.min(axis=0), train.features.max(axis=0))


def scale_features(features: np.ndarray, params: ScalingParams) -> np.ndarray:
    """Apply the fitted affine map to raw (samples, features); every result must be finite."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != params.feature_min.size:
        raise ValueError(f"expected {params.feature_min.size} features per sample, "
                         f"got input of shape {features.shape}")
    span = params.feature_max - params.feature_min
    safe = np.where(span > 0.0, span, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.where(span > 0.0, -1.0 + 2.0 * (features - params.feature_min) / safe, 0.0)
    # as in linalg.as_matrix, min and max find a NaN or infinity without a boolean copy
    finite = np.isfinite(scaled.min(axis=0, initial=0.0)) & np.isfinite(scaled.max(axis=0, initial=0.0))
    if not finite.all():
        raise ValueError(f"feature column {np.argmin(finite)}: scaled value is not finite "
                         "(a NaN or infinity, or a value far outside the training range)")
    return scaled


# ---------------------------------------------------------------------------
# Synthetic multispectral generator
# ---------------------------------------------------------------------------

# Per-class spectral signatures for the default seven-crop scene: digital
# numbers for six reflective bands (blue, green, red, NIR, SWIR1, SWIR2)
# and per-band standard deviations.  The spread between signatures was
# tuned so that the Bayes-optimal accuracy of the mixture lands in the
# high 80s / low 90s, i.e. the classes overlap but are mostly separable.
_CROP_SIGNATURES = {
    "wheat":      ([62.5, 58.8, 69.4, 111.9, 100.4, 76.6], [7.0, 7.0, 8.0, 11.0, 10.0, 9.0]),
    "potato":     ([57.3, 51.0, 46.0, 153.5, 66.6, 42.8], [6.0, 6.0, 7.0, 12.0, 9.0, 8.0]),
    "sugar beet": ([53.4, 48.4, 40.8, 167.8, 82.2, 50.6], [6.0, 6.0, 6.0, 12.0, 10.0, 8.0]),
    "onion":      ([67.7, 64.0, 74.6, 89.8, 90.0, 68.8], [7.0, 7.0, 8.0, 10.0, 10.0, 9.0]),
    "peas":       ([59.9, 53.6, 48.6, 139.2, 77.0, 53.2], [6.0, 6.0, 7.0, 11.0, 9.0, 8.0]),
    "lettuce":    ([56.0, 54.9, 44.7, 180.8, 61.4, 40.2], [6.0, 6.0, 6.0, 12.0, 9.0, 7.0]),
    "beans":      ([65.1, 57.5, 59.0, 124.9, 92.6, 63.6], [7.0, 6.0, 7.0, 11.0, 10.0, 9.0]),
}


@dataclass(frozen=True)
class _SyntheticConfig:
    """The bundled scene at one sampling seed, its only setting.

    The class names, per-class sample counts, means (classes x bands) and
    covariances (classes x bands x bands, symmetric positive definite by
    construction) are read-only and the same at every seed.
    """

    seed: int

    class_names = tuple(_CROP_SIGNATURES)
    counts = (677, 677, 677, 677, 677, 676, 676)  # 4737 pixels
    n_classes = len(class_names)
    n_features = 6

    def __post_init__(self):
        _check_int("seed", self.seed)

    # The arrays are built on first use, not at import: the first numpy calls
    # of a process touch pages that a command which draws no scene never needs.
    @functools.cached_property
    def means(self) -> np.ndarray:
        return _frozen_array([mean for mean, _ in _CROP_SIGNATURES.values()])

    @functools.cached_property
    def covariances(self) -> np.ndarray:
        # band correlation 0.6 ** |i - j| falls off with spectral distance; shared by all classes
        bands = np.arange(self.n_features)
        correlation = 0.6 ** np.abs(np.subtract.outer(bands, bands))
        return _frozen_array([correlation * np.outer(sigma, sigma)
                              for _, sigma in _CROP_SIGNATURES.values()])


def littleport_like_config(seed: int = DEFAULT_SEED) -> _SyntheticConfig:
    """The bundled seven-class, six-band crop scene at sampling seed *seed*.

    4737 samples in total, sized so that :class:`SplitSpec`'s default
    fraction yields exactly 2700 training and 2037 test samples.
    """
    return _SyntheticConfig(seed)


def generate_synthetic(config: _SyntheticConfig) -> LabeledDataset:
    """Draw Gaussian class-conditional samples, grouped by class, per seed.

    Sampling goes through the Cholesky factor of each covariance, so a
    fixed seed always produces the same dataset.
    """
    rng = np.random.default_rng(config.seed)
    blocks = []
    labels = []
    for cls, count in enumerate(config.counts):
        chol = np.linalg.cholesky(config.covariances[cls])
        z = rng.standard_normal((count, config.n_features))
        blocks.append(config.means[cls] + z @ chol.T)
        labels.append(np.full(count, cls, dtype=np.int64))
    return LabeledDataset(
        features=np.vstack(blocks),
        labels=np.concatenate(labels),
        class_names=config.class_names,
    )
