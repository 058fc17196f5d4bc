"""Dataset pipeline: CSV ingestion, stratified splitting, feature scaling,
and a synthetic multispectral generator.

The on-disk formats are deliberately plain text:

* **Labeled CSV** — comma-delimited, UTF-8, one header row naming the
  feature columns plus a ``label`` column; features are decimal-point
  reals, labels are class-name strings.
* **Generator config** — a key-value text file (see
  :func:`save_synthetic_config`) holding the sampling seed, the feature
  count, and per class a name, sample count, mean vector and covariance
  rows, read back in exactly that order by the one ``key: value`` line
  reader, which also reads :mod:`elmkit.modelio`'s model files.

Everything here is a pure function over immutable values; datasets are
frozen and their arrays are marked read-only.
"""

from __future__ import annotations

import codecs
import csv
import io
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


class CsvFormatError(ValueError):
    """A delimited input file is missing columns, empty, or has unparseable cells."""


class ConfigFormatError(ValueError):
    """A generator config file does not follow the documented key-value layout."""


def _check_seed(seed: int) -> None:
    # numpy's generators would reject it too, with a message naming no field
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


def _class_names(names) -> tuple[str, ...]:
    """*names* as a tuple of two or more distinct strings that every file
    format reads back unchanged: readers strip names and take one per line."""
    names = tuple(str(n) for n in names)
    if len(names) < 2:
        raise ValueError("at least two classes are required")
    if len(set(names)) != len(names):
        raise ValueError("class names must be distinct")
    for name in names:
        if name != name.strip() or "\n" in name or "\r" in name:
            raise ValueError(f"class name {name!r} has outer whitespace or a line break")
    return names


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix with integer class labels and class names.

    ``features`` is K x p (finite reals), ``labels`` is length K with
    values in ``[0, len(class_names))``, and at least two distinct class
    names, none with outer whitespace or a line break, must be declared.
    """

    features: np.ndarray
    labels: np.ndarray
    class_names: tuple[str, ...]

    def __post_init__(self):
        features = _frozen_array(self.features)
        labels = _frozen_array(self.labels, np.int64)
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
        idx = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(self.features[idx], self.labels[idx], self.class_names)


# ---------------------------------------------------------------------------
# Line-oriented text files
# ---------------------------------------------------------------------------

def _read_lines(path, error, newline=None) -> list[str]:
    """The lines of a UTF-8 file, split as by :func:`open`; bad bytes raise *error*."""
    with open(path, "rb") as handle:
        # one leading byte-order mark goes before decoding, so error offsets still give lines
        raw = handle.read().removeprefix(codecs.BOM_UTF8)
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = raw.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}: line {line_no}: not valid UTF-8") from None
    return io.StringIO(text, newline=newline).readlines()


def _fmt_vector(vec) -> str:
    return " ".join(repr(float(v)) for v in np.asarray(vec).ravel())


class _Reader:
    """In-order ``key: value`` line reader whose errors name the physical line."""

    def __init__(self, path, error, skip_blank: bool = False):
        self.path = path
        self.error = error
        lines = [(n, line.rstrip("\n"))
                 for n, line in enumerate(_read_lines(path, error), start=1)]
        if skip_blank:
            lines = [item for item in lines if item[1].strip()]
        while lines and not lines[-1][1].strip():
            lines.pop()
        if not lines:
            raise error(f"{path}: file is empty")
        self.lines = lines
        self.pos = 0
        self.line_no = 0  # physical line of the line read last

    def fail(self, message: str):
        raise self.error(f"{self.path}: line {self.line_no}: {message}")

    def at_end(self) -> bool:
        return self.pos >= len(self.lines)

    def at_key(self, key: str) -> bool:
        return not self.at_end() and self.lines[self.pos][1].startswith(f"{key}:")

    def next_line(self) -> str:
        if self.at_end():
            self.line_no += 1  # the line after the last one
            self.fail("unexpected end of file")
        self.line_no, line = self.lines[self.pos]
        self.pos += 1
        return line

    def expect_key(self, key: str, parse=str):
        """The next line's value, which must follow ``key:``, read by *parse*."""
        line = self.next_line()
        prefix = f"{key}:"
        if not line.startswith(prefix):
            self.fail(f"expected '{prefix}', got '{line[:40]}'")
        try:
            return parse(line[len(prefix):].strip())
        except ValueError as exc:
            self.fail(f"bad value for '{key}': {exc}")

    def read_class(self, names: list) -> None:
        """Append the next ``class:`` line's name to *names*, which must not hold it yet."""
        name = self.expect_key("class")
        if name in names:
            self.fail(f"class '{name}' repeats an earlier 'class:' line")
        names.append(name)

    def read_vector(self, key: str, count: int) -> np.ndarray:
        return self._parse_row(self.expect_key(key), count)

    def read_matrix(self, key: str, rows: int, cols: int) -> np.ndarray:
        if self.expect_key(key):
            self.fail(f"'{key}:' marker line must be bare")
        # Check the declared size against the file before building anything,
        # so an inflated header fails here instead of exhausting memory.
        left = len(self.lines) - self.pos
        if rows > left:
            self.fail(f"'{key}' declares {rows} rows but only {left} lines remain")
        out = [self._parse_row(self.next_line(), cols) for _ in range(rows)]
        return np.array(out).reshape(rows, cols)

    def _parse_row(self, text: str, count: int) -> np.ndarray:
        try:
            row = np.array([float(t) for t in text.split()])
        except ValueError:
            self.fail(f"unparseable number in '{text[:60]}'")
        if not np.isfinite(row).all():
            self.fail(f"non-finite number in '{text[:60]}'")
        if row.size != count:
            self.fail(f"expected {count} values on a row, got {row.size}")
        return row


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def _parse_csv(path, label_required: bool):
    """The one strict row parser behind :func:`load_csv` and :func:`load_feature_csv`.

    Returns ``(feature_names, features, labels, line_numbers)``: the
    stripped label cells (empty without a ``label`` column) and the
    physical line each data row starts on, as every error names it.
    """
    lines = _read_lines(path, CsvFormatError, newline="")
    skip = 0
    while skip < len(lines) and lines[skip].lstrip().startswith("#"):
        skip += 1
    reader = csv.reader(lines[skip:])
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise CsvFormatError(f"{path}: file is empty") from None
    if len(set(header)) != len(header):
        raise CsvFormatError(f"{path}: duplicate column names in header")
    label_pos = header.index("label") if "label" in header else None
    if label_required and label_pos is None:
        raise CsvFormatError(f"{path}: missing label column 'label'")
    columns = [(pos, name) for pos, name in enumerate(header) if name != "label"]
    if not columns:
        raise CsvFormatError(f"{path}: no feature columns")

    rows: list[list[float]] = []
    labels: list[str] = []
    line_numbers: list[int] = []
    start = skip + reader.line_num + 1  # the line the next record starts on
    for record in reader:
        line_no, start = start, skip + reader.line_num + 1
        if not record:
            continue
        if len(record) != len(header):
            raise CsvFormatError(
                f"{path}: row {line_no} has {len(record)} cells, expected {len(header)}"
            )
        values = []
        for pos, name in columns:
            cell = record[pos].strip()
            try:
                value = float(cell)
            except ValueError:
                raise CsvFormatError(
                    f"{path}: row {line_no}, column '{name}': could not parse '{cell}' as a number"
                ) from None
            if not math.isfinite(value):
                raise CsvFormatError(
                    f"{path}: row {line_no}, column '{name}': non-finite value '{cell}'"
                )
            values.append(value)
        rows.append(values)
        if label_pos is not None:
            labels.append(record[label_pos].strip())
        line_numbers.append(line_no)

    if not rows:
        raise CsvFormatError(f"{path}: no data rows")
    return [name for _, name in columns], np.array(rows), labels, line_numbers


def load_csv(path, class_names: Sequence[str] | None = None) -> LabeledDataset:
    """Read a labeled dataset from a delimited text file.

    Leading lines starting with ``#`` are ignored, so generated files
    may carry their provenance as comments.  The header row names the
    columns; every column except ``label`` is a feature.  Label strings
    are mapped to dense indices in order of first appearance, and that
    mapping is recorded in ``class_names``; pass *class_names* explicitly
    to pin the mapping instead (required for an exact round trip of a
    dataset whose classes are not in first-appearance order).

    Raises :class:`CsvFormatError` on an empty or non-UTF-8 file, a
    missing column, a row with the wrong cell count, an unparseable or
    non-finite cell, an unknown class, or a class name holding a line
    break, each reported with its physical line.
    """
    _, features, label_names, line_numbers = _parse_csv(path, label_required=True)

    if class_names is None:
        ordered = tuple(dict.fromkeys(label_names))
    else:
        ordered = tuple(str(n) for n in class_names)
    mapping = {name: i for i, name in enumerate(ordered)}
    for line_no, name in zip(line_numbers, label_names):
        # a model file is read line by line, so such a class name could not be read back
        if "\n" in name or "\r" in name:
            raise CsvFormatError(f"{path}: row {line_no}: class name contains a line break")
        if name not in mapping:
            raise CsvFormatError(f"{path}: row {line_no}: unknown class '{name}'")

    labels = np.array([mapping[name] for name in label_names], dtype=np.int64)
    return LabeledDataset(features, labels, ordered)


def save_csv(dataset: LabeledDataset, path, feature_names: Sequence[str] | None = None,
             header_comments: Sequence[str] = ()) -> None:
    """Write a dataset in the labeled CSV layout read by :func:`load_csv`.

    Feature values are written with full round-trip precision.  Default
    column names are ``f1..fp``.  Each entry of *header_comments* is
    written as a leading ``# `` line (readers skip them).
    """
    p = dataset.n_features
    if feature_names is None:
        feature_names = [f"f{i + 1}" for i in range(p)]
    else:
        feature_names = [str(n) for n in feature_names]
        if len(feature_names) != p:
            raise ValueError(f"expected {p} feature names, got {len(feature_names)}")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        for comment in header_comments:
            handle.write(f"# {comment}\n")
        writer = csv.writer(handle)
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

@dataclass(frozen=True)
class SplitSpec:
    """Stratified train/test split request at a global train fraction.

    Each class gives floor(*train_fraction* x its size) samples to the
    training side, and the remainder up to the rounded global target goes
    one sample per class in seeded order.  Splits are deterministic per
    *seed*; train and test are disjoint and together exhaust the input.
    """

    train_fraction: float
    seed: int = 0

    def __post_init__(self):
        _check_seed(self.seed)
        if not (0.0 < self.train_fraction < 1.0):
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
        if (hi < lo).any():
            raise ValueError("feature_max must be >= feature_min")
        object.__setattr__(self, "feature_min", lo)
        object.__setattr__(self, "feature_max", hi)


def fit_scaling(train: LabeledDataset) -> ScalingParams:
    """Fit per-feature min/max on a training split."""
    return ScalingParams(train.features.min(axis=0), train.features.max(axis=0))


def scale_features(features: np.ndarray, params: ScalingParams) -> np.ndarray:
    """Apply the fitted affine map to a raw feature matrix."""
    features = np.asarray(features, dtype=np.float64)
    span = params.feature_max - params.feature_min
    safe = np.where(span > 0.0, span, 1.0)
    scaled = -1.0 + 2.0 * (features - params.feature_min) / safe
    return np.where(span > 0.0, scaled, 0.0)


# ---------------------------------------------------------------------------
# Synthetic multispectral generator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticConfig:
    """Gaussian class-conditional generator settings.

    One mean vector (length p) and one symmetric positive-definite
    covariance (p x p) per class, plus per-class sample counts and the
    sampling seed.
    """

    class_names: tuple[str, ...]
    means: np.ndarray        # (m, p)
    covariances: np.ndarray  # (m, p, p)
    counts: tuple[int, ...]
    seed: int = 0

    def __post_init__(self):
        names = _class_names(self.class_names)
        means = _frozen_array(self.means)
        covs = _frozen_array(self.covariances)
        counts = tuple(int(c) for c in self.counts)
        m = len(names)
        if means.ndim != 2 or means.shape[0] != m:
            raise ValueError(f"means must be (classes, features), got {means.shape}")
        p = means.shape[1]
        if covs.shape != (m, p, p):
            raise ValueError(f"covariances must have shape ({m}, {p}, {p}), got {covs.shape}")
        if len(counts) != m or any(c < 1 for c in counts):
            raise ValueError("one positive sample count per class is required")
        _check_seed(self.seed)
        for cls in range(m):
            cov = covs[cls]
            if not np.allclose(cov, cov.T, atol=1e-12):
                raise ValueError(f"covariance for class '{names[cls]}' is not symmetric")
            try:
                np.linalg.cholesky(cov)
            except np.linalg.LinAlgError:
                raise ValueError(
                    f"covariance for class '{names[cls]}' is not positive definite"
                ) from None
        object.__setattr__(self, "class_names", names)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "covariances", covs)
        object.__setattr__(self, "counts", counts)

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    @property
    def n_features(self) -> int:
        return self.means.shape[1]


def generate_synthetic(config: SyntheticConfig) -> LabeledDataset:
    """Draw Gaussian class-conditional samples, grouped by class, per seed.

    Sampling goes through the Cholesky factor of each covariance, so a
    fixed config always produces the same dataset.
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


# Band correlation falls off with spectral distance; shared by all classes.
_BAND_CORRELATION = 0.6

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

# 4737 pixels over seven classes: five classes of 677 plus two of 676.
_DEFAULT_COUNTS = (677, 677, 677, 677, 677, 676, 676)

DEFAULT_SEED = 42
DEFAULT_TRAIN_FRACTION = 2700 / 4737


def littleport_like_config(seed: int = DEFAULT_SEED) -> SyntheticConfig:
    """Default seven-class, six-band crop scene configuration.

    4737 samples in total, sized so that the bundled split spec
    (:func:`default_split_spec`) yields exactly 2700 training and 2037
    test samples.
    """
    names = tuple(_CROP_SIGNATURES)
    p = 6
    corr = _BAND_CORRELATION ** np.abs(np.subtract.outer(np.arange(p), np.arange(p)))
    means = []
    covs = []
    for name in names:
        mean, sigma = _CROP_SIGNATURES[name]
        scale = np.asarray(sigma)
        means.append(mean)
        covs.append(corr * np.outer(scale, scale))
    return SyntheticConfig(
        class_names=names,
        means=np.asarray(means),
        covariances=np.asarray(covs),
        counts=_DEFAULT_COUNTS,
        seed=seed,
    )


def default_split_spec(seed: int = DEFAULT_SEED) -> SplitSpec:
    """Bundled stratified split: 2700 train / 2037 test on the default scene.

    Uses the global train fraction 2700/4737; per-class counts come out
    as floor(fraction * class size) with the 5-sample remainder assigned
    in seeded order.
    """
    return SplitSpec(train_fraction=DEFAULT_TRAIN_FRACTION, seed=seed)


# ---------------------------------------------------------------------------
# Generator config file I/O
# ---------------------------------------------------------------------------

_CONFIG_TAG = "synthetic-config v1"

# Most feature cells (total count x features) a config file may ask the
# generator for: 10 million float64 cells are 80 MB, over 350 times the
# bundled scene.  A config past it is malformed, so an inflated count
# fails while the file is read instead of when the samples are drawn.
_MAX_GENERATED_CELLS = 10_000_000


def save_synthetic_config(config: SyntheticConfig, path) -> None:
    """Write a generator config as a key-value text file.

    Layout: a format tag line, ``seed:`` and ``features:`` lines, then
    per class a ``class:`` name line followed by ``count:``, ``mean:``
    (space-separated reals) and p ``cov:`` rows.  Numbers round-trip
    exactly.
    """
    lines = [_CONFIG_TAG, f"seed: {config.seed}", f"features: {config.n_features}"]
    for cls, name in enumerate(config.class_names):
        lines.append(f"class: {name}")
        lines.append(f"count: {config.counts[cls]}")
        lines.append("mean: " + _fmt_vector(config.means[cls]))
        lines += ["cov: " + _fmt_vector(row) for row in config.covariances[cls]]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def load_synthetic_config(path) -> SyntheticConfig:
    """Read a generator config in the key order :func:`save_synthetic_config` writes.

    Blank lines are skipped.  A line out of place or a bad value raises
    :class:`ConfigFormatError` naming its physical line, as does the
    ``count:`` line that takes the total past ``_MAX_GENERATED_CELLS``.
    """
    reader = _Reader(path, ConfigFormatError, skip_blank=True)
    if reader.next_line().strip() != _CONFIG_TAG:
        reader.fail(f"missing '{_CONFIG_TAG}' tag line")
    seed = reader.expect_key("seed", int)
    features = reader.expect_key("features", int)
    names, counts, means, covs = [], [], [], []
    while not reader.at_end():
        reader.read_class(names)
        counts.append(reader.expect_key("count", int))
        if sum(counts) * features > _MAX_GENERATED_CELLS:
            reader.fail(f"counts so far ({sum(counts)} samples x {features} features) "
                        f"exceed the generator limit of {_MAX_GENERATED_CELLS} cells")
        means.append(reader.read_vector("mean", features))
        covs.append([reader.read_vector("cov", features) for _ in range(features)])
    try:
        return SyntheticConfig(tuple(names), np.asarray(means), np.asarray(covs),
                               tuple(counts), seed)
    except ValueError as exc:
        raise ConfigFormatError(f"{path}: {exc}") from None
