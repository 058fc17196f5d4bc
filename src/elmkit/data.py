"""Dataset pipeline: CSV ingestion, stratified splitting, feature scaling,
and a synthetic multispectral generator.

The on-disk formats are deliberately plain text:

* **Labeled CSV** — comma-delimited, UTF-8, one header row naming the
  feature columns plus a label column (default ``label``); features are
  decimal-point reals, labels are class-name strings.
* **Generator config** — a key-value text file (see
  :func:`save_synthetic_config`) holding per-class names, sample counts,
  mean vectors, covariance rows, and the sampling seed.

Everything here is a pure function over immutable values; datasets are
frozen and their arrays are marked read-only.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


class CsvFormatError(ValueError):
    """A delimited input file is missing columns, empty, or has unparseable cells."""


class ConfigFormatError(ValueError):
    """A generator config file does not follow the documented key-value layout."""


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class LabeledDataset:
    """Feature matrix with integer class labels and class names.

    ``features`` is K x p (finite reals), ``labels`` is length K with
    values in ``[0, len(class_names))``, and at least two classes must
    be declared.  ``provenance`` is a free-text source tag.
    """

    features: np.ndarray
    labels: np.ndarray
    class_names: tuple[str, ...]
    provenance: str = ""

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
        names = tuple(str(n) for n in self.class_names)
        if len(names) < 2:
            raise ValueError("at least two classes are required")
        if len(set(names)) != len(names):
            raise ValueError("class names must be distinct")
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

    def subset(self, indices, provenance: str | None = None) -> "LabeledDataset":
        """New dataset holding the given sample rows (class names unchanged)."""
        idx = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(
            features=self.features[idx],
            labels=self.labels[idx],
            class_names=self.class_names,
            provenance=self.provenance if provenance is None else provenance,
        )


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def _parse_csv(path, label_column: str, feature_columns: Sequence[str] | None,
               label_required: bool):
    """The one strict row parser behind :func:`load_csv` and :func:`load_feature_csv`.

    Returns ``(feature_columns, features, labels, line_numbers)``: the
    stripped label cells (empty without a label column) and the physical
    line of each data row, which every error message also names.
    """
    with open(path, "r", encoding="utf-8", newline="") as handle:
        lines = handle.readlines()
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
    has_label = label_column in header
    if label_required and not has_label:
        raise CsvFormatError(f"{path}: missing label column '{label_column}'")
    if feature_columns is None:
        feature_columns = [h for h in header if h != label_column]
    else:
        feature_columns = list(feature_columns)
    if not feature_columns:
        raise CsvFormatError(f"{path}: no feature columns")
    for name in feature_columns:
        if name not in header:
            raise CsvFormatError(f"{path}: missing feature column '{name}'")
    feature_pos = [header.index(name) for name in feature_columns]
    label_pos = header.index(label_column) if has_label else None

    rows: list[list[float]] = []
    labels: list[str] = []
    line_numbers: list[int] = []
    for line_no, record in enumerate(reader, start=skip + 2):
        if not record:
            continue
        if len(record) != len(header):
            raise CsvFormatError(
                f"{path}: row {line_no} has {len(record)} cells, expected {len(header)}"
            )
        values = []
        for name, pos in zip(feature_columns, feature_pos):
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
        if has_label:
            labels.append(record[label_pos].strip())
        line_numbers.append(line_no)

    if not rows:
        raise CsvFormatError(f"{path}: no data rows")
    return feature_columns, np.array(rows), labels, line_numbers


def load_csv(path, label_column: str = "label", feature_columns: Sequence[str] | None = None,
             class_names: Sequence[str] | None = None) -> LabeledDataset:
    """Read a labeled dataset from a delimited text file.

    Leading lines starting with ``#`` are ignored, so generated files
    may carry their provenance as comments.  The header row names the
    columns.  All columns except *label_column* are treated as features
    unless *feature_columns* narrows the set.  Label strings are mapped
    to dense indices in order of first appearance, and that mapping is
    recorded in ``class_names``; pass *class_names* explicitly to pin
    the mapping instead (required for an exact round trip of a dataset
    whose classes are not in first-appearance order).

    Raises :class:`CsvFormatError` on an empty file, a missing column,
    a row with the wrong cell count, an unparseable or non-finite cell,
    or an unknown class, each reported with its physical line.
    """
    _, features, label_names, line_numbers = _parse_csv(
        path, label_column, feature_columns, label_required=True)

    if class_names is None:
        ordered = tuple(dict.fromkeys(label_names))
    else:
        ordered = tuple(str(n) for n in class_names)
    mapping = {name: i for i, name in enumerate(ordered)}
    for line_no, name in zip(line_numbers, label_names):
        if name not in mapping:
            raise CsvFormatError(f"{path}: row {line_no}: unknown class '{name}'")

    labels = np.array([mapping[name] for name in label_names], dtype=np.int64)
    return LabeledDataset(features, labels, ordered, provenance=str(path))


def save_csv(dataset: LabeledDataset, path, label_column: str = "label",
             feature_names: Sequence[str] | None = None,
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
        writer.writerow([*feature_names, label_column])
        for row, label in zip(dataset.features, dataset.labels):
            writer.writerow([*(repr(float(v)) for v in row), dataset.class_names[label]])


def load_feature_csv(path, feature_columns: Sequence[str] | None = None,
                     label_column: str = "label") -> tuple[np.ndarray, list[str]]:
    """Read only the feature columns of a CSV (for prediction inputs).

    Rows are checked as strictly as by :func:`load_csv`: every row must
    have one cell per header column, label column included.  With
    *feature_columns* unset, every column except *label_column* (if
    present) is parsed.  Returns ``(features, feature_names)``.
    """
    names, features, _, _ = _parse_csv(path, label_column, feature_columns,
                                       label_required=False)
    return features, names


# ---------------------------------------------------------------------------
# Stratified splitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitSpec:
    """Stratified train/test split request.

    Exactly one of *train_fraction* (global fraction, per-class counts
    derived by floor-with-seeded-remainder) or *train_count* (one count
    applied to every class, or a per-class sequence) must be given.
    Splits are deterministic per *seed*; train and test are disjoint and
    together exhaust the input.
    """

    train_fraction: float | None = None
    train_count: int | tuple[int, ...] | None = None
    seed: int = 0

    def __post_init__(self):
        if (self.train_fraction is None) == (self.train_count is None):
            raise ValueError("exactly one of train_fraction and train_count must be set")
        if self.train_fraction is not None:
            if not (0.0 < self.train_fraction < 1.0):
                raise ValueError(
                    f"train_fraction must be in (0, 1) so the test set is nonempty, "
                    f"got {self.train_fraction}"
                )
        if self.train_count is not None:
            counts = self.train_count
            if isinstance(counts, (int, np.integer)):
                if counts < 1:
                    raise ValueError(f"train_count must be positive, got {counts}")
            else:
                counts = tuple(int(c) for c in counts)
                if any(c < 0 for c in counts) or sum(counts) < 1:
                    raise ValueError(f"per-class train counts must be non-negative and not all zero: {counts}")
                object.__setattr__(self, "train_count", counts)


def _per_class_train_counts(class_sizes: np.ndarray, spec: SplitSpec,
                            rng: np.random.Generator) -> np.ndarray:
    m = len(class_sizes)
    if spec.train_count is not None:
        if isinstance(spec.train_count, (int, np.integer)):
            wanted = np.full(m, int(spec.train_count))
        else:
            if len(spec.train_count) != m:
                raise ValueError(
                    f"per-class train counts: got {len(spec.train_count)} values for {m} classes"
                )
            wanted = np.array(spec.train_count, dtype=np.int64)
        over = wanted > class_sizes
        if over.any():
            bad = int(np.argmax(over))
            raise ValueError(
                f"requested {wanted[bad]} training samples for class {bad}, "
                f"which has only {class_sizes[bad]}"
            )
        return wanted

    # Fraction mode: floor per class, then hand out the remainder one at a
    # time across classes in seeded order (skipping exhausted classes).
    fraction = spec.train_fraction
    if (class_sizes < 2).any():
        bad = int(np.argmax(class_sizes < 2))
        raise ValueError(
            f"fraction split requires at least 2 samples per class; class {bad} has {class_sizes[bad]}"
        )
    counts = np.floor(fraction * class_sizes).astype(np.int64)
    target = int(round(fraction * int(class_sizes.sum())))
    remainder = target - int(counts.sum())
    order = rng.permutation(m)
    while remainder > 0:
        progressed = False
        for cls in order:
            if remainder == 0:
                break
            if counts[cls] < class_sizes[cls]:
                counts[cls] += 1
                remainder -= 1
                progressed = True
        if not progressed:
            break
    return counts


def stratified_split(dataset: LabeledDataset, spec: SplitSpec) -> tuple[LabeledDataset, LabeledDataset]:
    """Split a dataset into disjoint, exhaustive train/test subsets, per class.

    Sampling is without replacement inside each class and deterministic
    for a fixed seed; row order within each subset preserves the input
    order.  Raises ``ValueError`` if a per-class request exceeds the
    class population or if either side would come out empty.
    """
    rng = np.random.default_rng(spec.seed)
    labels = dataset.labels
    class_sizes = np.bincount(labels, minlength=dataset.n_classes)
    counts = _per_class_train_counts(class_sizes, spec, rng)

    train_mask = np.zeros(dataset.n_samples, dtype=bool)
    for cls in range(dataset.n_classes):
        members = np.flatnonzero(labels == cls)
        if members.size == 0:
            if counts[cls] > 0:
                raise ValueError(f"class {cls} has no samples but {counts[cls]} were requested")
            continue
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


def fit_scaling(train) -> ScalingParams:
    """Fit per-feature min/max on a training split (dataset or raw matrix)."""
    features = train.features if isinstance(train, LabeledDataset) else np.asarray(train, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] < 1:
        raise ValueError("fit_scaling needs a nonempty 2-D feature matrix")
    return ScalingParams(features.min(axis=0), features.max(axis=0))


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
        names = tuple(str(n) for n in self.class_names)
        means = _frozen_array(self.means)
        covs = _frozen_array(self.covariances)
        counts = tuple(int(c) for c in self.counts)
        m = len(names)
        if m < 2:
            raise ValueError("at least two classes are required")
        if means.ndim != 2 or means.shape[0] != m:
            raise ValueError(f"means must be (classes, features), got {means.shape}")
        p = means.shape[1]
        if covs.shape != (m, p, p):
            raise ValueError(f"covariances must have shape ({m}, {p}, {p}), got {covs.shape}")
        if len(counts) != m or any(c < 1 for c in counts):
            raise ValueError("one positive sample count per class is required")
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
        provenance=f"synthetic(seed={config.seed})",
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


def save_synthetic_config(config: SyntheticConfig, path) -> None:
    """Write a generator config as a key-value text file.

    Layout: a format tag line, ``seed:`` and ``features:`` lines, then
    per class a ``class:`` name line followed by ``count:``, ``mean:``
    (space-separated reals) and p ``cov:`` rows.  Numbers round-trip
    exactly.
    """
    p = config.n_features
    lines = [_CONFIG_TAG, f"seed: {config.seed}", f"features: {p}"]
    for cls, name in enumerate(config.class_names):
        lines.append(f"class: {name}")
        lines.append(f"count: {config.counts[cls]}")
        lines.append("mean: " + " ".join(repr(float(v)) for v in config.means[cls]))
        for row in config.covariances[cls]:
            lines.append("cov: " + " ".join(repr(float(v)) for v in row))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def load_synthetic_config(path) -> SyntheticConfig:
    """Read a generator config written by :func:`save_synthetic_config`."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = [(lineno, line.rstrip("\n"))
                 for lineno, line in enumerate(handle, start=1) if line.strip()]
    if not lines or lines[0][1].strip() != _CONFIG_TAG:
        raise ConfigFormatError(f"{path}: missing '{_CONFIG_TAG}' tag line")

    seed = None
    features = None
    names: list[str] = []
    counts: list[int] = []
    means: list[list[float]] = []
    covs: list[list[list[float]]] = []

    def parse_floats(value: str, lineno: int, expected: int) -> list[float]:
        try:
            row = [float(tok) for tok in value.split()]
        except ValueError:
            raise ConfigFormatError(f"{path}: line {lineno}: unparseable numbers") from None
        if len(row) != expected:
            raise ConfigFormatError(
                f"{path}: line {lineno}: expected {expected} values, got {len(row)}"
            )
        return row

    for lineno, line in lines[1:]:
        key, sep, value = (part.strip() for part in line.partition(":"))
        if not sep:
            raise ConfigFormatError(f"{path}: line {lineno}: expected 'key: value'")
        if key == "seed":
            seed = int(value)
        elif key == "features":
            features = int(value)
        elif key == "class":
            names.append(value)
            covs.append([])
        elif key == "count":
            counts.append(int(value))
        elif key == "mean":
            if features is None:
                raise ConfigFormatError(f"{path}: 'features:' must come before class blocks")
            means.append(parse_floats(value, lineno, features))
        elif key == "cov":
            covs[-1].append(parse_floats(value, lineno, features))
        else:
            raise ConfigFormatError(f"{path}: line {lineno}: unknown key '{key}'")

    if seed is None or features is None:
        raise ConfigFormatError(f"{path}: missing 'seed:' or 'features:' line")
    if not (len(names) == len(counts) == len(means) == len(covs)):
        raise ConfigFormatError(f"{path}: incomplete class block")
    for cls, rows in enumerate(covs):
        if len(rows) != features:
            raise ConfigFormatError(
                f"{path}: class '{names[cls]}' has {len(rows)} covariance rows, expected {features}"
            )
    try:
        return SyntheticConfig(
            class_names=tuple(names),
            means=np.asarray(means),
            covariances=np.asarray(covs),
            counts=tuple(counts),
            seed=seed,
        )
    except ValueError as exc:
        raise ConfigFormatError(f"{path}: {exc}") from None
