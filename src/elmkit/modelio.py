"""Plain-text model files with exact round-trips.

Both classifiers serialize to a line-oriented format: a tag line naming
the kind and version, ``key: value`` header lines, one ``class:`` line
per class name, and matrix blocks introduced by a ``<name>:`` marker
followed by one space-separated row per line.  Floats are written with
``repr`` so loading reproduces every bit.  Informational fields
(training time, loss history) are deliberately not stored: a model file
depends only on the training inputs and config, never on the wall
clock.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from .data import ScalingParams
from .evaluate import _KINDS, _config_fields, _kind

# Config field parsers, by declared field type.
_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "tuple[float, float]": lambda text: tuple(float(t) for t in text.split()),
}


def _tag(kind) -> str:
    return f"{kind.name}-model v1"


class ModelFormatError(ValueError):
    """A model file has an unknown tag, missing fields, or malformed blocks."""


def _fmt_vector(vec) -> str:
    return " ".join(repr(float(v)) for v in np.asarray(vec).ravel())


class _Reader:
    """Sequential line reader with format-error reporting."""

    def __init__(self, path, lines: list[str]):
        self.path = path
        self.lines = lines
        self.pos = 0

    def next_line(self) -> str:
        if self.pos >= len(self.lines):
            raise ModelFormatError(f"{self.path}: unexpected end of file")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def expect_key(self, key: str) -> str:
        line = self.next_line()
        prefix = f"{key}:"
        if not line.startswith(prefix):
            raise ModelFormatError(f"{self.path}: expected '{key}:', got '{line[:40]}'")
        return line[len(prefix):].strip()

    def read_vector(self, key: str, count: int) -> np.ndarray:
        return self._parse_row(self.expect_key(key), count)

    def read_matrix(self, key: str, rows: int, cols: int) -> np.ndarray:
        marker = self.expect_key(key)
        if marker:
            raise ModelFormatError(f"{self.path}: '{key}:' marker line must be bare")
        # Check the declared size against the file before building anything,
        # so an inflated header fails here instead of exhausting memory.
        left = len(self.lines) - self.pos
        if rows > left:
            raise ModelFormatError(
                f"{self.path}: '{key}' declares {rows} rows but only {left} lines remain"
            )
        out = [self._parse_row(self.next_line(), cols) for _ in range(rows)]
        return np.array(out).reshape(rows, cols)

    def _parse_row(self, text: str, count: int) -> np.ndarray:
        tokens = text.split()
        if len(tokens) != count:
            raise ModelFormatError(
                f"{self.path}: expected {count} values on a row, got {len(tokens)}"
            )
        try:
            return np.array([float(t) for t in tokens])
        except ValueError:
            raise ModelFormatError(f"{self.path}: unparseable number in '{text[:60]}'") from None


def save_model(model, path) -> None:
    """Write a trained classifier to a text file (see module docstring).

    The header holds the config fields in declaration order; the arrays
    follow in the kind's layout.
    """
    kind = _kind(model)
    lines = [_tag(kind)]
    lines += [f"{name}: {text}" for name, text in _config_fields(model.config, " ")]
    lines.append(f"features: {model.n_features}")
    lines += [f"class: {name}" for name in model.class_names]
    lines.append("scaling_min: " + _fmt_vector(model.scaling.feature_min))
    lines.append("scaling_max: " + _fmt_vector(model.scaling.feature_max))
    for name, _, cols in kind.arrays:
        array = getattr(model, name)
        if cols is None:
            lines.append(f"{name}: " + _fmt_vector(array))
        else:
            lines.append(f"{name}:")
            lines += [_fmt_vector(row) for row in array]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def _read_classes(reader: _Reader) -> tuple[str, ...]:
    names = []
    while reader.pos < len(reader.lines) and reader.lines[reader.pos].startswith("class:"):
        names.append(reader.next_line()[len("class:"):].strip())
    if len(names) < 2:
        raise ModelFormatError(f"{reader.path}: fewer than two 'class:' lines")
    return tuple(names)


def _read_model(reader: _Reader, kind):
    config = kind.config(**{f.name: _PARSERS[f.type](reader.expect_key(f.name))
                            for f in fields(kind.config)})
    features = int(reader.expect_key("features"))
    names = _read_classes(reader)
    scaling = ScalingParams(reader.read_vector("scaling_min", features),
                            reader.read_vector("scaling_max", features))
    dims = {"hidden": config.hidden_nodes, "features": features, "classes": len(names)}
    arrays = {}
    for name, rows, cols in kind.arrays:
        if cols is None:
            arrays[name] = reader.read_vector(name, dims[rows])
        else:
            arrays[name] = reader.read_matrix(name, dims[rows], dims[cols])
    return kind.model(**arrays, config=config, class_names=names, scaling=scaling)


def load_model(path):
    """Read a model file back; the tag line selects the classifier kind."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line.rstrip("\n") for line in handle]
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise ModelFormatError(f"{path}: file is empty")
    reader = _Reader(path, lines)
    tag = reader.next_line().strip()
    kind = next((k for k in _KINDS if _tag(k) == tag), None)
    if kind is None:
        raise ModelFormatError(f"{path}: unknown model tag '{tag}'")
    try:
        return _read_model(reader, kind)
    except ModelFormatError:
        raise
    except (ValueError, TypeError) as exc:
        raise ModelFormatError(f"{path}: {exc}") from None
