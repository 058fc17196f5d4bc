"""Plain-text model files with exact round-trips.

Both classifiers serialize to a line-oriented format: a tag line naming
the kind and version, ``key: value`` header lines, one ``class:`` line
per class name, and matrix blocks introduced by a ``<name>:`` marker
followed by one space-separated row per line.  Floats are written with
``repr`` so loading reproduces every bit; :class:`_Reader` reads a file
back in that order, and any error in it is a
:class:`elmkit.data.FormatError` naming the line.
Files are written and read as v3.  A v1 or v2 file, from before the ELM
lost its activation and cutoff settings, is refused with an error that
says to retrain.
Informational fields (training time, loss history) are deliberately not
stored: a model file depends only on the training inputs and config,
never on the wall clock.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from .data import FormatError, ScalingParams, _check_int, _fmt_vector, _read_lines
from .evaluate import _KINDS, _config_fields, _kind


class _Reader:
    """In-order ``key: value`` line reader whose errors name the physical line."""

    def __init__(self, path):
        self.path = path
        lines = [(n, line.rstrip("\n"))
                 for n, line in enumerate(_read_lines(path), start=1)]
        while lines and not lines[-1][1].strip():
            lines.pop()
        if not lines:
            raise FormatError(f"{path}: file is empty")
        self.lines = lines
        self.pos = 0
        self.line_no = 0  # physical line of the line read last

    def fail(self, message: str):
        raise FormatError(f"{self.path}: line {self.line_no}: {message}")

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

    def expect_size(self, key: str) -> int:
        """The next line's value, which must follow ``key:`` and be an integer of at least 1."""
        return self.expect_key(key, lambda text: _check_int(key, int(text), 1))

    def read_class(self, names: list) -> None:
        """Append the next ``class:`` line's name to *names*, which must not hold it yet."""
        name = self.expect_key("class")
        if not name:
            self.fail("empty 'class:' name")
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


def save_model(model, path) -> None:
    """Write a trained classifier to a text file (see module docstring).

    The header holds the config fields in declaration order; the arrays
    follow in the kind's layout.
    """
    kind = _kind(model)
    lines = [f"{kind.name}-model v3"]
    lines += [f"{name}: {text}" for name, text in _config_fields(model.config)]
    lines.append(f"features: {model.n_features}")
    lines += [f"class: {name}" for name in model.class_names]
    lines.append("scaling_min: " + _fmt_vector(model.scaling.feature_min))
    lines.append("scaling_max: " + _fmt_vector(model.scaling.feature_max))
    for name, _, cols in kind.model._ARRAYS:
        array = getattr(model, name)
        if cols is None:
            lines.append(f"{name}: " + _fmt_vector(array))
        else:
            lines += [f"{name}:", *map(_fmt_vector, array)]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def _read_model(reader: _Reader, kind):
    # every config field's default has the field's type: int or float
    config = kind.config(**{f.name: reader.expect_key(f.name, type(f.default))
                            for f in fields(kind.config)})
    features = reader.expect_size("features")
    names = []
    while reader.at_key("class"):
        reader.read_class(names)
    if len(names) < 2:
        reader.fail("fewer than two 'class:' lines")
    scaling = ScalingParams(reader.read_vector("scaling_min", features),
                            reader.read_vector("scaling_max", features))
    arrays = {name: (reader.read_vector if len(shape) == 1 else reader.read_matrix)(name, *shape)
              for name, shape in kind.model._shapes(config, features, len(names))}
    return kind.model(**arrays, config=config, class_names=tuple(names), scaling=scaling)


def load_model(path):
    """Read a v3 model file back; the tag line selects the classifier kind."""
    reader = _Reader(path)
    tag = reader.next_line().strip()
    name, _, version = tag.partition("-model ")
    kind = _KINDS.get(name)
    if kind is not None and version in ("v1", "v2"):
        reader.fail(f"'{tag}' is a retired model format that no longer loads; "
                    "retrain to write v3")
    if kind is None or version != "v3":
        reader.fail(f"unknown model tag '{tag}'")
    try:
        return _read_model(reader, kind)
    except FormatError:
        raise
    except (ValueError, TypeError) as exc:
        raise FormatError(f"{path}: {exc}") from None
