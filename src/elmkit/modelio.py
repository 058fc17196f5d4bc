"""Plain-text model files with exact round-trips.

Both classifiers serialize to a line-oriented format: a tag line naming
the kind and version, ``key: value`` header lines, one ``class:`` line
per class name, and matrix blocks introduced by a ``<name>:`` marker
followed by one space-separated row per line.  Floats are written with
``repr`` so loading reproduces every bit; :mod:`elmkit.data`'s line
reader reads a file back in that order and names the line of any error.
Informational fields (training time, loss history) are deliberately not
stored: a model file depends only on the training inputs and config,
never on the wall clock.
"""

from __future__ import annotations

from dataclasses import fields

from .data import ScalingParams, _fmt_vector, _Reader
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


def _read_model(reader: _Reader, kind):
    config = kind.config(**{f.name: reader.expect_key(f.name, _PARSERS[f.type])
                            for f in fields(kind.config)})
    features = reader.expect_key("features", int)
    names = []
    while reader.at_key("class"):
        names.append(reader.expect_key("class"))
    if len(names) < 2:
        reader.fail("fewer than two 'class:' lines")
    scaling = ScalingParams(reader.read_vector("scaling_min", features),
                            reader.read_vector("scaling_max", features))
    dims = {"hidden": config.hidden_nodes, "features": features, "classes": len(names)}
    arrays = {}
    for name, rows, cols in kind.arrays:
        if cols is None:
            arrays[name] = reader.read_vector(name, dims[rows])
        else:
            arrays[name] = reader.read_matrix(name, dims[rows], dims[cols])
    return kind.model(**arrays, config=config, class_names=tuple(names), scaling=scaling)


def load_model(path):
    """Read a model file back; the tag line selects the classifier kind."""
    reader = _Reader(path, ModelFormatError)
    tag = reader.next_line().strip()
    kind = next((k for k in _KINDS if _tag(k) == tag), None)
    if kind is None:
        reader.fail(f"unknown model tag '{tag}'")
    try:
        return _read_model(reader, kind)
    except ModelFormatError:
        raise
    except (ValueError, TypeError) as exc:
        raise ModelFormatError(f"{path}: {exc}") from None
