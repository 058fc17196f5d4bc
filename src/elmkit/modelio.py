"""Plain-text model files with exact round-trips.

Both classifiers serialize to a line-oriented format: a tag line naming
the kind and version, ``key: value`` header lines, one ``class:`` line
per class name, and matrix blocks introduced by a ``<name>:`` marker
followed by one space-separated row per line.  Floats are written with
``repr`` so loading reproduces every bit; :mod:`elmkit.data`'s line
reader reads a file back in that order, and any error in it is a
:class:`elmkit.data.FormatError` naming the line.
Files are written as v3.  Older files differ only in header lines that
a later version dropped, and still load: ``weight_range``,
``init_range`` and ``divergence_factor`` (v1) and ``activation`` (elm,
v1 and v2) must each hold the one value their writer ever gave a model
that a v3 config can describe, and ``rank_tol`` (elm, v1 and v2), which
only the fit read, any valid cutoff.
Informational fields (training time, loss history) are deliberately not
stored: a model file depends only on the training inputs and config,
never on the wall clock.
"""

from __future__ import annotations

from dataclasses import fields

from .data import FormatError, ScalingParams, _fmt_vector, _Reader
from .evaluate import _KINDS, _config_fields, _kind

# The header keys of each kind and older version whose keys differ from the
# config's fields, in file order, and the one value each dropped key but
# rank_tol must hold; rank_tol, which only the fit read, may hold any valid cutoff.
_OLD_KEYS = {
    ("elm", "v1"): ("hidden_nodes", "activation", "seed", "weight_range", "rank_tol"),
    ("elm", "v2"): ("hidden_nodes", "activation", "seed", "rank_tol"),
    ("mlp", "v1"): ("hidden_nodes", "learning_rate", "momentum", "iterations", "seed",
                    "init_range", "divergence_factor"),
}
_FIXED = {"activation": "sigmoid", "weight_range": "-1.0 1.0", "init_range": "-0.5 0.5",
          "divergence_factor": "100.0"}


def _check_rank_tol(rank_tol: float) -> None:
    # the v1 and v2 fits took only a cutoff in [0, 1); NaN fails too
    if not (0.0 <= rank_tol < 1.0):
        raise ValueError(f"rank_tol must be non-negative and below 1, got {rank_tol}")


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


def _read_config(reader: _Reader, kind, version: str):
    # every config field's default has the field's type: int or float
    types = {f.name: type(f.default) for f in fields(kind.config)}
    values = {}
    for key in _OLD_KEYS.get((kind.name, version), types):
        if key in types:
            values[key] = reader.expect_key(key, types[key])
        elif key == "rank_tol":
            reader.expect_key(key, lambda text: _check_rank_tol(float(text)))
        elif (text := reader.expect_key(key)) != _FIXED[key]:
            reader.fail(f"'{key}: {text}' has no v3 equivalent; only '{_FIXED[key]}' loads")
    return kind.config(**values)


def _read_model(reader: _Reader, kind, version: str):
    config = _read_config(reader, kind, version)
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
    """Read a v3, v2 or v1 model file back; the tag line selects the classifier kind."""
    reader = _Reader(path)
    tag = reader.next_line().strip()
    name, _, version = tag.partition("-model ")
    kind = _KINDS.get(name)
    if kind is None or version not in ("v1", "v2", "v3"):
        reader.fail(f"unknown model tag '{tag}'")
    try:
        return _read_model(reader, kind, version)
    except FormatError:
        raise
    except (ValueError, TypeError) as exc:
        raise FormatError(f"{path}: {exc}") from None
