"""Seeded corruption fuzz over the two input formats, through the CLI.

Model files and CSVs (labeled ones read by ``train``, feature-only ones
read by ``predict``) are cut at line boundaries, given seeded single-byte
replacements, given a 0xff byte (never valid UTF-8), given inflated
counts, and given non-finite numbers in place of finite ones.  No case
may raise out of ``cli.main`` or exit 1, and every nonzero exit writes
exactly one stderr line.
"""

import re

import numpy as np
import pytest

from elmkit.cli import main
from elmkit.data import LabeledDataset, save_csv

REPLACEMENTS = 60
NON_FINITE = ("nan", "inf", "-inf", "NaN", "Infinity")


@pytest.fixture
def inputs(tmp_path):
    """One file per format, plus the argv that reads it."""
    rng = np.random.default_rng(7)
    centers = np.array([[0.0, 0.0], [6.0, 0.0], [3.0, 5.0]])
    features = np.vstack([c + 0.6 * rng.standard_normal((10, 2)) for c in centers])
    data = tmp_path / "train.csv"
    save_csv(LabeledDataset(features, np.repeat([0, 1, 2], 10), ("a", "b", "c")), data)
    models = {}
    for kind, extra in (("elm", []), ("mlp", ["--iterations", "3"])):
        models[kind] = tmp_path / f"{kind}.model"
        assert main(["train", "--data", str(data), "--classifier", kind, "--hidden", "4",
                     *extra, "--out", str(models[kind])]) == 0
    queries = tmp_path / "queries.csv"
    queries.write_text("f1,f2\n" + "".join(f"{a!r},{b!r}\n" for a, b in features[::3].tolist()))
    out = str(tmp_path / "out")
    return {
        "csv": (data, ["train", "--data", str(data), "--hidden", "4", "--out", out + ".model"]),
        "feature csv": (queries, ["predict", "--model", str(models["elm"]), "--data",
                                  str(queries), "--out", out + ".csv"]),
        **{f"{kind} model": (path, ["predict", "--model", str(path), "--data", str(data),
                                    "--out", out + ".csv"])
           for kind, path in models.items()},
    }


def run_on(path, argv, content: bytes, capsys) -> int:
    """Run *argv* with *path* holding *content*; check the exit code and stderr."""
    path.write_bytes(content)
    capsys.readouterr()
    code = main(argv)
    err = capsys.readouterr().err.splitlines()
    assert code != 1, err
    if code:
        assert len(err) == 1, err
        assert err[0].startswith(f"elmkit {argv[0]}: ")
    return code


@pytest.mark.parametrize("name", ["csv", "feature csv", "elm model", "mlp model"])
def test_seeded_corruptions_fail_closed(inputs, capsys, name):
    path, argv = inputs[name]
    original = path.read_bytes()
    lines = original.splitlines(keepends=True)
    rng = np.random.default_rng(sum(map(ord, name)))

    for cut in range(len(lines)):
        code = run_on(path, argv, b"".join(lines[:cut]), capsys)
        if name.endswith("model"):
            assert code == 3, cut

    for _ in range(REPLACEMENTS):
        pos = int(rng.integers(len(original)))
        byte = bytes([int(rng.integers(256))])
        run_on(path, argv, original[:pos] + byte + original[pos + 1:], capsys)

    for pos in rng.integers(len(original), size=5):
        assert run_on(path, argv, original[:pos] + b"\xff" + original[pos + 1:], capsys) == 3

    assert run_on(path, argv, original, capsys) == 0


@pytest.mark.parametrize("name, key", [
    ("elm model", "hidden_nodes"),
    ("elm model", "features"),
    ("mlp model", "hidden_nodes"),
    ("mlp model", "features"),
])
def test_inflated_counts_exit_3(inputs, capsys, name, key):
    path, argv = inputs[name]
    lines = path.read_text().splitlines(keepends=True)
    index = next(i for i, line in enumerate(lines) if line.startswith(f"{key}:"))
    lines[index] = f"{key}: 4000000000\n"
    assert run_on(path, argv, "".join(lines).encode(), capsys) == 3


def is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("name", ["csv", "feature csv", "elm model", "mlp model"])
def test_non_finite_numbers_exit_3(inputs, capsys, name):
    """Any number, header value or array entry, replaced by nan or inf is malformed."""
    path, argv = inputs[name]
    original = path.read_text()
    pieces = re.split(r"([ ,:\n]+)", original)
    numbers = [i for i, piece in enumerate(pieces) if is_number(piece)]
    rng = np.random.default_rng(sum(map(ord, name)) + 1)
    for i in rng.choice(numbers, size=12, replace=False):
        damaged = pieces.copy()
        damaged[i] = NON_FINITE[int(rng.integers(len(NON_FINITE)))]
        assert run_on(path, argv, "".join(damaged).encode(), capsys) == 3, pieces[i]
