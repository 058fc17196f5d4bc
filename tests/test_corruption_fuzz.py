"""Seeded corruption fuzz over the three input formats, through the CLI.

Model files, generator configs and labeled CSVs are cut at line
boundaries, given seeded single-byte replacements, given a 0xff byte
(never valid UTF-8), and given inflated counts.  No case may raise out
of ``cli.main`` or exit 1, and every nonzero exit writes exactly one
stderr line.
"""

import numpy as np
import pytest

from elmkit.cli import main
from elmkit.data import LabeledDataset, save_csv

CONFIG = """\
synthetic-config v1
seed: 3
features: 2
class: a
count: 6
mean: 0.0 0.0
cov: 1.0 0.25
cov: 0.25 1.0
class: b
count: 5
mean: 4.0 0.0
cov: 2.0 0.0
cov: 0.0 1.0
class: c
count: 4
mean: 2.0 3.0
cov: 1.0 -0.5
cov: -0.5 1.0
"""

CLASS_BLOCK_LINES = 5
HEADER_LINES = 3
REPLACEMENTS = 60


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
    config = tmp_path / "scene.cfg"
    config.write_text(CONFIG)
    out = str(tmp_path / "out")
    return {
        "config": (config, ["generate", "--config", str(config), "--out", out + ".csv"]),
        "csv": (data, ["train", "--data", str(data), "--hidden", "4", "--out", out + ".model"]),
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


@pytest.mark.parametrize("name", ["config", "csv", "elm model", "mlp model"])
def test_seeded_corruptions_fail_closed(inputs, capsys, name):
    path, argv = inputs[name]
    original = path.read_bytes()
    lines = original.splitlines(keepends=True)
    rng = np.random.default_rng(sum(map(ord, name)))

    for cut in range(len(lines)):
        code = run_on(path, argv, b"".join(lines[:cut]), capsys)
        if name.endswith("model"):
            assert code == 3, cut
        elif name == "config":
            in_block = (cut - HEADER_LINES) % CLASS_BLOCK_LINES != 0
            assert code == 3 or (not in_block and cut > HEADER_LINES + CLASS_BLOCK_LINES), cut

    for _ in range(REPLACEMENTS):
        pos = int(rng.integers(len(original)))
        byte = bytes([int(rng.integers(256))])
        run_on(path, argv, original[:pos] + byte + original[pos + 1:], capsys)

    for pos in rng.integers(len(original), size=5):
        assert run_on(path, argv, original[:pos] + b"\xff" + original[pos + 1:], capsys) == 3

    assert run_on(path, argv, original, capsys) == 0


@pytest.mark.parametrize("name, key", [
    ("config", "features"),
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
