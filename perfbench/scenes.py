"""Seeded inputs for the benchmark, drawn without calling elmkit.

The benchmark owns its inputs so that a change to the program cannot
change what the program is measured on.  ``draw_scene(seed)`` gives the
same samples as elmkit's bundled seven-crop scene at that generator
seed (a test pins this).
"""

from __future__ import annotations

import csv

import numpy as np

# Spectral signatures (means, per-band standard deviations) of the
# bundled scene, copied so the inputs stay fixed while the program moves.
SIGNATURES = {
    "wheat":      ([62.5, 58.8, 69.4, 111.9, 100.4, 76.6], [7.0, 7.0, 8.0, 11.0, 10.0, 9.0]),
    "potato":     ([57.3, 51.0, 46.0, 153.5, 66.6, 42.8], [6.0, 6.0, 7.0, 12.0, 9.0, 8.0]),
    "sugar beet": ([53.4, 48.4, 40.8, 167.8, 82.2, 50.6], [6.0, 6.0, 6.0, 12.0, 10.0, 8.0]),
    "onion":      ([67.7, 64.0, 74.6, 89.8, 90.0, 68.8], [7.0, 7.0, 8.0, 10.0, 10.0, 9.0]),
    "peas":       ([59.9, 53.6, 48.6, 139.2, 77.0, 53.2], [6.0, 6.0, 7.0, 11.0, 9.0, 8.0]),
    "lettuce":    ([56.0, 54.9, 44.7, 180.8, 61.4, 40.2], [6.0, 6.0, 6.0, 12.0, 9.0, 7.0]),
    "beans":      ([65.1, 57.5, 59.0, 124.9, 92.6, 63.6], [7.0, 6.0, 7.0, 11.0, 10.0, 9.0]),
}
COUNTS = (677, 677, 677, 677, 677, 676, 676)
BAND_CORRELATION = 0.6
CLASS_NAMES = tuple(SIGNATURES)

# The CLI's default split of the 4737-row scene keeps 2700 rows for training.
TEST_ROWS = 4737 - 2700


def draw_scene(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Features (rows, 6) and integer labels of a scene, grouped by class."""
    bands = len(next(iter(SIGNATURES.values()))[0])
    idx = np.arange(bands)
    corr = BAND_CORRELATION ** np.abs(np.subtract.outer(idx, idx))
    rng = np.random.default_rng(seed)
    blocks, labels = [], []
    for cls, ((mean, sigma), count) in enumerate(zip(SIGNATURES.values(), COUNTS)):
        chol = np.linalg.cholesky(corr * np.outer(sigma, sigma))
        z = rng.standard_normal((count, bands))
        blocks.append(np.asarray(mean) + z @ chol.T)
        labels.append(np.full(count, cls, dtype=np.int64))
    return np.vstack(blocks), np.concatenate(labels)


def write_scene(path, features: np.ndarray, labels: np.ndarray, comment: str) -> None:
    """Labeled CSV in the layout ``elmkit generate`` writes."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(f"# {comment}\n")
        writer = csv.writer(handle)
        writer.writerow([*(f"f{i + 1}" for i in range(features.shape[1])), "label"])
        for row, label in zip(features.tolist(), labels.tolist()):
            writer.writerow([*map(repr, row), CLASS_NAMES[label]])
