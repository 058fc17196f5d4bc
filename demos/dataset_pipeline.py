"""The dataset pipeline end to end: the bundled scene, CSV files,
stratified splits, and feature scaling."""

import tempfile
from pathlib import Path

import numpy as np

from elmkit import (
    SplitSpec,
    fit_scaling,
    generate_synthetic,
    littleport_like_config,
    load_csv,
    save_csv,
    scale_features,
    stratified_split,
)


def main():
    config = littleport_like_config()
    print("classes:", ", ".join(config.class_names))
    print("per-class counts:", config.counts)

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)

        scene = generate_synthetic(config)
        csv_path = tmp / "scene.csv"
        save_csv(scene, csv_path, header_comments=["demo scene"])
        reloaded = load_csv(csv_path, class_names=scene.class_names)
        print("csv round-trips exactly:",
              reloaded.features.tobytes() == scene.features.tobytes())

        train, test = stratified_split(scene, SplitSpec(seed=42))
        print(f"\nstratified split: {train.n_samples} train / {test.n_samples} test")
        print("train class counts:", np.bincount(train.labels).tolist())
        print("test class counts: ", np.bincount(test.labels).tolist())

        params = fit_scaling(train)
        scaled = scale_features(train.features, params)
        print("\nscaled train feature ranges per band:")
        print("  min:", np.round(scaled.min(axis=0), 3).tolist())
        print("  max:", np.round(scaled.max(axis=0), 3).tolist())
        test_scaled = scale_features(test.features, params)
        print("test rows can fall slightly outside [-1, 1]:",
              f"[{test_scaled.min():.3f}, {test_scaled.max():.3f}]")


if __name__ == "__main__":
    main()
