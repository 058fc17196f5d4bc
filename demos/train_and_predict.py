"""Train the direct-solve classifier on the bundled synthetic scene,
evaluate it on the held-out split, and round-trip the model file."""

import tempfile
from pathlib import Path

from elmkit import (
    ElmConfig,
    SplitSpec,
    evaluate,
    generate_synthetic,
    littleport_like_config,
    load_model,
    predict,
    save_model,
    stratified_split,
    train_elm,
)


def main():
    scene = generate_synthetic(littleport_like_config())
    print(f"scene: {scene.n_samples} samples, {scene.n_classes} classes, "
          f"{scene.n_features} features")

    train, test = stratified_split(scene, SplitSpec(seed=42))
    print(f"split: {train.n_samples} train / {test.n_samples} test")

    model = train_elm(train, ElmConfig(hidden_nodes=300, seed=0))
    report = evaluate(model, train, test)
    print(f"\ntest accuracy: {report.accuracy * 100:.2f}%")
    print(f"train time: {report.train_time_s * 1000:.0f} ms")
    print("\nconfusion matrix:")
    print(report.confusion.render_text())

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scene.model"
        save_model(model, path)
        back = load_model(path)
        same = (predict(back, test.features) == predict(model, test.features)).all()
        print(f"\nmodel file round-trip predicts identically: {bool(same)}")


if __name__ == "__main__":
    main()
