"""Head-to-head: the one-shot least-squares solve against 2200 epochs of
momentum descent on the identical split.  Takes a few seconds; nearly
all of it is the baseline's training loop."""

from elmkit import (
    ElmConfig,
    MlpConfig,
    SplitSpec,
    benchmark,
    generate_synthetic,
    littleport_like_config,
    stratified_split,
)


def main():
    scene = generate_synthetic(littleport_like_config())
    train, test = stratified_split(scene, SplitSpec(seed=42))

    result = benchmark(train, test, ElmConfig(hidden_nodes=300, seed=0), MlpConfig(seed=0))

    elm, mlp = result.elm_report, result.mlp_report
    print(f"direct solve:     {elm.accuracy * 100:6.2f}%  in {elm.train_time_s:7.3f}s")
    print(f"momentum descent: {mlp.accuracy * 100:6.2f}%  in {mlp.train_time_s:7.3f}s")
    print(f"\naccuracy gap: {(elm.accuracy - mlp.accuracy) * 100:+.2f} points")
    print(f"training speedup: {result.speedup:.1f}x")

    history = result.mlp_model.loss_history
    marks = [0, 100, 500, 1000, 2200]
    print("\nbaseline loss curve:")
    for mark in marks:
        print(f"  iteration {mark:>4}: {history[mark]:10.1f}")


if __name__ == "__main__":
    main()
