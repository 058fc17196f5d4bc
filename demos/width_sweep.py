"""How test accuracy responds to the hidden-layer width.

Runs a coarse sweep (the full default grid is 25..450 in steps of 25;
here every 75 to keep the demo quick) with three seeds per width."""

from elmkit import (
    SplitSpec,
    generate_synthetic,
    littleport_like_config,
    stratified_split,
    sweep_hidden_nodes,
)


def main():
    scene = generate_synthetic(littleport_like_config())
    train, test = stratified_split(scene, SplitSpec(seed=42))

    result = sweep_hidden_nodes(train, test, hidden_grid=range(25, 451, 75), n_seeds=3)
    print(result.render_text())

    print("\naccuracy rises steeply at small widths, then flattens;")
    print("past the knee extra nodes buy little but cost solve time.")


if __name__ == "__main__":
    main()
