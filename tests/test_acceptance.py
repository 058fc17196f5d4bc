"""Acceptance suite: seven end-to-end guarantees the package ships with.

Each test prints one ``criterion N (...): PASS``/``FAIL`` line directly
to the terminal (bypassing capture) and enforces its own runtime budget.
"""

import functools
import sys
import time

import numpy as np

from elmkit.cli import main as cli_main
from elmkit.data import (
    LabeledDataset,
    SplitSpec,
    generate_synthetic,
    littleport_like_config,
    load_csv,
    save_csv,
    stratified_split,
)
from elmkit.elm import ElmConfig, encode_targets, train_elm
from elmkit.evaluate import benchmark, sweep_hidden_nodes, training_cost
from elmkit.linalg import min_norm_lstsq, pseudoinverse
from elmkit.mlp import MlpConfig, _init_mlp_params, train_mlp


# One line per criterion; conftest echoes these in the terminal summary,
# which pytest never captures.
CRITERION_LINES: list[str] = []


def _line(text: str) -> None:
    CRITERION_LINES.append(text)
    print(text, flush=True)


def criterion(number: int, title: str, budget_s: float):
    """Wrap a test so it reports one pass/fail line and a time budget."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            started = time.perf_counter()
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - started
                assert elapsed < budget_s, (
                    f"criterion {number} took {elapsed:.1f}s, budget {budget_s:.0f}s"
                )
            except BaseException:
                _line(f"criterion {number} ({title}): FAIL")
                raise
            _line(f"criterion {number} ({title}): PASS  [{elapsed:.2f}s]")

        return run

    return wrap


def rel_error(got: np.ndarray, want: np.ndarray) -> float:
    scale = np.linalg.norm(want)
    if scale == 0.0:
        return float(np.linalg.norm(got))
    return float(np.linalg.norm(got - want) / scale)


@criterion(1, "pseudoinverse identities", budget_s=30.0)
def test_criterion_1_pseudoinverse_identities():
    """200 matrices up to 50x80, rank-deficient included: all four
    defining identities of the generalized inverse hold to 1e-8."""
    rng = np.random.default_rng(101)
    for case in range(200):
        rows = int(rng.integers(1, 51))
        cols = int(rng.integers(1, 81))
        if case == 0:
            a = np.zeros((7, 11))
        elif case % 2 == 0 and min(rows, cols) >= 2:
            rank = int(rng.integers(1, min(rows, cols)))
            a = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
        else:
            a = rng.uniform(-10, 10, size=(rows, cols))
        p = pseudoinverse(a)
        assert rel_error(a @ p @ a, a) < 1e-8, f"case {case}: A P A != A"
        assert rel_error(p @ a @ p, p) < 1e-8, f"case {case}: P A P != P"
        ap = a @ p
        assert rel_error(ap.T, ap) < 1e-8, f"case {case}: A P not symmetric"
        pa = p @ a
        assert rel_error(pa.T, pa) < 1e-8, f"case {case}: P A not symmetric"


@criterion(2, "minimum-norm least squares", budget_s=10.0)
def test_criterion_2_minimum_norm_solutions():
    """50 consistent underdetermined systems: the returned solution has
    no larger a norm than 20 alternative exact solutions apiece, and
    repeated solves are bit-identical."""
    rng = np.random.default_rng(202)
    for case in range(50):
        rows = int(rng.integers(2, 31))
        cols = int(rng.integers(rows + 1, rows + 41))
        a = rng.standard_normal((rows, cols))
        x_true = rng.standard_normal((cols, 1))
        y = a @ x_true
        x_hat = min_norm_lstsq(a, y)
        assert np.linalg.norm(a @ x_hat - y) / max(np.linalg.norm(y), 1e-30) < 1e-9

        # null-space directions generate alternative exact solutions
        _, s, vt = np.linalg.svd(a)
        null_basis = vt[rows:].T
        for _ in range(20):
            z = rng.standard_normal((null_basis.shape[1], 1))
            alt = x_hat + null_basis @ z
            assert np.linalg.norm(a @ alt - y) / np.linalg.norm(y) < 1e-8
            assert np.linalg.norm(x_hat) <= np.linalg.norm(alt) + 1e-12

        again = min_norm_lstsq(a, y)
        assert x_hat.tobytes() == again.tobytes()


@criterion(3, "exact interpolation at matched width", budget_s=5.0)
def test_criterion_3_exact_interpolation():
    """With as many hidden nodes as training samples the classifier
    drives its training cost to zero: 20 seeded cases, widths 5/10/20."""
    widths = (5, 10, 20)
    for case in range(20):
        k = widths[case % 3]
        rng = np.random.default_rng(3000 + case)
        features = rng.uniform(-1, 1, size=(k, 3))
        labels = rng.integers(0, 2, size=k)
        labels[0], labels[1] = 0, 1  # both classes present
        ds = LabeledDataset(features, labels, ("a", "b"))
        model = train_elm(ds, ElmConfig(hidden_nodes=k, seed=case))
        cost = training_cost(model, ds)
        assert cost < 1e-6, f"case {case} (width {k}): cost {cost}"


@criterion(4, "baseline gradient correctness", budget_s=10.0)
def test_criterion_4_gradient_matches_finite_differences(mlp_pass):
    """Analytic gradients of ten random networks, from the pass that
    ``train_mlp`` runs, agree with central differences (step 1e-5) to a
    relative error below 1e-4."""
    step = 1e-5
    for net in range(10):
        rng = np.random.default_rng(4000 + net)
        n_features = int(rng.integers(2, 5))
        n_classes = int(rng.integers(2, 4))
        hidden = int(rng.integers(2, 7))
        config = MlpConfig(hidden_nodes=hidden, seed=net)
        params = list(_init_mlp_params(n_features, n_classes, config))
        x = rng.uniform(-1, 1, size=(int(rng.integers(3, 9)), n_features))
        y = encode_targets(rng.integers(0, n_classes, size=x.shape[0]), n_classes)

        analytic = mlp_pass(x, y, *params)[1]
        for index in range(4):
            numeric = np.zeros_like(params[index])
            flat = params[index].ravel()
            for pos in range(flat.size):
                bumped = [p.copy() for p in params]
                bumped[index].ravel()[pos] = flat[pos] + step
                hi = mlp_pass(x, y, *bumped)[0]
                bumped[index].ravel()[pos] = flat[pos] - step
                lo = mlp_pass(x, y, *bumped)[0]
                numeric.ravel()[pos] = (hi - lo) / (2 * step)
            rel = rel_error(analytic[index], numeric)
            assert rel < 1e-4, f"network {net}, parameter {index}: {rel}"


@criterion(5, "protocol re-enactment", budget_s=600.0)
def test_criterion_5_protocol_reenactment():
    """On the bundled 7-class scene (2700 train / 2037 test): the width
    sweep's best median accuracy reaches 85%, lands within 3 points of
    the 2200-iteration baseline, and the direct solve trains at least
    20x faster."""
    scene = generate_synthetic(littleport_like_config())
    assert scene.n_samples == 4737 and scene.n_classes == 7 and scene.n_features == 6
    train, test = stratified_split(scene, SplitSpec(seed=42))
    assert train.n_samples == 2700 and test.n_samples == 2037

    sweep = sweep_hidden_nodes(train, test, n_seeds=3, base_seed=0)
    assert [e.hidden_nodes for e in sweep.entries] == list(range(25, 451, 25))
    best_acc = sweep.best_accuracy
    assert best_acc >= 0.85, f"best median accuracy {best_acc:.4f} below 0.85"

    result = benchmark(train, test,
                       elm_config=ElmConfig(hidden_nodes=sweep.best_h, seed=0),
                       mlp_config=MlpConfig())
    mlp_acc = result.mlp_report.accuracy
    gap = abs(best_acc - mlp_acc) * 100
    assert gap <= 3.0, (
        f"accuracy gap {gap:.2f} points (elm {best_acc:.4f}, mlp {mlp_acc:.4f})"
    )
    assert result.speedup >= 20.0, (
        f"train speedup only {result.speedup:.1f}x (elm {result.elm_model.train_time_s:.4f} s, "
        f"mlp {result.mlp_model.train_time_s:.4f} s)"
    )


@criterion(6, "byte-stable artifacts", budget_s=300.0)
def test_criterion_6_benchmark_reproducibility(tmp_path):
    """Two identical cli benchmark runs produce byte-identical model
    files and predictions, and identical reports once lines carrying
    wall-clock timings are dropped."""
    scene_csv = tmp_path / "scene.csv"
    assert cli_main(["generate", "--out", str(scene_csv)]) == 0

    out_a = tmp_path / "run_a"
    out_b = tmp_path / "run_b"
    args = ["benchmark", "--data", str(scene_csv), "--seed", "0"]
    assert cli_main(args + ["--out", str(out_a)]) == 0
    assert cli_main(args + ["--out", str(out_b)]) == 0

    byte_identical = ["elm.model", "mlp.model",
                      "elm_predictions.csv", "mlp_predictions.csv"]
    for name in byte_identical:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    for name in ("report.txt", "report.rec"):
        a_lines = (out_a / name).read_text().splitlines()
        b_lines = (out_b / name).read_text().splitlines()
        a_stable = [l for l in a_lines if "time" not in l]
        b_stable = [l for l in b_lines if "time" not in l]
        assert a_stable == b_stable, name
        assert a_stable, name  # the stable part must not be empty


@criterion(7, "split invariants and csv round-trip", budget_s=10.0)
def test_criterion_7_split_invariants(tmp_path):
    """100 random split specs: train and test are disjoint, exhaust the
    input, and match the requested proportions exactly; a save/load
    round-trip reproduces a dataset bit for bit."""
    rng = np.random.default_rng(707)
    for case in range(100):
        n_classes = int(rng.integers(2, 6))
        sizes = rng.integers(4, 40, size=n_classes)
        features = rng.standard_normal((int(sizes.sum()), 3))
        labels = np.repeat(np.arange(n_classes), sizes)
        perm = rng.permutation(labels.size)
        ds = LabeledDataset(features[perm], labels[perm],
                            tuple(f"c{i}" for i in range(n_classes)))

        fraction = float(rng.uniform(0.2, 0.8))
        train, test = stratified_split(ds, SplitSpec(train_fraction=fraction, seed=case))

        # disjoint and exhaustive, by row identity
        key = lambda m: sorted(map(lambda r: r.tobytes(), m))
        assert key(np.vstack([train.features, test.features])) == key(ds.features)
        train_keys = set(r.tobytes() for r in train.features)
        test_keys = set(r.tobytes() for r in test.features)
        assert not (train_keys & test_keys)

        per_class = np.bincount(train.labels, minlength=n_classes)
        assert train.n_samples == round(fraction * ds.n_samples)
        floors = np.floor(fraction * sizes).astype(int)
        assert (per_class >= floors).all() and (per_class <= sizes).all()

        if case % 10 == 0:
            path = tmp_path / f"case_{case}.csv"
            save_csv(ds, path)
            back = load_csv(path, class_names=ds.class_names)
            assert back.features.tobytes() == ds.features.tobytes()
            assert back.labels.tobytes() == ds.labels.tobytes()
            assert back.class_names == ds.class_names
