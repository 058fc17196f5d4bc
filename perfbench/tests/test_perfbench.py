"""Tests of the benchmark's own logic: span arithmetic, checks, inputs.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json

import numpy as np
import pytest

import checks
import run
import scenes
import spans
from spans import Span


def test_self_times_on_hand_built_span_tree():
    tree = [
        Span("cli.main", 0.0, 10.0),
        Span("data.load_csv", 1.0, 3.0, parent=0),
        Span("evaluate.benchmark", 4.0, 9.0, parent=0),
        Span("elm.train_elm", 5.0, 7.0, parent=2),
        Span("linalg.min_norm_lstsq", 5.5, 6.5, parent=3),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 3.0, 1.0, 1.0])
    m = spans.layer_metrics(tree)
    assert sum(m[f"{layer}.self_s"] for layer in spans.LAYERS) == pytest.approx(10.0)
    assert m["cli.self_s"] == pytest.approx(3.0)
    assert m["evaluate.self_s"] == pytest.approx(3.0)
    assert m["elm.train_s"] == pytest.approx(2.0)
    assert m["linalg.solve_s"] == pytest.approx(1.0)
    assert m["linalg.solve_share"] == pytest.approx(0.5)
    assert m["linalg.solve_calls"] == 1
    assert m["mlp.iteration_ms"] == 0.0


def test_self_time_counts_overlapping_children_once():
    tree = [
        Span("cli.main", 0.0, 10.0),
        Span("data.load_csv", 1.0, 5.0, parent=0),
        Span("data.load_feature_csv", 3.0, 7.0, parent=0),
        Span("data.stratified_split", 9.0, 12.0, parent=0),
    ]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_instrumented_records_spans_and_restores_functions(tmp_path):
    from elmkit import cli, elm, linalg

    original = elm.min_norm_lstsq
    features, labels = scenes.draw_scene(3)
    scenes.write_scene(tmp_path / "scene.csv", features, labels, "test scene")
    argv = ["train", "--data", str(tmp_path / "scene.csv"), "--hidden", "40"]

    assert run.run_cli(cli, argv + ["--out", str(tmp_path / "plain.model")]) == 0
    tracer = spans.Tracer()
    with spans.instrumented(tracer):
        assert elm.min_norm_lstsq is not original
        assert run.run_cli(cli, argv + ["--out", str(tmp_path / "traced.model")]) == 0
    assert elm.min_norm_lstsq is original and linalg.min_norm_lstsq is original

    names = [s.name for s in tracer.spans]
    assert names[0] == "cli.main" and tracer.spans[0].parent == -1
    assert all(s.parent >= 0 for s in tracer.spans[1:])
    assert names.count("linalg.min_norm_lstsq") == 1
    m = spans.layer_metrics(tracer.spans)
    assert m["modelio.bytes"] == (tmp_path / "traced.model").stat().st_size
    assert m["data.rows_parsed"] == 4737
    assert m["elm.hidden_cells"] == 3 * 4737 * 40  # train, then two passes of the report
    assert ((tmp_path / "plain.model").read_bytes()
            == (tmp_path / "traced.model").read_bytes())


PAIRED = {"elm_correct": 1758, "mlp_correct": 1751, "train_speedup": 70.0}


@pytest.mark.parametrize("key,shift,fails", [
    ("elm_correct", 1, False), ("elm_correct", -2, True), ("mlp_correct", 2, True)])
def test_paired_check_fails_on_perturbed_reference(key, shift, fails):
    ref = {"elm_correct": 1758, "mlp_correct": 1751}
    ref[key] += shift
    assert bool(checks.compare_paired(PAIRED, ref)) is fails


def test_paired_check_enforces_speedup_floor():
    ref = {"elm_correct": 1758, "mlp_correct": 1751}
    assert checks.compare_paired(dict(PAIRED, train_speedup=19.9), ref)


def test_sweep_check_fails_on_perturbed_reference():
    ref = {"median_correct": {"25": 1600, "50": 1700, "75": 1710}, "best_h": 75}
    obs = json.loads(json.dumps(ref))
    assert checks.compare_sweep(obs, ref) == []
    obs["best_h"] = 50  # 1700 is more than one sample below the best 1710
    assert checks.compare_sweep(obs, ref)
    near = {"median_correct": {"25": 1600, "50": 1709, "75": 1710}, "best_h": 75}
    assert checks.compare_sweep(dict(obs, median_correct=near["median_correct"]), near) == []
    perturbed = json.loads(json.dumps(ref))
    perturbed["median_correct"]["25"] += 2
    assert checks.compare_sweep(ref, perturbed)


def test_determinism_check_fails_on_one_byte_change(tmp_path):
    rec = tmp_path / "report.rec"
    csv = tmp_path / "elm_predictions.csv"
    rec.write_text("record=benchmark\naccuracy=0.86\ntime_train_s=0.14\n", encoding="utf-8")
    csv.write_bytes(b"f1,label\n1.0,wheat\n")
    first = checks.digests(tmp_path)
    assert set(first) == {"report.rec", "elm_predictions.csv"}

    rec.write_text("record=benchmark\naccuracy=0.86\ntime_train_s=0.17\n", encoding="utf-8")
    assert checks.compare_digests(first, checks.digests(tmp_path)) == []

    data = bytearray(csv.read_bytes())
    data[3] ^= 1
    csv.write_bytes(bytes(data))
    assert checks.compare_digests(first, checks.digests(tmp_path)) == [
        "artifact elm_predictions.csv differs from the first flow of this run"]


def test_scene_is_the_bundled_scene(tmp_path):
    from elmkit import generate_synthetic, littleport_like_config, load_csv

    bundled = generate_synthetic(littleport_like_config(seed=42))
    features, labels = scenes.draw_scene(42)
    assert np.array_equal(features, bundled.features)
    assert np.array_equal(labels, bundled.labels)
    assert scenes.CLASS_NAMES == bundled.class_names
    scenes.write_scene(tmp_path / "s.csv", features, labels, "x")
    loaded = load_csv(tmp_path / "s.csv", class_names=scenes.CLASS_NAMES)
    assert np.array_equal(loaded.features, features)


def test_benchmark_json_names_what_the_runner_measures():
    spec = run.benchmark_spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_s", "peak_rss_mb"}
    measured = set(spans.layer_metrics([])) | {"proc.cpu_s", "proc.minor_faults",
                                               "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == measured


def test_reference_covers_every_scene_seed():
    refs = json.loads((run.HERE / "reference.json").read_text(encoding="utf-8"))
    for name in run.WORKLOADS:
        assert sorted(refs[name], key=int) == [str(s) for s in range(run.SCENE_SEEDS)]
