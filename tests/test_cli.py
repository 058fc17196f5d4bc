"""Tests for the command line interface."""

import importlib
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from elmkit import cli
from elmkit.cli import _EXIT_CODES_HELP, main
from elmkit.data import (
    FormatError,
    LabeledDataset,
    load_csv,
    save_csv,
)
from elmkit.elm import ElmConfig
from elmkit.evaluate import config_text
from elmkit.mlp import MlpConfig, MlpDivergenceError
from elmkit.modelio import load_model


def write_blobs_csv(path, rng, n_per_class=40, spread=0.6):
    centers = np.array([[0.0, 0.0], [6.0, 0.0], [3.0, 5.0]])
    rows, labels = [], []
    for cls, center in enumerate(centers):
        rows.append(center + spread * rng.standard_normal((n_per_class, 2)))
        labels.append(np.full(n_per_class, cls))
    ds = LabeledDataset(np.vstack(rows), np.concatenate(labels), ("a", "b", "c"))
    save_csv(ds, path)
    return ds


def small_fit(kind):
    """train flags for a quick fit of *kind*: width 4, and 5 iterations for the mlp."""
    return ["--classifier", kind, "--hidden", "4", *(["--iterations", "5"] if kind == "mlp" else [])]


class TestGenerate:
    def test_writes_default_scene(self, tmp_path):
        out = tmp_path / "scene.csv"
        assert main(["generate", "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("# generator seed: 42\n")
        ds = load_csv(out)
        assert ds.n_samples == 4737
        assert ds.n_classes == 7
        assert ds.n_features == 6

    def test_split_outputs(self, tmp_path):
        out = tmp_path / "scene.csv"
        code = main(["generate", "--out", str(out),
                     "--train-fraction", str(2700 / 4737)])
        assert code == 0
        train = load_csv(tmp_path / "scene.train.csv")
        test = load_csv(tmp_path / "scene.test.csv")
        assert train.n_samples == 2700
        assert test.n_samples == 2037

    def test_seed_override(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["generate", "--out", str(a)]) == 0
        assert main(["generate", "--seed", "6", "--out", str(b)]) == 0
        assert b.read_text().startswith("# generator seed: 6\n")
        assert load_csv(a).features[0, 0] != load_csv(b).features[0, 0]

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["generate", "--seed", "3", "--out", str(a)])
        main(["generate", "--seed", "3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_retired_config_flag_exits_2(self, tmp_path, capsys):
        """generate draws the bundled scene only: a generator config file is not read."""
        with pytest.raises(SystemExit) as excinfo:
            main(["generate", "--config", str(tmp_path / "x.cfg"),
                  "--out", str(tmp_path / "g.csv")])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("after_drawing", [False, True])
    def test_failed_split_writes_nothing(self, tmp_path, capsys, after_drawing):
        """A fraction outside (0, 1) fails before the scene is drawn; one whose
        split of the drawn scene leaves the training side empty fails after."""
        out = tmp_path / "scene.csv"
        fraction = "1e-05" if after_drawing else "1.5"
        code = main(["generate", "--out", str(out), "--train-fraction", fraction])
        captured = capsys.readouterr()
        assert code == 4
        assert len(captured.err.splitlines()) == 1 and captured.out == ""
        assert list(tmp_path.glob("*.csv")) == []


def _with_byte(path, line_index, byte=b"\xff"):
    lines = path.read_bytes().splitlines(keepends=True)
    lines[line_index] = lines[line_index][:3] + byte + lines[line_index][4:]
    return b"".join(lines)


# Each case: an edit of a trained model file's lines that breaks the order
# the reader takes them in, and the physical line the error must name.
MALFORMED_MODELS = {
    "header lines swapped": (lambda lines: lines.insert(1, lines.pop(2)), 2),
    "non-integer seed": (lambda lines: lines.__setitem__(2, "seed: x1"), 3),
    "second seed line": (lambda lines: lines.insert(3, lines[2]), 4),
    "features line missing": (lambda lines: lines.pop(3), 4),
    "class line after scaling_min": (lambda lines: lines.insert(7, lines.pop(6)), 8),
}


class TestMalformedInputExits3:
    @pytest.mark.parametrize("case", sorted(MALFORMED_MODELS))
    def test_model(self, tmp_path, rng, capsys, case):
        data = tmp_path / "train.csv"
        write_blobs_csv(data, rng)
        model = tmp_path / "elm.model"
        assert main(["train", "--data", str(data), "--hidden", "4", "--out", str(model)]) == 0
        edit, line_no = MALFORMED_MODELS[case]
        lines = model.read_text().splitlines()
        assert lines[:6] == ["elm-model v3", "hidden_nodes: 4", "seed: 0", "features: 2",
                             "class: a", "class: b"]
        edit(lines)
        model.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        out = tmp_path / "p.csv"
        code = main(["predict", "--model", str(model), "--data", str(data), "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert code == 3
        assert len(err) == 1
        assert f"{model}: line {line_no}: " in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("classifier", ["elm", "mlp"])
    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_model_features_below_1_names_its_line(self, tmp_path, rng, capsys, classifier, value):
        data = tmp_path / "train.csv"
        write_blobs_csv(data, rng)
        model = tmp_path / f"{classifier}.model"
        assert main(["train", "--data", str(data), *small_fit(classifier),
                     "--out", str(model)]) == 0
        lines = model.read_text().splitlines()
        line_no = lines.index("features: 2") + 1
        lines[line_no - 1] = f"features: {value}"
        model.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["predict", "--model", str(model), "--data", str(data),
                     "--out", str(tmp_path / "p.csv")])
        assert code == 3
        assert capsys.readouterr().err == (f"elmkit predict: {model}: line {line_no}: "
                                           f"bad value for 'features': features must be >= 1, got {value}\n")

    @pytest.mark.parametrize("kind", ["model", "csv", "feature csv"])
    def test_non_utf8_byte(self, tmp_path, rng, capsys, kind):
        data = tmp_path / "train.csv"
        write_blobs_csv(data, rng)
        model = tmp_path / "elm.model"
        assert main(["train", "--data", str(data), "--hidden", "4", "--out", str(model)]) == 0
        out = str(tmp_path / "out.csv")
        bad, argv = {
            "model": (model, ["predict", "--model", str(model), "--data", str(data), "--out", out]),
            "csv": (data, ["train", "--data", str(data), "--out", out]),
            "feature csv": (data, ["predict", "--model", str(model), "--data", str(data),
                                   "--out", out]),
        }[kind]
        bad.write_bytes(_with_byte(bad, 4))
        capsys.readouterr()
        code = main(argv)
        err = capsys.readouterr().err.splitlines()
        assert code == 3
        assert err == [f"elmkit {argv[0]}: {bad}: line 5: not valid UTF-8"]

    @pytest.mark.parametrize("command", ["train", "predict", "benchmark", "sweep"])
    @pytest.mark.parametrize("line_no, prefix", [(3, "1" * 140_000), (1, "f" * 140_000), (3, "\x00")],
                             ids=["long cell", "long header", "nul byte"])
    def test_csv_module_error(self, tmp_path, rng, capsys, command, line_no, prefix):
        """A cell past csv.field_size_limit() is malformed, and so is a NUL byte in a
        feature cell: the csv module rejects it before Python 3.11, float() after."""
        data = tmp_path / "train.csv"
        write_blobs_csv(data, rng)
        model = tmp_path / "elm.model"
        assert main(["train", "--data", str(data), "--hidden", "4", "--out", str(model)]) == 0
        lines = data.read_text().splitlines(keepends=True)
        lines[line_no - 1] = prefix + lines[line_no - 1]
        bad = tmp_path / "bad.csv"
        bad.write_text("".join(lines))
        argv = {"train": ["train", "--data", str(bad), "--hidden", "4"],
                "predict": ["predict", "--model", str(model), "--data", str(bad)],
                "benchmark": ["benchmark", "--data", str(bad), "--iterations", "5"],
                "sweep": ["sweep", "--data", str(bad), "--seeds", "1"]}[command]
        out = tmp_path / "out"
        capsys.readouterr()
        code = main([*argv, "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert code == 3
        assert len(err) == 1
        assert err[0].startswith(f"elmkit {command}: {bad}: row {line_no}")
        assert not out.exists()

    def test_class_name_with_line_break(self, tmp_path, capsys):
        """A model file could not hold such a name, so training writes none."""
        data = tmp_path / "train.csv"
        data.write_text('f1,label\n1.0,a\n2.0,"a\nb"\n3.0,b\n')
        model = tmp_path / "elm.model"
        code = main(["train", "--data", str(data), "--hidden", "2", "--out", str(model)])
        err = capsys.readouterr().err.splitlines()
        assert code == 3
        assert err == [f"elmkit train: {data}: row 3: class name contains a line break"]
        assert not model.exists()


class TestTrainPredict:
    def test_elm_round_trip(self, tmp_path, rng, capsys):
        data = tmp_path / "train.csv"
        ds = write_blobs_csv(data, rng)
        model_path = tmp_path / "elm.model"
        code = main(["train", "--data", str(data), "--classifier", "elm",
                     "--hidden", "25", "--seed", "1", "--out", str(model_path)])
        assert code == 0
        model = load_model(model_path)
        assert model.config.hidden_nodes == 25

        pred_path = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(model_path), "--data", str(data),
                     "--out", str(pred_path)]) == 0
        predicted = load_csv(pred_path, class_names=ds.class_names)
        accuracy = (predicted.labels == ds.labels).mean()
        assert accuracy > 0.9
        assert pred_path.read_text().startswith("# classifier=elm")

    def test_byte_order_mark_trains_the_same_model(self, tmp_path):
        scene = tmp_path / "scene.csv"
        assert main(["generate", "--out", str(scene)]) == 0
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + scene.read_bytes())
        models = []
        for data in (scene, marked):
            models.append(tmp_path / f"{data.stem}.model")
            assert main(["train", "--data", str(data), "--hidden", "25",
                         "--out", str(models[-1])]) == 0
        assert models[0].read_bytes() == models[1].read_bytes()

    def test_mlp_training(self, tmp_path, rng):
        data = tmp_path / "train.csv"
        write_blobs_csv(data, rng)
        model_path = tmp_path / "mlp.model"
        code = main(["train", "--data", str(data), "--classifier", "mlp",
                     "--hidden", "8", "--iterations", "60", "--seed", "2",
                     "--out", str(model_path)])
        assert code == 0
        model = load_model(model_path)
        assert model.config.hidden_nodes == 8
        assert model.config.iterations == 60

    def test_training_report_written(self, tmp_path, rng):
        data = tmp_path / "train.csv"
        write_blobs_csv(data, rng)
        model_path = tmp_path / "elm.model"
        assert main(["train", "--data", str(data), "--hidden", "12",
                     "--out", str(model_path)]) == 0
        report = (tmp_path / "elm.model.report.txt").read_text()
        assert report.startswith("training report\n")
        assert "config: classifier=elm hidden_nodes=12" in report
        assert "train samples: 120" in report
        assert "training accuracy:" in report
        assert "confusion matrix" in report
        record = (tmp_path / "elm.model.report.rec").read_text()
        assert [line.partition("=")[0] for line in record.splitlines()] == [
            "record", "config", "data_fingerprint", "n_train", "training_accuracy",
            "training_cost", "time_train_s", "confusion_row_0", "confusion_row_1",
            "confusion_row_2"]
        assert record.startswith("record=training\nconfig=classifier=elm hidden_nodes=12 ")

    def test_training_report_stable_modulo_time_lines(self, tmp_path, rng):
        data = tmp_path / "train.csv"
        write_blobs_csv(data, rng)
        for name in ("a.model", "b.model"):
            main(["train", "--data", str(data), "--classifier", "mlp",
                  "--iterations", "30", "--out", str(tmp_path / name)])
        for suffix, timed in ((".txt", lambda ln: "time" in ln),
                              (".rec", lambda ln: ln.startswith("time_"))):
            kept = []
            for name in ("a.model", "b.model"):
                lines = (tmp_path / f"{name}.report{suffix}").read_text().splitlines()
                kept.append([ln for ln in lines if not timed(ln)])
            assert kept[0] == kept[1]
            assert len(kept[0]) < len(lines)

    def test_default_hidden_depends_on_classifier(self, tmp_path, rng):
        data = tmp_path / "train.csv"
        write_blobs_csv(data, rng)
        elm_path = tmp_path / "e.model"
        mlp_path = tmp_path / "m.model"
        main(["train", "--data", str(data), "--out", str(elm_path)])
        main(["train", "--data", str(data), "--classifier", "mlp",
              "--iterations", "5", "--out", str(mlp_path)])
        assert load_model(elm_path).config.hidden_nodes == 300
        assert load_model(mlp_path).config.hidden_nodes == 26

    def test_feature_width_mismatch_exits_4(self, tmp_path, rng, capsys):
        data = tmp_path / "train.csv"
        write_blobs_csv(data, rng)
        model_path = tmp_path / "elm.model"
        main(["train", "--data", str(data), "--hidden", "10", "--out", str(model_path)])
        capsys.readouterr()
        wide = tmp_path / "wide.csv"
        wide.write_text("f1,f2,f3\n1.0,2.0,3.0\n")
        code = main(["predict", "--model", str(model_path), "--data", str(wide),
                     "--out", str(tmp_path / "p.csv")])
        assert code == 4
        assert capsys.readouterr().err == (
            "elmkit predict: expected 2 features per sample, got input of shape (1, 3)\n")
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("kind", ["elm", "mlp"])
    def test_feature_that_scales_past_float64_exits_4(self, tmp_path, rng, capsys, kind):
        """Scaled to infinity, the row would score NaN everywhere and get class 0."""
        data = tmp_path / "train.csv"
        write_blobs_csv(data, rng)
        model_path = tmp_path / f"{kind}.model"
        main(["train", "--data", str(data), *small_fit(kind), "--out", str(model_path)])
        capsys.readouterr()
        huge = tmp_path / "huge.csv"
        huge.write_text("f1,f2\n1.0,2.0\n1e308,1e308\n")
        code = main(["predict", "--model", str(model_path), "--data", str(huge),
                     "--out", str(tmp_path / "p.csv")])
        assert code == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0] == ("elmkit predict: feature column 0: scaled value is not finite "
                          "(a NaN or infinity, or a value far outside the training range)")
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("kind", ["elm", "mlp"])
    def test_feature_range_past_float64_exits_4(self, tmp_path, capsys, kind):
        data = tmp_path / "train.csv"
        save_csv(LabeledDataset([[0.0, 1e308], [1.0, -1e308], [2.0, 0.0], [3.0, 1.0]],
                                [0, 1, 0, 1], ("a", "b")), data)
        code = main(["train", "--data", str(data), *small_fit(kind),
                     "--out", str(tmp_path / "m.model")])
        assert code == 4
        assert capsys.readouterr().err == (
            "elmkit train: feature bounds must be finite, with feature_max >= feature_min and a "
            "finite range feature_max - feature_min (feature column 1)\n")
        assert not (tmp_path / "m.model").exists()

    def test_corrupt_model_exits_3(self, tmp_path, rng):
        data = tmp_path / "train.csv"
        write_blobs_csv(data, rng)
        bad = tmp_path / "bad.model"
        bad.write_text("gibberish v0\n")
        code = main(["predict", "--model", str(bad), "--data", str(data),
                     "--out", str(tmp_path / "p.csv")])
        assert code == 3

    def test_inflated_model_header_exits_3(self, tmp_path, rng):
        data = tmp_path / "train.csv"
        write_blobs_csv(data, rng)
        model_path = tmp_path / "elm.model"
        main(["train", "--data", str(data), "--hidden", "4", "--out", str(model_path)])
        text = model_path.read_text().replace("hidden_nodes: 4\n", "hidden_nodes: 4000000000\n")
        model_path.write_text(text)
        proc = subprocess.run(
            [sys.executable, "-m", "elmkit", "predict", "--model", str(model_path),
             "--data", str(data), "--out", str(tmp_path / "p.csv")],
            capture_output=True, text=True)
        assert proc.returncode == 3
        lines = [l for l in proc.stderr.splitlines() if l.strip()]
        assert len(lines) == 1
        assert "'weights' declares 4000000000 rows" in lines[0]

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_model_weight_exits_3(self, tmp_path, rng, capsys, value):
        """A non-finite weight would put every sample in one class; it is malformed."""
        data = tmp_path / "train.csv"
        write_blobs_csv(data, rng)
        model_path = tmp_path / "elm.model"
        main(["train", "--data", str(data), "--hidden", "4", "--out", str(model_path)])
        lines = model_path.read_text().splitlines()
        row = lines.index("weights:") + 2
        lines[row] = f"{value} " + lines[row].split(" ", 1)[1]
        model_path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["predict", "--model", str(model_path), "--data", str(data),
                     "--out", str(tmp_path / "p.csv")])
        err = capsys.readouterr().err.splitlines()
        assert code == 3
        assert len(err) == 1
        assert err[0].startswith(f"elmkit predict: {model_path}: line {row + 1}: non-finite number")
        assert not (tmp_path / "p.csv").exists()

    def test_repeated_model_class_exits_3(self, tmp_path, rng, capsys):
        data = tmp_path / "train.csv"
        write_blobs_csv(data, rng)
        model_path = tmp_path / "elm.model"
        main(["train", "--data", str(data), "--hidden", "4", "--out", str(model_path)])
        lines = model_path.read_text().splitlines()
        row = lines.index("class: b")
        lines[row] = "class: a"
        model_path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["predict", "--model", str(model_path), "--data", str(data),
                     "--out", str(tmp_path / "p.csv")])
        assert code == 3
        assert capsys.readouterr().err == (
            f"elmkit predict: {model_path}: line {row + 1}: "
            "class 'a' repeats an earlier 'class:' line\n")

    @pytest.mark.parametrize("kind", ["elm", "mlp"])
    def test_bare_model_class_line_exits_3(self, tmp_path, rng, capsys, kind):
        """A model file's empty class name would label rows ''."""
        data = tmp_path / "train.csv"
        write_blobs_csv(data, rng)
        model_path = tmp_path / f"{kind}.model"
        assert main(["train", "--data", str(data), *small_fit(kind),
                     "--out", str(model_path)]) == 0
        lines = model_path.read_text().splitlines()
        row = lines.index("class: b")
        lines[row] = "class: "
        model_path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["predict", "--model", str(model_path), "--data", str(data),
                     "--out", str(tmp_path / "p.csv")])
        assert code == 3
        assert capsys.readouterr().err == (
            f"elmkit predict: {model_path}: line {row + 1}: empty 'class:' name\n")
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("kind", ["elm", "mlp"])
    def test_empty_label_cell_exits_3(self, tmp_path, rng, capsys, kind):
        """It used to train a model with one more class, named ''."""
        data = tmp_path / "train.csv"
        write_blobs_csv(data, rng)
        lines = data.read_text().splitlines()
        lines[5] = lines[5].rsplit(",", 1)[0] + ", "
        data.write_text("\n".join(lines) + "\n")
        model_path = tmp_path / "m.model"
        capsys.readouterr()
        code = main(["train", "--data", str(data), *small_fit(kind), "--out", str(model_path)])
        assert code == 3
        assert capsys.readouterr().err == f"elmkit train: {data}: row 6: empty label\n"
        assert list(tmp_path.iterdir()) == [data]

    def test_no_tuning_flags_give_the_config_defaults(self, tmp_path, rng):
        data = tmp_path / "train.csv"
        write_blobs_csv(data, rng)
        for kind, config in (("elm", ElmConfig()), ("mlp", MlpConfig())):
            model_path = tmp_path / f"{kind}.model"
            assert main(["train", "--data", str(data), "--classifier", kind,
                         "--out", str(model_path)]) == 0
            report = (tmp_path / f"{kind}.model.report.txt").read_text().splitlines()
            assert report[1] == f"config: {config_text(config)}"
            assert load_model(model_path).config == config

    def test_every_config_field_comes_from_a_flag(self, tmp_path, rng):
        """Flags away from every default reach every field of both configs."""
        data = tmp_path / "train.csv"
        write_blobs_csv(data, rng)
        flags = ["--hidden", "7", "--seed", "3"]
        mlp_flags = ["--learning-rate", "0.5", "--momentum", "0.5", "--iterations", "9"]
        for kind, config_type, more in (("elm", ElmConfig, []), ("mlp", MlpConfig, mlp_flags)):
            model_path = tmp_path / f"{kind}.model"
            assert main(["train", "--data", str(data), "--classifier", kind, *flags, *more,
                         "--out", str(model_path)]) == 0
            config = load_model(model_path).config
            for field in fields(config_type):
                assert getattr(config, field.name) != field.default, (kind, field.name)

    def test_diverging_mlp_writes_one_stderr_line(self, tmp_path, rng):
        data = tmp_path / "train.csv"
        write_blobs_csv(data, rng)
        proc = subprocess.run(
            [sys.executable, "-m", "elmkit", "train", "--data", str(data),
             "--classifier", "mlp", "--learning-rate", "1e308", "--momentum", "0.99",
             "--iterations", "50", "--out", str(tmp_path / "m.model")],
            capture_output=True, text=True)
        assert proc.returncode == 5
        assert proc.stderr.splitlines() == [
            "elmkit train: training diverged at iteration 1: loss nan"]

    def test_corrupt_csv_exits_3(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("f1,label\noops,a\n")
        code = main(["train", "--data", str(bad), "--out", str(tmp_path / "m.model")])
        assert code == 3

    def test_bad_flag_value_exits_4(self, tmp_path, rng):
        data = tmp_path / "train.csv"
        write_blobs_csv(data, rng)
        code = main(["train", "--data", str(data), "--hidden", "0",
                     "--out", str(tmp_path / "m.model")])
        assert code == 4


class TestBenchmarkCommand:
    def test_artifacts_and_stability(self, tmp_path, rng):
        data = tmp_path / "scene.csv"
        write_blobs_csv(data, rng, n_per_class=60)
        args = ["benchmark", "--data", str(data), "--train-fraction", "0.5",
                "--seed", "1", "--hidden", "20", "--mlp-hidden", "8",
                "--iterations", "40"]
        out_a, out_b = tmp_path / "run_a", tmp_path / "run_b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0

        expected = ["elm.model", "mlp.model", "elm_predictions.csv",
                    "mlp_predictions.csv", "report.txt", "report.rec"]
        for name in expected:
            assert (out_a / name).is_file(), name

        # repeated runs agree byte for byte once timing lines are dropped
        for name in expected:
            a_text = (out_a / name).read_text().splitlines()
            b_text = (out_b / name).read_text().splitlines()
            a_stable = [l for l in a_text if "time" not in l]
            b_stable = [l for l in b_text if "time" not in l]
            assert a_stable == b_stable, name
        assert (out_a / "elm.model").read_bytes() == (out_b / "elm.model").read_bytes()
        assert (out_a / "mlp.model").read_bytes() == (out_b / "mlp.model").read_bytes()

    def test_predicts_test_split_once_per_classifier(self, tmp_path, rng, monkeypatch):
        # the package exports a function named evaluate, so fetch the module
        cli = importlib.import_module("elmkit.cli")
        evaluate = importlib.import_module("elmkit.evaluate")
        calls = []
        original = evaluate.predict

        def counting(model, features):
            calls.append(type(model).__name__)
            return original(model, features)

        monkeypatch.setattr(evaluate, "predict", counting)
        monkeypatch.setattr(cli, "predict", counting)
        data = tmp_path / "scene.csv"
        write_blobs_csv(data, rng, n_per_class=30)
        out = tmp_path / "run"
        assert main(["benchmark", "--data", str(data), "--train-fraction", "0.5",
                     "--hidden", "15", "--iterations", "5", "--out", str(out)]) == 0
        assert calls == ["ElmModel", "MlpModel"]
        # the CSVs hold the labels the saved models predict for their rows
        for name in ("elm", "mlp"):
            rows = [line.split(",") for line in
                    (out / f"{name}_predictions.csv").read_text().splitlines()[2:]]
            features = np.array([[float(v) for v in row[:-1]] for row in rows])
            model = load_model(out / f"{name}.model")
            expected = [model.class_names[i] for i in original(model, features)]
            assert [row[-1] for row in rows] == expected

    def test_elm_hidden_flag_does_not_touch_mlp(self, tmp_path, rng):
        data = tmp_path / "scene.csv"
        write_blobs_csv(data, rng, n_per_class=30)
        out = tmp_path / "run"
        main(["benchmark", "--data", str(data), "--train-fraction", "0.5",
              "--hidden", "33", "--iterations", "5", "--out", str(out)])
        assert load_model(out / "elm.model").config.hidden_nodes == 33
        assert load_model(out / "mlp.model").config.hidden_nodes == 26

    def test_every_config_field_comes_from_a_flag(self, tmp_path, rng):
        """Flags away from every default reach every field of both configs."""
        data = tmp_path / "scene.csv"
        write_blobs_csv(data, rng, n_per_class=30)
        out = tmp_path / "run"
        assert main(["benchmark", "--data", str(data), "--train-fraction", "0.5",
                     "--hidden", "7", "--mlp-hidden", "5", "--seed", "3",
                     "--learning-rate", "0.5", "--momentum", "0.5", "--iterations", "9",
                     "--out", str(out)]) == 0
        for kind, config_type in (("elm", ElmConfig), ("mlp", MlpConfig)):
            config = load_model(out / f"{kind}.model").config
            for field in fields(config_type):
                assert getattr(config, field.name) != field.default, (kind, field.name)

    def test_report_embeds_configs(self, tmp_path, rng):
        data = tmp_path / "scene.csv"
        write_blobs_csv(data, rng, n_per_class=30)
        out = tmp_path / "run"
        main(["benchmark", "--data", str(data), "--train-fraction", "0.5",
              "--hidden", "15", "--iterations", "5", "--out", str(out)])
        report = (out / "report.txt").read_text()
        assert "classifier=elm hidden_nodes=15" in report
        assert "classifier=mlp hidden_nodes=26" in report
        assert "train fingerprint: " in report


class TestSweepCommand:
    def test_sweep_artifacts(self, tmp_path, rng):
        data = tmp_path / "scene.csv"
        write_blobs_csv(data, rng, n_per_class=40)
        out = tmp_path / "sweep"
        code = main(["sweep", "--data", str(data), "--train-fraction", "0.5",
                     "--seed", "2", "--seeds", "2", "--out", str(out)])
        assert code == 0
        text = (out / "sweep.txt").read_text()
        assert "best hidden width" in text
        rec = (out / "sweep.rec").read_text()
        assert "record=sweep" in rec
        assert "best_h=" in rec
        assert "base_seed=2" in rec


    def test_error_in_one_fit_keeps_its_exit_code(self, tmp_path, rng, capsys, monkeypatch):
        """A fit failing on a worker thread ends the sweep as it would sequentially."""
        evaluate = importlib.import_module("elmkit.evaluate")
        data = tmp_path / "scene.csv"
        write_blobs_csv(data, rng, n_per_class=40)
        train_elm = evaluate.train_elm

        def exhausted_at_width_100(train, config):
            if config.hidden_nodes == 100:
                raise MemoryError("Unable to allocate 2.1 MiB for an array")
            return train_elm(train, config)

        monkeypatch.setattr(evaluate, "train_elm", exhausted_at_width_100)
        monkeypatch.setattr(evaluate, "_cores", lambda: 2)
        code = main(["sweep", "--data", str(data), "--train-fraction", "0.5",
                     "--seeds", "2", "--out", str(tmp_path / "sweep")])
        assert code == 6
        assert capsys.readouterr().err == (
            "elmkit sweep: out of memory: Unable to allocate 2.1 MiB for an array\n")
        assert not (tmp_path / "sweep").exists()


class TestRetiredFlags:
    """The ELM is configured by width and seed alone: --activation and
    --rank-tol are usage errors on every command that fits one, and a model
    file that names an activation is malformed."""

    @pytest.mark.parametrize("flag", [["--activation", "tanh"], ["--activation", "sigmoid"],
                                      ["--rank-tol", "1e-8"]], ids=lambda f: f[0])
    @pytest.mark.parametrize("command", ["train", "benchmark", "sweep"])
    def test_exits_2(self, tmp_path, rng, capsys, command, flag):
        data = tmp_path / "scene.csv"
        write_blobs_csv(data, rng)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--data", str(data), *flag, "--out", str(out)])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not out.exists()

    def test_model_with_an_activation_line_exits_3(self, tmp_path, rng, capsys):
        data = tmp_path / "train.csv"
        write_blobs_csv(data, rng)
        model = tmp_path / "elm.model"
        assert main(["train", "--data", str(data), "--hidden", "4", "--out", str(model)]) == 0
        tag, hidden, seed, *rest = model.read_text().splitlines()
        model.write_text("\n".join([tag, hidden, "activation: tanh", seed, *rest]) + "\n")
        capsys.readouterr()
        code = main(["predict", "--model", str(model), "--data", str(data),
                     "--out", str(tmp_path / "p.csv")])
        assert code == 3
        assert capsys.readouterr().err == (
            f"elmkit predict: {model}: line 3: expected 'seed:', got 'activation: tanh'\n")
        assert not (tmp_path / "p.csv").exists()


class TestMlpFlagsWithTheElm:
    """train's learning flags set the mlp only: with the elm they are a usage error,
    not a value silently dropped."""

    @pytest.mark.parametrize("classifier", [[], ["--classifier", "elm"]], ids=["default", "elm"])
    @pytest.mark.parametrize("flag, value", [("--learning-rate", "5"), ("--momentum", "0.9"),
                                             ("--iterations", "3")])
    def test_exits_2_naming_the_flag(self, tmp_path, rng, capsys, classifier, flag, value):
        data = tmp_path / "train.csv"
        write_blobs_csv(data, rng)
        capsys.readouterr()
        code = main(["train", "--data", str(data), *classifier, flag, value,
                     "--out", str(tmp_path / "m.model")])
        assert code == 2
        assert capsys.readouterr().err == f"elmkit train: {flag} applies to --classifier mlp only\n"
        assert list(tmp_path.iterdir()) == [data]


class TestNegativeSeed:
    """A negative seed is rejected where it is configured, with a message naming it."""

    @pytest.mark.parametrize("command", [["train", "--classifier", "elm"],
                                         ["train", "--classifier", "mlp"],
                                         ["benchmark"], ["sweep"], ["generate"]])
    def test_flag_exits_4(self, tmp_path, rng, capsys, command):
        data = tmp_path / "scene.csv"
        write_blobs_csv(data, rng)
        inputs = [] if command[0] == "generate" else ["--data", str(data)]
        code = main(command + inputs + ["--seed", "-3", "--out", str(tmp_path / "out")])
        assert code == 4
        assert capsys.readouterr().err == (
            f"elmkit {command[0]}: seed must be non-negative, got -3\n")

    @pytest.mark.parametrize("classifier", ["elm", "mlp"])
    def test_model_file_exits_3(self, tmp_path, rng, capsys, classifier):
        data = tmp_path / "scene.csv"
        write_blobs_csv(data, rng)
        model_path = tmp_path / f"{classifier}.model"
        assert main(["train", "--data", str(data), *small_fit(classifier),
                     "--out", str(model_path)]) == 0
        text = model_path.read_text()
        assert "\nseed: 0\n" in text
        model_path.write_text(text.replace("\nseed: 0\n", "\nseed: -5\n"))
        capsys.readouterr()
        code = main(["predict", "--model", str(model_path), "--data", str(data),
                     "--out", str(tmp_path / "p.csv")])
        assert code == 3
        assert capsys.readouterr().err == (
            f"elmkit predict: {model_path}: seed must be non-negative, got -5\n")


class TestEntryPoints:
    def test_module_invocation(self, tmp_path):
        out = tmp_path / "scene.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "elmkit", "generate", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert out.is_file()

    def test_import_leaves_the_thread_pool_unloaded(self):
        """Only the sweep needs concurrent.futures, whose logging import costs every command."""
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, elmkit.cli; print('concurrent.futures' in sys.modules)"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == "False\n"

    def test_usage_error_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "elmkit", "train", "--nonsense"],
            capture_output=True, text=True)
        assert proc.returncode == 2

    def test_missing_subcommand_exits_2(self):
        proc = subprocess.run([sys.executable, "-m", "elmkit"],
                              capture_output=True, text=True)
        assert proc.returncode == 2

    def test_error_diagnostic_is_single_stderr_line(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("f1,label\noops,a\n")
        proc = subprocess.run(
            [sys.executable, "-m", "elmkit", "train", "--data", str(bad),
             "--out", str(tmp_path / "m.model")],
            capture_output=True, text=True)
        assert proc.returncode == 3
        lines = [l for l in proc.stderr.splitlines() if l.strip()]
        assert len(lines) == 1
        assert lines[0].startswith("elmkit train: ")

    def test_echoed_newline_stays_on_the_one_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text('f1,label\n"1\n2",a\n')
        assert main(["train", "--data", str(bad), "--out", str(tmp_path / "m.model")]) == 3
        assert capsys.readouterr().err == (
            f"elmkit train: {bad}: row 2, column 'f1': could not parse '1\\n2' as a number\n")

    def test_help_documents_exit_codes(self):
        proc = subprocess.run([sys.executable, "-m", "elmkit", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "exit codes" in proc.stdout
        for code in ("0", "2", "3", "4", "5"):
            assert code in proc.stdout

    @pytest.mark.parametrize("command, entries", [
        ("train", ["--hidden HIDDEN hidden-layer width (default: 300 elm, 26 mlp)",
                   "--seed SEED seed of the elm's hidden layer or the mlp's weights (default 0)",
                   "--learning-rate LEARNING_RATE mlp learning rate (default 0.25; mlp only)",
                   "--momentum MOMENTUM mlp momentum (default 0.2; mlp only)",
                   "--iterations ITERATIONS mlp training iterations (default 2200; mlp only)"]),
        ("benchmark", ["--seed SEED seed of the split and of both classifiers (default 0)",
                       "--hidden HIDDEN elm hidden-layer width (default 300)",
                       "--mlp-hidden MLP_HIDDEN mlp hidden-layer width (default 26)"]),
        ("sweep", ["--seed SEED seed of the split and of each width's first classifier "
                   "(default 0)"]),
    ], ids=["train", "benchmark", "sweep"])
    def test_help_says_what_each_width_and_seed_flag_sets(self, capsys, command, entries):
        """benchmark's --seed also seeds the split, and its --hidden sets the elm width only."""
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        for entry in entries:
            assert entry in text

    def test_memory_error_is_one_line_exit_6(self, tmp_path, capsys, monkeypatch):
        def exhausted(config):
            raise MemoryError("Unable to allocate 43.7 TiB for an array")

        monkeypatch.setattr("elmkit.cli.generate_synthetic", exhausted)
        assert main(["generate", "--out", str(tmp_path / "x.csv")]) == 6
        assert capsys.readouterr().err == (
            "elmkit generate: out of memory: Unable to allocate 43.7 TiB for an array\n")
        assert "  6  out of memory" in _EXIT_CODES_HELP


class TestExitCodes:
    """The contract of --help, with the codes written out here, not read from cli."""

    @pytest.mark.parametrize("error, code", [
        (FormatError("bad"), 3),
        (ValueError("bad"), 4),
        (MlpDivergenceError(7, float("nan")), 5),
        (MemoryError("bad"), 6),
        (OSError("bad"), 1),
        (FileNotFoundError("bad"), 1),
    ], ids=lambda value: type(value).__name__ if isinstance(value, BaseException) else None)
    def test_each_error_type(self, tmp_path, capsys, monkeypatch, error, code):
        def failing(args):
            raise error

        monkeypatch.setattr(cli, "cmd_generate", failing)
        assert main(["generate", "--out", str(tmp_path / "x.csv")]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("elmkit generate: ")

    def test_missing_data_file_exits_1(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        code = main(["train", "--data", str(missing), "--out", str(tmp_path / "m.model")])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(err) == 1
        assert err[0].startswith("elmkit train: ") and str(missing) in err[0]
