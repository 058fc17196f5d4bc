"""Tests for text model serialization."""

import numpy as np
import pytest

from elmkit.data import LabeledDataset, ScalingParams
from elmkit.elm import ElmConfig, ElmModel, predict, train_elm
from elmkit.mlp import MlpConfig, MlpModel, mlp_predict, train_mlp
from elmkit.modelio import ModelFormatError, load_model, save_model


def blobs(rng):
    centers = np.array([[0.0, 0.0], [6.0, 0.0], [3.0, 5.0]])
    rows, labels = [], []
    for cls, center in enumerate(centers):
        rows.append(center + rng.standard_normal((30, 2)))
        labels.append(np.full(30, cls))
    return LabeledDataset(np.vstack(rows), np.concatenate(labels), ("north field", "south", "c,3"))


class TestElmRoundTrip:
    def test_bit_exact_arrays_and_config(self, tmp_path, rng):
        ds = blobs(rng)
        model = train_elm(ds, ElmConfig(hidden_nodes=9, activation="tanh", seed=17,
                                        rank_tol=1e-9))
        path = tmp_path / "m.model"
        save_model(model, path)
        back = load_model(path)
        assert back.config == model.config
        assert back.class_names == model.class_names
        assert back.weights.tobytes() == model.weights.tobytes()
        assert back.biases.tobytes() == model.biases.tobytes()
        assert back.output_weights.tobytes() == model.output_weights.tobytes()
        assert back.scaling.feature_min.tobytes() == model.scaling.feature_min.tobytes()
        assert back.scaling.feature_max.tobytes() == model.scaling.feature_max.tobytes()

    def test_loaded_model_predicts_identically(self, tmp_path, rng):
        ds = blobs(rng)
        model = train_elm(ds, ElmConfig(hidden_nodes=12, seed=3))
        path = tmp_path / "m.model"
        save_model(model, path)
        back = load_model(path)
        queries = rng.uniform(-2, 8, size=(50, 2))
        np.testing.assert_array_equal(predict(back, queries), predict(model, queries))

    def test_save_twice_identical_bytes(self, tmp_path, rng):
        model = train_elm(blobs(rng), ElmConfig(hidden_nodes=7, seed=1))
        a, b = tmp_path / "a.model", tmp_path / "b.model"
        save_model(model, a)
        save_model(model, b)
        assert a.read_bytes() == b.read_bytes()


class TestMlpRoundTrip:
    def test_bit_exact_arrays_and_config(self, tmp_path, rng):
        ds = blobs(rng)
        config = MlpConfig(hidden_nodes=5, learning_rate=0.3, momentum=0.1,
                           iterations=40, seed=11)
        model = train_mlp(ds, config)
        path = tmp_path / "m.model"
        save_model(model, path)
        back = load_model(path)
        assert back.config == config
        assert back.class_names == model.class_names
        for name in ("w_hidden", "b_hidden", "w_out", "b_out"):
            assert getattr(back, name).tobytes() == getattr(model, name).tobytes()

    def test_loss_history_is_not_persisted(self, tmp_path, rng):
        model = train_mlp(blobs(rng), MlpConfig(hidden_nodes=4, iterations=10, seed=0))
        assert len(model.loss_history) == 11
        path = tmp_path / "m.model"
        save_model(model, path)
        back = load_model(path)
        assert back.loss_history == ()
        assert back.train_time_s == 0.0

    def test_loaded_model_predicts_identically(self, tmp_path, rng):
        ds = blobs(rng)
        model = train_mlp(ds, MlpConfig(hidden_nodes=6, iterations=60, seed=2))
        path = tmp_path / "m.model"
        save_model(model, path)
        back = load_model(path)
        queries = rng.uniform(-2, 8, size=(40, 2))
        np.testing.assert_array_equal(mlp_predict(back, queries), mlp_predict(model, queries))


class TestFormatErrors:
    def test_unknown_tag(self, tmp_path):
        path = tmp_path / "bad.model"
        path.write_text("mystery-model v9\n")
        with pytest.raises(ModelFormatError, match="unknown model tag"):
            load_model(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.model"
        path.write_text("")
        with pytest.raises(ModelFormatError, match="empty"):
            load_model(path)

    def test_truncated_file(self, tmp_path, rng):
        model = train_elm(blobs(rng), ElmConfig(hidden_nodes=6, seed=1))
        path = tmp_path / "m.model"
        save_model(model, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-3]) + "\n")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_wrong_row_width(self, tmp_path, rng):
        model = train_elm(blobs(rng), ElmConfig(hidden_nodes=6, seed=1))
        path = tmp_path / "m.model"
        save_model(model, path)
        text = path.read_text().splitlines()
        idx = text.index("weights:") + 1
        text[idx] = text[idx] + " 0.5"
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(ModelFormatError, match="expected 2 values"):
            load_model(path)

    def test_corrupt_number(self, tmp_path, rng):
        model = train_elm(blobs(rng), ElmConfig(hidden_nodes=6, seed=1))
        path = tmp_path / "m.model"
        save_model(model, path)
        path.write_text(path.read_text().replace("biases: ", "biases: oops ", 1))
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_nan_rank_tol_rejected(self, tmp_path, rng):
        model = train_elm(blobs(rng), ElmConfig(hidden_nodes=6, seed=1))
        path = tmp_path / "m.model"
        save_model(model, path)
        path.write_text(path.read_text().replace("rank_tol: 1e-10\n", "rank_tol: nan\n"))
        with pytest.raises(ModelFormatError, match="rank_tol"):
            load_model(path)

    def test_errors_name_the_physical_line(self, tmp_path, rng):
        model = train_elm(blobs(rng), ElmConfig(hidden_nodes=6, seed=1))
        path = tmp_path / "m.model"
        save_model(model, path)
        lines = path.read_text().splitlines()
        lines[1] = "hidden_nodes: six"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelFormatError, match=r"m\.model: line 2: bad value for 'hidden_nodes'"):
            load_model(path)

    def test_blank_line_inside_is_rejected_trailing_allowed(self, tmp_path, rng):
        model = train_elm(blobs(rng), ElmConfig(hidden_nodes=6, seed=1))
        path = tmp_path / "m.model"
        save_model(model, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines) + "\n\n  \n")
        np.testing.assert_array_equal(load_model(path).output_weights, model.output_weights)
        path.write_text("\n".join(lines[:3] + [""] + lines[3:]) + "\n")
        with pytest.raises(ModelFormatError, match="line 4: expected"):
            load_model(path)

    def test_unsupported_type_rejected_on_save(self, tmp_path):
        with pytest.raises(TypeError):
            save_model({"not": "a model"}, tmp_path / "x.model")


def golden_elm():
    return ElmModel(
        weights=[[0.5, -0.25], [1.0, 2.0]],
        biases=[0.125, -3.0],
        output_weights=[[1.0, 0.0, -0.5], [0.0, 1.0, 0.25]],
        config=ElmConfig(hidden_nodes=2, activation="tanh", seed=17, rank_tol=1e-9),
        class_names=("north field", "south", "c,3"),
        scaling=ScalingParams(np.array([0.0, -1.5]), np.array([6.0, 5.0])),
    )


def golden_mlp():
    return MlpModel(
        w_hidden=[[0.5, -0.25, 1.0], [1.0, 2.0, -2.0]],
        b_hidden=[0.125, -3.0],
        w_out=[[1.0, 0.0], [0.0, -0.5]],
        b_out=[0.75, 0.0625],
        config=MlpConfig(hidden_nodes=2, learning_rate=0.3, momentum=0.1,
                         iterations=40, seed=11),
        class_names=("a", "b"),
        scaling=ScalingParams(np.array([0.0, 1.0, 2.0]), np.array([3.0, 4.0, 5.5])),
    )


ELM_ARRAYS = (
    "weights:\n"
    "0.5 -0.25\n"
    "1.0 2.0\n"
    "biases: 0.125 -3.0\n"
    "output_weights:\n"
    "1.0 0.0 -0.5\n"
    "0.0 1.0 0.25\n"
)

MLP_ARRAYS = (
    "w_hidden:\n"
    "0.5 -0.25 1.0\n"
    "1.0 2.0 -2.0\n"
    "b_hidden: 0.125 -3.0\n"
    "w_out:\n"
    "1.0 0.0\n"
    "0.0 -0.5\n"
    "b_out: 0.75 0.0625\n"
)

# Model files as the v1 writer produced them, with the header lines that
# v2 dropped.
V1_ELM_TEXT = (
    "elm-model v1\n"
    "hidden_nodes: 2\n"
    "activation: tanh\n"
    "seed: 17\n"
    "weight_range: -0.75 1.25\n"
    "rank_tol: 1e-09\n"
    "features: 2\n"
    "class: north field\n"
    "class: south\n"
    "class: c,3\n"
    "scaling_min: 0.0 -1.5\n"
    "scaling_max: 6.0 5.0\n"
) + ELM_ARRAYS

V1_MLP_TEXT = (
    "mlp-model v1\n"
    "hidden_nodes: 2\n"
    "learning_rate: 0.3\n"
    "momentum: 0.1\n"
    "iterations: 40\n"
    "seed: 11\n"
    "init_range: -0.5 0.5\n"
    "divergence_factor: 100.0\n"
    "features: 3\n"
    "class: a\n"
    "class: b\n"
    "scaling_min: 0.0 1.0 2.0\n"
    "scaling_max: 3.0 4.0 5.5\n"
) + MLP_ARRAYS


class TestClassNames:
    """A model holds only class names that its file gives back unchanged."""

    @staticmethod
    def build(kind, names):
        m = len(names)
        scaling = ScalingParams(np.zeros(2), np.ones(2))
        if kind == "elm":
            return ElmModel(weights=np.zeros((2, 2)), biases=np.zeros(2),
                            output_weights=np.zeros((2, m)), config=ElmConfig(hidden_nodes=2),
                            class_names=names, scaling=scaling)
        return MlpModel(w_hidden=np.zeros((2, 2)), b_hidden=np.zeros(2), w_out=np.zeros((m, 2)),
                        b_out=np.zeros(m), config=MlpConfig(hidden_nodes=2),
                        class_names=names, scaling=scaling)

    @pytest.mark.parametrize("kind", ["elm", "mlp"])
    @pytest.mark.parametrize("names, match", [
        ((" a", "b", "c"), "outer whitespace"),  # would load as ("a", "b", "c")
        (("a\nb", "c"), "line break"),           # would not load at all
        (("only",), "two classes"),
        (("a", "a"), "distinct"),
    ])
    def test_names_the_file_cannot_give_back_rejected(self, kind, names, match):
        with pytest.raises(ValueError, match=match):
            self.build(kind, names)

    @pytest.mark.parametrize("kind", ["elm", "mlp"])
    def test_accepted_names_round_trip(self, tmp_path, kind):
        names = ("north field", "c,3", "a\tb")
        save_model(self.build(kind, names), tmp_path / "m.model")
        assert load_model(tmp_path / "m.model").class_names == names


class TestGoldenFormat:
    """The exact v2 text of both model kinds, header and array layout."""

    def test_elm_file_text(self, tmp_path):
        path = tmp_path / "m.model"
        save_model(golden_elm(), path)
        assert path.read_text() == (
            "elm-model v2\n"
            "hidden_nodes: 2\n"
            "activation: tanh\n"
            "seed: 17\n"
            "rank_tol: 1e-09\n"
            "features: 2\n"
            "class: north field\n"
            "class: south\n"
            "class: c,3\n"
            "scaling_min: 0.0 -1.5\n"
            "scaling_max: 6.0 5.0\n"
        ) + ELM_ARRAYS

    def test_mlp_file_text(self, tmp_path):
        path = tmp_path / "m.model"
        save_model(golden_mlp(), path)
        assert path.read_text() == (
            "mlp-model v2\n"
            "hidden_nodes: 2\n"
            "learning_rate: 0.3\n"
            "momentum: 0.1\n"
            "iterations: 40\n"
            "seed: 11\n"
            "features: 3\n"
            "class: a\n"
            "class: b\n"
            "scaling_min: 0.0 1.0 2.0\n"
            "scaling_max: 3.0 4.0 5.5\n"
        ) + MLP_ARRAYS


def assert_loads_as(tmp_path, text, want):
    """*text* loads to *want*: equal config, and the same v2 file once saved."""
    v1, v2 = tmp_path / "v1.model", tmp_path / "v2.model"
    v1.write_text(text)
    back = load_model(v1)
    assert back.config == want.config
    save_model(back, v1)
    save_model(want, v2)
    assert v1.read_text() == v2.read_text()


class TestV1Files:
    """v1 files load when each dropped header line holds its one v1 value."""

    def test_mlp_file_loads_to_an_equal_model(self, tmp_path):
        assert_loads_as(tmp_path, V1_MLP_TEXT, golden_mlp())

    def test_elm_file_at_the_fixed_range_loads(self, tmp_path):
        text = V1_ELM_TEXT.replace("weight_range: -0.75 1.25", "weight_range: -1.0 1.0")
        assert_loads_as(tmp_path, text, golden_elm())

    def test_elm_file_with_another_range_names_line_5(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_text(V1_ELM_TEXT)
        with pytest.raises(ModelFormatError,
                           match=r"m\.model: line 5: 'weight_range: -0\.75 1\.25' has no v2"):
            load_model(path)

    @pytest.mark.parametrize("line, text", [(7, "init_range: -1.0 1.0"),
                                            (8, "divergence_factor: 50.0")])
    def test_mlp_file_with_another_value_names_its_line(self, tmp_path, line, text):
        lines = V1_MLP_TEXT.splitlines()
        lines[line - 1] = text
        path = tmp_path / "m.model"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ModelFormatError, match=rf"line {line}: '{text}' has no v2"):
            load_model(path)

    def test_v2_header_under_a_v1_tag_is_rejected(self, tmp_path):
        path = tmp_path / "m.model"
        save_model(golden_mlp(), path)
        path.write_text(path.read_text().replace("mlp-model v2", "mlp-model v1"))
        with pytest.raises(ModelFormatError, match="line 7: expected 'init_range:'"):
            load_model(path)
