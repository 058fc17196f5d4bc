"""Tests for text model serialization."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from elmkit.cli import main
from elmkit.data import FormatError, LabeledDataset, ScalingParams
from elmkit.elm import ElmConfig, ElmModel, train_elm
from elmkit.evaluate import predict
from elmkit.mlp import MlpConfig, MlpModel, train_mlp
from elmkit.modelio import load_model, save_model


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
        model = train_elm(ds, ElmConfig(hidden_nodes=9, seed=17))
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

    def test_retraining_from_the_file_gives_the_same_bits(self, tmp_path, rng):
        ds = blobs(rng)
        model = train_elm(ds, ElmConfig(hidden_nodes=9, seed=np.int32(2)))
        save_model(model, tmp_path / "m.model")
        again = train_elm(ds, load_model(tmp_path / "m.model").config)
        assert again.config == model.config
        for array in ("weights", "biases", "output_weights"):
            assert getattr(again, array).tobytes() == getattr(model, array).tobytes()

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
        np.testing.assert_array_equal(predict(back, queries), predict(model, queries))


class TestFormatErrors:
    def test_unknown_tag(self, tmp_path):
        path = tmp_path / "bad.model"
        for tag in ("mystery-model v9", "elm-model v4", "mlp-model v0", "elm-model"):
            path.write_text(tag + "\n")
            with pytest.raises(FormatError, match=f"line 1: unknown model tag '{tag}'"):
                load_model(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.model"
        path.write_text("")
        with pytest.raises(FormatError, match="empty"):
            load_model(path)

    def test_truncated_file(self, tmp_path, rng):
        model = train_elm(blobs(rng), ElmConfig(hidden_nodes=6, seed=1))
        path = tmp_path / "m.model"
        save_model(model, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-3]) + "\n")
        with pytest.raises(FormatError):
            load_model(path)

    def test_wrong_row_width(self, tmp_path, rng):
        model = train_elm(blobs(rng), ElmConfig(hidden_nodes=6, seed=1))
        path = tmp_path / "m.model"
        save_model(model, path)
        text = path.read_text().splitlines()
        idx = text.index("weights:") + 1
        text[idx] = text[idx] + " 0.5"
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(FormatError, match="expected 2 values"):
            load_model(path)

    def test_corrupt_number(self, tmp_path, rng):
        model = train_elm(blobs(rng), ElmConfig(hidden_nodes=6, seed=1))
        path = tmp_path / "m.model"
        save_model(model, path)
        path.write_text(path.read_text().replace("biases: ", "biases: oops ", 1))
        with pytest.raises(FormatError):
            load_model(path)

    def test_errors_name_the_physical_line(self, tmp_path, rng):
        model = train_elm(blobs(rng), ElmConfig(hidden_nodes=6, seed=1))
        path = tmp_path / "m.model"
        save_model(model, path)
        lines = path.read_text().splitlines()
        lines[1] = "hidden_nodes: six"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=r"m\.model: line 2: bad value for 'hidden_nodes'"):
            load_model(path)

    def test_blank_line_inside_is_rejected_trailing_allowed(self, tmp_path, rng):
        model = train_elm(blobs(rng), ElmConfig(hidden_nodes=6, seed=1))
        path = tmp_path / "m.model"
        save_model(model, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines) + "\n\n  \n")
        np.testing.assert_array_equal(load_model(path).output_weights, model.output_weights)
        path.write_text("\n".join(lines[:3] + [""] + lines[3:]) + "\n")
        with pytest.raises(FormatError, match="line 4: expected"):
            load_model(path)

    def test_unsupported_type_rejected_on_save(self, tmp_path):
        with pytest.raises(TypeError):
            save_model({"not": "a model"}, tmp_path / "x.model")

    @pytest.mark.parametrize("config", [ElmConfig(), MlpConfig()], ids=["elm", "mlp"])
    def test_config_rejected_on_save_naming_its_type(self, tmp_path, config):
        with pytest.raises(TypeError, match=f"^{type(config).__name__} is not a classifier model$"):
            save_model(config, tmp_path / "x.model")
        assert not (tmp_path / "x.model").exists()


def golden_elm():
    return ElmModel(
        weights=[[0.5, -0.25], [1.0, 2.0]],
        biases=[0.125, -3.0],
        output_weights=[[1.0, 0.0, -0.5], [0.0, 1.0, 0.25]],
        config=ElmConfig(hidden_nodes=2, seed=17),
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
# v2 and v3 dropped.
V1_ELM_TEXT = (
    "elm-model v1\n"
    "hidden_nodes: 2\n"
    "activation: sigmoid\n"
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


# Each kind's model type, config type and array layout, (field, dimension
# names), written out here independently of the code under test.
KINDS = {
    "elm": (ElmModel, ElmConfig, (("weights", "hidden", "features"), ("biases", "hidden"),
                                  ("output_weights", "hidden", "classes"))),
    "mlp": (MlpModel, MlpConfig, (("w_hidden", "hidden", "features"), ("b_hidden", "hidden"),
                                  ("w_out", "classes", "hidden"), ("b_out", "classes"))),
}

EDGE_FLOATS = np.array([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
                        0.1, 1.0 / 3.0])


def random_floats(rng, shape):
    """Finite float64s across the exponent range, with some edge values mixed in."""
    out = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    pick = rng.random(shape) < 0.2
    out[pick] = rng.choice(EDGE_FLOATS, size=int(pick.sum()))
    return out


def random_config(rng, config_type, hidden):
    """A valid config with *hidden* nodes; its floats are numpy or Python floats."""
    number = np.float64 if rng.random() < 0.5 else float
    seed = int(rng.integers(1000))
    if config_type is ElmConfig:
        return ElmConfig(hidden_nodes=hidden, seed=seed)
    return MlpConfig(hidden_nodes=hidden, learning_rate=number(rng.uniform(0.01, 2.0)),
                     momentum=number(rng.random()), iterations=int(rng.integers(1, 5000)),
                     seed=seed)


def model_values(kind, rng, hidden=2, features=3, classes=4):
    """Constructor arguments of a valid model of *kind* with the given sizes."""
    _, config_type, layout = KINDS[kind]
    sizes = {"hidden": hidden, "features": features, "classes": classes}
    values = {name: random_floats(rng, tuple(sizes[d] for d in dims)) for name, *dims in layout}
    lo = random_floats(rng, (features,))
    values.update(config=random_config(rng, config_type, hidden),
                  class_names=tuple(f"c,{i} x" for i in range(classes)),
                  scaling=ScalingParams(lo, np.maximum(lo, random_floats(rng, (features,)))))
    return values


def with_entry(array, value):
    array = np.array(array)
    array.flat[-1] = value
    return array


def rejected_cases():
    for kind, (_, config_type, layout) in KINDS.items():
        first, out = layout[0][0], layout[2][0]
        out_shape = r"\(2, 3\), got \(2, 4\)" if kind == "elm" else r"\(3, 2\), got \(4, 2\)"
        yield pytest.param(kind, lambda c=config_type: {"config": c(hidden_nodes=3)},
                           rf"^{first} must have shape \(3, 3\), got \(2, 3\)",
                           id=f"{kind}-config-width-is-not-weight-rows")
        other = MlpConfig if config_type is ElmConfig else ElmConfig
        yield pytest.param(kind, lambda other=other: {"config": other(hidden_nodes=2)},
                           rf"^config must be {config_type.__name__}, got {other.__name__}$",
                           id=f"{kind}-config-of-the-other-kind")
        yield pytest.param(kind, lambda: {"scaling": ScalingParams(np.zeros(2), np.ones(2))},
                           rf"^{first} must have shape \(2, 2\), got \(2, 3\)",
                           id=f"{kind}-scaling-width-is-not-features")
        yield pytest.param(kind, lambda: {"class_names": ("a", "b", "c")},
                           rf"^{out} must have shape {out_shape}",
                           id=f"{kind}-output-width-is-not-class-count")
        for name, *_ in layout:
            for value in (np.nan, np.inf, -np.inf):
                yield pytest.param(kind, lambda name=name, value=value: {name: value},
                                   f"^{name} must be finite", id=f"{kind}-{value}-in-{name}")
        for lo, hi in ((np.nan, 1.0), (0.0, np.nan), (0.0, np.inf), (-np.inf, 0.0)):
            yield pytest.param(kind, lambda lo=lo, hi=hi: {"scaling": ScalingParams(
                                   np.array([0.0, 0.0, lo]), np.array([1.0, 1.0, hi]))},
                               "^feature bounds must be finite", id=f"{kind}-scaling-{lo}-{hi}")


def assert_same_model(back, model, layout):
    assert type(back) is type(model)
    assert back.config == model.config
    assert back.class_names == model.class_names
    for bound in ("feature_min", "feature_max"):
        assert getattr(back.scaling, bound).tobytes() == getattr(model.scaling, bound).tobytes()
    for name, *_ in layout:
        assert getattr(back, name).tobytes() == getattr(model, name).tobytes()


class TestModelChecks:
    """A model constructor accepts exactly the models that its file gives back."""

    @pytest.mark.parametrize("kind, changes, message", rejected_cases())
    def test_model_its_file_cannot_give_back_rejected(self, kind, changes, message):
        model_type = KINDS[kind][0]
        with pytest.raises(ValueError, match=message):
            values = model_values(kind, np.random.default_rng(0))
            for name, change in changes().items():
                values[name] = with_entry(values[name], change) if np.isscalar(change) else change
            model_type(**values)

    @pytest.mark.parametrize("kind", KINDS)
    def test_every_accepted_model_round_trips(self, tmp_path, kind):
        """Seeded models, most valid, some one size off or holding a non-finite
        number: each is rejected or comes back from its file equal."""
        model_type, config_type, layout = KINDS[kind]
        rng = np.random.default_rng(5)
        path = tmp_path / "m.model"
        outcomes = {"accepted": 0, "rejected": 0}
        for _ in range(150):
            hidden, features, classes = (int(n) for n in rng.integers(1, 5, size=3) + (0, 0, 1))
            values = model_values(kind, rng, hidden, features, classes)
            fault = rng.integers(10)  # 0 to 4 break the model
            try:
                if fault == 0:
                    values["config"] = random_config(rng, config_type, hidden + 1)
                elif fault == 1:
                    values["scaling"] = ScalingParams(np.zeros(features + 1), np.ones(features + 1))
                elif fault == 2:
                    values["class_names"] += ("extra",)
                elif fault == 3:
                    name = layout[rng.integers(len(layout))][0]
                    values[name] = with_entry(values[name], rng.choice([np.nan, np.inf]))
                elif fault == 4:
                    values["scaling"] = ScalingParams(np.full(features, np.nan), np.ones(features))
                model = model_type(**values)
            except ValueError:
                outcomes["rejected"] += 1
                continue
            outcomes["accepted"] += 1
            save_model(model, path)
            assert_same_model(load_model(path), model, layout)
        assert outcomes["accepted"] > 50 and outcomes["rejected"] > 50, outcomes


# The int fields of each kind's config, as (kind, field)
INT_FIELDS = [("elm", "hidden_nodes"), ("elm", "seed"),
              ("mlp", "hidden_nodes"), ("mlp", "iterations"), ("mlp", "seed")]


class TestConfigIntFields:
    """An int field holds what ``operator.index`` takes, bools apart: a float
    such as 2.0 would be saved as "2.0", and True as "True", which the
    file's ``int`` parser rejects."""

    @pytest.mark.parametrize("value", [2.0, np.float64(2.0), 2.5, "2", True, False, np.True_],
                             ids=repr)
    @pytest.mark.parametrize("kind, name", INT_FIELDS)
    def test_non_integer_rejected_naming_the_field(self, kind, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            KINDS[kind][1](**{name: value})

    @pytest.mark.parametrize("int_type", [np.int32, np.int64, np.uint8])
    @pytest.mark.parametrize("kind, name", INT_FIELDS)
    def test_numpy_int_accepted_and_read_back(self, tmp_path, kind, name, int_type):
        model_type, _, layout = KINDS[kind]
        values = model_values(kind, np.random.default_rng(1))
        # hidden_nodes must stay 2, the arrays' width
        values["config"] = replace(values["config"], **{name: int_type(2)})
        model = model_type(**values)
        assert type(getattr(model.config, name)) is int
        save_model(model, tmp_path / "m.model")
        assert_same_model(load_model(tmp_path / "m.model"), model, layout)


# The float fields of each kind's config, as (kind, field)
FLOAT_FIELDS = [("mlp", "learning_rate"), ("mlp", "momentum")]


# An MLP config with a float field set, and a training call on it
TRAINERS = {"mlp": lambda ds, **field: train_mlp(ds, MlpConfig(hidden_nodes=5, iterations=50,
                                                               seed=2, **field))}


class TestConfigFloatFields:
    """A bool passes every range check of a float field (True > 0, False
    == 0.0), but would be saved as "True" or "False", which the file's
    ``float`` parser rejects.  A numpy float32 is stored as the Python
    float it equals, so that the file's text gives back the value trained
    with."""

    # "0.1" and None are not numbers at all; float() would take the string
    @pytest.mark.parametrize("value", [True, False, np.True_, np.False_, "0.1", None], ids=repr)
    @pytest.mark.parametrize("kind, name", FLOAT_FIELDS)
    def test_bool_rejected_naming_the_field(self, kind, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be a number, got "):
            KINDS[kind][1](**{name: value})

    @pytest.mark.parametrize("float_type", [np.float32, np.float64])
    @pytest.mark.parametrize("kind, name", FLOAT_FIELDS)
    def test_numpy_float_stored_as_the_float_it_equals(self, tmp_path, kind, name, float_type):
        model_type, _, layout = KINDS[kind]
        values = model_values(kind, np.random.default_rng(1))
        values["config"] = replace(values["config"], **{name: float_type(0.1)})
        model = model_type(**values)
        assert type(getattr(model.config, name)) is float
        assert getattr(model.config, name) == float(float_type(0.1))
        save_model(model, tmp_path / "m.model")
        assert_same_model(load_model(tmp_path / "m.model"), model, layout)

    @pytest.mark.parametrize("kind, name, value", [("mlp", "learning_rate", 0.1),
                                                   ("mlp", "momentum", 0.1)])
    def test_retraining_from_the_file_gives_the_same_bits(self, tmp_path, rng, kind, name, value):
        ds = blobs(rng)
        model = TRAINERS[kind](ds, **{name: np.float32(value)})
        save_model(model, tmp_path / "m.model")
        back = load_model(tmp_path / "m.model")
        again = TRAINERS[kind](ds, **{name: getattr(back.config, name)})
        assert again.config == back.config == model.config
        for array, *_ in KINDS[kind][2]:
            assert getattr(again, array).tobytes() == getattr(model, array).tobytes()


class TestGoldenFormat:
    """The exact v3 text of both model kinds, header and array layout."""

    def test_elm_file_text(self, tmp_path):
        path = tmp_path / "m.model"
        save_model(golden_elm(), path)
        assert path.read_text() == (
            "elm-model v3\n"
            "hidden_nodes: 2\n"
            "seed: 17\n"
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
            "mlp-model v3\n"
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


def golden_text(tmp_path, kind):
    """The golden model of *kind* as save_model writes it."""
    path = tmp_path / "golden.model"
    save_model(golden_elm() if kind == "elm" else golden_mlp(), path)
    return path.read_text()


def load_edited(tmp_path, kind, line_no, text):
    """Load the golden file of *kind* with physical line *line_no* replaced by *text*."""
    lines = golden_text(tmp_path, kind).splitlines()
    lines[line_no - 1] = text
    path = tmp_path / "m.model"
    path.write_text("\n".join(lines) + "\n")
    return path, lambda: load_model(path)


# The physical line of each config field in the golden files.
HEADER_LINES = {("elm", "hidden_nodes"): 2, ("elm", "seed"): 3,
                ("mlp", "hidden_nodes"): 2, ("mlp", "learning_rate"): 3, ("mlp", "momentum"): 4,
                ("mlp", "iterations"): 5, ("mlp", "seed"): 6}


class TestHeaderValues:
    """Each config field of a v3 file is read by its type: text that does not
    parse names its line, and a value its config refuses names the file."""

    @pytest.mark.parametrize("kind, name, value", [
        ("elm", "hidden_nodes", "x"), ("elm", "hidden_nodes", "1.5"), ("elm", "hidden_nodes", ""),
        ("elm", "seed", "x"), ("elm", "seed", "1e3"),
        ("mlp", "hidden_nodes", "two"), ("mlp", "iterations", "2.5"), ("mlp", "seed", "0x10"),
    ])
    def test_unparseable_integer_names_its_line(self, tmp_path, kind, name, value):
        line_no = HEADER_LINES[kind, name]
        path, load = load_edited(tmp_path, kind, line_no, f"{name}: {value}")
        with pytest.raises(FormatError) as excinfo:
            load()
        assert str(excinfo.value) == (f"{path}: line {line_no}: bad value for '{name}': "
                                      f"invalid literal for int() with base 10: '{value}'")

    @pytest.mark.parametrize("name", ["learning_rate", "momentum"])
    @pytest.mark.parametrize("value", ["x", "", "0.1.2"])
    def test_unparseable_float_names_its_line(self, tmp_path, name, value):
        line_no = HEADER_LINES["mlp", name]
        path, load = load_edited(tmp_path, "mlp", line_no, f"{name}: {value}")
        with pytest.raises(FormatError) as excinfo:
            load()
        assert str(excinfo.value) == (f"{path}: line {line_no}: bad value for '{name}': "
                                      f"could not convert string to float: '{value}'")

    @pytest.mark.parametrize("kind, name, value, message", [
        ("elm", "hidden_nodes", "0", "hidden_nodes must be >= 1, got 0"),
        ("mlp", "hidden_nodes", "-2", "hidden_nodes must be >= 1, got -2"),
        ("mlp", "iterations", "0", "iterations must be >= 1, got 0"),
        ("mlp", "learning_rate", "0.0", "learning_rate must be positive, got 0.0"),
        ("mlp", "learning_rate", "-0.5", "learning_rate must be positive, got -0.5"),
        ("mlp", "learning_rate", "nan", "learning_rate must be positive, got nan"),
        ("mlp", "learning_rate", "inf", "learning_rate must be positive, got inf"),
        ("mlp", "momentum", "1.0", "momentum must be in [0, 1), got 1.0"),
        ("mlp", "momentum", "-0.1", "momentum must be in [0, 1), got -0.1"),
        ("mlp", "momentum", "nan", "momentum must be in [0, 1), got nan"),
        ("mlp", "momentum", "-inf", "momentum must be in [0, 1), got -inf"),
    ])
    def test_refused_value_names_the_file(self, tmp_path, kind, name, value, message):
        path, load = load_edited(tmp_path, kind, HEADER_LINES[kind, name], f"{name}: {value}")
        with pytest.raises(FormatError) as excinfo:
            load()
        assert str(excinfo.value) == f"{path}: {message}"

    @pytest.mark.parametrize("kind, name, value", [
        ("elm", "seed", "0"), ("elm", "seed", "123456789"),
        ("mlp", "seed", "0"), ("mlp", "learning_rate", "1e-06"), ("mlp", "learning_rate", "3.5"),
        ("mlp", "momentum", "0.0"), ("mlp", "momentum", "0.999"),
        ("mlp", "iterations", "1"), ("mlp", "iterations", "100000"),
    ])
    def test_any_valid_value_loads_and_resaves(self, tmp_path, kind, name, value):
        """The arrays do not depend on these fields, so any valid value loads as
        written, and saving the loaded model gives the same text back."""
        path, load = load_edited(tmp_path, kind, HEADER_LINES[kind, name], f"{name}: {value}")
        text = path.read_text()
        back = load()
        assert str(getattr(back.config, name)) == value
        save_model(back, path)
        assert path.read_text() == text


def line_of(tmp_path, kind, prefix):
    """The physical line of the golden file of *kind* that starts with *prefix*."""
    return [line.startswith(prefix)
            for line in golden_text(tmp_path, kind).splitlines()].index(True) + 1


class TestReaderLines:
    """The reader takes the lines in one order and names the physical line of
    the first one that does not fit."""

    @pytest.mark.parametrize("kind", ["elm", "mlp"])
    def test_end_of_file_names_the_line_after_the_last(self, tmp_path, kind):
        last = line_of(tmp_path, kind, "scaling_max:")
        path = tmp_path / "m.model"
        path.write_text("".join(golden_text(tmp_path, kind).splitlines(keepends=True)[:last]))
        with pytest.raises(FormatError, match=rf"m\.model: line {last + 1}: unexpected end of file"):
            load_model(path)

    @pytest.mark.parametrize("kind, key", [("elm", "weights"), ("mlp", "w_hidden")])
    def test_matrix_marker_with_values_names_its_line(self, tmp_path, kind, key):
        line_no = line_of(tmp_path, kind, f"{key}:")
        _, load = load_edited(tmp_path, kind, line_no, f"{key}: 1.0")
        with pytest.raises(FormatError,
                           match=rf"m\.model: line {line_no}: '{key}:' marker line must be bare"):
            load()

    @pytest.mark.parametrize("kind, key", [("elm", "biases"), ("mlp", "b_hidden")])
    def test_unparseable_number_names_its_line(self, tmp_path, kind, key):
        line_no = line_of(tmp_path, kind, f"{key}:")
        _, load = load_edited(tmp_path, kind, line_no, f"{key}: 0.125 oops")
        with pytest.raises(FormatError,
                           match=rf"m\.model: line {line_no}: unparseable number in '0.125 oops'"):
            load()

    @pytest.mark.parametrize("kind, features", [("elm", 2), ("mlp", 3)])
    def test_short_vector_names_its_line(self, tmp_path, kind, features):
        line_no = line_of(tmp_path, kind, "scaling_min:")
        _, load = load_edited(tmp_path, kind, line_no, "scaling_min: 0.0")
        with pytest.raises(FormatError,
                           match=rf"line {line_no}: expected {features} values on a row, got 1"):
            load()

    @pytest.mark.parametrize("kind", ["elm", "mlp"])
    def test_a_lone_class_line_is_named(self, tmp_path, kind):
        line_no = line_of(tmp_path, kind, "class:")
        lines = golden_text(tmp_path, kind).splitlines()
        lines[line_no - 1:] = ["class: only"] + [line for line in lines[line_no - 1:]
                                                 if not line.startswith("class:")]
        path = tmp_path / "m.model"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError,
                           match=rf"m\.model: line {line_no}: fewer than two 'class:' lines"):
            load_model(path)

    @pytest.mark.parametrize("kind", ["elm", "mlp"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_number_names_its_line(self, tmp_path, kind, value):
        """Each kind's first matrix row, which begins 0.5 in both golden files."""
        line_no = line_of(tmp_path, kind, "0.5 -0.25")
        row = golden_text(tmp_path, kind).splitlines()[line_no - 1]
        _, load = load_edited(tmp_path, kind, line_no, row.replace("0.5", value, 1))
        with pytest.raises(FormatError, match=rf"m\.model: line {line_no}: non-finite number"):
            load()

    @pytest.mark.parametrize("kind, key", [("elm", "weights"), ("mlp", "w_hidden")])
    def test_inflated_width_fails_before_allocating(self, tmp_path, kind, key):
        """A header that declares more matrix rows than the file holds fails at
        the matrix's marker line, before any array is built."""
        _, load = load_edited(tmp_path, kind, 2, "hidden_nodes: 1000000000")
        marker = line_of(tmp_path, kind, f"{key}:")
        tracemalloc.start()
        try:
            with pytest.raises(FormatError,
                               match=rf"line {marker}: '{key}' declares 1000000000 rows"):
                load()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def older_elm_text(v3_text):
    """A v3 ELM file's text as the v2 writer wrote it, with the header lines
    that v3 dropped."""
    tag, hidden, seed, *rest = v3_text.splitlines()
    assert tag == "elm-model v3"
    return "\n".join(["elm-model v2", hidden, "activation: sigmoid", seed, "rank_tol: 1e-10",
                      *rest]) + "\n"


def retired_text(tmp_path, kind, version):
    """A model file of *kind* as its *version* writer wrote it."""
    if version == "v1":
        return V1_ELM_TEXT if kind == "elm" else V1_MLP_TEXT
    path = tmp_path / "v3.model"
    save_model(golden_elm() if kind == "elm" else golden_mlp(), path)
    if kind == "elm":
        return older_elm_text(path.read_text())
    return path.read_text().replace("mlp-model v3", "mlp-model v2", 1)  # v2 differs in the tag only


@pytest.mark.parametrize("version", ["v1", "v2"])
@pytest.mark.parametrize("kind", ["elm", "mlp"])
def test_retired_version_is_refused_naming_its_tag(tmp_path, capsys, kind, version):
    """Only v3 files load.  An older file fails on line 1, naming its tag and saying to
    retrain; through ``predict`` that is exit 3, one stderr line and no predictions."""
    path = tmp_path / "old.model"
    path.write_text(retired_text(tmp_path, kind, version))
    message = (f"{path}: line 1: '{kind}-model {version}' is a retired model format "
               "that no longer loads; retrain to write v3")
    with pytest.raises(FormatError) as excinfo:
        load_model(path)
    assert str(excinfo.value) == message
    data, out = tmp_path / "rows.csv", tmp_path / "p.csv"
    data.write_text("f1,f2,f3\n0.0,1.0,2.0\n")
    assert main(["predict", "--model", str(path), "--data", str(data), "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"elmkit predict: {message}\n"
    assert not out.exists()
