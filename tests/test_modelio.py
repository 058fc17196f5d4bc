"""Tests for text model serialization."""

from dataclasses import replace

import numpy as np
import pytest

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
        path.write_text("mystery-model v9\n")
        with pytest.raises(FormatError, match="unknown model tag"):
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


def assert_loads_as(tmp_path, text, want):
    """*text* loads to *want*: equal config, and the same v3 file once saved."""
    old, v3 = tmp_path / "old.model", tmp_path / "v3.model"
    old.write_text(text)
    back = load_model(old)
    assert back.config == want.config
    save_model(back, old)
    save_model(want, v3)
    assert old.read_text() == v3.read_text()


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
        with pytest.raises(FormatError,
                           match=r"m\.model: line 5: 'weight_range: -0\.75 1\.25' has no v3"):
            load_model(path)

    @pytest.mark.parametrize("line, text", [(7, "init_range: -1.0 1.0"),
                                            (8, "divergence_factor: 50.0")])
    def test_mlp_file_with_another_value_names_its_line(self, tmp_path, line, text):
        lines = V1_MLP_TEXT.splitlines()
        lines[line - 1] = text
        path = tmp_path / "m.model"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=rf"line {line}: '{text}' has no v3"):
            load_model(path)

    def test_v2_header_under_a_v1_tag_is_rejected(self, tmp_path):
        path = tmp_path / "m.model"
        save_model(golden_mlp(), path)
        path.write_text(path.read_text().replace("mlp-model v3", "mlp-model v1"))
        with pytest.raises(FormatError, match="line 7: expected 'init_range:'"):
            load_model(path)


def older_elm_text(v3_text, version, activation="sigmoid", rank_tol="1e-10"):
    """A v3 ELM file's text as the *version* writer wrote it, with the header
    lines that v3 dropped."""
    tag, hidden, seed, *rest = v3_text.splitlines()
    assert tag == "elm-model v3"
    header = [f"elm-model {version}", hidden, f"activation: {activation}", seed]
    if version == "v1":
        header.append("weight_range: -1.0 1.0")
    return "\n".join([*header, f"rank_tol: {rank_tol}", *rest]) + "\n"


class TestV2Files:
    """v1 and v2 ELM files load when their activation is sigmoid, the only
    one a v3 config describes, and their rank_tol, which only the fit read,
    is any valid cutoff; v2 MLP files differ from v3 in the tag alone."""

    @pytest.mark.parametrize("version", ["v1", "v2"])
    def test_elm_file_predicts_the_same_labels_and_resaves_as_v3(self, tmp_path, rng, version):
        model = train_elm(blobs(rng), ElmConfig(hidden_nodes=12, seed=3))
        path = tmp_path / "m.model"
        save_model(model, path)
        v3_text = path.read_text()
        path.write_text(older_elm_text(v3_text, version))
        back = load_model(path)
        queries = rng.uniform(-2, 8, size=(50, 2))
        np.testing.assert_array_equal(predict(back, queries), predict(model, queries))
        save_model(back, path)
        assert path.read_text() == v3_text

    @pytest.mark.parametrize("version", ["v1", "v2"])
    @pytest.mark.parametrize("activation", ["tanh", "hardlimit"])
    def test_other_activation_names_line_3(self, tmp_path, version, activation):
        path = tmp_path / "m.model"
        save_model(golden_elm(), path)
        path.write_text(older_elm_text(path.read_text(), version, activation=activation))
        with pytest.raises(FormatError) as excinfo:
            load_model(path)
        assert str(excinfo.value) == (f"{path}: line 3: 'activation: {activation}' "
                                      "has no v3 equivalent; only 'sigmoid' loads")

    @pytest.mark.parametrize("version", ["v1", "v2"])
    @pytest.mark.parametrize("rank_tol", ["1e-06", "0.0", "0.999", "1e-10"])
    def test_any_valid_rank_tol_loads(self, tmp_path, version, rank_tol):
        path = tmp_path / "m.model"
        save_model(golden_elm(), path)
        assert_loads_as(tmp_path, older_elm_text(path.read_text(), version, rank_tol=rank_tol),
                        golden_elm())

    @pytest.mark.parametrize("version, line", [("v1", 6), ("v2", 5)])
    @pytest.mark.parametrize("rank_tol, message", [
        ("nan", "rank_tol must be non-negative and below 1, got nan"),
        ("inf", "rank_tol must be non-negative and below 1, got inf"),
        ("1.5", "rank_tol must be non-negative and below 1, got 1.5"),
        ("1.0", "rank_tol must be non-negative and below 1, got 1.0"),
        ("2.0", "rank_tol must be non-negative and below 1, got 2.0"),
        ("-1e-12", "rank_tol must be non-negative and below 1, got -1e-12"),
        ("-1.0", "rank_tol must be non-negative and below 1, got -1.0"),
        ("tiny", "could not convert string to float: 'tiny'"),
    ])
    def test_invalid_rank_tol_names_its_line(self, tmp_path, version, line, rank_tol, message):
        path = tmp_path / "m.model"
        save_model(golden_elm(), path)
        path.write_text(older_elm_text(path.read_text(), version, rank_tol=rank_tol))
        with pytest.raises(FormatError) as excinfo:
            load_model(path)
        assert str(excinfo.value) == f"{path}: line {line}: bad value for 'rank_tol': {message}"

    def test_mlp_file_loads_unchanged(self, tmp_path):
        path = tmp_path / "m.model"
        save_model(golden_mlp(), path)
        v3_text = path.read_text()
        assert v3_text.startswith("mlp-model v3\n")
        assert_loads_as(tmp_path, v3_text.replace("mlp-model v3", "mlp-model v2", 1), golden_mlp())

    def test_v3_elm_header_under_a_v2_tag_is_rejected(self, tmp_path):
        path = tmp_path / "m.model"
        save_model(golden_elm(), path)
        path.write_text(path.read_text().replace("elm-model v3", "elm-model v2"))
        with pytest.raises(FormatError, match="line 3: expected 'activation:'"):
            load_model(path)
