"""The package's public names, pinned so that any change to them is deliberate."""

import types

import elmkit

PUBLIC_NAMES = [
    "ACTIVATIONS", "BenchmarkResult", "ConfigFormatError", "ConfusionMatrix", "CsvFormatError",
    "ElmConfig", "ElmModel", "EvalReport", "LabeledDataset", "LinalgError", "MlpConfig",
    "MlpDivergenceError", "MlpModel", "ModelFormatError", "ScalingParams", "SplitSpec",
    "SvdConvergenceError", "SweepEntry", "SweepResult", "SyntheticConfig", "benchmark",
    "build_hidden_matrix", "confusion", "dataset_fingerprint", "decode_scores",
    "default_split_spec", "encode_targets", "evaluate", "fit_scaling", "generate_synthetic",
    "init_mlp_params", "init_random_layer", "littleport_like_config", "load_csv",
    "load_feature_csv", "load_model", "load_synthetic_config", "min_norm_lstsq", "mlp_cost",
    "mlp_forward", "mlp_gradient", "predict", "predict_scores", "pseudoinverse", "save_csv",
    "save_model",
    "save_synthetic_config", "scale_features", "stratified_split", "sweep_hidden_nodes",
    "train_elm", "train_mlp", "training_cost",
]


def test_public_names_are_exactly_the_pinned_list():
    """``dir(elmkit)`` without submodules and underscore names."""
    names = sorted(name for name in dir(elmkit) if not name.startswith("_")
                   and not isinstance(getattr(elmkit, name), types.ModuleType))
    assert names == PUBLIC_NAMES
    assert len(names) == 53
