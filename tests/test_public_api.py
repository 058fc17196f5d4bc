"""The package's public names, pinned so that any change to them is deliberate."""

import importlib
import inspect
import pkgutil
import types

import elmkit
from elmkit import cli

PUBLIC_NAMES = [
    "BenchmarkResult", "ConfusionMatrix", "ElmConfig", "ElmModel", "EvalReport",
    "FormatError", "LabeledDataset", "MlpConfig", "MlpDivergenceError", "MlpModel",
    "ScalingParams", "SplitSpec", "SweepEntry", "SweepResult", "SyntheticConfig", "benchmark",
    "build_hidden_matrix", "confusion", "dataset_fingerprint", "decode_scores",
    "default_split_spec", "encode_targets", "evaluate", "fit_scaling", "generate_synthetic",
    "littleport_like_config", "load_csv", "load_feature_csv", "load_model", "min_norm_lstsq",
    "predict", "predict_scores", "pseudoinverse", "save_csv", "save_model", "scale_features",
    "stratified_split", "sweep_hidden_nodes",
    "train_elm", "train_mlp", "training_cost",
]


def test_public_names_are_exactly_the_pinned_list():
    """``dir(elmkit)`` without submodules and underscore names."""
    names = sorted(name for name in dir(elmkit) if not name.startswith("_")
                   and not isinstance(getattr(elmkit, name), types.ModuleType))
    assert names == PUBLIC_NAMES
    assert len(names) == 41


def test_solver_signatures_take_no_cutoff():
    """Both solvers cut singular values at one fixed 1e-10: neither takes a cutoff."""
    def bare(function):
        signature = inspect.signature(function)
        return str(signature.replace(
            parameters=[p.replace(annotation=p.empty) for p in signature.parameters.values()],
            return_annotation=signature.empty))

    assert bare(elmkit.min_norm_lstsq) == "(a, y, overwrite_a=False)"
    assert bare(elmkit.pseudoinverse) == "(a)"


def test_one_exception_class_per_exit_code():
    """A class exists only for its own exit code: every other failure is a plain ValueError."""
    defined = []
    for info in pkgutil.iter_modules(elmkit.__path__):
        if info.name != "__main__":  # importing it would run the CLI
            module = importlib.import_module(f"elmkit.{info.name}")
            defined += [name for name, value in vars(module).items()
                        if isinstance(value, type) and issubclass(value, BaseException)
                        and value.__module__ == module.__name__]
    assert sorted(defined) == ["FormatError", "MlpDivergenceError"]
    assert all(len(classes) <= 1 for _, _, classes in cli._EXIT_CODES)
