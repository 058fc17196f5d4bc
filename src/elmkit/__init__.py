"""Classifier toolkit built around a direct least-squares solve.

The core pieces: a minimum-norm least-squares solve, checked against
an SVD pseudoinverse reference (:mod:`elmkit.linalg`), a classifier
with a frozen random hidden layer trained by that solve
(:mod:`elmkit.elm`), an iterative momentum-descent baseline
(:mod:`elmkit.mlp`), a dataset pipeline with a synthetic multispectral
generator (:mod:`elmkit.data`), and an evaluation and benchmarking
harness (:mod:`elmkit.evaluate`).
"""

from .data import (
    FormatError,
    LabeledDataset,
    ScalingParams,
    SplitSpec,
    SyntheticConfig,
    default_split_spec,
    fit_scaling,
    generate_synthetic,
    littleport_like_config,
    load_csv,
    load_feature_csv,
    save_csv,
    scale_features,
    stratified_split,
)
from .elm import (
    ElmConfig,
    ElmModel,
    build_hidden_matrix,
    decode_scores,
    encode_targets,
    train_elm,
)
from .evaluate import (
    BenchmarkResult,
    ConfusionMatrix,
    EvalReport,
    SweepEntry,
    SweepResult,
    benchmark,
    confusion,
    dataset_fingerprint,
    evaluate,
    predict,
    predict_scores,
    sweep_hidden_nodes,
    training_cost,
)
from .linalg import min_norm_lstsq, pseudoinverse
from .mlp import (
    MlpConfig,
    MlpDivergenceError,
    MlpModel,
    train_mlp,
)
from .modelio import load_model, save_model

__version__ = "0.1.0"
