"""Command line interface.

Subcommands:

* ``generate``  — write a synthetic scene as a labeled CSV (optionally
  pre-split into train and test files).
* ``train``     — fit a classifier on a labeled CSV, write a model file
  plus a training report next to it.
* ``predict``   — label new samples with a saved model.
* ``benchmark`` — train both classifiers on one split and write models,
  predictions, and paired reports.
* ``sweep``     — map test accuracy against hidden-layer width.

Every artifact embeds the full effective configuration (model files by
format, CSV outputs as leading ``#`` comments, reports as config lines)
and nothing embeds wall-clock state except clearly marked timing lines,
so repeated runs produce byte-identical files apart from those lines.

Exit codes are listed once, in ``_EXIT_CODES``, which ``--help`` prints.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .data import (
    ConfigFormatError,
    CsvFormatError,
    DEFAULT_TRAIN_FRACTION,
    LabeledDataset,
    SplitSpec,
    _fmt_vector,
    generate_synthetic,
    littleport_like_config,
    load_csv,
    load_feature_csv,
    load_synthetic_config,
    save_csv,
    stratified_split,
)
from .elm import ACTIVATIONS, ElmConfig, train_elm
from .evaluate import (
    benchmark,
    config_text,
    confusion,
    dataset_fingerprint,
    model_predict,
    sweep_hidden_nodes,
    training_cost,
)
from .mlp import MlpConfig, MlpDivergenceError, train_mlp
from .modelio import ModelFormatError, load_model, save_model

# (code, meaning, error types) in help order.  main returns the code of the
# first row whose types match, so the format errors come before ValueError:
# they, and LinalgError, are ValueErrors too.
_EXIT_CODES = (
    (0, "success", ()),
    (2, "usage error (bad flags or arguments)", ()),
    (3, "malformed input file (dataset, generator config, or model)",
     (CsvFormatError, ConfigFormatError, ModelFormatError)),
    (4, "invalid data or configuration values", (ValueError,)),
    (5, "training diverged", (MlpDivergenceError,)),
    (6, "out of memory", (MemoryError,)),
    (1, "unexpected failure", (OSError,)),
)

_EXIT_CODES_HELP = "exit codes:\n" + "".join(
    f"  {code}  {meaning}\n" for code, meaning, _ in _EXIT_CODES)


def _config_comment_lines(config) -> list[str]:
    lines = [f"generator seed: {config.seed}", f"features: {config.n_features}"]
    for cls, name in enumerate(config.class_names):
        mean = _fmt_vector(config.means[cls])
        lines.append(f"class {name}: count {config.counts[cls]} mean {mean}")
    return lines


def cmd_generate(args) -> int:
    if args.config is not None:
        config = load_synthetic_config(args.config)
    else:
        config = littleport_like_config()
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    dataset = generate_synthetic(config)
    # split first, so that a split that fails writes nothing
    if args.train_fraction is not None:
        spec = SplitSpec(train_fraction=args.train_fraction, seed=config.seed)
        train, test = stratified_split(dataset, spec)
    comments = _config_comment_lines(config)
    out = Path(args.out)
    save_csv(dataset, out, header_comments=comments)
    print(f"wrote {dataset.n_samples} samples, {dataset.n_classes} classes to {out}")

    if args.train_fraction is not None:
        comments.append(f"split: train_fraction={repr(args.train_fraction)} seed={config.seed}")
        paths = [out.with_name(f"{out.stem}.{part}{out.suffix}") for part in ("train", "test")]
        for subset, path in zip((train, test), paths):
            save_csv(subset, path, header_comments=comments)
        print(f"wrote split {train.n_samples}/{test.n_samples} to {paths[0]} and {paths[1]}")
    return 0


def _elm_config(args) -> ElmConfig:
    return ElmConfig(
        hidden_nodes=args.hidden if args.hidden is not None else ElmConfig.hidden_nodes,
        activation=args.activation,
        seed=args.seed,
        rank_tol=args.rank_tol,
    )


def _mlp_config(args, hidden: int | None) -> MlpConfig:
    return MlpConfig(
        hidden_nodes=hidden if hidden is not None else MlpConfig.hidden_nodes,
        learning_rate=args.learning_rate,
        momentum=args.momentum,
        iterations=args.iterations,
        seed=args.seed,
    )


def _training_report(model, dataset) -> str:
    """Summary of a completed fit: config, data, training-set quality.

    The only wall-clock content is the line containing "time", matching
    the filter convention of the benchmark reports.
    """
    predicted = model_predict(model, dataset.features)
    matrix = confusion(dataset.labels, predicted, dataset.class_names)
    lines = [
        "training report",
        f"config: {config_text(model.config)}",
        f"data fingerprint: {dataset_fingerprint(dataset)}",
        f"train samples: {dataset.n_samples}",
        f"training accuracy: {100.0 * matrix.overall_accuracy():.4f}%",
        f"training cost (sum of squared errors): {repr(training_cost(model, dataset))}",
        f"train time seconds: {model.train_time_s:.6f}",
        "confusion matrix (rows actual, columns predicted):",
        matrix.render_text(),
    ]
    return "\n".join(lines) + "\n"


def cmd_train(args) -> int:
    dataset = load_csv(args.data)
    if args.classifier == "elm":
        model = train_elm(dataset, _elm_config(args))
    else:
        model = train_mlp(dataset, _mlp_config(args, args.hidden))
    save_model(model, args.out)
    report_path = Path(str(args.out) + ".report.txt")
    report_path.write_text(_training_report(model, dataset), encoding="utf-8")
    print(f"trained {args.classifier} on {dataset.n_samples} samples; "
          f"model at {args.out}, report at {report_path}")
    return 0


def _save_predictions(path, model, features, labels, feature_names=None):
    """Write the features with the predicted class appended."""
    save_csv(LabeledDataset(features, labels, model.class_names), path,
             feature_names=feature_names, header_comments=[config_text(model.config)])


def cmd_predict(args) -> int:
    model = load_model(args.model)
    features, feature_names = load_feature_csv(args.data)
    if features.shape[1] != model.n_features:
        raise ValueError(
            f"model expects {model.n_features} features, input has {features.shape[1]}"
        )
    labels = model_predict(model, features)
    _save_predictions(args.out, model, features, labels, feature_names)
    print(f"wrote {len(labels)} predictions to {args.out}")
    return 0


def _split(args):
    """Load the labeled CSV and split it at --train-fraction with --seed."""
    spec = SplitSpec(train_fraction=args.train_fraction, seed=args.seed)
    return stratified_split(load_csv(args.data), spec)


def _write_result(out_dir: Path, stem: str, result) -> None:
    """Write a result's text rendering and its record next to each other."""
    (out_dir / f"{stem}.txt").write_text(result.render_text() + "\n", encoding="utf-8")
    (out_dir / f"{stem}.rec").write_text(result.to_record() + "\n", encoding="utf-8")


def cmd_benchmark(args) -> int:
    train, test = _split(args)
    result = benchmark(train, test, _elm_config(args), _mlp_config(args, args.mlp_hidden))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for model, report in ((result.elm_model, result.elm_report),
                          (result.mlp_model, result.mlp_report)):
        save_model(model, out_dir / f"{report.classifier}.model")
        _save_predictions(out_dir / f"{report.classifier}_predictions.csv", model,
                          test.features, report.predicted)
    _write_result(out_dir, "report", result)
    print(f"elm accuracy {result.elm_report.accuracy * 100:.2f}%, "
          f"mlp accuracy {result.mlp_report.accuracy * 100:.2f}%, "
          f"train speedup {result.speedup:.1f}x; artifacts in {out_dir}")
    return 0


def cmd_sweep(args) -> int:
    train, test = _split(args)
    template = ElmConfig(activation=args.activation, rank_tol=args.rank_tol)
    result = sweep_hidden_nodes(train, test, config=template,
                                n_seeds=args.seeds, base_seed=args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_result(out_dir, "sweep", result)
    print(f"best hidden width {result.best_h} "
          f"(median accuracy {result.best_accuracy * 100:.2f}%); artifacts in {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elmkit",
        description="Train and compare a direct-solve classifier with an "
                    "iterative baseline on labeled feature vectors.",
        epilog=_EXIT_CODES_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic labeled CSV scene")
    gen.add_argument("--config", help="generator config file (default: bundled scene)")
    gen.add_argument("--seed", type=int, help="override the sampling (and split) seed")
    gen.add_argument("--train-fraction", type=float,
                     help="also write .train/.test files split at this fraction")
    gen.add_argument("--out", required=True, help="output CSV path")
    gen.set_defaults(handler=cmd_generate)

    def add_split_flags(p):
        p.add_argument("--data", required=True, help="labeled CSV to split and use")
        p.add_argument("--train-fraction", type=float, default=DEFAULT_TRAIN_FRACTION,
                       help="stratified train share (default matches the bundled scene)")

    def add_elm_flags(p):
        p.add_argument("--activation", default=ElmConfig.activation, choices=tuple(ACTIVATIONS),
                       help="elm hidden activation (default %(default)s)")
        p.add_argument("--rank-tol", type=float, default=ElmConfig.rank_tol,
                       help="relative singular-value cutoff for the elm solve")

    def add_classifier_flags(p, with_classifier=True):
        if with_classifier:
            p.add_argument("--classifier", choices=("elm", "mlp"), default="elm",
                           help="classifier kind (default elm)")
        p.add_argument("--hidden", type=int,
                       help=f"hidden-layer width (default: {ElmConfig.hidden_nodes} elm, "
                            f"{MlpConfig.hidden_nodes} mlp)")
        add_elm_flags(p)
        p.add_argument("--seed", type=int, default=0, help="classifier seed (default 0)")
        p.add_argument("--learning-rate", type=float, default=MlpConfig.learning_rate,
                       help="mlp learning rate (default %(default)s)")
        p.add_argument("--momentum", type=float, default=MlpConfig.momentum,
                       help="mlp momentum (default %(default)s)")
        p.add_argument("--iterations", type=int, default=MlpConfig.iterations,
                       help="mlp training iterations (default %(default)s)")

    train = sub.add_parser("train", help="fit a classifier on a labeled CSV")
    train.add_argument("--data", required=True, help="labeled training CSV")
    add_classifier_flags(train)
    train.add_argument("--out", required=True,
                       help="output model file (training report goes to OUT.report.txt)")
    train.set_defaults(handler=cmd_train)

    pred = sub.add_parser("predict", help="label new samples with a saved model")
    pred.add_argument("--model", required=True, help="model file from train/benchmark")
    pred.add_argument("--data", required=True, help="CSV of feature rows")
    pred.add_argument("--out", required=True, help="output predictions CSV")
    pred.set_defaults(handler=cmd_predict)

    bench = sub.add_parser("benchmark",
                           help="train both classifiers on one split and compare")
    add_split_flags(bench)
    add_classifier_flags(bench, with_classifier=False)
    bench.add_argument("--mlp-hidden", type=int,
                       help=f"baseline hidden width (default {MlpConfig.hidden_nodes}); "
                            "--hidden sets the elm width")
    bench.add_argument("--out", required=True, help="output directory for artifacts")
    bench.set_defaults(handler=cmd_benchmark)

    sweep = sub.add_parser("sweep", help="accuracy vs hidden-layer width")
    add_split_flags(sweep)
    add_elm_flags(sweep)
    sweep.add_argument("--seed", type=int, default=0,
                       help="split seed and base classifier seed (default 0)")
    sweep.add_argument("--seeds", type=int, default=3,
                       help="classifier seeds per width (default 3)")
    sweep.add_argument("--out", required=True, help="output directory for artifacts")
    sweep.set_defaults(handler=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except tuple(t for _, _, types in _EXIT_CODES for t in types) as exc:
        message = str(exc)
        if isinstance(exc, MemoryError):
            message = f"out of memory: {message}" if message else "out of memory"
        # One line, even if the message echoes a newline from a bad input.
        text = "".join(c if c.isprintable() else repr(c)[1:-1] for c in message)
        print(f"elmkit {args.command}: {text}", file=sys.stderr)
        return next(code for code, _, types in _EXIT_CODES if isinstance(exc, types))


def entry_point() -> None:
    sys.exit(main())
