"""Command line interface.

Subcommands:

* ``generate``  — write the bundled synthetic scene, at any sampling
  seed, as a labeled CSV (optionally pre-split into train and test files).
* ``train``     — fit a classifier on a labeled CSV, write a model file
  plus a training report (text and record) next to it.
* ``predict``   — label new samples with a saved model.
* ``benchmark`` — train both classifiers on one split and write models,
  predictions, and paired reports.
* ``sweep``     — map test accuracy against hidden-layer width.

Every artifact embeds the full effective configuration (model files by
format, CSV outputs as leading ``#`` comments, reports as config lines)
and nothing embeds wall-clock state except clearly marked timing lines,
so repeated runs produce byte-identical files apart from those lines.
Each report is one sequence of (record line, text line) pairs from
:mod:`elmkit.evaluate`, written once as ``.txt`` and once as ``.rec``.

Exit codes are listed once, in ``_EXIT_CODES``, which ``--help`` prints.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .data import (
    DEFAULT_TRAIN_FRACTION,
    FormatError,
    LabeledDataset,
    SplitSpec,
    _fmt_vector,
    generate_synthetic,
    littleport_like_config,
    load_csv,
    load_feature_csv,
    save_csv,
    stratified_split,
)
from .elm import ElmConfig
from .evaluate import (_KINDS, _join, _training_report, benchmark, config_text, predict,
                       sweep_hidden_nodes)
from .mlp import MlpConfig, MlpDivergenceError
from .modelio import load_model, save_model

# (code, meaning, error types) in help order, one class per code.  main
# returns the code of the first row whose types match, so FormatError, a
# ValueError too, comes before ValueError.
_EXIT_CODES = (
    (0, "success", ()),
    (2, "usage error (bad flags or arguments)", ()),
    (3, "malformed input file (dataset or model)", (FormatError,)),
    (4, "invalid data or configuration values", (ValueError,)),
    (5, "training diverged", (MlpDivergenceError,)),
    (6, "out of memory", (MemoryError,)),
    (1, "unexpected failure", (OSError,)),
)

_EXIT_CODES_HELP = "exit codes:\n" + "".join(
    f"  {code}  {meaning}\n" for code, meaning, _ in _EXIT_CODES)


# The mlp's learning flags as (dest, type, what it sets); each is None when unset.
_MLP_FLAGS = (("learning_rate", float, "learning rate"), ("momentum", float, "momentum"),
              ("iterations", int, "training iterations"))


def _config_comment_lines(config) -> list[str]:
    lines = [f"generator seed: {config.seed}", f"features: {config.n_features}"]
    for cls, name in enumerate(config.class_names):
        mean = _fmt_vector(config.means[cls])
        lines.append(f"class {name}: count {config.counts[cls]} mean {mean}")
    return lines


def cmd_generate(args) -> int:
    config = littleport_like_config() if args.seed is None else littleport_like_config(args.seed)
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


def _config(config_type, args, hidden: int | None):
    """A classifier config: each field from the flag whose dest is its name,
    the width from *hidden* (the value of --hidden or --mlp-hidden); a field
    whose flag was left unset (None) keeps its default."""
    values = {f.name: getattr(args, f.name, None) for f in fields(config_type)}
    values["hidden_nodes"] = hidden
    return config_type(**{name: v for name, v in values.items() if v is not None})


def cmd_train(args) -> int:
    given = [name for name, _, _ in _MLP_FLAGS if getattr(args, name) is not None]
    if given and args.classifier != "mlp":
        flag = "--" + given[0].replace("_", "-")
        print(f"elmkit train: {flag} applies to --classifier mlp only", file=sys.stderr)
        return 2
    dataset = load_csv(args.data)
    kind = _KINDS[args.classifier]
    model = kind.train(dataset, _config(kind.config, args, args.hidden))
    save_model(model, args.out)
    report = f"{args.out}.report"
    _write_result(report, _training_report(model, dataset))
    print(f"trained {args.classifier} on {dataset.n_samples} samples; "
          f"model at {args.out}, report at {report}.txt and {report}.rec")
    return 0


def _save_predictions(path, model, features, labels, feature_names=None):
    """Write the features with the predicted class appended."""
    save_csv(LabeledDataset(features, labels, model.class_names), path,
             feature_names=feature_names, header_comments=[config_text(model.config)])


def cmd_predict(args) -> int:
    model = load_model(args.model)
    features, feature_names = load_feature_csv(args.data)
    labels = predict(model, features)
    _save_predictions(args.out, model, features, labels, feature_names)
    print(f"wrote {len(labels)} predictions to {args.out}")
    return 0


def _split(args):
    """Load the labeled CSV and split it at --train-fraction with --seed."""
    spec = SplitSpec(train_fraction=args.train_fraction, seed=args.seed)
    return stratified_split(load_csv(args.data), spec)


def _write_result(stem, lines) -> None:
    """Write one line-pair sequence as its text (STEM.txt) and its record (STEM.rec)."""
    lines = list(lines)
    for suffix, half in ((".txt", 1), (".rec", 0)):
        Path(f"{stem}{suffix}").write_text(_join(lines, half) + "\n", encoding="utf-8")


def cmd_benchmark(args) -> int:
    train, test = _split(args)
    result = benchmark(train, test, _config(ElmConfig, args, args.hidden),
                       _config(MlpConfig, args, args.mlp_hidden))

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for model, report in ((result.elm_model, result.elm_report),
                          (result.mlp_model, result.mlp_report)):
        save_model(model, out_dir / f"{report.classifier}.model")
        _save_predictions(out_dir / f"{report.classifier}_predictions.csv", model,
                          test.features, report.predicted)
    _write_result(out_dir / "report", result._lines())
    print(f"elm accuracy {result.elm_report.accuracy * 100:.2f}%, "
          f"mlp accuracy {result.mlp_report.accuracy * 100:.2f}%, "
          f"train speedup {result.speedup:.1f}x; artifacts in {out_dir}")
    return 0


def cmd_sweep(args) -> int:
    train, test = _split(args)
    result = sweep_hidden_nodes(train, test, n_seeds=args.seeds, base_seed=args.seed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_result(out_dir / "sweep", result._lines())
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
    gen.add_argument("--seed", type=int, help="override the sampling (and split) seed")
    gen.add_argument("--train-fraction", type=float,
                     help="also write .train/.test files split at this fraction")
    gen.add_argument("--out", required=True, help="output CSV path")
    gen.set_defaults(handler=cmd_generate)

    def add_split_flags(p, seeded):
        p.add_argument("--data", required=True, help="labeled CSV to split and use")
        p.add_argument("--train-fraction", type=float, default=DEFAULT_TRAIN_FRACTION,
                       help="stratified train share (default matches the bundled scene)")
        p.add_argument("--seed", type=int, default=0,
                       help=f"seed of the split and of {seeded} (default 0)")

    def add_mlp_flags(p, note=""):
        for name, kind, what in _MLP_FLAGS:
            p.add_argument("--" + name.replace("_", "-"), type=kind,
                           help=f"mlp {what} (default {getattr(MlpConfig, name)}{note})")

    train = sub.add_parser("train", help="fit a classifier on a labeled CSV")
    train.add_argument("--data", required=True, help="labeled training CSV")
    train.add_argument("--classifier", choices=tuple(_KINDS), default="elm",
                       help="classifier kind (default elm)")
    train.add_argument("--hidden", type=int,
                       help=f"hidden-layer width (default: {ElmConfig.hidden_nodes} elm, "
                            f"{MlpConfig.hidden_nodes} mlp)")
    train.add_argument("--seed", type=int, default=0,
                       help="seed of the elm's hidden layer or the mlp's weights (default 0)")
    add_mlp_flags(train, "; mlp only")
    train.add_argument("--out", required=True,
                       help="output model file (training report goes to OUT.report.txt "
                            "and OUT.report.rec)")
    train.set_defaults(handler=cmd_train)

    pred = sub.add_parser("predict", help="label new samples with a saved model")
    pred.add_argument("--model", required=True, help="model file from train/benchmark")
    pred.add_argument("--data", required=True, help="CSV of feature rows")
    pred.add_argument("--out", required=True, help="output predictions CSV")
    pred.set_defaults(handler=cmd_predict)

    bench = sub.add_parser("benchmark",
                           help="train both classifiers on one split and compare")
    add_split_flags(bench, "both classifiers")
    bench.add_argument("--hidden", type=int,
                       help=f"elm hidden-layer width (default {ElmConfig.hidden_nodes})")
    bench.add_argument("--mlp-hidden", type=int,
                       help=f"mlp hidden-layer width (default {MlpConfig.hidden_nodes})")
    add_mlp_flags(bench)
    bench.add_argument("--out", required=True, help="output directory for artifacts")
    bench.set_defaults(handler=cmd_benchmark)

    sweep = sub.add_parser("sweep", help="accuracy vs hidden-layer width")
    add_split_flags(sweep, "each width's first classifier")
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
