"""Command-line surface for the whole pipeline.

Subcommands: manifest, extract, train, evaluate, trajectory, tune, synth, run.
Exit codes: 0 success, 1 runtime or I/O failure (numeric overflow or an
invalid result included), 2 usage or argument error.
KFTSER_LOG (error|warn|info|debug) sets logging verbosity.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import pipeline
from .config import PipelineConfig
from .errors import KftserError
from .evaluation import evaluate_pipeline
from .features import N_FEATURES
from .kalman import (DEFAULT_RATIO_GRID, check_ratio_grid, check_tunable,
                     filter_trajectory, write_trajectory_csv)
from .manifest import (CLASS_NAMES, Manifest, build_manifest, check_split,
                       generate_synthetic_dataset, split_manifest, write_json)
from .mlp import load_checkpoint, predict_frames, save_checkpoint, save_trace_csv

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging() -> None:
    name = os.environ.get("KFTSER_LOG", "warn").lower()
    level = _LOG_LEVELS.get(name)
    if level is None:
        print(f"warning: unknown KFTSER_LOG value {name!r}, using 'warn'", file=sys.stderr)
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _load_config(args) -> PipelineConfig:
    cfg = PipelineConfig.from_file(args.config) if args.config else PipelineConfig()
    return cfg.with_overrides(seed=getattr(args, "seed", None),
                              epochs=getattr(args, "epochs", None))


def _checked_model(path):
    model = load_checkpoint(path)
    if tuple(model.class_order) != CLASS_NAMES:
        raise KftserError(
            f"{path}: checkpoint class order {model.class_order} does not match "
            f"the pipeline order {CLASS_NAMES}"
        )
    if model.layer_dims[0] != N_FEATURES:
        raise KftserError(f"{path}: checkpoint input width {model.layer_dims[0]} does not "
                          f"match the {N_FEATURES} features per frame")
    return model


def _extract(manifest, cfg, out_dir) -> None:
    frame_counts = pipeline.extract_to_dir(manifest, cfg, out_dir)
    for name in CLASS_NAMES:
        print(f"{name}: {frame_counts[name]} frames")
    print(f"{len(manifest.records)} feature files written to {out_dir}")


def _train(manifest, features_dir, cfg, out):
    model, trace = pipeline.train_from_manifest(manifest, features_dir, cfg)
    save_checkpoint(model, out)
    if trace.losses:
        print(f"epochs: {len(trace.losses)}, final loss {trace.losses[-1]:.6f}, "
              f"final train frame accuracy {trace.accuracies[-1]:.4f}")
    else:
        print("epochs: 0 (checkpoint holds the initialized model)")
    print(f"checkpoint: {out}")
    return model, trace


def _print_tune(result, fusion: str) -> None:
    for ratio in sorted(result.accuracies):
        print(f"ratio {ratio:g}: accuracy {result.accuracies[ratio]:.4f}")
    print(f"best ratio: {result.best_ratio:g} (q={result.best_q:g})")
    scores = set(result.accuracies.values())
    if len(result.accuracies) > 1 and len(scores) == 1:
        print(f"note: all {len(result.accuracies)} ratios tie at accuracy {scores.pop():.4f}, "
              "so the pick is the smallest ratio, the edge of the grid")
    if fusion != "mean":
        print(f"note: the tune scores each ratio by mean fusion; the config's fusion "
              f"is {fusion!r}, so the pick is not tuned for it")


def _evaluate(model, kcfg, mats, labels, fusion, out_dir) -> None:
    """Score the test split, write the three reports and print the summary."""
    result = evaluate_pipeline(model, kcfg, mats, labels, fusion=fusion)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    result.report.save_json(out_dir / "eval_report.json")
    result.report.confusion.save_csv(out_dir / "confusion.csv")
    result.gain.save_json(out_dir / "gain_report.json")
    print(result.report.format_table())
    print()
    print(f"frames: {result.n_frames}, utterances: {result.n_utterances}")
    print(f"frame accuracy: {result.frame_accuracy:.4f}")
    print(f"filtered frame accuracy: {result.filtered_frame_accuracy:.4f}")
    print(f"utterance accuracy: {result.utterance_accuracy:.4f}")
    print(f"absolute gain: {result.gain.absolute_gain:+.4f}")
    print(f"reports written to {out_dir}")


def _write_trajectory(model, fm, kcfg, out) -> int:
    """Predict, filter and write one utterance's trajectory CSV; returns its frame count."""
    posteriors = predict_frames(model, fm)
    write_trajectory_csv(posteriors, filter_trajectory(posteriors, kcfg).filtered, out,
                         model.class_order)
    return len(posteriors)


def cmd_manifest(args) -> int:
    manifest = build_manifest(args.root)
    manifest = split_manifest(manifest, args.test_fraction, args.seed)
    manifest.save(args.out)
    print(f"{len(manifest.records)} records "
          f"(train={len(manifest.train_indices)}/test={len(manifest.test_indices)})")
    return 0


def cmd_extract(args) -> int:
    cfg = _load_config(args)
    _extract(Manifest.load(args.manifest), cfg, args.out_dir)
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args)
    _, trace = _train(Manifest.load(args.manifest), args.features, cfg, args.out)
    trace_path = args.trace or f"{args.out}.trace.csv"
    save_trace_csv(trace, trace_path)
    print(f"trace: {trace_path}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = _load_config(args)
    manifest = Manifest.load(args.manifest)
    model = _checked_model(args.checkpoint)
    mats, labels = pipeline.test_set(manifest, args.features)
    _evaluate(model, pipeline.kalman_config(cfg), mats, labels, cfg.fusion, args.out_dir)
    return 0


def cmd_trajectory(args) -> int:
    cfg = _load_config(args)
    model = _checked_model(args.checkpoint)
    fm = pipeline.wav_to_features(args.audio, cfg, utterance_id=Path(args.audio).stem)
    n_frames = _write_trajectory(model, fm, pipeline.kalman_config(cfg), args.out)
    print(f"{n_frames} frames -> {args.out}")
    return 0


def cmd_tune(args) -> int:
    ratios = DEFAULT_RATIO_GRID
    if args.grid is not None:
        ratios = check_ratio_grid(x for x in args.grid.split(",") if x.strip())
    cfg = _load_config(args)
    kcfg = pipeline.kalman_config(cfg)
    check_tunable(kcfg)
    manifest = Manifest.load(args.manifest)
    model = _checked_model(args.checkpoint)
    result = pipeline.tune_from_manifest(model, manifest, args.features, kcfg, ratios=ratios)
    write_json(args.out, asdict(result))
    _print_tune(result, cfg.fusion)
    return 0


def cmd_synth(args) -> int:
    check_split(args.test_fraction, args.seed)  # before any file is written
    manifest = generate_synthetic_dataset(args.out_dir, per_class=args.per_class,
                                          sample_rate=args.sample_rate,
                                          duration=args.duration, seed=args.seed)
    manifest = split_manifest(manifest, args.test_fraction, args.seed)
    out = args.out or str(Path(args.out_dir) / "manifest.json")
    manifest.save(out)
    print(f"{len(manifest.records)} files under {args.out_dir}, manifest at {out}")
    return 0


def cmd_run(args) -> int:
    """extract -> train -> tune q/r on the train split -> evaluate the test split."""
    cfg = _load_config(args)
    manifest = Manifest.load(args.manifest)
    if not (manifest.train_indices and manifest.test_indices):
        raise KftserError(f"{args.manifest}: run needs a train and a test split "
                          f"(train={len(manifest.train_indices)}, "
                          f"test={len(manifest.test_indices)})")
    kcfg = pipeline.kalman_config(cfg)
    check_tunable(kcfg)
    out_dir = Path(args.out_dir)
    features_dir = out_dir / "features"
    _extract(manifest, cfg, features_dir)
    model, _ = _train(manifest, features_dir, cfg, out_dir / "model.ckpt")
    tuned = pipeline.tune_from_manifest(model, manifest, features_dir, kcfg)
    _print_tune(tuned, cfg.fusion)
    kcfg = replace(kcfg, q=tuned.best_q)
    mats, labels = pipeline.test_set(manifest, features_dir)
    _evaluate(model, kcfg, mats, labels, cfg.fusion, out_dir)
    _write_trajectory(model, mats[0], kcfg, out_dir / "trajectory_000.csv")
    print(f"first test trajectory: {out_dir / 'trajectory_000.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kftser",
        description="Frame-level speech emotion recognition with Kalman-filtered posteriors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, summary, *parents):
        p = sub.add_parser(name, help=summary, parents=parents)
        p.set_defaults(func=func)
        return p

    # arguments that several subcommands share, each declared once
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="pipeline config JSON")
    overrides = argparse.ArgumentParser(add_help=False)
    overrides.add_argument("--seed", type=int, help="override config seed")
    overrides.add_argument("--epochs", type=int, help="override config epochs")
    features = argparse.ArgumentParser(add_help=False)
    features.add_argument("manifest", help="manifest JSON path")
    features.add_argument("--features", required=True, help="directory of .feat files")
    checkpoint = argparse.ArgumentParser(add_help=False)
    checkpoint.add_argument("--checkpoint", required=True, help="trained model checkpoint")

    p = add("manifest", cmd_manifest, "scan a dataset directory into a split manifest")
    p.add_argument("root", help="directory tree of dash-coded WAV files")
    p.add_argument("--out", required=True, help="manifest JSON path")
    p.add_argument("--test-fraction", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)

    p = add("extract", cmd_extract, "extract per-frame features for every record", config)
    p.add_argument("manifest", help="manifest JSON path")
    p.add_argument("--out-dir", required=True, help="directory for .feat files")

    p = add("train", cmd_train, "train the frame classifier on the train split",
            features, config, overrides)
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--trace", help="training trace CSV (default: <out>.trace.csv)")

    p = add("evaluate", cmd_evaluate, "score the test split and write reports",
            features, checkpoint, config)
    p.add_argument("--out-dir", required=True, help="directory for report files")

    p = add("trajectory", cmd_trajectory, "emit raw and filtered posteriors for one file",
            checkpoint, config)
    p.add_argument("audio", help="input WAV file")
    p.add_argument("--out", required=True, help="CSV output path")

    p = add("tune", cmd_tune, "grid-search the kalman q/r ratio on the train split",
            features, checkpoint, config)
    p.add_argument("--grid", help="comma-separated q/r ratios (default built-in grid)")
    p.add_argument("--out", required=True, help="JSON output path")

    p = add("synth", cmd_synth, "generate the synthetic four-class tone dataset")
    p.add_argument("--out-dir", required=True, help="directory for WAV files")
    p.add_argument("--out", help="manifest path (default <out-dir>/manifest.json)")
    p.add_argument("--per-class", type=int, default=10)
    p.add_argument("--sample-rate", type=int, default=22050)
    p.add_argument("--duration", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--test-fraction", type=float, default=0.2,
                   help="split fraction; pass a value in (0,1)")

    p = add("run", cmd_run, "extract, train, tune q/r and evaluate in one go", config, overrides)
    p.add_argument("manifest", help="split manifest JSON path (from synth or manifest)")
    p.add_argument("--out-dir", required=True,
                   help="directory for features, checkpoint, reports and one trajectory")

    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        # a model or .feat file whose values overflow stops at the first bad
        # array operation, as a runtime failure, rather than going on as NaN
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return int(args.func(args) or 0)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (KftserError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FloatingPointError as exc:
        # the values came from a numeric input the command read: name each one
        read = ", ".join(str(getattr(args, key)) for key in ("checkpoint", "features", "audio")
                         if hasattr(args, key))
        print(f"error: {read}: {exc}" if read else f"error: {exc}", file=sys.stderr)
        return 1
