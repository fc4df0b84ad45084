"""Command-line surface for the whole pipeline.

Subcommands: manifest, extract, train, evaluate, trajectory, tune, synth, run.
Exit codes: 0 success, 1 runtime or I/O failure, 2 usage or argument error.
KFTSER_LOG (error|warn|info|debug) sets logging verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import pipeline
from .config import PipelineConfig
from .errors import KftserError
from .evaluation import evaluate_pipeline
from .kalman import (DEFAULT_RATIO_GRID, check_ratio_grid, check_tunable,
                     filter_trajectory, write_trajectory_csv)
from .manifest import (CLASS_NAMES, Manifest, build_manifest,
                       generate_synthetic_dataset, split_manifest)
from .mlp import load_checkpoint, predict_frames, save_checkpoint, save_trace_csv

log = logging.getLogger("kftser.cli")

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


def _print_tune(result) -> None:
    for ratio in sorted(result.accuracies):
        print(f"ratio {ratio:g}: accuracy {result.accuracies[ratio]:.4f}")
    print(f"best ratio: {result.best_ratio:g} (q={result.best_q:g})")
    scores = set(result.accuracies.values())
    if len(result.accuracies) > 1 and len(scores) == 1:
        print(f"note: all {len(result.accuracies)} ratios tie at accuracy {scores.pop():.4f}, "
              "so the pick is the smallest ratio, the edge of the grid")


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
    posteriors = predict_frames(model, fm)
    st = filter_trajectory(posteriors, pipeline.kalman_config(cfg))
    write_trajectory_csv(st, args.out, model.class_order)
    print(f"{st.n_steps} frames -> {args.out}")
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
    payload = {"best_ratio": result.best_ratio, "best_q": result.best_q,
               "accuracies": {str(k): v for k, v in result.accuracies.items()}}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    _print_tune(result)
    return 0


def cmd_synth(args) -> int:
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
        raise ValueError(f"{args.manifest}: run needs a train and a test split "
                         f"(train={len(manifest.train_indices)}, "
                         f"test={len(manifest.test_indices)})")
    kcfg = pipeline.kalman_config(cfg)
    check_tunable(kcfg)
    out_dir = Path(args.out_dir)
    features_dir = out_dir / "features"
    _extract(manifest, cfg, features_dir)
    model, _ = _train(manifest, features_dir, cfg, out_dir / "model.ckpt")
    tuned = pipeline.tune_from_manifest(model, manifest, features_dir, kcfg)
    _print_tune(tuned)
    kcfg = replace(kcfg, q=tuned.best_q)
    mats, labels = pipeline.test_set(manifest, features_dir)
    _evaluate(model, kcfg, mats, labels, cfg.fusion, out_dir)
    st = filter_trajectory(predict_frames(model, mats[0]), kcfg)
    write_trajectory_csv(st, out_dir / "trajectory_000.csv", model.class_order)
    print(f"first test trajectory: {out_dir / 'trajectory_000.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kftser",
        description="Frame-level speech emotion recognition with Kalman-filtered posteriors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("manifest", help="scan a dataset directory into a split manifest")
    p.add_argument("root", help="directory tree of dash-coded WAV files")
    p.add_argument("--out", required=True, help="manifest JSON path")
    p.add_argument("--test-fraction", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_manifest)

    p = sub.add_parser("extract", help="extract per-frame features for every record")
    p.add_argument("manifest", help="manifest JSON path")
    p.add_argument("--out-dir", required=True, help="directory for .feat files")
    p.add_argument("--config", help="pipeline config JSON")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train the frame classifier on the train split")
    p.add_argument("manifest", help="manifest JSON path")
    p.add_argument("--features", required=True, help="directory of .feat files")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--trace", help="training trace CSV (default: <out>.trace.csv)")
    p.add_argument("--config", help="pipeline config JSON")
    p.add_argument("--seed", type=int, help="override config seed")
    p.add_argument("--epochs", type=int, help="override config epochs")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score the test split and write reports")
    p.add_argument("manifest", help="manifest JSON path")
    p.add_argument("--features", required=True, help="directory of .feat files")
    p.add_argument("--checkpoint", required=True, help="trained model checkpoint")
    p.add_argument("--out-dir", required=True, help="directory for report files")
    p.add_argument("--config", help="pipeline config JSON")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("trajectory", help="emit raw and filtered posteriors for one file")
    p.add_argument("audio", help="input WAV file")
    p.add_argument("--checkpoint", required=True, help="trained model checkpoint")
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--config", help="pipeline config JSON")
    p.set_defaults(func=cmd_trajectory)

    p = sub.add_parser("tune", help="grid-search the kalman q/r ratio on the train split")
    p.add_argument("manifest", help="manifest JSON path")
    p.add_argument("--features", required=True, help="directory of .feat files")
    p.add_argument("--checkpoint", required=True, help="trained model checkpoint")
    p.add_argument("--grid", help="comma-separated q/r ratios (default built-in grid)")
    p.add_argument("--out", required=True, help="JSON output path")
    p.add_argument("--config", help="pipeline config JSON")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("synth", help="generate the synthetic four-class tone dataset")
    p.add_argument("--out-dir", required=True, help="directory for WAV files")
    p.add_argument("--out", help="manifest path (default <out-dir>/manifest.json)")
    p.add_argument("--per-class", type=int, default=10)
    p.add_argument("--sample-rate", type=int, default=22050)
    p.add_argument("--duration", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--test-fraction", type=float, default=0.2,
                   help="split fraction; pass a value in (0,1)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("run", help="extract, train, tune q/r and evaluate in one go")
    p.add_argument("manifest", help="split manifest JSON path (from synth or manifest)")
    p.add_argument("--out-dir", required=True,
                   help="directory for features, checkpoint, reports and one trajectory")
    p.add_argument("--config", help="pipeline config JSON")
    p.add_argument("--seed", type=int, help="override config seed")
    p.add_argument("--epochs", type=int, help="override config epochs")
    p.set_defaults(func=cmd_run)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return int(args.func(args) or 0)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (KftserError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
