"""End-to-end run on the built-in synthetic tone dataset.

Generates audio, extracts features, trains the frame classifier, tunes the
q/r ratio on the training trajectories, then reports raw vs filtered
accuracy on the held-out utterances. Everything lands under --root so the
run can be inspected afterwards (manifest, features, checkpoint, reports,
one trajectory CSV).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from kftser import (
    CLASS_NAMES,
    PipelineConfig,
    evaluate_pipeline,
    generate_synthetic_dataset,
    pipeline,
    predict_frames,
    save_checkpoint,
    split_manifest,
    tune_qr_ratio,
)
from kftser.kalman import filter_trajectory, write_trajectory_csv


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default="runs/synthetic",
                    help="output directory for the whole run")
    ap.add_argument("--per-class", type=int, default=10)
    ap.add_argument("--test-fraction", type=float, default=0.2)
    ap.add_argument("--epochs", type=int, default=None,
                    help="override the config default")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--no-tune", action="store_true",
                    help="skip the q/r grid search and use the config q")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(args.root)
    cfg = PipelineConfig().with_overrides(seed=args.seed, epochs=args.epochs)

    manifest = generate_synthetic_dataset(root / "audio", per_class=args.per_class,
                                          seed=cfg.seed)
    manifest = split_manifest(manifest, args.test_fraction, seed=cfg.seed)
    manifest.save(root / "manifest.json")
    print(f"dataset: {len(manifest.records)} clips "
          f"(train={len(manifest.train_indices)}/test={len(manifest.test_indices)})")

    features_dir = root / "features"
    pipeline.extract_to_dir(manifest, cfg, features_dir)

    model, trace = pipeline.train_from_manifest(manifest, features_dir, cfg)
    save_checkpoint(model, root / "model.ckpt")
    print(f"trained {len(trace.losses)} epochs, "
          f"final loss {trace.losses[-1]:.4f}, "
          f"final train frame accuracy {trace.accuracies[-1]:.4f}")

    kcfg = pipeline.kalman_config(cfg)
    if not args.no_tune:
        train_mats = pipeline.load_features_for_indices(features_dir,
                                                        manifest.train_indices)
        train_labels = [manifest.records[i].emotion for i in manifest.train_indices]
        tuned = tune_qr_ratio([predict_frames(model, m) for m in train_mats],
                              train_labels, kcfg)
        kcfg = replace(kcfg, q=tuned.best_q)
        print(f"tuned q/r ratio {tuned.best_ratio:g} (q={tuned.best_q:g})")

    mats, labels = pipeline.test_set(manifest, features_dir)
    result = evaluate_pipeline(model, kcfg, mats, labels, fusion=cfg.fusion)
    result.report.save_json(root / "eval_report.json")
    result.gain.save_json(root / "gain_report.json")
    result.report.confusion.save_csv(root / "confusion.csv")

    print()
    print(result.report.format_table())
    print(f"frame accuracy:          {result.frame_accuracy:.4f}")
    print(f"filtered frame accuracy: {result.filtered_frame_accuracy:.4f}")
    print(f"utterance accuracy:      {result.utterance_accuracy:.4f}")
    print(f"absolute gain:           {result.gain.absolute_gain:+.4f}")

    traj = filter_trajectory(predict_frames(model, mats[0]), kcfg)
    write_trajectory_csv(traj, root / "trajectory_000.csv", CLASS_NAMES)
    print(f"wrote one test trajectory to {root / 'trajectory_000.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
