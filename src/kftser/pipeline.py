"""The audio-to-features and manifest-to-dataset paths the CLI runs.

framing_config, train_config and kalman_config (config's mapping from the
flat PipelineConfig to the per-module configs) are reachable here too.
"""

from __future__ import annotations

import functools
import logging
from pathlib import Path

import numpy as np

from .config import PipelineConfig, framing_config, kalman_config, train_config
from .dsp import decode_wav, resample_trimmed
from .errors import DecodeError, KftserError
from .features import (FeatureMatrix, MelFilterbank, build_mel_filterbank,
                       extract_features, fit_scaler, load_features, save_features)
from .kalman import DEFAULT_RATIO_GRID, KalmanConfig, TuneResult, tune_qr_ratio
from .manifest import CLASS_NAMES, Manifest
from .mlp import MlpModel, TrainTrace, init_model, predict_frames, train

log = logging.getLogger("kftser.pipeline")


@functools.lru_cache(maxsize=8)
def mel_filterbank(cfg: PipelineConfig) -> MelFilterbank:
    """The config's filterbank, built once per config (equal configs share it)."""
    return build_mel_filterbank(n_filters=cfg.n_mels, sample_rate=cfg.sample_rate,
                                n_fft=cfg.frame_length)


def wav_to_features(path: str | Path, cfg: PipelineConfig,
                    utterance_id: str = "") -> FeatureMatrix:
    """Decode, standardize the rate, trim silence, and extract features.

    A rate the resampler cannot take raises DecodeError naming the file.
    """
    fcfg = framing_config(cfg)
    clip = decode_wav(path)
    try:
        clip = resample_trimmed(clip, cfg.sample_rate, cfg.trim_threshold_db, fcfg)
    except ValueError as exc:  # cfg was checked when built: only the rate ratio can fail here
        raise DecodeError(f"{path}: {exc}") from None
    return extract_features(clip, fcfg, mel_filterbank(cfg), delta_width=cfg.delta_width,
                            log_floor=cfg.log_floor, utterance_id=utterance_id)


def feature_filename(index: int) -> str:
    return f"{index:05d}.feat"


def extract_to_dir(manifest: Manifest, cfg: PipelineConfig, out_dir: str | Path) -> dict:
    """Extract every manifest record to out_dir, one file per record index.

    Returns per-class frame counts. Files written by a failed run are
    removed so the directory never holds a partial extraction.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    frame_counts = {name: 0 for name in CLASS_NAMES}
    written = []
    try:
        for i, rec in enumerate(manifest.records):
            if not Path(rec.file_path).is_file():
                raise KftserError(f"audio file missing: {rec.file_path}")
            fm = wav_to_features(rec.file_path, cfg, utterance_id=f"{i:05d}")
            path = out_dir / feature_filename(i)
            save_features(fm, path)
            written.append(path)
            frame_counts[rec.emotion.label] += fm.n_frames
    except Exception:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    return frame_counts


def load_features_for_indices(features_dir: str | Path, indices) -> list[FeatureMatrix]:
    features_dir = Path(features_dir)
    missing = [i for i in indices if not (features_dir / feature_filename(i)).is_file()]
    if missing:
        raise KftserError(
            f"features missing under {features_dir} for record indices: "
            + ", ".join(str(i) for i in missing)
        )
    return [load_features(features_dir / feature_filename(i)) for i in indices]


def _split(manifest: Manifest, features_dir: str | Path, name: str):
    """The named split's feature matrices and utterance labels."""
    indices = getattr(manifest, f"{name}_indices")
    if not indices:
        raise KftserError(f"manifest has no {name} split; run the split step first")
    mats = load_features_for_indices(features_dir, indices)
    return mats, np.array([int(manifest.records[i].emotion) for i in indices], dtype=np.intp)


def train_from_manifest(manifest: Manifest, features_dir: str | Path, cfg: PipelineConfig,
                        *, every_epoch: bool = False) -> tuple[MlpModel, TrainTrace]:
    """Assemble the frame table for the train split and fit the classifier.

    Every frame inherits its utterance's label; the scaler is fitted on
    train rows only and stored on the model. The trace scores only the final
    model unless every_epoch asks train to score each epoch (a trace CSV
    needs that).
    """
    mats, labels = _split(manifest, features_dir, "train")
    rows = np.vstack([fm.rows for fm in mats])
    frame_labels = np.concatenate([
        np.full(fm.n_frames, lab, dtype=np.intp) for fm, lab in zip(mats, labels)
    ])
    scaler = fit_scaler(rows)
    model = init_model(seed=cfg.seed, scaler=scaler)
    log.info("training on %d frames from %d utterances", len(rows), len(mats))
    return train(model, rows, frame_labels, train_config(cfg), every_epoch=every_epoch)


def tune_from_manifest(model: MlpModel, manifest: Manifest, features_dir: str | Path,
                       kcfg: KalmanConfig, ratios=DEFAULT_RATIO_GRID) -> TuneResult:
    """Grid-search the q/r ratio by fused utterance accuracy on the train split."""
    mats, labels = _split(manifest, features_dir, "train")
    return tune_qr_ratio([predict_frames(model, fm) for fm in mats], labels, kcfg,
                         ratios=ratios)


def test_set(manifest: Manifest, features_dir: str | Path):
    """The test split's feature matrices and utterance labels."""
    return _split(manifest, features_dir, "test")
