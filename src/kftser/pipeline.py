"""Glue between the flat PipelineConfig and the per-module configs, plus
the audio-to-features and manifest-to-dataset paths the CLI runs.
"""

from __future__ import annotations

import functools
import logging
from pathlib import Path

import numpy as np

from .config import PipelineConfig
from .dsp import FramingConfig, decode_wav, resample_trimmed
from .errors import KftserError
from .features import (FeatureMatrix, MelFilterbank, build_mel_filterbank,
                       extract_features, fit_scaler, load_features, save_features)
from .kalman import DEFAULT_RATIO_GRID, KalmanConfig, TuneResult, tune_qr_ratio
from .manifest import CLASS_NAMES, Manifest
from .mlp import MlpModel, TrainConfig, TrainTrace, init_model, predict_frames, train

log = logging.getLogger("kftser.pipeline")


def framing_config(cfg: PipelineConfig) -> FramingConfig:
    return FramingConfig(frame_length=cfg.frame_length, hop_length=cfg.hop_length)


def mel_filterbank(cfg: PipelineConfig) -> MelFilterbank:
    """The config's filterbank, built once per (n_mels, sample_rate, frame_length)."""
    return _filterbank(cfg.n_mels, cfg.sample_rate, cfg.frame_length)


@functools.lru_cache(maxsize=8)
def _filterbank(n_mels: int, sample_rate: int, n_fft: int) -> MelFilterbank:
    return build_mel_filterbank(n_filters=n_mels, sample_rate=sample_rate, n_fft=n_fft)


def train_config(cfg: PipelineConfig) -> TrainConfig:
    return TrainConfig(learning_rate=cfg.learning_rate, beta1=cfg.beta1, beta2=cfg.beta2,
                       epsilon=cfg.epsilon, batch_size=cfg.batch_size, epochs=cfg.epochs,
                       shuffle=cfg.shuffle, seed=cfg.seed)


def kalman_config(cfg: PipelineConfig) -> KalmanConfig:
    return KalmanConfig(dim=len(CLASS_NAMES), q=cfg.kalman_q, r=cfg.kalman_r,
                        renormalize=cfg.renormalize)


def wav_to_features(path: str | Path, cfg: PipelineConfig,
                    utterance_id: str = "") -> FeatureMatrix:
    """Decode, standardize the rate, trim silence, and extract features."""
    fcfg = framing_config(cfg)
    clip = resample_trimmed(decode_wav(path), cfg.sample_rate, cfg.trim_threshold_db, fcfg)
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


def _labels_for(manifest: Manifest, indices) -> np.ndarray:
    return np.array([int(manifest.records[i].emotion) for i in indices], dtype=np.intp)


def train_from_manifest(manifest: Manifest, features_dir: str | Path,
                        cfg: PipelineConfig) -> tuple[MlpModel, TrainTrace]:
    """Assemble the frame table for the train split and fit the classifier.

    Every frame inherits its utterance's label; the scaler is fitted on
    train rows only and stored on the model.
    """
    if not manifest.train_indices:
        raise ValueError("manifest has no train split; run the split step first")
    mats = load_features_for_indices(features_dir, manifest.train_indices)
    labels = _labels_for(manifest, manifest.train_indices)
    rows = np.vstack([fm.rows for fm in mats])
    frame_labels = np.concatenate([
        np.full(fm.n_frames, lab, dtype=np.intp) for fm, lab in zip(mats, labels)
    ])
    scaler = fit_scaler(rows)
    model = init_model(seed=cfg.seed, scaler=scaler)
    log.info("training on %d frames from %d utterances", len(rows), len(mats))
    return train(model, rows, frame_labels, train_config(cfg))


def tune_from_manifest(model: MlpModel, manifest: Manifest, features_dir: str | Path,
                       kcfg: KalmanConfig, ratios=DEFAULT_RATIO_GRID) -> TuneResult:
    """Grid-search the q/r ratio by fused utterance accuracy on the train split."""
    if not manifest.train_indices:
        raise ValueError("manifest has no train split to tune on")
    mats = load_features_for_indices(features_dir, manifest.train_indices)
    return tune_qr_ratio([predict_frames(model, fm) for fm in mats],
                         _labels_for(manifest, manifest.train_indices), kcfg, ratios=ratios)


def test_set(manifest: Manifest, features_dir: str | Path):
    """The test split's feature matrices and utterance labels."""
    if not manifest.test_indices:
        raise ValueError("manifest has no test split; run the split step first")
    mats = load_features_for_indices(features_dir, manifest.test_indices)
    return mats, _labels_for(manifest, manifest.test_indices)
