"""Speech emotion recognition with Kalman-filtered frame posteriors.

The pipeline: WAV decode -> resample to 22,050 Hz -> 20 dB silence trim ->
2048/512 framing -> 41 features per frame (13 MFCC + deltas + delta-deltas
+ RMS energy + zero-crossing rate) -> z-scored 41-256-128-4 MLP -> Kalman
filtering of the per-frame posteriors -> fused utterance decision.
"""

from .config import PipelineConfig
from .dsp import (AudioClip, FramingConfig, decode_wav, frame_signal, resample,
                  trim_silence, write_wav)
from .errors import (CheckpointError, ConfigError, DecodeError, EmptyDatasetError,
                     FilenameParseError, KftserError)
from .evaluation import (ConfusionMatrix, EvalReport, GainReport, PipelineEvaluation,
                         classification_report, confusion_matrix, evaluate_pipeline,
                         fuse_utterance, synth_noisy_trajectories)
from .features import (FEATURE_COLUMNS, FeatureMatrix, MelFilterbank, ScalerStats,
                       apply_scaler, build_mel_filterbank, compute_delta, compute_mfcc,
                       compute_rmse, compute_zcr, extract_features, fit_scaler,
                       hz_to_mel, load_features, mel_to_hz, save_features)
from .kalman import (KalmanConfig, SmoothedTrajectory, TuneResult, filter_batch,
                     filter_trajectory, rts_smooth, tune_qr_ratio)
from .manifest import (CLASS_NAMES, Emotion, Manifest, UtteranceRecord, build_manifest,
                       generate_synthetic_dataset, parse_ravdess_filename, split_manifest)
from .mlp import (MlpModel, TrainConfig, TrainTrace, adam_step, backward, cross_entropy,
                  forward, forward_trace, init_model, load_checkpoint, predict_frames,
                  save_checkpoint, softmax, train)
from .pipeline import (extract_to_dir, load_features_for_indices, train_from_manifest,
                       wav_to_features)

__version__ = "0.1.0"

__all__ = [
    "AudioClip", "CLASS_NAMES", "CheckpointError", "ConfigError", "ConfusionMatrix",
    "DecodeError", "Emotion", "EmptyDatasetError", "EvalReport", "FEATURE_COLUMNS",
    "FeatureMatrix", "FilenameParseError", "FramingConfig", "GainReport",
    "KalmanConfig", "KftserError", "Manifest", "MelFilterbank", "MlpModel",
    "PipelineConfig", "PipelineEvaluation", "ScalerStats", "SmoothedTrajectory",
    "TrainConfig", "TrainTrace", "TuneResult", "UtteranceRecord", "adam_step",
    "apply_scaler", "backward", "build_manifest", "build_mel_filterbank",
    "classification_report", "compute_delta", "compute_mfcc", "compute_rmse",
    "compute_zcr", "confusion_matrix", "cross_entropy", "decode_wav",
    "evaluate_pipeline", "extract_features", "extract_to_dir", "filter_batch",
    "filter_trajectory", "fit_scaler", "forward", "forward_trace", "frame_signal",
    "fuse_utterance", "generate_synthetic_dataset", "hz_to_mel", "init_model",
    "load_checkpoint", "load_features", "load_features_for_indices", "mel_to_hz",
    "parse_ravdess_filename", "predict_frames", "resample", "rts_smooth",
    "save_checkpoint", "save_features", "softmax", "split_manifest",
    "synth_noisy_trajectories", "train", "train_from_manifest", "trim_silence",
    "tune_qr_ratio", "wav_to_features", "write_wav",
]
