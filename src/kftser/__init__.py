"""Speech emotion recognition with Kalman-filtered frame posteriors.

The pipeline: WAV decode -> resample to 22,050 Hz -> 20 dB silence trim ->
2048/512 framing -> 41 features per frame (13 MFCC + deltas + delta-deltas
+ RMS energy + zero-crossing rate) -> z-scored 41-256-128-4 MLP -> Kalman
filtering of the per-frame posteriors -> fused utterance decision.

The package exports the names the README and the acceptance checks use;
everything else lives in the submodules (kftser.dsp, kftser.features, ...).
"""

from . import pipeline
from .config import PipelineConfig
from .evaluation import (ConfusionMatrix, classification_report, evaluate_pipeline,
                         fuse_utterance, synth_noisy_trajectories)
from .features import (apply_scaler, build_mel_filterbank, compute_delta, compute_rmse,
                       compute_zcr, fit_scaler)
from .kalman import KalmanConfig, filter_batch, filter_trajectory
from .manifest import build_manifest, generate_synthetic_dataset, split_manifest
from .mlp import (cross_entropy, forward_trace, init_model, load_checkpoint, predict_frames,
                  save_checkpoint)

__version__ = "0.1.0"

__all__ = [
    "ConfusionMatrix", "KalmanConfig", "PipelineConfig", "apply_scaler", "build_manifest",
    "build_mel_filterbank", "classification_report", "compute_delta", "compute_rmse",
    "compute_zcr", "cross_entropy", "evaluate_pipeline", "filter_batch", "filter_trajectory",
    "fit_scaler", "forward_trace", "fuse_utterance", "generate_synthetic_dataset",
    "init_model", "load_checkpoint", "pipeline", "predict_frames", "save_checkpoint",
    "split_manifest", "synth_noisy_trajectories",
]
