"""Utterance fusion, classification metrics, and the frame-vs-utterance
stabilization gain, plus a synthetic noisy-posterior generator used to
exercise the filtering stage without any audio.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .kalman import KalmanConfig, filter_batch
from .manifest import CLASS_NAMES, write_csv, write_json
from .mlp import MlpModel, predict_frames

FUSION_RULES = ("mean", "max", "final")


def fuse_utterance(smoothed: np.ndarray, rule: str = "mean"):
    """Pool a (T, n_classes) posterior trajectory into one decision.

    Returns (class index, fused vector). mean averages rows as
    np.add.reduce over time divided by T (ndarray.mean's two operations,
    without its Python wrapper, so its bits), max takes the per-class
    maximum over time, final takes the last row. Argmax ties go to the
    lowest class index.

    kalman.tune_qr_ratio applies the mean rule to posteriors without keeping
    the rows: a running row sum from 0.0, divided by T, then argmax (in
    kalman._tune_means); other batches take the rule's two operations on
    filter_trajectory's rows. A change to the mean rule must change both
    copies; test_kalman.py's test_batched_tune_matches_filter_batch_then_fuse
    and the streamed-tune tests hold them equal.
    """
    smoothed = np.atleast_2d(np.asarray(smoothed, dtype=np.float64))
    if smoothed.size == 0:
        raise ValueError("cannot fuse an empty trajectory")
    if rule == "mean":
        fused = np.add.reduce(smoothed, axis=0) / len(smoothed)
    elif rule == "max":
        fused = smoothed.max(axis=0)
    elif rule == "final":
        fused = smoothed[-1].copy()
    else:
        raise ValueError(f"unknown fusion rule {rule!r}; expected one of {FUSION_RULES}")
    return int(np.argmax(fused)), fused


@dataclass
class ConfusionMatrix:
    """Counts with rows = true class, columns = predicted class."""

    counts: np.ndarray
    class_names: tuple[str, ...] = CLASS_NAMES

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        n = len(self.class_names)
        if self.counts.shape != (n, n):
            raise ValueError(f"counts must be {n}x{n}, got {self.counts.shape}")
        if (self.counts < 0).any():
            raise ValueError("counts must be non-negative")

    @property
    def support(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def save_csv(self, path: str | Path) -> None:
        write_csv(path, ["class", *self.class_names],
                  ([name, *row.tolist()] for name, row in zip(self.class_names, self.counts)))


def confusion_matrix(true_labels, predicted_labels,
                     class_names: tuple[str, ...] = CLASS_NAMES) -> ConfusionMatrix:
    true_labels = np.asarray(true_labels, dtype=np.intp)
    predicted_labels = np.asarray(predicted_labels, dtype=np.intp)
    if true_labels.shape != predicted_labels.shape or true_labels.ndim != 1:
        raise ValueError("label lists must be 1-D and equal length")
    n = len(class_names)
    if len(true_labels) and not (
        0 <= true_labels.min() and true_labels.max() < n
        and 0 <= predicted_labels.min() and predicted_labels.max() < n
    ):
        raise ValueError(f"labels must lie in [0, {n})")
    counts = np.zeros((n, n), dtype=np.int64)
    np.add.at(counts, (true_labels, predicted_labels), 1)
    return ConfusionMatrix(counts=counts, class_names=class_names)


class EvalReport:
    """Per-class precision/recall/F1/support plus the usual averages, all
    computed here from one confusion matrix; a zero denominator scores 0.

    Stored values are full precision; display rounds to 2 decimals.
    """

    def __init__(self, confusion: ConfusionMatrix):
        total = confusion.total
        if total < 1:
            raise ValueError("confusion matrix is empty")
        self.confusion = confusion
        self.support = confusion.support
        diag = np.diag(confusion.counts).astype(np.float64)
        col_sums = confusion.counts.sum(axis=0).astype(np.float64)
        row_sums = self.support.astype(np.float64)
        self.precision = np.divide(diag, col_sums, out=np.zeros_like(diag), where=col_sums > 0)
        self.recall = np.divide(diag, row_sums, out=np.zeros_like(diag), where=row_sums > 0)
        pr_sum = self.precision + self.recall
        self.f1 = np.divide(2.0 * self.precision * self.recall, pr_sum,
                            out=np.zeros_like(diag), where=pr_sum > 0)
        self.accuracy = float(diag.sum() / total)
        self.macro_precision = float(self.precision.mean())
        self.macro_recall = float(self.recall.mean())
        self.macro_f1 = float(self.f1.mean())
        weights = self.support / total
        self.weighted_precision = float(self.precision @ weights)
        self.weighted_recall = float(self.recall @ weights)
        self.weighted_f1 = float(self.f1 @ weights)

    def to_dict(self) -> dict:
        names = self.confusion.class_names
        return {
            "classes": {
                name: {
                    "precision": float(self.precision[i]),
                    "recall": float(self.recall[i]),
                    "f1": float(self.f1[i]),
                    "support": int(self.support[i]),
                }
                for i, name in enumerate(names)
            },
            "accuracy": self.accuracy,
            "macro_avg": {
                "precision": self.macro_precision,
                "recall": self.macro_recall,
                "f1": self.macro_f1,
            },
            "weighted_avg": {
                "precision": self.weighted_precision,
                "recall": self.weighted_recall,
                "f1": self.weighted_f1,
            },
            "confusion": self.confusion.counts.tolist(),
        }

    def save_json(self, path: str | Path) -> None:
        write_json(path, self.to_dict())

    def format_table(self) -> str:
        names = self.confusion.class_names
        width = max(12, max(len(n) for n in names) + 2)
        head = f"{'':<{width}}{'precision':>10}{'recall':>10}{'f1-score':>10}{'support':>10}"
        lines = [head, ""]
        for i, name in enumerate(names):
            lines.append(
                f"{name:<{width}}{self.precision[i]:>10.2f}{self.recall[i]:>10.2f}"
                f"{self.f1[i]:>10.2f}{self.support[i]:>10d}"
            )
        total = self.confusion.total
        lines.append("")
        lines.append(f"{'accuracy':<{width}}{'':>10}{'':>10}{self.accuracy:>10.2f}{total:>10d}")
        lines.append(
            f"{'macro avg':<{width}}{self.macro_precision:>10.2f}{self.macro_recall:>10.2f}"
            f"{self.macro_f1:>10.2f}{total:>10d}"
        )
        lines.append(
            f"{'weighted avg':<{width}}{self.weighted_precision:>10.2f}"
            f"{self.weighted_recall:>10.2f}{self.weighted_f1:>10.2f}{total:>10d}"
        )
        return "\n".join(lines)


def classification_report(cm: ConfusionMatrix) -> EvalReport:
    """Precision/recall/F1 per class with zero-denominator cases defined as 0."""
    return EvalReport(cm)


@dataclass
class GainReport:
    """Raw per-frame accuracy vs filtered-and-fused utterance accuracy.

    absolute_gain is the plain difference of the two fields (read it times
    100 for percentage points).
    """

    frame_level_accuracy: float
    utterance_level_accuracy: float

    @property
    def absolute_gain(self) -> float:
        return self.utterance_level_accuracy - self.frame_level_accuracy

    def to_dict(self) -> dict:
        return {
            "frame_level_accuracy": self.frame_level_accuracy,
            "utterance_level_accuracy": self.utterance_level_accuracy,
            "absolute_gain": self.absolute_gain,
        }

    def save_json(self, path: str | Path) -> None:
        write_json(path, self.to_dict())


@dataclass
class PipelineEvaluation:
    """Full harness output: metrics plus the three accuracy views.

    frame_accuracy is raw per-frame argmax, filtered_frame_accuracy is the
    same after Kalman filtering, utterance_accuracy is filtered + fused.
    """

    report: EvalReport
    frame_accuracy: float
    filtered_frame_accuracy: float
    n_frames: int

    @property
    def utterance_accuracy(self) -> float:
        return self.report.accuracy

    @property
    def n_utterances(self) -> int:
        return self.report.confusion.total

    @property
    def gain(self) -> GainReport:
        return GainReport(frame_level_accuracy=self.frame_accuracy,
                          utterance_level_accuracy=self.utterance_accuracy)


def evaluate_pipeline(model: MlpModel, kalman_cfg: KalmanConfig,
                      feature_matrices, labels, fusion: str = "mean") -> PipelineEvaluation:
    """Score the full pipeline on a labeled test set of feature matrices."""
    labels = np.asarray(labels, dtype=np.intp)
    if len(feature_matrices) == 0:
        raise ValueError("empty test set")
    if len(feature_matrices) != len(labels):
        raise ValueError("one label per utterance required")

    trajectories = [predict_frames(model, fm) for fm in feature_matrices]
    filtered = filter_batch(trajectories, kalman_cfg)

    frame_correct = 0
    filtered_correct = 0
    n_frames = 0
    predictions = np.empty(len(labels), dtype=np.intp)
    for i, (raw, smooth) in enumerate(zip(trajectories, filtered)):
        frame_correct += int(np.sum(raw.argmax(axis=1) == labels[i]))
        filtered_correct += int(np.sum(smooth.argmax(axis=1) == labels[i]))
        n_frames += raw.shape[0]
        predictions[i], _ = fuse_utterance(smooth, fusion)

    cm = confusion_matrix(labels, predictions, class_names=model.class_order)
    return PipelineEvaluation(
        report=EvalReport(cm),
        frame_accuracy=frame_correct / n_frames,
        filtered_frame_accuracy=filtered_correct / n_frames,
        n_frames=n_frames,
    )


def synth_noisy_trajectories(n: int, t_steps: int, flip_prob: float = 0.3, seed: int = 0,
                             n_classes: int = 4):
    """Labeled synthetic posterior trajectories for filter/fusion tests.

    Labels cycle round-robin. Each frame draws a flat Dirichlet row and swaps
    its peak onto the true class, except with probability flip_prob the peak
    lands on a random wrong class instead. Returns (trajectories, labels).
    """
    if not 0.0 <= flip_prob < 1.0:
        raise ValueError(f"flip_prob must lie in [0, 1), got {flip_prob}")
    if n < 1 or t_steps < 1:
        raise ValueError("need n >= 1 trajectories of t_steps >= 1 frames")
    rng = np.random.default_rng(seed)
    labels = np.arange(n, dtype=np.intp) % n_classes
    trajectories = []
    rows = np.arange(t_steps)
    for label in labels:
        p = rng.dirichlet(np.ones(n_classes), size=t_steps)
        flips = rng.random(t_steps) < flip_prob
        offsets = rng.integers(1, n_classes, size=t_steps)
        targets = np.where(flips, (label + offsets) % n_classes, label)
        peaks = p.argmax(axis=1)
        peak_vals = p[rows, peaks].copy()
        p[rows, peaks] = p[rows, targets]
        p[rows, targets] = peak_vals
        trajectories.append(p)
    return trajectories, labels
