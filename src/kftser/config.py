"""Flat pipeline configuration: one JSON document, one dataclass.

Defaults are the pipeline-wide conventions: 22,050 Hz audio, 20 dB trim
threshold, 2048/512 framing, 40 mel filters, delta regression width 9,
canonical Adam hyperparameters, and a strongly smoothing q/r ratio of 0.01.
framing_config, train_config and kalman_config map it onto the per-module
configs.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

from .dsp import FramingConfig
from .errors import ConfigError
from .evaluation import FUSION_RULES
from .features import N_MFCC
from .kalman import KalmanConfig
from .manifest import CLASS_NAMES, write_json
from .mlp import TrainConfig

# JSON value types accepted per annotated field type; bools are never numbers here
_ACCEPTED = {"int": int, "float": (int, float), "str": str}


@dataclass(frozen=True)
class PipelineConfig:
    """Every setting a caller can vary, checked when the config is built.

    The 13 cepstral coefficients are fixed by features.N_MFCC (the 41-column
    layout), so n_mels must be at least 13; ZCR needs frame_length >= 2.
    Training always shuffles, seeded by seed.
    """

    sample_rate: int = 22050
    trim_threshold_db: float = 20.0
    frame_length: int = 2048
    hop_length: int = 512
    n_mels: int = 40
    delta_width: int = 9
    log_floor: float = 1e-10
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    batch_size: int = 64
    epochs: int = 100
    kalman_q: float = 1e-3
    kalman_r: float = 0.1
    fusion: str = "mean"
    seed: int = 0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, _ACCEPTED[f.type]) or isinstance(value, bool):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
            if f.type == "float" and isinstance(value, int) and abs(value) > sys.float_info.max:
                # math.isfinite would raise OverflowError on this int
                raise ConfigError(f"{f.name} must be finite, got an integer beyond float range")
        if self.fusion not in FUSION_RULES:
            raise ConfigError(f"fusion must be one of {FUSION_RULES}, got {self.fusion!r}")
        for name, ok, need in (
            ("sample_rate", self.sample_rate > 0, "> 0"),
            ("frame_length", self.frame_length >= 2, ">= 2"),
            ("n_mels", self.n_mels >= N_MFCC, f">= {N_MFCC}"),
            ("delta_width", self.delta_width >= 3 and self.delta_width % 2 == 1, "odd and >= 3"),
            ("trim_threshold_db", math.isfinite(self.trim_threshold_db)
             and self.trim_threshold_db > 0, "finite and > 0"),
            ("log_floor", math.isfinite(self.log_floor) and self.log_floor > 0, "finite and > 0"),
        ):
            if not ok:
                raise ConfigError(f"{name} must be {need}, got {getattr(self, name)!r}")
        try:
            framing_config(self)
            train_config(self)
        except ValueError as exc:
            raise ConfigError(f"invalid config: {exc}") from None
        try:
            kalman_config(self)
        except ValueError as exc:
            # KalmanConfig calls its fields q and r; name the keys the user wrote
            message = re.sub(r"\b([qr])\b", r"kalman_\1", str(exc))
            raise ConfigError(f"invalid config: {message}") from None

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        return cls(**raw)

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        """Load a JSON config; every ConfigError, an undecodable document's
        included, names the path."""
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, int digit limit
                raise ConfigError(f"{path}: cannot read as UTF-8 JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: config file must hold a single JSON object")
        try:
            return cls.from_dict(raw)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_dict())

    def with_overrides(self, **overrides) -> "PipelineConfig":
        """Apply non-None overrides (CLI flags beat config-file values)."""
        kept = {k: v for k, v in overrides.items() if v is not None}
        return dataclasses.replace(self, **kept) if kept else self


def framing_config(cfg: PipelineConfig) -> FramingConfig:
    return FramingConfig(frame_length=cfg.frame_length, hop_length=cfg.hop_length)


def train_config(cfg: PipelineConfig) -> TrainConfig:
    return TrainConfig(learning_rate=cfg.learning_rate, beta1=cfg.beta1, beta2=cfg.beta2,
                       epsilon=cfg.epsilon, batch_size=cfg.batch_size, epochs=cfg.epochs,
                       seed=cfg.seed)


def kalman_config(cfg: PipelineConfig) -> KalmanConfig:
    return KalmanConfig(dim=len(CLASS_NAMES), q=cfg.kalman_q, r=cfg.kalman_r)
