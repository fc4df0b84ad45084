"""Flat pipeline configuration: one JSON document, one dataclass.

Defaults are the pipeline-wide conventions: 22,050 Hz audio, 20 dB trim
threshold, 2048/512 framing, 40 mel filters, 13 cepstral coefficients,
delta regression width 9, canonical Adam hyperparameters, and a strongly
smoothing q/r ratio of 0.01.
"""

from __future__ import annotations

import dataclasses
import json
import re
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .evaluation import FUSION_RULES
from .features import N_MFCC

# JSON value types accepted per annotated field type; bools are never numbers here
_ACCEPTED = {"int": int, "float": (int, float), "bool": bool, "str": str}


@dataclass(frozen=True)
class PipelineConfig:
    sample_rate: int = 22050
    trim_threshold_db: float = 20.0
    frame_length: int = 2048
    hop_length: int = 512
    n_mels: int = 40
    n_mfcc: int = 13
    delta_width: int = 9
    log_floor: float = 1e-10
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    batch_size: int = 64
    epochs: int = 100
    shuffle: bool = True
    kalman_q: float = 1e-3
    kalman_r: float = 0.1
    renormalize: bool = True
    fusion: str = "mean"
    seed: int = 0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if (not isinstance(value, _ACCEPTED[f.type])
                    or (isinstance(value, bool) and f.type != "bool")):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        if self.n_mfcc != N_MFCC:
            raise ConfigError(
                f"n_mfcc is fixed at {N_MFCC} (the 41-column feature layout), got {self.n_mfcc}"
            )
        if self.fusion not in FUSION_RULES:
            raise ConfigError(f"fusion must be one of {FUSION_RULES}, got {self.fusion!r}")
        from . import pipeline  # imports this module, so not at the top

        try:
            pipeline.framing_config(self)
            pipeline.train_config(self)
        except ValueError as exc:
            raise ConfigError(f"invalid config: {exc}") from None
        try:
            pipeline.kalman_config(self)
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
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a single JSON object")
        return cls.from_dict(raw)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def save(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")

    def with_overrides(self, **overrides) -> "PipelineConfig":
        """Apply non-None overrides (CLI flags beat config-file values)."""
        kept = {k: v for k, v in overrides.items() if v is not None}
        return dataclasses.replace(self, **kept) if kept else self
