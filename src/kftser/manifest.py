"""Dataset ingestion: RAVDESS-style filename parsing, manifests, splits,
and a synthetic four-class tone dataset for desk-scale runs.

Class indices are alphabetical and global to the whole pipeline:
angry=0, calm=1, happy=2, sad=3.
"""

from __future__ import annotations

import csv
import enum
import io
import json
import logging
import math
import os
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import dsp
from .errors import EmptyDatasetError, FilenameParseError, KftserError

log = logging.getLogger("kftser.manifest")


def write_bytes(path: str | Path, data: bytes) -> None:
    """Replace path with data: the one function in kftser that writes a file.

    The bytes go to .<name>.<pid>.tmp beside path, which os.replace then
    renames over it, so a failed write leaves the old file and no temporary
    one, and its OSError names path, not the temporary file. A plain open,
    not mkstemp, so the file gets the umask's permissions.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, str(path)) from exc
        raise


def write_json(path: str | Path, obj) -> None:
    """Write obj as two-space-indented UTF-8 JSON with a trailing newline."""
    write_bytes(path, (json.dumps(obj, indent=2) + "\n").encode("utf-8"))


def write_csv(path: str | Path, header, rows) -> None:
    """Write the header row, then each of rows, as UTF-8 with the csv module's defaults."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    write_bytes(path, text.getvalue().encode("utf-8"))


class Emotion(enum.IntEnum):
    ANGRY = 0
    CALM = 1
    HAPPY = 2
    SAD = 3

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def from_label(cls, label: str) -> "Emotion":
        return cls[label.upper()]


CLASS_NAMES = tuple(e.label for e in Emotion)
N_CLASSES = len(CLASS_NAMES)

# Dash-separated two-digit codes in the filename, in order.
_FIELD_NAMES = ("modality", "channel", "emotion", "intensity", "statement", "repetition", "actor")
_EMOTION_CODES = {"02": Emotion.CALM, "03": Emotion.HAPPY, "04": Emotion.SAD, "05": Emotion.ANGRY}
_INTENSITY_CODES = {"01": "normal", "02": "strong"}


@dataclass(frozen=True)
class UtteranceRecord:
    file_path: str
    emotion: Emotion
    actor_id: int
    intensity: str
    statement: int
    repetition: int


@dataclass
class Manifest:
    records: list[UtteranceRecord]
    split_seed: int = 0
    train_indices: list[int] = field(default_factory=list)
    test_indices: list[int] = field(default_factory=list)

    def class_counts(self) -> np.ndarray:
        counts = np.zeros(N_CLASSES, dtype=int)
        for rec in self.records:
            counts[rec.emotion] += 1
        return counts

    def to_dict(self) -> dict:
        return {
            "records": [
                {
                    "file_path": r.file_path,
                    "emotion": r.emotion.label,
                    "actor_id": r.actor_id,
                    "intensity": r.intensity,
                    "statement": r.statement,
                    "repetition": r.repetition,
                }
                for r in self.records
            ],
            "split_seed": self.split_seed,
            "train_indices": list(self.train_indices),
            "test_indices": list(self.test_indices),
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "Manifest":
        """to_dict's inverse; load checks the split indices."""
        records = [
            UtteranceRecord(
                file_path=_field(r, "file_path", str),
                emotion=Emotion.from_label(r["emotion"]),
                actor_id=_field(r, "actor_id", int),
                intensity=_field(r, "intensity", str),
                statement=_field(r, "statement", int),
                repetition=_field(r, "repetition", int),
            )
            for r in raw["records"]
        ]
        return cls(
            records=records,
            split_seed=_field(raw, "split_seed", int),
            train_indices=list(raw["train_indices"]),
            test_indices=list(raw["test_indices"]),
        )

    def save(self, path: str | Path) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def load(cls, path: str | Path) -> "Manifest":
        """Read a manifest written by save; a malformed one raises KftserError naming path."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                manifest = cls.from_dict(json.load(fh))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise KftserError(f"{path}: malformed manifest ({type(exc).__name__}: {exc})") from exc
        n = len(manifest.records)
        indices = manifest.train_indices + manifest.test_indices
        # type, not isinstance: true is a bool, and neither it nor 1.7 is an index
        bad, problem = [i for i in indices if type(i) is not int], "are not integers"
        if not bad:
            bad, problem = [i for i in indices if not 0 <= i < n], f"outside the {n} records"
        if not bad:
            # a record in both splits would train on a test utterance
            bad = sorted(i for i, count in Counter(indices).items() if count > 1)
            problem = "listed more than once across train_indices and test_indices"
        if bad:
            raise KftserError(f"{path}: malformed manifest (split indices {bad} {problem})")
        return manifest


def _field(record: dict, key: str, kind: type):
    """record[key]; TypeError unless its type is exactly kind (str or int).

    type, not isinstance, as for the split indices: true is a bool.
    """
    value = record[key]
    if type(value) is not kind:
        raise TypeError(f"{key} must be {'a string' if kind is str else 'an integer'}, "
                        f"got {value!r}")
    return value


def parse_ravdess_filename(name: str) -> UtteranceRecord | None:
    """Parse one dash-coded filename.

    Returns None (a skip, not an error) when the emotion code falls
    outside the four-class subset; raises FilenameParseError when the
    name is malformed, naming the offending field.
    """
    stem = name.rsplit("/", 1)[-1]
    if "." in stem:
        stem = stem.split(".", 1)[0]
    parts = stem.split("-")
    if len(parts) != len(_FIELD_NAMES):
        raise FilenameParseError(
            f"{name!r}: expected {len(_FIELD_NAMES)} dash-separated codes, got {len(parts)}"
        )
    for fname, part in zip(_FIELD_NAMES, parts):
        if not part.isdigit():
            raise FilenameParseError(f"{name!r}: field {fname!r} is not numeric: {part!r}")

    emotion = _EMOTION_CODES.get(parts[2])
    if emotion is None:
        return None

    intensity = _INTENSITY_CODES.get(parts[3])
    if intensity is None:
        raise FilenameParseError(f"{name!r}: field 'intensity' has invalid code {parts[3]!r}")
    statement = int(parts[4])
    if statement not in (1, 2):
        raise FilenameParseError(f"{name!r}: field 'statement' has invalid code {parts[4]!r}")
    repetition = int(parts[5])
    if repetition not in (1, 2):
        raise FilenameParseError(f"{name!r}: field 'repetition' has invalid code {parts[5]!r}")
    actor = int(parts[6])
    if not 1 <= actor <= 24:
        raise FilenameParseError(f"{name!r}: field 'actor' out of range 1..24: {parts[6]!r}")

    return UtteranceRecord(
        file_path=name,
        emotion=emotion,
        actor_id=actor,
        intensity=intensity,
        statement=statement,
        repetition=repetition,
    )


def build_manifest(root: str | Path) -> Manifest:
    """Scan a directory tree for four-class utterances, sorted by path.

    Filenames that do not follow the dash-coded convention are skipped
    with a warning; a scan with zero matches raises EmptyDatasetError.
    """
    root = Path(root)
    if not root.is_dir():
        raise NotADirectoryError(f"{root} is not a readable directory")
    records = []
    for path in sorted(p for p in root.rglob("*") if p.is_file() and p.suffix.lower() == ".wav"):
        try:
            parsed = parse_ravdess_filename(path.name)
        except FilenameParseError as exc:
            log.warning("skipping %s: %s", path, exc)
            continue
        if parsed is None:
            continue
        records.append(replace(parsed, file_path=str(path)))
    if not records:
        raise EmptyDatasetError(f"no four-class utterances found under {root}")
    records.sort(key=lambda r: r.file_path)
    return Manifest(records=records)


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def check_split(test_fraction: float, seed: int) -> None:
    """Raise ValueError, naming the argument, unless test_fraction lies in
    (0, 1) and seed >= 0."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def split_manifest(manifest: Manifest, test_fraction: float, seed: int) -> Manifest:
    """Deterministic stratified split.

    Per-class test counts are round-half-up of fraction * class_count;
    if their sum misses the global round-half-up target, classes are
    adjusted by one each in descending-size order until it is hit. A class
    with no records raises EmptyDatasetError.
    """
    check_split(test_fraction, seed)
    counts = manifest.class_counts()
    if (counts == 0).any():
        missing = [CLASS_NAMES[i] for i in np.flatnonzero(counts == 0)]
        raise EmptyDatasetError(f"cannot split: no records for class(es) {', '.join(missing)}")

    n = len(manifest.records)
    target = _round_half_up(test_fraction * n)
    take = {e: _round_half_up(test_fraction * counts[e]) for e in Emotion}

    # Nudge counts toward the global target, biggest classes first, one each.
    order = sorted(Emotion, key=lambda e: (-counts[e], int(e)))
    diff = target - sum(take.values())
    step = 1 if diff > 0 else -1
    i = 0
    while diff != 0 and i < 10 * len(order):
        e = order[i % len(order)]
        if 0 <= take[e] + step <= counts[e]:
            take[e] += step
            diff -= step
        i += 1

    rng = np.random.default_rng(seed)
    train, test = [], []
    for e in Emotion:
        class_idx = [i for i, r in enumerate(manifest.records) if r.emotion == e]
        perm = rng.permutation(len(class_idx))
        chosen = {class_idx[j] for j in perm[: take[e]]}
        test.extend(sorted(chosen))
        train.extend(sorted(set(class_idx) - chosen))
    return Manifest(
        records=manifest.records,
        split_seed=seed,
        train_indices=sorted(train),
        test_indices=sorted(test),
    )


# Synthetic class signatures: fundamental band, peak amplitude, noise level,
# and envelope shape. High-arousal classes are loud, low-arousal quiet; the
# noisy/clean contrast separates the pairs within each arousal level.
@dataclass(frozen=True)
class _ToneProfile:
    f0: float
    amplitude: float
    noise: float
    envelope: str


_PROFILES = {
    Emotion.ANGRY: _ToneProfile(300.0, 0.8, 0.15, "attack"),
    Emotion.CALM: _ToneProfile(220.0, 0.3, 0.005, "swell"),
    Emotion.HAPPY: _ToneProfile(600.0, 0.8, 0.03, "tremolo"),
    Emotion.SAD: _ToneProfile(150.0, 0.3, 0.03, "decay"),
}

_EMOTION_TO_CODE = {e: code for code, e in _EMOTION_CODES.items()}


def _envelope(kind: str, t: np.ndarray) -> np.ndarray:
    t_end = t[-1] if len(t) > 1 else 1.0
    if kind == "attack":
        return 0.4 + 0.6 * np.clip(t / 0.02, 0.0, 1.0)
    if kind == "tremolo":
        return 0.8 + 0.2 * np.sin(2.0 * np.pi * 6.0 * t)
    if kind == "decay":
        return 1.0 - 0.5 * (t / t_end)
    if kind == "swell":
        return 0.6 + 0.4 * np.sin(np.pi * t / t_end)
    raise ValueError(f"unknown envelope kind {kind!r}")


def _synth_samples(rng: np.random.Generator, profile: _ToneProfile,
                   sample_rate: int, duration: float) -> np.ndarray:
    n = int(round(sample_rate * duration))
    t = np.arange(n) / sample_rate
    f0 = profile.f0 * (1.0 + rng.uniform(-0.02, 0.02))
    amp = profile.amplitude * (1.0 + rng.uniform(-0.05, 0.05))
    phase = rng.uniform(0.0, 2.0 * np.pi)
    tone = (
        np.sin(2.0 * np.pi * f0 * t + phase)
        + 0.5 * np.sin(2.0 * np.pi * 2.0 * f0 * t + 1.7 * phase)
        + 0.25 * np.sin(2.0 * np.pi * 3.0 * f0 * t + 0.3 * phase)
    )
    tone /= np.max(np.abs(tone))
    out = amp * _envelope(profile.envelope, t) * tone
    out = out + rng.normal(0.0, profile.noise, n)
    return np.clip(out, -0.999, 0.999)


def _synthetic_name(emotion: Emotion, i: int) -> str:
    intensity = (i // 96) % 2 + 1
    statement = (i // 48) % 2 + 1
    repetition = (i // 24) % 2 + 1
    actor = i % 24 + 1
    return (
        f"03-01-{_EMOTION_TO_CODE[emotion]}-{intensity:02d}-{statement:02d}"
        f"-{repetition:02d}-{actor:02d}.wav"
    )


def generate_synthetic_dataset(
    out_dir: str | Path,
    per_class: int = 10,
    sample_rate: int = 22050,
    duration: float = 1.0,
    seed: int = 0,
) -> Manifest:
    """Write a labeled four-class tone dataset and return its manifest.

    Each class gets a distinct fundamental band, amplitude level, noise
    level, and envelope, so the classes are separable by the standard
    feature set. Bit-identical output for a fixed seed.
    """
    if per_class < 1:
        raise ValueError(f"per_class must be >= 1, got {per_class}")
    if per_class > 192:
        raise ValueError("per_class is capped at 192 (unique code combinations per class)")
    if not (math.isfinite(duration) and duration >= 0.5):
        raise ValueError(f"duration must be finite and >= 0.5 s, got {duration}")
    if sample_rate < 1:
        raise ValueError(f"sample_rate must be >= 1 Hz, got {sample_rate}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    rng = np.random.default_rng(seed)
    records = []
    for emotion in Emotion:
        for i in range(per_class):
            name = _synthetic_name(emotion, i)
            path = out_dir / name
            samples = _synth_samples(rng, _PROFILES[emotion], sample_rate, duration)
            write_bytes(path, dsp.wav_bytes(samples, sample_rate))
            parsed = parse_ravdess_filename(name)
            assert parsed is not None
            records.append(replace(parsed, file_path=str(path)))
    records.sort(key=lambda r: r.file_path)
    return Manifest(records=records, split_seed=seed)
