"""Per-frame acoustic features: 13 MFCCs, their deltas and delta-deltas,
RMS energy, and zero-crossing rate (41 columns per frame), plus the
z-score scaler fitted on training rows only.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.fft import dct

from .dsp import AudioClip, FramingConfig, frame_rms, frame_view, padded_signal
from .errors import FeatureFileError

N_MFCC = 13
FEATURE_COLUMNS = tuple(
    [f"mfcc_{i}" for i in range(N_MFCC)]
    + [f"delta_{i}" for i in range(N_MFCC)]
    + [f"deltadelta_{i}" for i in range(N_MFCC)]
    + ["rmse", "zcr"]
)
N_FEATURES = len(FEATURE_COLUMNS)

FEATURE_FILE_MAGIC = b"KFTSER01"

_SCALER_EPS = 1e-8


def hz_to_mel(f):
    """2595 * log10(1 + f/700); strictly increasing from 0."""
    f = np.asarray(f, dtype=np.float64)
    if np.any(f < 0):
        raise ValueError("frequency must be non-negative")
    return 2595.0 * np.log10(1.0 + f / 700.0)


def mel_to_hz(m):
    m = np.asarray(m, dtype=np.float64)
    return 700.0 * (10.0 ** (m / 2595.0) - 1.0)


@dataclass(frozen=True)
class MelFilterbank:
    """Triangular mel filters with unit peak amplitude, spanning 0 Hz to Nyquist.

    filters has shape (n_filters, n_fft//2 + 1); center_freqs holds the
    Hz position of each triangle's peak for spectral sanity checks.
    """

    n_filters: int
    filters: np.ndarray
    center_freqs: np.ndarray
    n_fft: int
    sample_rate: int


def build_mel_filterbank(
    n_filters: int = 40,
    sample_rate: int = 22050,
    n_fft: int = 2048,
) -> MelFilterbank:
    if n_filters < 1:
        raise ValueError("n_filters must be >= 1")

    edges_hz = mel_to_hz(np.linspace(0.0, hz_to_mel(sample_rate / 2.0), n_filters + 2))
    bin_freqs = np.arange(n_fft // 2 + 1) * (sample_rate / n_fft)

    weights = np.zeros((n_filters, len(bin_freqs)))
    for m in range(n_filters):
        lo, center, hi = edges_hz[m], edges_hz[m + 1], edges_hz[m + 2]
        rising = (bin_freqs - lo) / (center - lo)
        falling = (hi - bin_freqs) / (hi - center)
        weights[m] = np.clip(np.minimum(rising, falling), 0.0, None)

    weights.setflags(write=False)
    return MelFilterbank(
        n_filters=n_filters,
        filters=weights,
        center_freqs=edges_hz[1:-1].copy(),
        n_fft=n_fft,
        sample_rate=sample_rate,
    )


@functools.lru_cache(maxsize=8)
def _hann(n: int) -> np.ndarray:
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
    window.setflags(write=False)
    return window


def mel_energies(frames: np.ndarray, fb: MelFilterbank) -> np.ndarray:
    """Hann-windowed power spectra folded through the filterbank.

    frames is one (n_fft,) frame or a (T, n_fft) block; frames run along
    the last axis and the result has shape (..., n_filters).
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim not in (1, 2) or frames.shape[-1] != fb.n_fft:
        raise ValueError(f"frames of shape {frames.shape} do not end in filterbank n_fft {fb.n_fft}")
    spectrum = np.fft.rfft(frames * _hann(fb.n_fft), axis=-1)
    power = spectrum.real**2 + spectrum.imag**2
    # One matrix-vector product per frame: a single (T, n_bins) @ (n_bins,
    # n_filters) product sums in a different order and changes feature bits.
    return np.matmul(fb.filters, power[..., None])[..., 0]


def compute_mfcc(frames: np.ndarray, fb: MelFilterbank, log_floor: float = 1e-10) -> np.ndarray:
    """First N_MFCC coefficients of the orthonormal DCT-II of the log mel
    energies, per frame along the last axis (see mel_energies).
    """
    logged = np.log(mel_energies(frames, fb) + log_floor)
    return dct(logged, type=2, norm="ortho", axis=-1)[..., :N_MFCC]


def compute_delta(coeffs: np.ndarray, width: int = 9) -> np.ndarray:
    """Regression slope over a window of `width` frames, edges replicated.

    delta_t = sum_n n*(c_{t+n} - c_{t-n}) / (2 * sum_n n^2), n = 1..(width-1)/2.
    """
    coeffs = np.atleast_2d(np.asarray(coeffs, dtype=np.float64))
    if coeffs.shape[0] == 0:
        raise ValueError("need at least one frame")
    if width < 3 or width % 2 == 0:
        raise ValueError(f"width must be odd and >= 3, got {width}")
    half = (width - 1) // 2
    padded = np.pad(coeffs, ((half, half), (0, 0)), mode="edge")
    t = coeffs.shape[0]
    num = np.zeros_like(coeffs)
    for n in range(1, half + 1):
        num += n * (padded[half + n : half + n + t] - padded[half - n : half - n + t])
    return num / (2.0 * sum(n * n for n in range(1, half + 1)))


def compute_rmse(frame: np.ndarray) -> float:
    frame = np.asarray(frame, dtype=np.float64)
    if len(frame) == 0:
        raise ValueError("frame must be non-empty")
    return float(np.sqrt(np.mean(frame * frame)))


def compute_zcr(frame: np.ndarray) -> float:
    """Fraction of adjacent pairs with a strict sign change (0 counts as non-negative)."""
    frame = np.asarray(frame, dtype=np.float64)
    if len(frame) < 2:
        raise ValueError("need at least two samples")
    nonneg = frame >= 0
    return float(np.count_nonzero(nonneg[1:] != nonneg[:-1]) / (len(frame) - 1))


def _frame_zcr(padded: np.ndarray, cfg: FramingConfig) -> np.ndarray:
    """compute_zcr of every frame: sign changes counted once over the padded
    signal, each frame's count the difference of a running total at its ends.
    """
    nonneg = padded >= 0
    running = np.zeros(len(padded), dtype=np.int64)
    np.cumsum(nonneg[1:] != nonneg[:-1], out=running[1:])
    starts = np.arange(0, len(padded) - cfg.frame_length + 1, cfg.hop_length)
    return (running[starts + cfg.frame_length - 1] - running[starts]) / (cfg.frame_length - 1)


@dataclass
class FeatureMatrix:
    """T x 41 per-frame features for one utterance, columns in FEATURE_COLUMNS order."""

    rows: np.ndarray
    utterance_id: str = ""

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.float64)
        if self.rows.ndim != 2 or self.rows.shape[1] != N_FEATURES:
            raise ValueError(f"feature rows must be T x {N_FEATURES}, got {self.rows.shape}")

    @property
    def n_frames(self) -> int:
        return self.rows.shape[0]


def extract_features(
    clip: AudioClip,
    cfg: FramingConfig,
    fb: MelFilterbank,
    delta_width: int = 9,
    log_floor: float = 1e-10,
    utterance_id: str = "",
) -> FeatureMatrix:
    """Assemble the 41-column feature matrix for one (resampled, trimmed) clip.

    ZCR needs two samples per frame, so frame_length must be at least 2.
    """
    if cfg.frame_length < 2:
        raise ValueError(f"frame_length must be >= 2 for ZCR, got {cfg.frame_length}")
    if clip.sample_rate != fb.sample_rate:
        raise ValueError(
            f"clip rate {clip.sample_rate} != filterbank rate {fb.sample_rate}; resample first"
        )
    if cfg.frame_length != fb.n_fft:
        raise ValueError(f"frame_length {cfg.frame_length} != filterbank n_fft {fb.n_fft}")

    padded = padded_signal(clip, cfg)
    mfcc = compute_mfcc(frame_view(padded, cfg), fb, log_floor=log_floor)
    delta = compute_delta(mfcc, delta_width)
    deltadelta = compute_delta(delta, delta_width)
    rmse = frame_rms(padded, cfg)
    zcr = _frame_zcr(padded, cfg)

    rows = np.hstack([mfcc, delta, deltadelta, rmse[:, None], zcr[:, None]])
    return FeatureMatrix(rows=rows, utterance_id=utterance_id)


@dataclass(frozen=True)
class ScalerStats:
    """Per-column mean and population std of the training rows."""

    mean: np.ndarray
    std: np.ndarray


def fit_scaler(rows: np.ndarray) -> ScalerStats:
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] < 2:
        raise ValueError("need at least two rows to fit a scaler")
    return ScalerStats(mean=rows.mean(axis=0), std=rows.std(axis=0))


def apply_scaler(rows: np.ndarray, stats: ScalerStats) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.float64)
    return (rows - stats.mean) / np.maximum(stats.std, _SCALER_EPS)


def save_features(fm: FeatureMatrix, path: str | Path) -> None:
    """Compact binary form: magic, u32 T, u32 n_cols, row-major f64 LE."""
    t, c = fm.rows.shape
    with open(path, "wb") as fh:
        fh.write(FEATURE_FILE_MAGIC)
        fh.write(struct.pack("<II", t, c))
        fh.write(fm.rows.astype("<f8").tobytes())


def load_features(path: str | Path) -> FeatureMatrix:
    """Read a file written by save_features; the utterance id is the file stem."""
    raw = Path(path).read_bytes()
    if raw[: len(FEATURE_FILE_MAGIC)] != FEATURE_FILE_MAGIC:
        raise FeatureFileError(f"{path}: bad feature-file magic")
    if len(raw) < len(FEATURE_FILE_MAGIC) + 8:
        raise FeatureFileError(f"{path}: truncated feature-file header")
    t, c = struct.unpack_from("<II", raw, len(FEATURE_FILE_MAGIC))
    if c != N_FEATURES:
        raise FeatureFileError(f"{path}: {c} columns per row, expected {N_FEATURES}")
    body = raw[len(FEATURE_FILE_MAGIC) + 8 :]
    if len(body) != t * c * 8:
        raise FeatureFileError(f"{path}: expected {t * c * 8} payload bytes, found {len(body)}")
    rows = np.frombuffer(body, dtype="<f8").reshape(t, c)
    return FeatureMatrix(rows=rows.copy(), utterance_id=Path(path).stem)

