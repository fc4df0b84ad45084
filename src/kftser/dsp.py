"""Audio front end: WAV decode, resampling, silence trimming, framing.

Every function here is pure; clips are never mutated in place.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DecodeError


@dataclass(frozen=True)
class AudioClip:
    """Mono waveform in [-1, 1] plus its sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        if len(self.samples) == 0:
            raise ValueError("clip must contain at least one sample")

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


@dataclass(frozen=True)
class FramingConfig:
    """Overlapped analysis frames: frame t covers [t*hop, t*hop + frame_length)."""

    frame_length: int = 2048
    hop_length: int = 512

    def __post_init__(self):
        if not (0 < self.hop_length <= self.frame_length):
            raise ValueError(
                f"need 0 < hop_length <= frame_length, got hop={self.hop_length}, "
                f"frame={self.frame_length}"
            )


def decode_wav(path: str | Path) -> AudioClip:
    """Decode a PCM WAV file to a mono AudioClip.

    Supports 16-bit integer (scaled by 1/32768) and 32-bit IEEE float
    payloads; stereo is downmixed by averaging the channels. Anything
    else raises DecodeError with the byte offset of the problem, and a
    NaN or infinite float sample raises it with the sample's index.
    """
    data = Path(path).read_bytes()
    if len(data) < 12 or data[0:4] != b"RIFF":
        raise DecodeError(f"{path}: not a RIFF container (byte 0)")
    if data[8:12] != b"WAVE":
        raise DecodeError(f"{path}: RIFF form is not WAVE (byte 8)")

    fmt = fmt_pos = None
    raw = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos : pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        payload_start = pos + 8
        if payload_start + size > len(data):
            raise DecodeError(
                f"{path}: chunk {chunk_id!r} declares {size} bytes but file ends "
                f"at byte {len(data)} (chunk starts at byte {pos})"
            )
        if chunk_id == b"fmt ":
            if size < 16:
                raise DecodeError(f"{path}: fmt chunk too short (byte {pos})")
            fmt, fmt_pos = struct.unpack_from("<HHIIHH", data, payload_start), pos
        elif chunk_id == b"data":
            raw = data[payload_start : payload_start + size]
        pos = payload_start + size + (size & 1)  # chunks are word-aligned

    if fmt is None:
        raise DecodeError(f"{path}: no fmt chunk found")
    if raw is None:
        raise DecodeError(f"{path}: no data chunk found")

    audio_format, n_channels, sample_rate, _, _, bits = fmt
    if n_channels < 1:
        raise DecodeError(f"{path}: fmt chunk declares {n_channels} channels (byte {fmt_pos})")
    if sample_rate < 1:
        raise DecodeError(f"{path}: fmt chunk declares sample rate {sample_rate} (byte {fmt_pos})")
    if (audio_format, bits) == (1, 16):
        dtype, scale = np.dtype("<i2"), 1.0 / 32768.0
    elif (audio_format, bits) == (3, 32):
        dtype, scale = np.dtype("<f4"), 1.0
    else:
        raise DecodeError(
            f"{path}: unsupported codec (format tag {audio_format}, {bits}-bit); "
            "only 16-bit PCM and 32-bit float are handled"
        )

    block = dtype.itemsize * n_channels
    if len(raw) % block:
        raise DecodeError(
            f"{path}: data chunk holds {len(raw)} bytes, not a multiple of the "
            f"{block}-byte frame size (last whole frame ends at byte "
            f"{len(raw) - len(raw) % block} of the chunk)"
        )
    if not raw:
        raise DecodeError(f"{path}: data chunk is empty")

    values = np.frombuffer(raw, dtype=dtype)
    if dtype.kind == "f" and not np.isfinite(values).all():
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise DecodeError(
            f"{path}: non-finite sample {values[bad]} at sample index {bad // n_channels}"
            + (f", channel {bad % n_channels}" if n_channels > 1 else "")
        )
    if n_channels == 1:
        mono = np.multiply(values, scale, dtype=np.float64)
    else:
        mono = values.astype(np.float64).reshape(-1, n_channels).mean(axis=1) * scale
    return AudioClip(mono, sample_rate)


def wav_bytes(samples: np.ndarray, sample_rate: int) -> bytes:
    """Mono float samples as a 16-bit PCM WAV file: the 44-byte header, then the data."""
    ints = np.clip(np.round(np.asarray(samples) * 32767.0), -32768, 32767)
    data = ints.astype("<i2").tobytes()
    return struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(data), b"WAVE", b"fmt ", 16,
                       1, 1, sample_rate, 2 * sample_rate, 2, 16, b"data", len(data)) + data


def resample(clip: AudioClip, target_rate: int) -> AudioClip:
    """Rational-ratio polyphase resampling with a Kaiser-windowed sinc.

    The kernel spans 64 periods of the lower of the two rates (Kaiser beta
    8.6), so each output sample reads 64 * max(1, down / up) input samples
    for the reduced ratio up/down: 64 when upsampling, about 140 for
    48 kHz -> 22,050 Hz. Identity when the rates already match. Output
    duration stays within one sample period of the input.
    """
    if target_rate <= 0:
        raise ValueError(f"target_rate must be positive, got {target_rate}")
    if clip.sample_rate == target_rate:
        return clip
    # imported here so that only a clip that needs resampling pays for scipy.signal
    from scipy.signal import resample_poly

    up, down = _reduced_ratio(clip.sample_rate, target_rate)
    out = resample_poly(clip.samples, up, down, window=_resample_kernel(up, down)[0])
    return AudioClip(out, target_rate)


# The kernel has 64 taps per unit of max(up, down): this bound keeps it at
# most 4.2 M taps (34 MB); rates from 8 to 384 kHz need at most 2,560.
_MAX_RATIO_TERM = 65_536


def _reduced_ratio(rate: int, target_rate: int) -> tuple[int, int]:
    """target_rate / rate in lowest terms, as (up, down); ValueError, before
    any kernel is built, when either term exceeds _MAX_RATIO_TERM."""
    g = math.gcd(rate, target_rate)
    up, down = target_rate // g, rate // g
    if max(up, down) > _MAX_RATIO_TERM:
        raise ValueError(f"cannot resample {rate} Hz to {target_rate} Hz: the ratio "
                         f"{up}/{down} in lowest terms has a term above {_MAX_RATIO_TERM:,}")
    return up, down


@functools.lru_cache(maxsize=8)
def _resample_kernel(up: int, down: int) -> tuple[np.ndarray, float]:
    """The anti-aliasing FIR for one up/down pair, built once and shared
    read-only, and its gain: the largest L1 norm over the up phases of the
    kernel as resample applies it (scaled by up). No output sample exceeds the
    gain times the largest |input| that sample reads."""
    from scipy.signal import firwin

    half = (64 * max(up, down)) // 2
    kernel = firwin(2 * half + 1, 1.0 / max(up, down), window=("kaiser", 8.6))
    kernel.setflags(write=False)
    taps = np.abs(kernel) * up
    return kernel, max(float(taps[p::up].sum()) for p in range(up))


def resample_trimmed(
    clip: AudioClip,
    target_rate: int,
    threshold_db: float = 20.0,
    cfg: FramingConfig | None = None,
) -> AudioClip:
    """Exactly trim_silence(resample(clip, target_rate), threshold_db, cfg), byte
    for byte, resampling only the output frames the trim could keep.

    Each output frame's RMS is at most B = the kernel's gain times the largest
    |input| its outputs read. The frame with the largest B is resampled first;
    its RMS R0 is at most the loudest frame's, so a frame with B below
    R0 * 10**(-threshold_db / 20) is neither kept nor the loudest. Only the
    frames from the first to the last that reach that value are resampled,
    and the unchanged trim_silence runs on them.
    """
    _check_threshold(threshold_db)
    if target_rate <= 0 or clip.sample_rate == target_rate:
        return trim_silence(resample(clip, target_rate), threshold_db, cfg)
    up, down = _reduced_ratio(clip.sample_rate, target_rate)
    cfg = cfg or FramingConfig()
    kernel, gain = _resample_kernel(up, down)
    half = len(kernel) // 2
    n_in = len(clip.samples)
    n_out = -(-n_in * up // down)  # resample's output length, ceil(n_in * up / down)
    starts = np.arange(0, n_out, cfg.hop_length)  # output span of each trim frame
    ends = np.minimum(starts + cfg.frame_length, n_out)
    # output m reads inputs n with |m * down - n * up| <= half
    lo = np.maximum(0, -((half - starts * down) // up))
    hi = np.minimum(n_in, ((ends - 1) * down + half) // up + 1)
    # reduceat over (lo, hi) pairs: entry 2t reduces inputs [lo_t, hi_t). Its indices
    # must be < n_in, so frames that read the last input take it separately. The
    # largest |x| is the larger of max(x) and -min(x), with no |x| copy of the clip.
    last = hi == n_in
    pairs = np.column_stack([lo, hi - last]).ravel()
    peaks = np.maximum(np.maximum.reduceat(clip.samples, pairs)[::2],
                       -np.minimum.reduceat(clip.samples, pairs)[::2])
    peaks[last] = np.maximum(peaks[last], abs(clip.samples[-1]))
    bound = peaks * (gain * (1.0 + 1e-9))  # slack for rounding
    loudest = int(bound.argmax())
    if not np.isfinite(bound[loudest]):
        return trim_silence(resample(clip, target_rate), threshold_db, cfg)

    def frames(first: int, final: int) -> AudioClip:
        """Output frames first..final of resample(clip, target_rate), byte for
        byte. The input slice starts on a multiple of down, so its output grid
        is the clip's shifted by a * up samples, and it holds every input those
        frames read."""
        a = lo[first] // down
        part = resample(AudioClip(clip.samples[a * down : hi[final]], clip.sample_rate),
                        target_rate)
        return AudioClip(part.samples[starts[first] - a * up : ends[final] - a * up], target_rate)

    r0 = frame_rms(padded_signal(frames(loudest, loudest), cfg), cfg)[0]
    reach = np.flatnonzero(bound >= r0 * 10.0 ** (-threshold_db / 20.0))
    return trim_silence(frames(reach[0], reach[-1]), threshold_db, cfg)


def trim_silence(
    clip: AudioClip,
    threshold_db: float = 20.0,
    cfg: FramingConfig | None = None,
) -> AudioClip:
    """Drop leading/trailing frames more than threshold_db below the loudest frame.

    Interior samples are untouched and the result is never empty: if no
    frame clears the threshold the loudest frame's span is kept. Raises
    ValueError unless threshold_db is finite and > 0.
    """
    _check_threshold(threshold_db)
    cfg = cfg or FramingConfig()
    rms = frame_rms(padded_signal(clip, cfg), cfg)
    keep = rms >= rms.max() * 10.0 ** (-threshold_db / 20.0)
    if keep.any():
        kept = np.flatnonzero(keep)
        first, last = int(kept[0]), int(kept[-1])
    else:
        first = last = int(rms.argmax())
    start = first * cfg.hop_length
    end = min(len(clip.samples), last * cfg.hop_length + cfg.frame_length)
    return AudioClip(clip.samples[start:end], clip.sample_rate)


def _check_threshold(threshold_db: float) -> None:
    # NaN compares false both ways, so "<= 0" alone would let it through
    if not (math.isfinite(threshold_db) and threshold_db > 0):
        raise ValueError(f"threshold_db must be finite and > 0, got {threshold_db}")


def padded_signal(clip: AudioClip, cfg: FramingConfig) -> np.ndarray:
    """The clip as float64, zero-padded at the tail to (T - 1) * hop + frame_length
    samples, T = ceil(len / hop): exactly what T frames cover.
    """
    samples = np.asarray(clip.samples, dtype=np.float64)
    n = len(samples)
    n_frames = -(-n // cfg.hop_length)  # ceil(n / hop)
    padded = np.zeros((n_frames - 1) * cfg.hop_length + cfg.frame_length)
    padded[:n] = samples
    return padded


def frame_view(signal: np.ndarray, cfg: FramingConfig) -> np.ndarray:
    """Read-only (T, frame_length) strided view of a padded 1-D signal; row t
    starts at sample t * hop and T = (len - frame_length) // hop + 1. Nothing
    is copied.
    """
    n_frames = (len(signal) - cfg.frame_length) // cfg.hop_length + 1
    step = signal.strides[0]
    return np.lib.stride_tricks.as_strided(
        signal, (n_frames, cfg.frame_length), (cfg.hop_length * step, step), writeable=False)


def frame_rms(padded: np.ndarray, cfg: FramingConfig) -> np.ndarray:
    """Root mean square of every frame, from one 1-D pass of squares."""
    return np.sqrt(np.mean(frame_view(padded * padded, cfg), axis=1))
