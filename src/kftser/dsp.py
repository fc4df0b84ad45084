"""Audio front end: WAV decode, resampling, silence trimming, framing.

Every function here is pure; clips are never mutated in place.
"""

from __future__ import annotations

import functools
import math
import struct
import wave
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


def write_wav(path: str | Path, samples: np.ndarray, sample_rate: int) -> None:
    """Write mono float samples as 16-bit PCM."""
    ints = np.clip(np.round(np.asarray(samples) * 32767.0), -32768, 32767)
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(sample_rate)
        fh.writeframes(ints.astype("<i2").tobytes())


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
    # scipy.signal is most of the cost of importing kftser, and only resampling uses it
    from scipy.signal import resample_poly

    g = math.gcd(clip.sample_rate, target_rate)
    up, down = target_rate // g, clip.sample_rate // g
    out = resample_poly(clip.samples, up, down, window=_resample_kernel(up, down))
    return AudioClip(out, target_rate)


@functools.lru_cache(maxsize=8)
def _resample_kernel(up: int, down: int) -> np.ndarray:
    """The anti-aliasing FIR for one up/down pair, built once and shared read-only."""
    from scipy.signal import firwin

    half = (64 * max(up, down)) // 2
    kernel = firwin(2 * half + 1, 1.0 / max(up, down), window=("kaiser", 8.6))
    kernel.setflags(write=False)
    return kernel


@functools.lru_cache(maxsize=8)
def _phase_gain(up: int, down: int) -> float:
    """Largest L1 norm over the up phases of the kernel resample applies (scaled by
    up): no output sample exceeds it times the largest |input| that sample reads."""
    taps = np.abs(_resample_kernel(up, down)) * up
    return max(float(taps[p::up].sum()) for p in range(up))


def resample_trimmed(
    clip: AudioClip,
    target_rate: int,
    threshold_db: float = 20.0,
    cfg: FramingConfig | None = None,
) -> AudioClip:
    """Exactly trim_silence(resample(clip, target_rate), threshold_db, cfg), byte
    for byte, resampling only the output frames the trim could keep.

    Each output frame's RMS is at most B = _phase_gain times the largest
    |input| its outputs read. The frame with the largest B is resampled first;
    its RMS R0 is at most the loudest frame's, so a frame with B below
    R0 * 10**(-threshold_db / 20) is neither kept nor the loudest. Only the
    frames from the first to the last that reach that value are resampled,
    and the unchanged trim_silence runs on them.
    """
    if threshold_db <= 0 or target_rate <= 0 or clip.sample_rate == target_rate:
        return trim_silence(resample(clip, target_rate), threshold_db, cfg)
    cfg = cfg or FramingConfig()
    g = math.gcd(clip.sample_rate, target_rate)
    up, down = target_rate // g, clip.sample_rate // g
    half = len(_resample_kernel(up, down)) // 2
    n_in = len(clip.samples)
    n_out = -(-n_in * up // down)  # resample's output length, ceil(n_in * up / down)
    starts = np.arange(0, n_out, cfg.hop_length)  # output span of each trim frame
    ends = np.minimum(starts + cfg.frame_length, n_out)
    # output m reads inputs n with |m * down - n * up| <= half
    lo = np.maximum(0, -((half - starts * down) // up))
    hi = np.minimum(n_in, ((ends - 1) * down + half) // up + 1)
    # reduceat over (lo, hi) pairs: entry 2t is the max over inputs [lo_t, hi_t). Its
    # indices must be < n_in, so frames that read the last input take it separately.
    magnitude = np.abs(clip.samples)
    last = hi == n_in
    peaks = np.maximum.reduceat(magnitude, np.column_stack([lo, hi - last]).ravel())[::2]
    peaks[last] = np.maximum(peaks[last], magnitude[-1])
    bound = peaks * (_phase_gain(up, down) * (1.0 + 1e-9))  # slack for rounding
    loudest = int(bound.argmax())
    if not np.isfinite(bound[loudest]):
        return trim_silence(resample(clip, target_rate), threshold_db, cfg)
    frame = _resample_span(clip, target_rate, up, down, starts[loudest], ends[loudest])
    r0 = frame_rms(padded_signal(AudioClip(frame, target_rate), cfg), cfg)[0]
    reach = np.flatnonzero(bound >= r0 * 10.0 ** (-threshold_db / 20.0))
    span = _resample_span(clip, target_rate, up, down, starts[reach[0]], ends[reach[-1]])
    return trim_silence(AudioClip(span, target_rate), threshold_db, cfg)


def _resample_span(clip: AudioClip, target_rate: int, up: int, down: int,
                   first: int, end: int) -> np.ndarray:
    """Outputs [first, end) of resample(clip, target_rate), byte for byte.

    Resamples only an input slice that starts on a multiple of down, so its
    output grid is the clip's shifted by a whole number of samples, and that
    reaches half a kernel past both ends of the span, so every output in the
    span reads the same inputs as in the full call.
    """
    half = len(_resample_kernel(up, down)) // 2
    a = max(0, -((half - first * down) // up)) // down
    stop = min(len(clip.samples), ((end - 1) * down + half) // up + 1)
    out = resample(AudioClip(clip.samples[a * down : stop], clip.sample_rate), target_rate)
    return out.samples[first - a * up : end - a * up]


def trim_silence(
    clip: AudioClip,
    threshold_db: float = 20.0,
    cfg: FramingConfig | None = None,
) -> AudioClip:
    """Drop leading/trailing frames more than threshold_db below the loudest frame.

    Interior samples are untouched and the result is never empty: if no
    frame clears the threshold the loudest frame's span is kept.
    """
    if threshold_db <= 0:
        raise ValueError(f"threshold_db must be positive, got {threshold_db}")
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
    starts at sample t * hop. Nothing is copied.
    """
    return np.lib.stride_tricks.sliding_window_view(signal, cfg.frame_length)[:: cfg.hop_length]


def frame_rms(padded: np.ndarray, cfg: FramingConfig) -> np.ndarray:
    """Root mean square of every frame, from one 1-D pass of squares."""
    return np.sqrt(np.mean(frame_view(padded * padded, cfg), axis=1))
