import hashlib
import math
import os
import re
import struct
import subprocess
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kftser import dsp
from kftser.dsp import (
    AudioClip,
    FramingConfig,
    decode_wav,
    frame_view,
    padded_signal,
    resample,
    resample_trimmed,
    trim_silence,
    wav_bytes,
    _reduced_ratio,
    _resample_kernel,
)
from kftser.config import PipelineConfig
from kftser.errors import DecodeError
from kftser.features import save_features
from kftser.manifest import generate_synthetic_dataset, write_bytes
from kftser.pipeline import wav_to_features


def _wav_bytes(fmt_tag, channels, rate, bits, payload, extra_chunks=(), data_size=None):
    fmt = struct.pack(
        "<HHIIHH", fmt_tag, channels, rate,
        rate * channels * bits // 8, channels * bits // 8, bits,
    )
    body = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    for cid, chunk in extra_chunks:
        body += cid + struct.pack("<I", len(chunk)) + chunk
        if len(chunk) & 1:
            body += b"\x00"
    size = len(payload) if data_size is None else data_size
    body += b"data" + struct.pack("<I", size) + payload
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


def _write(tmp_path, blob, name="clip.wav"):
    path = tmp_path / name
    path.write_bytes(blob)
    return path


class TestDecodeWav:
    def test_int16_scaling(self, tmp_path):
        payload = struct.pack("<4h", 16384, -16384, 32767, -32768)
        clip = decode_wav(_write(tmp_path, _wav_bytes(1, 1, 22050, 16, payload)))
        assert clip.sample_rate == 22050
        np.testing.assert_allclose(
            clip.samples, [0.5, -0.5, 32767 / 32768, -1.0], rtol=0, atol=0
        )

    def test_stereo_downmix_averages(self, tmp_path):
        # L = +0.5, R = -0.5 in every frame: the mix must be exactly zero
        payload = struct.pack("<6h", 16384, -16384, 16384, -16384, 16384, -16384)
        clip = decode_wav(_write(tmp_path, _wav_bytes(1, 2, 16000, 16, payload)))
        assert clip.samples.shape == (3,)
        assert np.array_equal(clip.samples, np.zeros(3))

    def test_float32_payload(self, tmp_path):
        vals = np.array([0.25, -0.75, 1.0], dtype="<f4")
        clip = decode_wav(_write(tmp_path, _wav_bytes(3, 1, 44100, 32, vals.tobytes())))
        np.testing.assert_array_equal(clip.samples, vals.astype(np.float64))

    def test_odd_sized_chunk_is_word_aligned(self, tmp_path):
        # a 3-byte chunk before data: without padding the parser would derail
        payload = struct.pack("<2h", 8192, 8192)
        blob = _wav_bytes(1, 1, 8000, 16, payload, extra_chunks=((b"LIST", b"abc"),))
        clip = decode_wav(_write(tmp_path, blob))
        np.testing.assert_allclose(clip.samples, [0.25, 0.25])

    @pytest.mark.parametrize(
        "blob, message",
        [
            (b"RIFX" + b"\x00" * 20, "not a RIFF"),
            (b"RIFF" + struct.pack("<I", 4) + b"AIFF", "not WAVE"),
            (_wav_bytes(1, 1, 8000, 16, b"\x00\x00", data_size=64), "declares"),
            (_wav_bytes(7, 1, 8000, 16, b"\x00\x00"), "unsupported codec"),
            (_wav_bytes(1, 1, 8000, 8, b"\x00\x00"), "unsupported codec"),
            (_wav_bytes(1, 2, 8000, 16, b"\x00\x00"), "not a multiple"),
            (_wav_bytes(1, 0, 8000, 16, b"\x00\x00"), "channels"),
            (_wav_bytes(1, 1, 8000, 16, b""), "empty"),
            (_wav_bytes(1, 1, 0, 16, b"\x00\x00"), r"sample rate 0 \(byte 12\)"),
        ],
    )
    def test_malformed_files_raise(self, tmp_path, blob, message):
        with pytest.raises(DecodeError, match=message):
            decode_wav(_write(tmp_path, blob))

    @pytest.mark.parametrize(
        "channels, values, where",
        [
            (1, [0.5, np.nan, 0.25], "sample index 1"),
            (1, [np.inf] * 3, "sample index 0"),
            (2, [0.5, 0.5, 0.25, -np.inf], "sample index 1, channel 1"),
        ],
    )
    def test_non_finite_float_samples_raise(self, tmp_path, channels, values, where):
        payload = np.array(values, dtype="<f4").tobytes()
        path = _write(tmp_path, _wav_bytes(3, channels, 8000, 32, payload))
        with pytest.raises(DecodeError, match=f"^{re.escape(str(path))}: non-finite sample .* at {where}$"):
            decode_wav(path)

    def test_short_fmt_chunk(self, tmp_path):
        body = b"fmt " + struct.pack("<I", 8) + b"\x00" * 8
        body += b"data" + struct.pack("<I", 2) + b"\x00\x00"
        blob = b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body
        with pytest.raises(DecodeError, match="fmt chunk too short"):
            decode_wav(_write(tmp_path, blob))

    def test_missing_chunks(self, tmp_path):
        no_data = b"RIFF" + struct.pack("<I", 28) + b"WAVE"
        no_data += b"fmt " + struct.pack("<I", 16) + struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
        with pytest.raises(DecodeError, match="no data chunk"):
            decode_wav(_write(tmp_path, no_data))
        no_fmt = b"RIFF" + struct.pack("<I", 14) + b"WAVE"
        no_fmt += b"data" + struct.pack("<I", 2) + b"\x00\x00"
        with pytest.raises(DecodeError, match="no fmt chunk"):
            decode_wav(_write(tmp_path, no_fmt))

    def test_write_read_round_trip(self, tmp_path, rng):
        samples = rng.uniform(-0.9, 0.9, 501)
        path = tmp_path / "rt.wav"
        write_bytes(path, wav_bytes(samples, 22050))
        clip = decode_wav(path)
        assert clip.sample_rate == 22050
        assert len(clip.samples) == 501
        np.testing.assert_allclose(clip.samples, samples, rtol=0, atol=1.0 / 16384)

    def test_stereo_int16_and_mono_float32_features_match_golden_bytes(self, tmp_path):
        """.feat bytes are pinned for both decode branches: channel mean and mono scaling."""
        rng = np.random.default_rng(9)
        rate = 44100
        t = np.arange(rate) / rate
        left = 0.4 * np.sin(2 * np.pi * 220.0 * t) + 0.01 * rng.normal(size=rate)
        right = 0.3 * np.sin(2 * np.pi * 550.0 * t) + 0.01 * rng.normal(size=rate)
        ints = np.round(np.stack([left, right], axis=1) * 32767).astype("<i2")
        _write(tmp_path, _wav_bytes(1, 2, rate, 16, ints.tobytes()), "stereo.wav")
        rate = 48000
        t = np.arange(rate) / rate
        mono = 0.5 * np.sin(2 * np.pi * 330.0 * t) * np.hanning(rate)
        mono = (mono + 1e-3 * rng.normal(size=rate)).astype("<f4")
        mono[::7] = -0.0
        _write(tmp_path, _wav_bytes(3, 1, rate, 32, mono.tobytes()), "float.wav")

        hashes = []
        for name in ("stereo", "float"):
            save_features(wav_to_features(tmp_path / f"{name}.wav", PipelineConfig()),
                          tmp_path / f"{name}.feat")
            hashes.append(hashlib.sha256((tmp_path / f"{name}.feat").read_bytes()).hexdigest())
        assert hashes == [
            "080bfb387bda98ae3ee888be52fa39802cb08111eb96902f659afa15c9d8ab3f",
            "0b4f67f4327348e730de3e7247caa511f8dd280bb0e8230f4f632e067e6fc59c",
        ]

    def test_synthetic_22050_hz_features_match_golden_bytes(self, tmp_path):
        """.feat bytes are pinned at the pipeline's own rate, where the clip is
        trimmed and extracted without resampling."""
        manifest = generate_synthetic_dataset(tmp_path / "audio", per_class=1, seed=0)
        hashes = []
        for rec in manifest.records:
            save_features(wav_to_features(rec.file_path, PipelineConfig()), tmp_path / "clip.feat")
            hashes.append(hashlib.sha256((tmp_path / "clip.feat").read_bytes()).hexdigest())
        assert hashes == [
            "53f26b3d55890a212b1f040577160e7284f07b3eef263ea76e207e19cefbe6fd",
            "04e645be9d15e12063616a494d99396759430a602384a2b73478d04f7a34a948",
            "e80a51839c3abeb672edd242b87ed5147868b7df95f9c1e1ca0a10def3c997f7",
            "0705f4a647f5cfa1b1fd1fadcdd0e65844ac2ee6197c7ec147fa644f25e6ebd3",
        ]


class TestResample:
    def test_scipy_signal_is_imported_only_to_resample(self, child_env):
        code = (
            "import sys, numpy as np, kftser\n"
            "assert 'scipy.signal' not in sys.modules, 'imported by kftser'\n"
            "from kftser.dsp import AudioClip, resample\n"
            "clip = resample(AudioClip(np.ones(4800), 48000), 22050)\n"
            "assert clip.sample_rate == 22050 and len(clip.samples) == 2205\n"
            "assert 'scipy.signal' in sys.modules\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=child_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_importing_kftser_loads_no_scipy(self, child_env):
        code = (
            "import sys, numpy as np, kftser, kftser.cli\n"
            "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
            "assert not loaded, loaded\n"
            "from kftser.features import build_mel_filterbank, compute_mfcc\n"
            "assert compute_mfcc(np.zeros(2048), build_mel_filterbank()).shape == (13,)\n"
            "assert 'scipy.fft' in sys.modules\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=child_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_matching_rate_is_identity(self):
        clip = AudioClip(np.ones(100), 22050)
        assert resample(clip, 22050) is clip

    def test_output_length_tracks_ratio(self, rng):
        for n, src, dst in [(44100, 44100, 22050), (22050, 22050, 16000), (4411, 44100, 22050)]:
            clip = AudioClip(rng.normal(size=n), src)
            out = resample(clip, dst)
            assert out.sample_rate == dst
            assert abs(len(out.samples) - n * dst / src) <= 1

    def test_tone_frequency_survives(self):
        t = np.arange(44100) / 44100.0
        clip = AudioClip(np.sin(2 * np.pi * 440.0 * t), 44100)
        out = resample(clip, 22050)
        spectrum = np.abs(np.fft.rfft(out.samples))
        # 1 s of audio: bin index is frequency in Hz
        assert abs(int(np.argmax(spectrum)) - 440) <= 1

    def test_unit_gain_at_real_rates(self):
        for src, dst in [(48000, 22050), (44100, 16000)]:
            t = np.arange(src) / src
            clip = AudioClip(0.5 * np.sin(2 * np.pi * 440.0 * t), src)
            out = resample(clip, dst)
            gain = np.sqrt(np.mean(out.samples ** 2) / np.mean(clip.samples ** 2))
            assert 0.95 <= gain <= 1.05, f"{src} -> {dst}: gain {gain:.3f}"

    def test_kernel_is_built_once_and_read_only(self):
        pair = _resample_kernel(147, 320)  # 48 kHz -> 22,050 Hz
        first = pair[0]
        assert len(first) == 64 * 320 + 1
        assert _resample_kernel(147, 320) is pair
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 1.0

    def test_cache_keeps_the_last_two_kernels(self):
        """A third ratio evicts the least recently used kernel, which is rebuilt."""
        _resample_kernel.cache_clear()
        first = _resample_kernel(147, 320)  # 48 kHz -> 22,050 Hz
        second = _resample_kernel(1, 2)  # 44.1 kHz -> 22,050 Hz
        third = _resample_kernel(2, 3)
        assert _resample_kernel.cache_info().currsize == 2
        assert _resample_kernel(1, 2) is second
        assert _resample_kernel(2, 3) is third
        rebuilt = _resample_kernel(147, 320)
        assert rebuilt is not first
        assert rebuilt[0].tobytes() == first[0].tobytes() and rebuilt[1] == first[1]
        assert _resample_kernel.cache_info().currsize == 2

    @pytest.mark.parametrize("src", [48000, 44100])
    def test_no_output_exceeds_the_kernel_gain(self, rng, src):
        """No output exceeds the gain times the largest |input|, within the
        1e-9 slack resample_trimmed allows for rounding, and an input whose
        signs follow the loudest phase's taps meets the gain: output m reads
        x[k] with weight up * kernel[half + m * down - k * up]."""
        up, down = _reduced_ratio(src, 22050)
        kernel, gain = _resample_kernel(up, down)
        half = len(kernel) // 2
        n = 4000
        phase = max(range(up), key=lambda p: float(np.abs(kernel[p::up]).sum()))
        m = (phase - half) * pow(down, -1, up) % up + up * (n * up // down // 2 // up)
        idx = half + m * down - np.arange(n) * up
        aligned = np.zeros(n)
        reads = (idx >= 0) & (idx <= 2 * half)
        aligned[reads] = np.sign(kernel[idx[reads]])
        for x in (rng.uniform(-1.0, 1.0, n), rng.choice([-1.0, 1.0], n), aligned):
            out = resample(AudioClip(x, src), 22050).samples
            assert np.abs(out).max() <= gain * np.abs(x).max() * (1.0 + 1e-9)
        assert out[m] >= gain * (1.0 - 1e-9)

    def test_duration_within_one_period(self, rng):
        clip = AudioClip(rng.normal(size=33077), 44100)
        out = resample(clip, 16000)
        assert abs(out.duration - clip.duration) <= 1.0 / 16000

    def test_rejects_bad_rate(self):
        clip = AudioClip(np.ones(10), 8000)
        with pytest.raises(ValueError):
            resample(clip, 0)

    def test_rejects_a_ratio_too_fine_for_a_kernel(self, monkeypatch):
        """4,294,967,291 Hz is prime, so against 22,050 Hz the ratio in lowest
        terms is 22050/4294967291 and its kernel would take 2 TiB. Both
        resamplers refuse it, naming both rates, before building any kernel."""
        built = []
        monkeypatch.setattr("kftser.dsp._resample_kernel", lambda *ratio: built.append(ratio))
        clip = AudioClip(np.ones(100), 4_294_967_291)
        for resampler in (resample, resample_trimmed):
            with pytest.raises(ValueError, match="cannot resample 4294967291 Hz to 22050 Hz"):
                resampler(clip, 22050)
        assert built == []

    @pytest.mark.parametrize("target", [16000, 22050])
    def test_standard_and_odd_rates_are_accepted(self, target):
        """8 to 384 kHz reduce to terms of at most 2,560 against either target;
        an odd rate such as 47,999 Hz stays far below the 65,536 bound."""
        rates = (8000, 11025, 16000, 22050, 24000, 32000, 44100, 48000,
                 88200, 96000, 176400, 192000, 352800, 384000)
        for rate in (*rates, 47999):
            g = math.gcd(rate, target)
            assert _reduced_ratio(rate, target) == (target // g, rate // g)
        assert max(max(_reduced_ratio(rate, target)) for rate in rates) <= 2560

    def test_ratio_bound_is_65536(self):
        assert _reduced_ratio(65536, 1) == (1, 65536)
        assert _reduced_ratio(1, 65536) == (65536, 1)
        for rate, target in ((65537, 1), (1, 65537)):
            with pytest.raises(ValueError, match="has a term above 65,536"):
                _reduced_ratio(rate, target)


class TestTrimSilence:
    def test_surrounding_silence_is_dropped(self):
        sr, cfg = 22050, FramingConfig()
        pad = np.zeros(8192)
        t = np.arange(11025) / sr
        tone = 0.5 * np.sin(2 * np.pi * 440.0 * t)
        clip = AudioClip(np.concatenate([pad, tone, pad]), sr)
        out = trim_silence(clip, 20.0, cfg)
        assert len(out.samples) < len(clip.samples)
        assert len(tone) - 2 * cfg.hop_length <= len(out.samples)
        assert len(out.samples) <= len(tone) + 2 * cfg.frame_length
        assert np.max(np.abs(out.samples)) == np.max(np.abs(clip.samples))

    def test_quiet_pad_below_threshold_is_removed(self):
        sr = 22050
        t = np.arange(11025) / sr
        loud = np.sin(2 * np.pi * 300.0 * t)
        quiet = 0.05 * np.sin(2 * np.pi * 300.0 * t[:4096])
        clip = AudioClip(np.concatenate([quiet, loud]), sr)
        out = trim_silence(clip, 20.0)
        assert len(out.samples) < len(clip.samples)

    def test_pad_above_threshold_is_kept(self):
        sr = 22050
        t = np.arange(11025) / sr
        loud = np.sin(2 * np.pi * 300.0 * t)
        audible = 0.2 * np.sin(2 * np.pi * 300.0 * t[:4096])
        clip = AudioClip(np.concatenate([audible, loud]), sr)
        out = trim_silence(clip, 20.0)
        assert len(out.samples) == len(clip.samples)

    def test_constant_and_silent_clips_unchanged(self):
        for samples in (np.full(5000, 0.3), np.zeros(5000)):
            clip = AudioClip(samples, 22050)
            out = trim_silence(clip)
            assert np.array_equal(out.samples, samples)

    def test_rejects_nonpositive_threshold(self):
        # NaN fails every comparison, so a "<= 0" test alone lets it through
        clip = AudioClip(np.ones(10), 8000)
        for bad in (0.0, -3.0, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="threshold_db must be finite and > 0"):
                trim_silence(clip, bad)

    @given(
        samples=hnp.arrays(
            np.float64,
            st.integers(min_value=16, max_value=400),
            elements=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        ),
        threshold=st.floats(min_value=1.0, max_value=60.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_trim_is_idempotent(self, samples, threshold):
        cfg = FramingConfig(frame_length=16, hop_length=8)
        clip = AudioClip(samples, 8000)
        once = trim_silence(clip, threshold, cfg)
        twice = trim_silence(once, threshold, cfg)
        assert np.array_equal(once.samples, twice.samples)


RATES = (8000, 11025, 16000, 22050, 44100, 48000, 96000)


@st.composite
def _clips(draw):
    """Digital silence, optionally a stretch of noise or a tone anywhere in it
    (abrupt or swelling), optionally a noise floor over all of it; from one
    sample up to several frames long."""
    n = draw(st.integers(min_value=1, max_value=12000))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    x = np.zeros(n)
    if draw(st.booleans()):
        a = draw(st.integers(min_value=0, max_value=n))
        b = draw(st.integers(min_value=a, max_value=n))
        if draw(st.booleans()):
            x[a:b] = rng.normal(size=b - a)
        else:
            x[a:b] = np.sin(draw(st.floats(min_value=0.0, max_value=0.2)) * np.arange(b - a))
        x[a:b] *= draw(st.floats(min_value=0.01, max_value=1.0))
        if draw(st.booleans()):
            x[a:b] *= np.hanning(b - a)
    floor_db = draw(st.none() | st.floats(min_value=-70.0, max_value=-20.0))
    if floor_db is not None:
        x += 10.0 ** (floor_db / 20.0) * rng.normal(size=n)
    return AudioClip(x, draw(st.sampled_from(RATES)))


def _same_bytes(a, b):
    return a.sample_rate == b.sample_rate and a.samples.tobytes() == b.samples.tobytes()


class TestResampleTrimmed:
    @given(clip=_clips(), target=st.sampled_from(RATES),
           threshold=st.floats(min_value=0.5, max_value=40.0),
           cfg=st.sampled_from([FramingConfig(), FramingConfig(400, 160), FramingConfig(7, 3)]))
    @settings(max_examples=150, deadline=None)
    def test_equals_trim_of_the_full_resample(self, clip, target, threshold, cfg):
        want = trim_silence(resample(clip, target), threshold, cfg)
        assert _same_bytes(resample_trimmed(clip, target, threshold, cfg), want)

    @pytest.mark.parametrize("samples", [
        np.zeros(1), np.zeros(3), np.full(3, 0.5), np.zeros(30000), np.zeros(1500),
        np.r_[np.zeros(5000), np.full(2000, 0.01), np.zeros(20000), 1.0],  # loudest at the end
    ])
    @pytest.mark.parametrize("src, dst", [(48000, 22050), (44100, 22050), (8000, 22050)])
    def test_silent_sub_frame_and_end_click_clips(self, samples, src, dst):
        clip = AudioClip(samples, src)
        assert _same_bytes(resample_trimmed(clip, dst), trim_silence(resample(clip, dst)))

    @pytest.mark.parametrize("loud_end", ["negative-run", "negative-click"])
    @pytest.mark.parametrize("src", [48000, 44100])
    def test_negative_peak_in_the_frames_that_read_the_last_sample(self, src, loud_end):
        """The clip's largest magnitude is its last sample, which is negative.
        Before it sits a loud all-negative run (the peak search needs -min(x)
        there) or silence (frames that read the last sample need its |x|)."""
        rng = np.random.default_rng(5)
        x = 0.002 * rng.normal(size=src // 2)
        if loud_end == "negative-run":
            x[-3000:] = -0.5 - 0.3 * rng.random(3000)
        else:
            x[-20000:] = 0.0
        x[-1] = -0.95
        clip = AudioClip(x, src)
        assert _same_bytes(resample_trimmed(clip, 22050), trim_silence(resample(clip, 22050)))

    def test_resamples_only_the_span_the_trim_can_keep(self, monkeypatch):
        read = []
        spy = _SplitSpy(monkeypatch)

        def counting(clip, target_rate):
            read.append(len(clip.samples))
            spy.saw(clip)
            return resample(clip, target_rate)

        rate = 48000
        tone = 0.5 * np.sin(2 * np.pi * 220.0 * np.arange(rate) / rate)
        clip = AudioClip(np.concatenate([np.zeros(rate), tone, np.zeros(2 * rate)]), rate)
        n_out = len(resample(clip, 22050).samples)
        monkeypatch.setattr("kftser.dsp.resample", counting)
        spy.clip = clip
        got = resample_trimmed(clip, 22050)
        monkeypatch.undo()
        assert _same_bytes(got, trim_silence(resample(clip, 22050)))
        # the loudest frame, then the span [o0, o1) as [o0, mid) here and [mid, o1) on the worker
        (mid, o1), = spy.submitted
        o0 = o1 - spy.kept[0]
        assert mid == (o0 + o1) // 2 and o1 - o0 >= dsp._SPLIT_MIN
        window = _input_window(clip, 22050)
        frames = {window(t, min(t + 2048, n_out)) for t in range(0, n_out, 512)}
        assert spy.calls[0] in {("caller", *w) for w in frames}
        assert sorted(spy.calls[1:]) == [("caller", *window(o0, mid)), ("worker", *window(mid, o1))]
        assert sum(read) < 0.4 * len(clip.samples)  # the tone is a quarter of the clip

    def test_a_span_below_the_split_minimum_is_resampled_in_one_piece(self, monkeypatch):
        spy = _SplitSpy(monkeypatch)
        spy.clip = clip = _tone_clip(48000, 0.1)
        got = resample_trimmed(clip, 22050)
        monkeypatch.undo()
        assert _same_bytes(got, trim_silence(resample(clip, 22050)))
        assert spy.kept[0] < dsp._SPLIT_MIN
        assert [who for who, _, _ in spy.calls] == ["caller", "caller"]  # loudest frame, span
        assert spy.submitted == []

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("where", ["first", "inside", "last"])
    @pytest.mark.parametrize("rate", [8000, 16000, 44100, 48000, 96000])
    def test_spans_around_the_split_minimum(self, monkeypatch, rate, where, offset):
        """Kept spans one output below, at and one above the split minimum, at
        the clip's first sample, inside it and at its last sample: the same
        bytes, in one piece below the minimum and in two halves from it on."""
        clip, cfg = _clip_with_span(rate, dsp._SPLIT_MIN + offset, where)
        spy = _SplitSpy(monkeypatch)
        spy.clip = clip
        got = resample_trimmed(clip, 22050, 20.0, cfg)
        monkeypatch.undo()
        assert spy.kept == [dsp._SPLIT_MIN + offset]
        assert _same_bytes(got, trim_silence(resample(clip, 22050), 20.0, cfg))
        assert len(spy.calls) == (2 if offset < 0 else 3)
        assert len(spy.submitted) == (0 if offset < 0 else 1)

    @given(clip=_clips(), target=st.sampled_from(RATES),
           threshold=st.floats(min_value=0.5, max_value=40.0),
           cfg=st.sampled_from([FramingConfig(), FramingConfig(400, 160), FramingConfig(7, 3)]))
    @settings(max_examples=150, deadline=None)
    def test_equals_trim_of_the_full_resample_when_every_span_splits(self, clip, target,
                                                                     threshold, cfg):
        with mock.patch.object(dsp, "_SPLIT_MIN", 1), \
                mock.patch.object(dsp, "_usable_cpus", lambda: 2):
            got = resample_trimmed(clip, target, threshold, cfg)
        assert _same_bytes(got, trim_silence(resample(clip, target), threshold, cfg))

    def test_no_thread_outlives_the_call(self, monkeypatch):
        monkeypatch.setattr(dsp, "_usable_cpus", lambda: 2)
        clip = _tone_clip(48000, 1.0)
        threads = set(threading.enumerate())
        got = resample_trimmed(clip, 22050)
        assert set(threading.enumerate()) == threads
        assert _same_bytes(got, trim_silence(resample(clip, 22050)))

    def test_a_failure_in_the_workers_half_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(dsp, "_usable_cpus", lambda: 2)
        caller = threading.current_thread()

        def fail_off_the_caller(clip, target_rate):
            if threading.current_thread() is not caller:
                raise RuntimeError("injected worker failure")
            return resample(clip, target_rate)

        clip = _tone_clip(48000, 1.0)
        monkeypatch.setattr(dsp, "resample", fail_off_the_caller)
        threads = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="injected worker failure"):
            resample_trimmed(clip, 22050)
        assert set(threading.enumerate()) == threads

    def test_one_usable_cpu_starts_no_worker(self, monkeypatch):
        def no_worker(*args, **kwargs):
            raise AssertionError("a worker was started")

        clip = _tone_clip(48000, 1.0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setattr(dsp, "ThreadPoolExecutor", no_worker)
        assert dsp._usable_cpus() == 1
        got = resample_trimmed(clip, 22050)
        monkeypatch.undo()
        assert _same_bytes(got, trim_silence(resample(clip, 22050)))

    def test_matching_rate_only_trims(self):
        clip = AudioClip(np.concatenate([np.zeros(9000), np.ones(3000), np.zeros(9000)]), 22050)
        assert _same_bytes(resample_trimmed(clip, 22050), trim_silence(clip))

    def test_non_finite_input_matches_the_full_path(self):
        for bad in (np.nan, np.inf):
            x = np.zeros(9600)
            x[4000] = bad
            clip = AudioClip(x, 48000)
            assert _same_bytes(resample_trimmed(clip, 22050),
                               trim_silence(resample(clip, 22050)))

    def test_rejects_what_resample_and_trim_reject(self):
        clip = AudioClip(np.ones(100), 48000)
        with pytest.raises(ValueError, match="target_rate"):
            resample_trimmed(clip, 0)
        for bad in (0.0, -3.0):
            with pytest.raises(ValueError, match="threshold_db"):
                resample_trimmed(clip, 22050, bad)

    @pytest.mark.parametrize("rate", [48000, 22050])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_threshold_before_resampling(self, monkeypatch, rate, bad):
        """A non-finite threshold is rejected before any resampling, at a rate
        that resamples and at the target rate itself."""
        read = []
        monkeypatch.setattr("kftser.dsp.resample", lambda clip, target: read.append(clip))
        tone = 0.5 * np.sin(2 * np.pi * 220.0 * np.arange(rate) / rate)
        with pytest.raises(ValueError, match="threshold_db must be finite and > 0"):
            resample_trimmed(AudioClip(tone, rate), 22050, bad)
        assert read == []


class _SplitSpy:
    """Watches resample_trimmed on a process that may use two CPUs: `calls`
    holds ("caller" or "worker", first input, end input) for each resample of
    a slice of `clip`, `submitted` the (mid, o1) of each half handed to the
    worker, and `kept` the length of each span passed to trim_silence."""

    def __init__(self, monkeypatch):
        self.clip, self.calls, self.submitted, self.kept = None, [], [], []
        self.caller = threading.current_thread()
        spy, real_resample, real_trim = self, dsp.resample, dsp.trim_silence

        class Pool(dsp.ThreadPoolExecutor):
            def submit(self, fn, *args):
                spy.submitted.append(args)
                return super().submit(fn, *args)

        def resampling(clip, target_rate):
            spy.saw(clip)
            return real_resample(clip, target_rate)

        def trimming(clip, *args):
            spy.kept.append(len(clip.samples))
            return real_trim(clip, *args)

        monkeypatch.setattr(dsp, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(dsp, "ThreadPoolExecutor", Pool)
        monkeypatch.setattr(dsp, "resample", resampling)
        monkeypatch.setattr(dsp, "trim_silence", trimming)

    def saw(self, part):
        """Record the input slice `part` of self.clip as (thread, first, end)."""
        if self.clip is None or not np.shares_memory(part.samples, self.clip.samples):
            return
        first = (part.samples.ctypes.data - self.clip.samples.ctypes.data) // 8
        who = "caller" if threading.current_thread() is self.caller else "worker"
        self.calls.append((who, first, first + len(part.samples)))


def _input_window(clip, target_rate):
    """window(o0, o1): the input slice [first, end) that resample_trimmed
    resamples for outputs o0..o1 - 1. Output m reads inputs n with
    |m * down - n * up| <= half; the slice starts on a multiple of down."""
    up, down = _reduced_ratio(clip.sample_rate, target_rate)
    half = len(_resample_kernel(up, down)[0]) // 2
    n_in = len(clip.samples)

    def window(o0, o1):
        lo = max(0, -((half - o0 * down) // up))
        return lo // down * down, min(n_in, ((o1 - 1) * down + half) // up + 1)

    return window


def _tone_clip(rate, tone_s):
    """A 220 Hz tone of tone_s seconds between one second of silence on each side."""
    tone = 0.5 * np.sin(2 * np.pi * 220.0 * np.arange(round(rate * tone_s)) / rate)
    return AudioClip(np.concatenate([np.zeros(rate), tone, np.zeros(rate)]), rate)


def _kept_span(clip, cfg):
    """The number of outputs resample_trimmed(clip, 22050, 20, cfg) resamples
    for the trim."""
    kept, real = [], dsp.trim_silence

    def trimming(c, *args):
        kept.append(len(c.samples))
        return real(c, *args)

    with mock.patch.object(dsp, "trim_silence", trimming):
        resample_trimmed(clip, 22050, 20.0, cfg)
    return kept[0]


def _clip_with_span(rate, n_span, where):
    """A clip at `rate` and a hop-1 framing whose kept span at 22,050 Hz holds
    exactly n_span outputs. A burst of +-0.5 fills the clip from its first
    sample ("first"), up to its last ("last"), or neither ("inside"), with
    1,000 outputs of silence on the open sides. Frame t is outputs
    [t, t + F), so a span touching one end grows by one output per unit of F
    and an inside span by two; the burst is lengthened until the parity fits."""
    rng = np.random.default_rng(rate)
    pad = 1000 * rate // 22050
    for extra in range(16):
        burst = rng.choice([-0.5, 0.5], size=(n_span - 600) * rate // 22050 + extra)
        x = np.concatenate([np.zeros(0 if where == "first" else pad), burst,
                            np.zeros(0 if where == "last" else pad)])
        clip = AudioClip(x, rate)
        step = 2 if where == "inside" else 1
        short = n_span - _kept_span(clip, FramingConfig(64, 1))
        if short % step == 0 and 64 + short // step >= 1:
            cfg = FramingConfig(64 + short // step, 1)
            if _kept_span(clip, cfg) == n_span:
                return clip, cfg
    raise AssertionError(f"no {where} span of {n_span} outputs at {rate} Hz")


def _naive_frames(x, frame, hop):
    n_frames = math.ceil(len(x) / hop)
    padded = np.concatenate([x, np.zeros((n_frames - 1) * hop + frame - len(x))])
    out = np.zeros((n_frames, frame))
    for t in range(n_frames):
        out[t] = padded[t * hop : t * hop + frame]
    return out


class TestFraming:
    def test_matches_naive_slicing_exhaustively(self, rng):
        for frame in range(1, 9):
            for hop in range(1, frame + 1):
                for n in range(1, 41):
                    x, cfg = rng.normal(size=n), FramingConfig(frame, hop)
                    got = frame_view(padded_signal(AudioClip(x, 8000), cfg), cfg)
                    assert np.array_equal(got, _naive_frames(x, frame, hop))

    def test_default_frame_count_for_short_clip(self):
        cfg = FramingConfig()
        frames = frame_view(padded_signal(AudioClip(np.ones(4096), 22050), cfg), cfg)
        assert frames.shape == (8, 2048)

    def test_frames_are_read_only_views(self):
        cfg = FramingConfig(16, 4)
        frames = frame_view(padded_signal(AudioClip(np.ones(100), 8000), cfg), cfg)
        with pytest.raises(ValueError, match="read-only"):
            frames[0, 0] = 1.0

    def test_exact_fit_has_no_padding(self):
        x = np.arange(1, 17, dtype=np.float64)
        cfg = FramingConfig(8, 8)
        frames = frame_view(padded_signal(AudioClip(x, 8000), cfg), cfg)
        assert frames.shape == (2, 8)
        assert np.array_equal(frames[0], x[:8])
        assert np.array_equal(frames[1], x[8:])

    def test_constant_signal_frames_identical_except_tail(self):
        x = np.full(100, 2.5)
        cfg = FramingConfig(16, 4)
        frames = frame_view(padded_signal(AudioClip(x, 8000), cfg), cfg)
        full = (np.arange(frames.shape[0]) * 4 + 16) <= 100
        assert np.array_equal(frames[full], np.full((full.sum(), 16), 2.5))
        assert frames[-1, -1] == 0.0

    def test_framing_config_validation(self):
        with pytest.raises(ValueError):
            FramingConfig(16, 0)
        with pytest.raises(ValueError):
            FramingConfig(16, 17)

    def test_audio_clip_validation(self):
        with pytest.raises(ValueError):
            AudioClip(np.ones(4), 0)
        with pytest.raises(ValueError):
            AudioClip(np.array([]), 8000)
