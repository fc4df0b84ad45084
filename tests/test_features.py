import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.fft import dct, idct

from kftser.dsp import (
    AudioClip,
    FramingConfig,
    frame_view,
    padded_signal,
    resample,
    trim_silence,
)
from kftser.errors import FeatureFileError
from kftser.features import (
    FEATURE_COLUMNS,
    N_FEATURES,
    N_MFCC,
    FeatureMatrix,
    apply_scaler,
    build_mel_filterbank,
    compute_delta,
    compute_mfcc,
    compute_rmse,
    compute_zcr,
    extract_features,
    fit_scaler,
    hz_to_mel,
    load_features,
    mel_energies,
    mel_to_hz,
    save_features,
)


class TestMelScale:
    def test_reference_points(self):
        assert hz_to_mel(0.0) == 0.0
        assert np.isclose(hz_to_mel(700.0), 2595.0 * np.log10(2.0), rtol=0, atol=1e-12)

    def test_round_trip(self):
        for f in (50.0, 1000.0, 8000.0):
            assert np.isclose(mel_to_hz(hz_to_mel(f)), f, rtol=1e-9)

    def test_monotonic(self):
        f = np.linspace(0.0, 11025.0, 500)
        assert np.all(np.diff(hz_to_mel(f)) > 0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            hz_to_mel(-1.0)


class TestFilterbank:
    def test_shape_and_range(self):
        fb = build_mel_filterbank()
        assert fb.filters.shape == (40, 1025)
        assert fb.center_freqs.shape == (40,)
        assert np.all(fb.filters >= 0.0)
        assert np.all(fb.filters <= 1.0 + 1e-12)
        edges = mel_to_hz(np.linspace(0.0, hz_to_mel(11025.0), 42))
        assert np.array_equal(fb.center_freqs, edges[1:-1])

    def test_each_filter_unimodal_contiguous(self):
        fb = build_mel_filterbank()
        for row in fb.filters:
            support = np.flatnonzero(row > 0)
            assert len(support) > 0
            assert np.array_equal(support, np.arange(support[0], support[-1] + 1))
            peak = row.argmax()
            assert np.all(np.diff(row[support[0] : peak + 1]) >= 0)
            assert np.all(np.diff(row[peak : support[-1] + 1]) <= 0)

    def test_interior_bins_covered(self):
        fb = build_mel_filterbank()
        bin_freqs = np.arange(1025) * (fb.sample_rate / fb.n_fft)
        lo, hi = fb.center_freqs[0], fb.center_freqs[-1]
        interior = (bin_freqs > lo) & (bin_freqs < hi)
        assert np.all(fb.filters[:, interior].sum(axis=0) > 0)

    def test_center_frequency_tones_peak_in_own_filter(self):
        fb = build_mel_filterbank()
        t = np.arange(fb.n_fft) / fb.sample_rate
        for k in range(fb.n_filters):
            frame = np.sin(2 * np.pi * fb.center_freqs[k] * t)
            assert int(np.argmax(mel_energies(frame, fb))) == k

    def test_band_limits_validated(self):
        with pytest.raises(ValueError):
            build_mel_filterbank(n_filters=0)


class TestMfcc:
    def test_zero_frame_is_constant_log_floor(self):
        fb = build_mel_filterbank()
        c = compute_mfcc(np.zeros(2048), fb)
        assert c.shape == (13,)
        # all-equal log energies: only the DC coefficient survives
        assert np.isclose(c[0], np.sqrt(40.0) * np.log(1e-10), rtol=1e-12)
        np.testing.assert_allclose(c[1:], 0.0, atol=1e-12)

    def test_matches_manual_dct_of_log_energies(self, rng):
        fb = build_mel_filterbank()
        frame = rng.normal(size=2048)
        logged = np.log(mel_energies(frame, fb) + 1e-10)
        manual = dct(logged, type=2, norm="ortho")[:13]
        np.testing.assert_array_equal(compute_mfcc(frame, fb), manual)

    def test_orthonormal_dct_round_trips(self, rng):
        x = rng.normal(size=40)
        back = idct(dct(x, type=2, norm="ortho"), type=2, norm="ortho")
        assert np.max(np.abs(back - x)) < 1e-10

    def test_frame_length_mismatch(self):
        fb = build_mel_filterbank()
        for bad in (np.zeros(1024), np.zeros((5, 1024)), np.zeros((5, 2049)), np.zeros((2048, 5))):
            with pytest.raises(ValueError, match="n_fft"):
                compute_mfcc(bad, fb)
            with pytest.raises(ValueError, match="n_fft"):
                mel_energies(bad, fb)

    def test_block_equals_stack_of_rows(self, rng):
        fb = build_mel_filterbank()
        frames = rng.normal(size=(37, 2048))
        frames[3] = 0.0
        block_mel = mel_energies(frames, fb)
        block_mfcc = compute_mfcc(frames, fb)
        assert block_mel.shape == (37, 40)
        assert block_mfcc.shape == (37, 13)
        np.testing.assert_array_equal(block_mel, np.stack([mel_energies(f, fb) for f in frames]))
        np.testing.assert_array_equal(block_mfcc, np.stack([compute_mfcc(f, fb) for f in frames]))


def _whole_array_mel(frames, fb):
    """mel_energies over every frame in one pass: one window product, one rfft,
    then one filterbank product per frame."""
    n = fb.n_fft
    spectrum = np.fft.rfft(frames * (0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)), axis=-1)
    power = np.square(spectrum.real)
    power += np.square(spectrum.imag)
    return np.matmul(fb.filters, power[..., None])[..., 0]


class TestMelBlocks:
    @pytest.mark.parametrize("n_frames", [1, 7, 8, 9, 16, 17, 44])
    def test_block_boundaries_match_the_whole_array_formula(self, rng, n_frames):
        fb = build_mel_filterbank()
        cfg = FramingConfig()
        signal = rng.normal(size=(n_frames - 1) * cfg.hop_length + cfg.frame_length)
        for frames in (frame_view(signal, cfg), rng.normal(size=(n_frames, fb.n_fft))):
            got, want = mel_energies(frames, fb), _whole_array_mel(frames, fb)
            assert got.shape == want.shape == (n_frames, fb.n_filters)
            assert got.tobytes() == want.tobytes()

    def test_one_frame_vector_matches_the_whole_array_formula(self, rng):
        fb = build_mel_filterbank()
        frame = rng.normal(size=fb.n_fft)
        got, want = mel_energies(frame, fb), _whole_array_mel(frame, fb)
        assert got.shape == want.shape == (fb.n_filters,)
        assert got.tobytes() == want.tobytes()

    def test_peak_memory_does_not_grow_with_the_frame_count(self, rng, traced_peak):
        fb = build_mel_filterbank()
        frames = rng.normal(size=(400, fb.n_fft))
        mel_energies(frames, fb)  # builds and caches the Hann window
        peak = traced_peak(lambda: mel_energies(frames, fb))
        # Measured: the (400, 40) result plus 395,792 bytes, nearly all of it the
        # four 8-frame buffers (393,472 bytes). The bound allows 26 % over that;
        # the whole-array form held 13.1 MB.
        assert peak < frames.shape[0] * fb.n_filters * 8 + 500_000


class TestDelta:
    def test_constant_sequence_gives_zero(self):
        coeffs = np.full((20, 3), 7.5)
        assert np.array_equal(compute_delta(coeffs), np.zeros((20, 3)))

    def test_ramp_recovers_slope_on_interior(self):
        slope = 0.37
        ramp = slope * np.arange(50, dtype=np.float64)[:, None]
        d = compute_delta(ramp, width=9)
        np.testing.assert_allclose(d[4:-4], slope, rtol=0, atol=1e-9)
        dd = compute_delta(d, width=9)
        np.testing.assert_allclose(dd[8:-8], 0.0, atol=1e-9)

    def test_shape_preserved(self, rng):
        coeffs = rng.normal(size=(30, 13))
        assert compute_delta(coeffs).shape == (30, 13)

    @given(
        a=st.floats(min_value=-3, max_value=3),
        b=st.floats(min_value=-3, max_value=3),
        coeffs=hnp.arrays(
            np.float64, (12, 2),
            elements=st.floats(min_value=-10, max_value=10),
        ),
        other=hnp.arrays(
            np.float64, (12, 2),
            elements=st.floats(min_value=-10, max_value=10),
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_linearity(self, a, b, coeffs, other):
        lhs = compute_delta(a * coeffs + b * other, width=5)
        rhs = a * compute_delta(coeffs, width=5) + b * compute_delta(other, width=5)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    @pytest.mark.parametrize("width", [3, 5, 9, 11])
    def test_matches_edge_padded_reference(self, rng, width):
        for t in range(1, 3 * width):
            coeffs = rng.normal(size=(t, 3))
            assert compute_delta(coeffs, width).tobytes() == _reference_delta(coeffs, width).tobytes()

    def test_width_validation(self):
        coeffs = np.zeros((5, 2))
        for bad in (2, 4, 1, -3):
            with pytest.raises(ValueError):
                compute_delta(coeffs, width=bad)
        with pytest.raises(ValueError):
            compute_delta(np.zeros((0, 2)))


class TestEnergyAndCrossings:
    def test_rmse_exact_cases(self):
        assert compute_rmse(np.zeros(2048)) == 0.0
        assert compute_rmse(np.full(2048, -0.625)) == 0.625
        assert compute_rmse(np.array([3.0, -4.0, 0.0, 0.0])) == 2.5

    def test_rmse_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_rmse(np.array([]))

    def test_zcr_reference_signals(self):
        assert compute_zcr(np.full(100, 0.5)) == 0.0
        alternating = np.tile([1.0, -1.0], 50)
        assert compute_zcr(alternating) == 1.0
        # zero is treated as non-negative
        assert compute_zcr(np.array([1.0, 0.0, -1.0])) == 0.5

    def test_zcr_low_tone(self):
        t = np.arange(2048) / 22050.0
        zcr = compute_zcr(np.sin(2 * np.pi * 441.0 * t))
        assert abs(zcr - 0.04) < 0.005

    def test_zcr_needs_two_samples(self):
        with pytest.raises(ValueError):
            compute_zcr(np.array([1.0]))

    @given(
        frame=hnp.arrays(
            np.float64,
            st.integers(min_value=2, max_value=64),
            elements=st.floats(min_value=-1, max_value=1),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_zcr_bounded(self, frame):
        assert 0.0 <= compute_zcr(frame) <= 1.0


class TestExtractFeatures:
    def test_one_second_clip_shape(self):
        clip = AudioClip(np.sin(np.linspace(0, 800, 22050)), 22050)
        fm = extract_features(clip, FramingConfig(), build_mel_filterbank())
        assert fm.rows.shape == (44, 41)
        assert fm.n_frames == 44

    @staticmethod
    def _assert_rows_match_helpers(clip, cfg, fb):
        fm = extract_features(clip, cfg, fb)
        frames = frame_view(padded_signal(clip, cfg), cfg)
        assert fm.n_frames == len(frames)
        for t in range(fm.n_frames):
            np.testing.assert_array_equal(fm.rows[t, :13], compute_mfcc(frames[t], fb))
            assert fm.rows[t, -2] == compute_rmse(frames[t])
            assert fm.rows[t, -1] == compute_zcr(frames[t])
        mfcc = fm.rows[:, :13]
        np.testing.assert_array_equal(fm.rows[:, 13:26], compute_delta(mfcc))
        np.testing.assert_array_equal(fm.rows[:, 26:39], compute_delta(compute_delta(mfcc)))

    def test_column_layout_matches_helpers(self, rng):
        clip = AudioClip(rng.normal(size=6000) * 0.3, 22050)
        self._assert_rows_match_helpers(clip, FramingConfig(), build_mel_filterbank())

    def test_resampled_48k_rows_match_per_frame_helpers(self, rng):
        t = np.arange(int(48000 * 1.5)) / 48000
        tone = 0.4 * np.sin(2 * np.pi * 330.0 * t) + 0.02 * rng.normal(size=len(t))
        clip = resample(AudioClip(tone, 48000), 22050)
        self._assert_rows_match_helpers(clip, FramingConfig(), build_mel_filterbank())

    def test_silence_has_zero_energy_and_crossings(self):
        clip = AudioClip(np.zeros(4096), 22050)
        fm = extract_features(clip, FramingConfig(), build_mel_filterbank())
        assert np.all(fm.rows[:, -2] == 0.0)
        assert np.all(fm.rows[:, -1] == 0.0)

    def test_rate_and_frame_mismatch_rejected(self):
        fb = build_mel_filterbank()
        with pytest.raises(ValueError, match="resample"):
            extract_features(AudioClip(np.ones(4096), 16000), FramingConfig(), fb)
        with pytest.raises(ValueError, match="n_fft"):
            extract_features(AudioClip(np.ones(4096), 22050), FramingConfig(1024, 256), fb)
        # one-sample frames frame fine, but ZCR needs two samples per frame
        tone = AudioClip(np.sin(np.arange(200) * 0.3), 22050)
        with pytest.raises(ValueError, match="frame_length"):
            extract_features(tone, FramingConfig(1, 1), build_mel_filterbank(n_fft=1))

    def test_feature_matrix_validates_width(self):
        with pytest.raises(ValueError):
            FeatureMatrix(rows=np.zeros((5, 40)))
        with pytest.raises(ValueError):
            FeatureMatrix(rows=np.zeros(41))


def _copied_frames(samples, cfg):
    """Framing as a copy: every frame its own row of a new (T, frame_length) array."""
    n = len(samples)
    n_frames = -(-n // cfg.hop_length)
    padded = np.zeros((n_frames - 1) * cfg.hop_length + cfg.frame_length)
    padded[:n] = samples
    windows = np.lib.stride_tricks.sliding_window_view(padded, cfg.frame_length)
    return windows[:: cfg.hop_length].copy()


def _reference_rms(frames):
    return np.sqrt(np.mean(frames * frames, axis=1))


def _reference_zcr(frames):
    nonneg = frames >= 0
    return np.count_nonzero(nonneg[:, 1:] != nonneg[:, :-1], axis=1) / (frames.shape[1] - 1)


def _reference_trim(clip, threshold_db, cfg):
    rms = _reference_rms(_copied_frames(clip.samples, cfg))
    keep = np.flatnonzero(rms >= rms.max() * 10.0 ** (-threshold_db / 20.0))
    first, last = (keep[0], keep[-1]) if len(keep) else (rms.argmax(), rms.argmax())
    end = min(len(clip.samples), last * cfg.hop_length + cfg.frame_length)
    return clip.samples[first * cfg.hop_length : end]


def _reference_delta(coeffs, width=9):
    """compute_delta with np.pad replicating the edge rows, then the regression sum."""
    half = (width - 1) // 2
    padded = np.pad(coeffs, ((half, half), (0, 0)), mode="edge")
    t = len(coeffs)
    num = np.zeros_like(coeffs)
    for n in range(1, half + 1):
        num += n * (padded[half + n : half + n + t] - padded[half - n : half - n + t])
    return num / (2.0 * sum(n * n for n in range(1, half + 1)))


def _reference_rows(clip, cfg, fb):
    frames = _copied_frames(clip.samples, cfg)
    mfcc = compute_mfcc(frames, fb)
    delta = _reference_delta(mfcc)
    return np.hstack([mfcc, delta, _reference_delta(delta),
                      _reference_rms(frames)[:, None], _reference_zcr(frames)[:, None]])


@st.composite
def _framed_clips(draw):
    """A (frame, hop) pair and a clip from one sample to a few frames long."""
    frame = draw(st.integers(min_value=2, max_value=40))
    hop = draw(st.one_of(st.just(frame), st.integers(min_value=1, max_value=frame)))
    n = draw(st.one_of(st.integers(min_value=1, max_value=4 * frame),
                       st.integers(min_value=1, max_value=5).map(lambda k: k * hop)))
    kind = draw(st.sampled_from(["random", "zeros", "negative zeros", "alternating"]))
    if kind == "random":
        samples = draw(hnp.arrays(np.float64, n, elements=st.floats(-1.0, 1.0)))
    elif kind == "zeros":
        samples = np.zeros(n)
    elif kind == "negative zeros":
        samples = np.full(n, -0.0)
    else:
        amplitude = draw(st.floats(min_value=1e-6, max_value=1.0))
        samples = amplitude * (-1.0) ** np.arange(n)
    return AudioClip(samples, 8000), FramingConfig(frame, hop)


class TestMatchesCopyingReference:
    """Trim and extraction on strided views give the bytes of copied frames."""

    @given(clip_cfg=_framed_clips(), threshold=st.floats(min_value=1.0, max_value=60.0))
    @settings(max_examples=150, deadline=None)
    def test_trim_silence(self, clip_cfg, threshold):
        clip, cfg = clip_cfg
        got = trim_silence(clip, threshold, cfg).samples
        assert got.tobytes() == _reference_trim(clip, threshold, cfg).tobytes()

    @given(clip_cfg=_framed_clips(), n_filters=st.integers(min_value=N_MFCC, max_value=20))
    @settings(max_examples=150, deadline=None)
    def test_extract_features(self, clip_cfg, n_filters):
        clip, cfg = clip_cfg
        fb = build_mel_filterbank(n_filters=n_filters, sample_rate=8000, n_fft=cfg.frame_length)
        got = extract_features(clip, cfg, fb).rows
        assert got.tobytes() == _reference_rows(clip, cfg, fb).tobytes()


class TestScaler:
    def test_transformed_training_rows_are_standard(self, rng):
        rows = rng.normal(loc=3.0, scale=2.5, size=(400, 41))
        stats = fit_scaler(rows)
        z = apply_scaler(rows, stats)
        assert np.max(np.abs(z.mean(axis=0))) < 1e-9
        assert np.max(np.abs(z.std(axis=0) - 1.0)) < 1e-6

    def test_constant_column_stays_degenerate(self, rng):
        rows = rng.normal(size=(50, 41))
        rows[:, 7] = 4.2
        rows[:, 8] = 0.0
        z = apply_scaler(rows, fit_scaler(rows))
        # zero std is clamped to eps, so the column shrinks instead of exploding
        assert np.max(np.abs(z[:, 7])) < 1e-6
        assert np.all(z[:, 8] == 0.0)

    def test_transform_is_invertible(self, rng):
        rows = rng.normal(size=(100, 41))
        stats = fit_scaler(rows)
        z = apply_scaler(rows, stats)
        back = z * np.maximum(stats.std, 1e-8) + stats.mean
        np.testing.assert_allclose(back, rows, atol=1e-12)

    def test_held_out_rows_use_training_stats(self, rng):
        train = rng.normal(loc=5.0, size=(100, 41))
        test = rng.normal(loc=5.0, size=(30, 41))
        stats = fit_scaler(train)
        z = apply_scaler(test, stats)
        manual = (test - train.mean(axis=0)) / np.maximum(train.std(axis=0), 1e-8)
        np.testing.assert_array_equal(z, manual)

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            fit_scaler(np.ones((1, 41)))


class TestFeatureIo:
    def test_binary_round_trip_is_bit_exact(self, tmp_path, rng):
        fm = FeatureMatrix(rows=rng.normal(size=(17, N_FEATURES)), utterance_id="u17")
        path = tmp_path / "u17.feat"
        save_features(fm, path)
        loaded = load_features(path)
        assert loaded.rows.tobytes() == fm.rows.tobytes()
        assert loaded.utterance_id == "u17"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.feat"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(FeatureFileError, match="magic"):
            load_features(path)

    def test_truncated_payload_rejected(self, tmp_path, rng):
        fm = FeatureMatrix(rows=rng.normal(size=(4, N_FEATURES)))
        path = tmp_path / "x.feat"
        save_features(fm, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FeatureFileError, match="payload"):
            load_features(path)

    def test_truncated_header_and_wrong_width_rejected(self, tmp_path):
        path = tmp_path / "x.feat"
        path.write_bytes(b"KFTSER01\x01\x00")
        with pytest.raises(FeatureFileError, match="header"):
            load_features(path)
        save_features(FeatureMatrix(rows=np.zeros((2, N_FEATURES))), path)
        raw = bytearray(path.read_bytes())
        raw[12:16] = (40).to_bytes(4, "little")
        path.write_bytes(bytes(raw[: 16 + 2 * 40 * 8]))
        with pytest.raises(FeatureFileError, match="40 columns"):
            load_features(path)

    def test_column_names(self):
        assert len(FEATURE_COLUMNS) == 41
        assert FEATURE_COLUMNS[0] == "mfcc_0"
        assert FEATURE_COLUMNS[12] == "mfcc_12"
        assert FEATURE_COLUMNS[13] == "delta_0"
        assert FEATURE_COLUMNS[26] == "deltadelta_0"
        assert FEATURE_COLUMNS[39] == "rmse"
        assert FEATURE_COLUMNS[40] == "zcr"
