import hashlib

import numpy as np
import pytest

from kftser.config import PipelineConfig
from kftser.dsp import wav_bytes
from kftser.errors import KftserError
from kftser.features import save_features
from kftser.manifest import Manifest, generate_synthetic_dataset, write_bytes
from kftser.pipeline import (
    extract_to_dir,
    feature_filename,
    framing_config,
    kalman_config,
    load_features_for_indices,
    mel_filterbank,
    train_config,
    train_from_manifest,
    wav_to_features,
)
from kftser.pipeline import test_set as load_test_set


class TestConfigAdapters:
    def test_framing(self):
        cfg = PipelineConfig(frame_length=1024, hop_length=256)
        fcfg = framing_config(cfg)
        assert (fcfg.frame_length, fcfg.hop_length) == (1024, 256)

    def test_filterbank(self):
        fb = mel_filterbank(PipelineConfig(n_mels=30, sample_rate=16000, frame_length=1024))
        assert fb.n_filters == 30
        assert fb.sample_rate == 16000
        assert fb.n_fft == 1024

    def test_filterbank_is_built_once_and_read_only(self):
        cfg = PipelineConfig(n_mels=30, sample_rate=16000, frame_length=1024)
        fb = mel_filterbank(cfg)
        assert mel_filterbank(PipelineConfig(n_mels=30, sample_rate=16000,
                                             frame_length=1024)) is fb
        assert mel_filterbank(PipelineConfig()) is not fb
        with pytest.raises(ValueError, match="read-only"):
            fb.filters[0, 0] = 1.0

    def test_training(self):
        cfg = PipelineConfig(learning_rate=0.01, batch_size=32, epochs=7, seed=4)
        tcfg = train_config(cfg)
        assert tcfg.learning_rate == 0.01
        assert tcfg.batch_size == 32
        assert tcfg.epochs == 7
        assert tcfg.seed == 4

    def test_kalman(self):
        kcfg = kalman_config(PipelineConfig(kalman_q=0.02, kalman_r=0.5))
        assert kcfg.dim == 4
        assert kcfg.q == 0.02
        assert kcfg.r == 0.5
        assert kcfg.renormalize


class TestWavToFeatures:
    def test_end_to_end_shape_and_id(self, tone_workspace):
        rec = tone_workspace["manifest"].records[0]
        fm = wav_to_features(rec.file_path, tone_workspace["cfg"], utterance_id="first")
        assert fm.utterance_id == "first"
        assert fm.rows.ndim == 2
        assert fm.rows.shape[1] == 41
        assert fm.n_frames > 0

    def test_fewest_mel_filters_give_41_finite_columns(self, tone_workspace):
        rec = tone_workspace["manifest"].records[0]
        fm = wav_to_features(rec.file_path, PipelineConfig(n_mels=13))
        assert fm.rows.shape[1] == 41
        assert np.all(np.isfinite(fm.rows))

    def test_resamples_foreign_rates(self, tmp_path, rng):
        path = tmp_path / "hi.wav"
        t = np.arange(44100) / 44100.0
        write_bytes(path, wav_bytes(0.5 * np.sin(2 * np.pi * 440 * t), 44100))
        fm = wav_to_features(path, PipelineConfig())
        assert fm.rows.shape[1] == 41
        assert fm.n_frames > 10


class TestFeatureStore:
    def test_filename_padding(self):
        assert feature_filename(0) == "00000.feat"
        assert feature_filename(123) == "00123.feat"

    def test_workspace_has_one_file_per_record(self, tone_workspace):
        n = len(tone_workspace["manifest"].records)
        assert len(list(tone_workspace["features_dir"].glob("*.feat"))) == n

    def test_missing_indices_are_listed(self, tone_workspace):
        n = len(tone_workspace["manifest"].records)
        with pytest.raises(KftserError, match=f"{n + 3}"):
            load_features_for_indices(tone_workspace["features_dir"], [0, n + 3])


class TestDatasetAssembly:
    def test_training_requires_a_split(self, tone_workspace):
        unsplit = Manifest(records=tone_workspace["manifest"].records)
        with pytest.raises(KftserError, match="train split"):
            train_from_manifest(unsplit, tone_workspace["features_dir"],
                                tone_workspace["cfg"])
        with pytest.raises(KftserError, match="test split"):
            load_test_set(unsplit, tone_workspace["features_dir"])

    def test_trained_model_carries_the_scaler(self, tone_workspace):
        model = tone_workspace["model"]
        assert model.scaler is not None
        assert model.scaler.mean.shape == (41,)
        assert len(tone_workspace["trace"].losses) == tone_workspace["cfg"].epochs

    def test_test_set_alignment(self, tone_workspace):
        mats, labels = load_test_set(tone_workspace["manifest"], tone_workspace["features_dir"])
        assert len(mats) == len(labels) == len(tone_workspace["manifest"].test_indices)
        assert all(0 <= y < 4 for y in labels)
        assert all(fm.rows.shape[1] == 41 for fm in mats)


def _feature_hashes(tmp_path):
    cfg = PipelineConfig()
    manifest = generate_synthetic_dataset(tmp_path / "audio", per_class=2, seed=5)
    extract_to_dir(manifest, cfg, tmp_path / "features")
    paths = sorted((tmp_path / "features").glob("*.feat"))

    # 48 kHz: a tone between two near-silent stretches, so resampling runs and
    # trim_silence cuts both ends.
    rate = 48000
    noise = np.random.default_rng(5).normal(0.0, 1e-4, rate // 2)
    tone = 0.5 * np.sin(2 * np.pi * 330.0 * np.arange(rate) / rate)
    samples = np.concatenate([noise[::2], tone, noise[1::2]])
    write_bytes(tmp_path / "hi.wav", wav_bytes(samples, rate))
    fm = wav_to_features(tmp_path / "hi.wav", cfg)
    assert fm.n_frames < 1.5 * cfg.sample_rate / cfg.hop_length
    save_features(fm, tmp_path / "hi.feat")
    paths.append(tmp_path / "hi.feat")
    return [hashlib.sha256(p.read_bytes()).hexdigest() for p in paths]


def test_feature_files_match_golden_bytes(tmp_path):
    """.feat bytes are pinned for eight 22,050 Hz clips and one 48 kHz clip."""
    assert _feature_hashes(tmp_path) == [
        "038430249d01e0048824aecac63d8c39a6e349b1308be4aeff028137700fadd9",
        "3d08693e131926b23092285bb4053cf3072bc3768b9b0df32d51a3c7f4931b29",
        "56bab3022b54872064d132c9df3fd78b0c7e3a1d3437822013501f3390c3181b",
        "ed1865eac1d60d3fd195e12a9ce2eeea04bb10b4eb3db912d24b1422f146ab57",
        "216732f1209a32909beb1518e4c198f5027f6e41a1ea388176025a33096eda21",
        "13364c63e4b0817bd58126a89ac0d628c217a55fe31863e73eeffadb06dcde31",
        "f7bff9054fb80a3c702b7e025346fa73a22a5c1f93a5b56ed73e3ed7e3d3c5f8",
        "67a4c3a2f0278800dc2719a41369cf6e74618030ba11e25e45bf0d5d7990017d",
        "cc539b7900e232eb225edc5d30ee3063c61b9b2181ab62e39120709d40f1b4ff",
    ]


def _lead_and_tail_clip(rate, seed):
    """0.5 s of digital silence, 1.5 s of a swelling tone over a little noise,
    then 0.5 s of noise at -50 dB full scale."""
    rng = np.random.default_rng(seed)
    t = np.arange(3 * rate // 2) / rate
    voiced = (0.5 * np.sin(2 * np.pi * 220.0 * t) * np.hanning(len(t))
              + 0.01 * rng.normal(size=len(t)))
    tail = 10.0 ** (-50.0 / 20.0) * rng.normal(size=rate // 2)
    return np.concatenate([np.zeros(rate // 2), voiced, tail])


@pytest.mark.parametrize("rate, seed, want", [
    (48000, 11, "4a56afd25a272033412ff057e51fd6a0de893ba6378b02ea31a0bb3cbd511498"),
    (44100, 12, "2a355c276025757f180f37433ddf5bf816b69c2833b3a39ca5eb4b8ea95df168"),
])
def test_trimmed_real_rate_features_match_golden_bytes(tmp_path, rate, seed, want):
    """.feat bytes of a clip whose silent lead and quiet tail the trim drops; the
    hashes were taken when wav_to_features still resampled the whole clip."""
    write_bytes(tmp_path / "clip.wav", wav_bytes(_lead_and_tail_clip(rate, seed), rate))
    fm = wav_to_features(tmp_path / "clip.wav", PipelineConfig())
    assert fm.n_frames == 55  # of 108 frames in the resampled clip
    save_features(fm, tmp_path / "clip.feat")
    assert hashlib.sha256((tmp_path / "clip.feat").read_bytes()).hexdigest() == want
