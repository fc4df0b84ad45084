import numpy as np
import pytest

from kftser import (
    KftserError,
    Manifest,
    PipelineConfig,
    load_features_for_indices,
    train_from_manifest,
    wav_to_features,
    write_wav,
)
from kftser.pipeline import (
    feature_filename,
    framing_config,
    kalman_config,
    mel_filterbank,
    train_config,
)
from kftser.pipeline import test_set as load_test_set


class TestConfigAdapters:
    def test_framing(self):
        cfg = PipelineConfig(frame_length=1024, hop_length=256)
        fcfg = framing_config(cfg)
        assert (fcfg.frame_length, fcfg.hop_length, fcfg.center) == (1024, 256, False)

    def test_filterbank(self):
        fb = mel_filterbank(PipelineConfig(n_mels=30, sample_rate=16000, frame_length=1024))
        assert fb.n_filters == 30
        assert fb.sample_rate == 16000
        assert fb.n_fft == 1024

    def test_training(self):
        cfg = PipelineConfig(learning_rate=0.01, batch_size=32, epochs=7, seed=4)
        tcfg = train_config(cfg)
        assert tcfg.learning_rate == 0.01
        assert tcfg.batch_size == 32
        assert tcfg.epochs == 7
        assert tcfg.seed == 4

    def test_kalman(self):
        kcfg = kalman_config(PipelineConfig(kalman_q=0.02, kalman_r=0.5, renormalize=False))
        assert kcfg.dim == 4
        assert kcfg.q == 0.02
        assert kcfg.r == 0.5
        assert not kcfg.renormalize


class TestWavToFeatures:
    def test_end_to_end_shape_and_id(self, tone_workspace):
        rec = tone_workspace["manifest"].records[0]
        fm = wav_to_features(rec.file_path, tone_workspace["cfg"], utterance_id="first")
        assert fm.utterance_id == "first"
        assert fm.rows.ndim == 2
        assert fm.rows.shape[1] == 41
        assert fm.n_frames > 0

    def test_resamples_foreign_rates(self, tmp_path, rng):
        path = tmp_path / "hi.wav"
        t = np.arange(44100) / 44100.0
        write_wav(path, 0.5 * np.sin(2 * np.pi * 440 * t), 44100)
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
        with pytest.raises(ValueError, match="train split"):
            train_from_manifest(unsplit, tone_workspace["features_dir"],
                                tone_workspace["cfg"])
        with pytest.raises(ValueError, match="test split"):
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
