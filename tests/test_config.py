import json

import pytest

from kftser.config import PipelineConfig
from kftser.errors import ConfigError
from kftser.cli import main


def test_defaults_match_pipeline_conventions():
    cfg = PipelineConfig()
    assert cfg.sample_rate == 22050
    assert cfg.trim_threshold_db == 20.0
    assert cfg.frame_length == 2048
    assert cfg.hop_length == 512
    assert cfg.n_mels == 40
    assert cfg.n_mfcc == 13
    assert cfg.delta_width == 9
    assert cfg.learning_rate == 1e-3
    assert (cfg.beta1, cfg.beta2, cfg.epsilon) == (0.9, 0.999, 1e-8)
    assert cfg.batch_size == 64
    assert cfg.epochs == 100
    assert cfg.kalman_q == 1e-3
    assert cfg.kalman_r == 0.1
    assert cfg.kalman_q / cfg.kalman_r == pytest.approx(0.01)
    assert cfg.renormalize is True
    assert cfg.fusion == "mean"
    assert cfg.seed == 0


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown config keys: learning_rte"):
        PipelineConfig.from_dict({"learning_rte": 0.1})


def test_n_mfcc_other_than_13_rejected():
    with pytest.raises(ConfigError, match="n_mfcc is fixed at 13"):
        PipelineConfig.from_dict({"n_mfcc": 20})
    with pytest.raises(ConfigError, match="n_mfcc"):
        PipelineConfig().with_overrides(n_mfcc=12)
    assert PipelineConfig.from_dict({"n_mfcc": 13}) == PipelineConfig()


def test_file_round_trip_is_lossless(tmp_path):
    cfg = PipelineConfig(sample_rate=16000, epochs=7, fusion="max", seed=42)
    path = tmp_path / "cfg.json"
    cfg.save(path)
    assert PipelineConfig.from_file(path) == cfg
    # and re-serializing produces the same document
    cfg2 = PipelineConfig.from_file(path)
    path2 = tmp_path / "cfg2.json"
    cfg2.save(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_config_file_must_be_object(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps([1, 2, 3]))
    with pytest.raises(ConfigError):
        PipelineConfig.from_file(path)


def test_overrides_beat_file_values_and_none_is_ignored():
    cfg = PipelineConfig(epochs=10, seed=1)
    out = cfg.with_overrides(epochs=None, seed=5)
    assert out.epochs == 10
    assert out.seed == 5
    assert cfg.with_overrides(epochs=None, seed=None) == cfg


@pytest.mark.parametrize("raw, message", [
    ({"epochs": "3"}, "epochs must be int"),
    ({"fusion": "bogus"}, "fusion must be one of"),
    ({"hop_length": 4096}, "hop_length <= frame_length"),
    ({"kalman_r": -1.0}, "r must be finite and >= 0"),
    ({"kalman_r": -1.0}, "kalman_r must be finite and >= 0"),
    ({"kalman_q": -0.5}, "kalman_q must be finite and >= 0"),
    ({"kalman_q": 0.0, "kalman_r": 0.0}, "kalman_q and kalman_r cannot both be zero"),
])
def test_bad_values_rejected_at_load(tmp_path, capsys, raw, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError, match=message):
        PipelineConfig.from_file(path)
    # the CLI reads the config before any input, so it stops there as a usage error
    rc = main(["tune", str(tmp_path / "manifest.json"), "--features", str(tmp_path),
               "--checkpoint", str(tmp_path / "model.ckpt"), "--out",
               str(tmp_path / "tune.json"), "--config", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


def test_field_types_checked():
    for raw in ({"seed": 1.0}, {"shuffle": 1}, {"epochs": True}, {"kalman_q": "0.1"},
                {"fusion": None}):
        with pytest.raises(ConfigError, match=f"{next(iter(raw))} must be"):
            PipelineConfig.from_dict(raw)
    # ints are valid floats
    assert PipelineConfig.from_dict({"kalman_r": 1}).kalman_r == 1
