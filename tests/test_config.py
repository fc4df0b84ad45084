import dataclasses
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kftser.config import PipelineConfig
from kftser.errors import ConfigError
from kftser.evaluation import FUSION_RULES
from kftser.manifest import generate_synthetic_dataset, split_manifest
from kftser.cli import main


def test_defaults_match_pipeline_conventions():
    cfg = PipelineConfig()
    assert cfg.sample_rate == 22050
    assert cfg.trim_threshold_db == 20.0
    assert cfg.frame_length == 2048
    assert cfg.hop_length == 512
    assert cfg.n_mels == 40
    assert cfg.delta_width == 9
    assert cfg.learning_rate == 1e-3
    assert (cfg.beta1, cfg.beta2, cfg.epsilon) == (0.9, 0.999, 1e-8)
    assert cfg.batch_size == 64
    assert cfg.epochs == 100
    assert cfg.kalman_q == 1e-3
    assert cfg.kalman_r == 0.1
    assert cfg.kalman_q / cfg.kalman_r == pytest.approx(0.01)
    assert cfg.fusion == "mean"
    assert cfg.seed == 0


def test_readme_lists_every_key_with_its_default():
    """README's Configuration bullets name each key once, with its default
    in parentheses; fusion's parentheses list FUSION_RULES, default first."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    bullets = section[section.index("\n- ") + 1:].split("\n\n", 1)[0]
    listed = re.findall(r"`(\w+)`\s+\(([^)]*)\)", bullets)
    names = [name for name, _ in listed]
    fields = dataclasses.fields(PipelineConfig)
    assert sorted(names) == sorted(f.name for f in fields)
    documented = dict(listed)
    options = [json.loads(x) for x in documented.pop("fusion").split(" | ")]
    assert tuple(options) == FUSION_RULES and options[0] == PipelineConfig.fusion
    for name, text in documented.items():
        value, default = json.loads(text), getattr(PipelineConfig, name)
        assert (type(value), value) == (type(default), default), name


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown config keys: learning_rte"):
        PipelineConfig.from_dict({"learning_rte": 0.1})


@pytest.mark.parametrize("raw", [{"n_mfcc": 13}, {"shuffle": True}, {"renormalize": True},
                                 {"renormalize": False}])
def test_deleted_keys_rejected_as_unknown(raw):
    """n_mfcc (fixed by features.N_MFCC), shuffle and renormalize (always on)
    are no longer keys, so a file an older save wrote with them is a config
    error."""
    with pytest.raises(ConfigError, match=f"unknown config keys: {next(iter(raw))}$"):
        PipelineConfig.from_dict(raw)


def test_smallest_n_mels_and_frame_length_accepted():
    assert PipelineConfig.from_dict({"n_mels": 13}).n_mels == 13
    assert PipelineConfig.from_dict({"frame_length": 2, "hop_length": 1}).frame_length == 2


@pytest.mark.parametrize("raw, key", [
    ({"n_mfcc": 13}, "n_mfcc"),
    ({"shuffle": True}, "shuffle"),
    ({"renormalize": True}, "unknown config keys: renormalize"),
    ({"renormalize": False}, "unknown config keys: renormalize"),
    ({"n_mels": 12}, "n_mels"),
    ({"frame_length": 1, "hop_length": 1}, "frame_length"),
])
def test_extract_stops_at_config_before_any_file(tmp_path, capsys, raw, key):
    """A config the 41-column layout cannot use, or one naming a deleted key,
    is a usage error before extraction writes anything."""
    manifest = split_manifest(generate_synthetic_dataset(tmp_path / "audio", per_class=1,
                                                         seed=2), 0.5, seed=2)
    manifest.save(tmp_path / "manifest.json")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    out_dir = tmp_path / "features"
    rc = main(["extract", str(tmp_path / "manifest.json"), "--out-dir", str(out_dir),
               "--config", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and key in err
    assert not out_dir.exists()


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


@pytest.mark.parametrize("raw, detail", [
    (b'{"epochs": 3, }', "Expecting property name enclosed in double quotes"),
    (b'{"fusion": "\xff"}', "'utf-8' codec can't decode byte 0xff"),
    (b"[1, 2, 3]", "config file must hold a single JSON object"),
    (b"", "Expecting value"),
], ids=["malformed-json", "non-utf8", "non-object", "empty"])
def test_undecodable_config_names_the_file(tmp_path, capsys, raw, detail):
    """A config that does not decode to one JSON object is a usage error
    whose message starts with the file's path."""
    path = tmp_path / "cfg.json"
    path.write_bytes(raw)
    with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: "):
        PipelineConfig.from_file(path)
    rc = main(["extract", str(tmp_path / "manifest.json"), "--out-dir", str(tmp_path / "f"),
               "--config", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {path}: ") and detail in err
    assert "Traceback" not in err
    assert not (tmp_path / "f").exists()


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
    ({"log_floor": -1.0}, "log_floor must be finite and > 0"),
    ({"log_floor": float("nan")}, "log_floor must be finite and > 0"),
    ({"learning_rate": float("nan")}, "learning_rate must be finite and > 0"),
    ({"learning_rate": float("inf")}, "learning_rate must be finite and > 0"),
    ({"epsilon": float("nan")}, "epsilon must be finite and > 0"),
    ({"epsilon": -1.0}, "epsilon must be finite and > 0"),
    ({"sample_rate": 0}, "sample_rate must be > 0"),
    ({"sample_rate": 65537}, "sample_rate 65537 is unreachable: cannot resample 44100 Hz"),
    ({"n_mels": 0}, "n_mels must be >= 13"),
    ({"n_mels": 12}, "n_mels must be >= 13"),
    ({"frame_length": 1, "hop_length": 1}, "frame_length must be >= 2"),
    ({"trim_threshold_db": 0}, "trim_threshold_db must be finite and > 0"),
    ({"trim_threshold_db": float("nan")}, "trim_threshold_db must be finite and > 0"),
    ({"delta_width": 4}, "delta_width must be odd and >= 3"),
    ({"delta_width": 1}, "delta_width must be odd and >= 3"),
    ({"seed": -1}, "seed must be >= 0"),
    *(({name: 10**400}, f"{name} must be finite")
      for name in ("trim_threshold_db", "log_floor", "learning_rate", "beta1", "beta2",
                   "epsilon", "kalman_q", "kalman_r")),
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


def test_standard_and_odd_sample_rates_load():
    """Every rate CD audio and RAVDESS can be resampled to loads: 8 to 384 kHz
    and an odd one such as 47,999 Hz."""
    for rate in (8000, 11025, 16000, 22050, 24000, 32000, 44100, 48000,
                 88200, 96000, 176400, 192000, 352800, 384000, 47999):
        assert PipelineConfig(sample_rate=rate).sample_rate == rate


def test_field_types_checked():
    for raw in ({"seed": 1.0}, {"kalman_r": False}, {"epochs": True}, {"kalman_q": "0.1"},
                {"fusion": None}):
        with pytest.raises(ConfigError, match=f"{next(iter(raw))} must be"):
            PipelineConfig.from_dict(raw)
    # ints are valid floats
    assert PipelineConfig.from_dict({"kalman_r": 1}).kalman_r == 1


_JSON_VALUES = st.one_of(
    st.integers(),
    st.integers(-10**400, 10**400),  # most far beyond float range
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.text(max_size=8),
    st.none(),
    st.lists(st.integers(), max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from([f.name for f in dataclasses.fields(PipelineConfig)]),
                       _JSON_VALUES, max_size=2))
def test_any_values_load_or_raise_config_error(raw):
    """Whatever JSON values a config holds, loading it succeeds or raises
    ConfigError, which the CLI reports as a usage error; nothing else escapes."""
    try:
        PipelineConfig.from_dict(raw)
    except ConfigError:
        pass
