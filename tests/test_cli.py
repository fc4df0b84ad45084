import argparse
import contextlib
import csv
import io
import json
import re
import shutil
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

try:
    import tomllib
except ImportError:  # Python 3.10
    tomllib = None

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kftser.features import FeatureMatrix, save_features
from kftser.manifest import CLASS_NAMES, Manifest
from kftser.mlp import init_model, load_checkpoint, save_checkpoint
from kftser.cli import _print_tune, build_parser, main
from kftser.kalman import TuneResult

REPO_ROOT = Path(__file__).resolve().parents[1]
CONSOLE_SCRIPT = "kftser.cli:main"


@pytest.fixture(scope="module")
def cli_ws(tmp_path_factory):
    """End-to-end CLI run: synth -> extract -> train, shared read-only."""
    root = tmp_path_factory.mktemp("cli_ws")
    paths = {
        "root": root,
        "audio": root / "audio",
        "manifest": root / "manifest.json",
        "features": root / "features",
        "ckpt": root / "model.ckpt",
    }
    assert main(["synth", "--out-dir", str(paths["audio"]), "--out", str(paths["manifest"]),
                 "--per-class", "4", "--seed", "3", "--test-fraction", "0.25"]) == 0
    assert main(["extract", str(paths["manifest"]), "--out-dir", str(paths["features"])]) == 0
    assert main(["train", str(paths["manifest"]), "--features", str(paths["features"]),
                 "--out", str(paths["ckpt"]), "--epochs", "12", "--seed", "3"]) == 0
    return paths


def _with_record(raw: dict, **fields) -> str:
    """The manifest as JSON, with fields replaced in its first record."""
    return json.dumps({**raw, "records": [{**raw["records"][0], **fields}, *raw["records"][1:]]})


class TestSynthAndManifest:
    def test_synth_reports_files_and_split(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        rc = main(["synth", "--out-dir", str(tmp_path / "a"), "--out", str(out),
                   "--per-class", "2", "--seed", "1", "--test-fraction", "0.5"])
        assert rc == 0
        assert f"8 files under {tmp_path / 'a'}" in capsys.readouterr().out
        m = Manifest.load(out)
        assert len(m.records) == 8
        assert len(m.test_indices) == 4
        assert not set(m.test_indices) & set(m.train_indices)

    @pytest.mark.parametrize("option, value, name", [
        ("--duration", "inf", "duration"), ("--duration", "nan", "duration"),
        ("--sample-rate", "0", "sample_rate"), ("--sample-rate", "-5", "sample_rate"),
        ("--test-fraction", "1.5", "test_fraction"), ("--test-fraction", "0", "test_fraction"),
        ("--test-fraction", "nan", "test_fraction"), ("--seed", "-1", "seed"),
        # refused before any array is made: a 16-bit WAV cannot hold the clip or its rate
        ("--duration", "1e308", "duration"), ("--duration", "1e6", "duration"),
        ("--sample-rate", "2147483648", "sample_rate")])
    def test_synth_bad_numbers_are_usage_errors(self, tmp_path, capsys, option, value, name):
        """Checked before anything is written: no directory, no WAV."""
        out_dir = tmp_path / "audio"
        assert main(["synth", "--out-dir", str(out_dir), "--per-class", "2", option, value]) == 2
        assert capsys.readouterr().err.startswith(f"error: {name} must ")
        assert not out_dir.exists()

    def test_manifest_scans_and_splits(self, cli_ws, tmp_path, capsys):
        out = tmp_path / "m2.json"
        rc = main(["manifest", str(cli_ws["audio"]), "--out", str(out),
                   "--test-fraction", "0.25", "--seed", "5"])
        assert rc == 0
        assert "16 records (train=12/test=4)" in capsys.readouterr().out
        assert out.is_file()

    def test_manifest_missing_directory_is_a_runtime_error(self, tmp_path, capsys):
        rc = main(["manifest", str(tmp_path / "nope"), "--out", str(tmp_path / "m.json")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_manifest_missing_class_is_a_runtime_error(self, cli_ws, tmp_path, capsys):
        """A tree without some class is a data failure (exit 1), and no
        manifest is written."""
        angry = tmp_path / "angry"
        angry.mkdir()
        for wav in cli_ws["audio"].glob("03-01-05-*.wav"):  # emotion code 05 is angry
            shutil.copy(wav, angry)
        out = tmp_path / "m.json"
        assert main(["manifest", str(angry), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: cannot split: no records for class(es) calm, happy, sad\n")
        assert not out.exists()

    def test_bad_fraction_is_an_argument_error(self, cli_ws, tmp_path, capsys):
        rc = main(["manifest", str(cli_ws["audio"]), "--out", str(tmp_path / "m.json"),
                   "--test-fraction", "1.5"])
        assert rc == 2
        assert "test_fraction" in capsys.readouterr().err

    def test_unknown_subcommand_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestExtract:
    def test_prints_per_class_frame_counts(self, cli_ws, tmp_path, capsys):
        out_dir = tmp_path / "feats"
        rc = main(["extract", str(cli_ws["manifest"]), "--out-dir", str(out_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        for name in ("angry", "calm", "happy", "sad"):
            line = next(l for l in out.splitlines() if l.startswith(f"{name}: "))
            assert int(line.split()[1]) > 0
        assert "16 feature files written" in out
        assert len(list(out_dir.glob("*.feat"))) == 16

    def test_rerun_is_byte_identical(self, cli_ws, tmp_path):
        out_dir = tmp_path / "feats"
        assert main(["extract", str(cli_ws["manifest"]), "--out-dir", str(out_dir)]) == 0
        a = (cli_ws["features"] / "00000.feat").read_bytes()
        b = (out_dir / "00000.feat").read_bytes()
        assert a == b

    def test_missing_audio_fails_and_cleans_up(self, cli_ws, tmp_path, capsys):
        raw = json.loads(cli_ws["manifest"].read_text())
        raw["records"][-1]["file_path"] = str(tmp_path / "gone.wav")
        bad_manifest = tmp_path / "bad.json"
        bad_manifest.write_text(json.dumps(raw))
        out_dir = tmp_path / "feats"
        rc = main(["extract", str(bad_manifest), "--out-dir", str(out_dir)])
        assert rc == 1
        assert "gone.wav" in capsys.readouterr().err
        assert list(out_dir.glob("*.feat")) == []

    @pytest.mark.parametrize("mangle, detail", [
        (lambda raw: '{"records": []}', "KeyError"),
        (lambda raw: json.dumps({**raw, "records": [{**raw["records"][0], "emotion": "bored"}]
                                 + raw["records"][1:]}), "KeyError: 'BORED'"),
        (lambda raw: "[]", "TypeError"),
        (lambda raw: '{"records": [', "JSONDecodeError"),
        (lambda raw: json.dumps({**raw, "test_indices": [len(raw["records"])]}),
         "split indices [16] outside the 16 records"),
        (lambda raw: _with_record(raw, file_path=5), "file_path must be a string, got 5"),
        (lambda raw: _with_record(raw, file_path=None), "file_path must be a string, got None"),
        (lambda raw: _with_record(raw, intensity=2), "intensity must be a string, got 2"),
        (lambda raw: json.dumps({**raw, "test_indices": raw["test_indices"] + [1]}),
         "split indices [1] listed more than once"),
        (lambda raw: json.dumps({**raw, "train_indices": raw["train_indices"] + [1]}),
         "split indices [1] listed more than once"),
        (lambda raw: json.dumps({**raw, "train_indices": [1.7] + raw["train_indices"][1:]}),
         "split indices [1.7] are not integers"),
        (lambda raw: json.dumps({**raw, "train_indices": [True] + raw["train_indices"][1:]}),
         "split indices [True] are not integers"),
        (lambda raw: _with_record(raw, actor_id=1.7), "actor_id must be an integer, got 1.7"),
        (lambda raw: _with_record(raw, statement=True), "statement must be an integer, got True"),
        (lambda raw: _with_record(raw, repetition="3"), "repetition must be an integer, got '3'"),
        (lambda raw: json.dumps({**raw, "split_seed": 2.5}),
         "split_seed must be an integer, got 2.5"),
    ], ids=["no-split-keys", "unknown-emotion", "json-list", "bad-json", "index-out-of-range",
            "file_path-int", "file_path-null", "intensity-int", "index-in-both-splits",
            "index-repeated", "index-float", "index-bool", "actor_id-float", "statement-bool",
            "repetition-str", "split_seed-float"])
    def test_malformed_manifest_is_a_runtime_error(self, cli_ws, tmp_path, capsys, mangle,
                                                   detail):
        raw = json.loads(cli_ws["manifest"].read_text())
        assert 1 in raw["train_indices"]  # the rows that repeat index 1 rely on it
        bad = tmp_path / "bad.json"
        bad.write_text(mangle(raw))
        rc = main(["extract", str(bad), "--out-dir", str(tmp_path / "feats")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: malformed manifest")
        assert detail in err
        assert "Traceback" not in err
        assert not (tmp_path / "feats").exists()

    @pytest.mark.parametrize("raw, message", [
        ('{"learning_rte": 0.01}', "unknown config keys: learning_rte"),
        ('{"epochs": -1}', "invalid config: epochs must be >= 0"),
        ('{"fusion": 3}', "fusion must be str, got 3"),
        ('{"sample_rate": 1000003}', "sample_rate 1000003 is unreachable: cannot resample "
         "44100 Hz to 1000003 Hz: the ratio 1000003/44100 in lowest terms has a term above "
         "65,536"),
    ], ids=["unknown-key", "negative-epochs", "fusion-int", "unreachable-sample-rate"])
    def test_config_errors_name_the_file(self, cli_ws, tmp_path, capsys, raw, message):
        """A config whose keys or values are wrong is a usage error that starts
        with the config file's path, like one that does not decode."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(raw)
        rc = main(["extract", str(cli_ws["manifest"]), "--out-dir", str(tmp_path / "f"),
                   "--config", str(cfg)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
        assert not (tmp_path / "f").exists()


class TestTrain:
    def test_writes_checkpoint_and_trace(self, cli_ws, capsys):
        model = load_checkpoint(cli_ws["ckpt"])
        assert model.layer_dims == (41, 256, 128, 4)
        assert model.scaler is not None
        trace_path = cli_ws["root"] / "model.ckpt.trace.csv"
        assert trace_path.is_file()
        with open(trace_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "loss", "frame_accuracy"]
        assert len(rows) == 13

    def test_zero_epochs_saves_the_initialized_model(self, cli_ws, tmp_path, capsys):
        out = tmp_path / "fresh.ckpt"
        rc = main(["train", str(cli_ws["manifest"]), "--features", str(cli_ws["features"]),
                   "--out", str(out), "--epochs", "0"])
        assert rc == 0
        assert "epochs: 0 (checkpoint holds the initialized model)" in capsys.readouterr().out
        assert load_checkpoint(out).layer_dims == (41, 256, 128, 4)

    def test_same_seed_checkpoints_are_byte_identical(self, cli_ws, tmp_path):
        outs = [tmp_path / "a.ckpt", tmp_path / "b.ckpt"]
        for out in outs:
            assert main(["train", str(cli_ws["manifest"]), "--features",
                         str(cli_ws["features"]), "--out", str(out),
                         "--epochs", "4", "--seed", "17"]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_epochs_flag_overrides_config_file(self, cli_ws, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"epochs": 3}')
        rc = main(["train", str(cli_ws["manifest"]), "--features", str(cli_ws["features"]),
                   "--out", str(tmp_path / "m.ckpt"), "--config", str(cfg),
                   "--epochs", "5"])
        assert rc == 0
        assert "epochs: 5," in capsys.readouterr().out

    def test_missing_features_dir_is_a_runtime_error(self, cli_ws, tmp_path, capsys):
        rc = main(["train", str(cli_ws["manifest"]), "--features", str(tmp_path / "void"),
                   "--out", str(tmp_path / "m.ckpt")])
        assert rc == 1
        assert "features missing" in capsys.readouterr().err


class TestEvaluate:
    def test_writes_all_three_reports(self, cli_ws, tmp_path, capsys):
        out_dir = tmp_path / "reports"
        rc = main(["evaluate", str(cli_ws["manifest"]), "--features", str(cli_ws["features"]),
                   "--checkpoint", str(cli_ws["ckpt"]), "--out-dir", str(out_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        report = json.loads((out_dir / "eval_report.json").read_text())
        gain = json.loads((out_dir / "gain_report.json").read_text())
        assert set(gain) == {"frame_level_accuracy", "utterance_level_accuracy",
                             "absolute_gain"}
        printed_acc = float(next(
            l for l in out.splitlines() if l.startswith("utterance accuracy:")
        ).split(":")[1])
        assert printed_acc == pytest.approx(report["accuracy"], abs=5e-5)
        assert printed_acc == pytest.approx(gain["utterance_level_accuracy"], abs=5e-5)
        header = (out_dir / "confusion.csv").read_text().splitlines()[0]
        assert header == "class,angry,calm,happy,sad"
        assert "utterances: 4" in out

    def test_missing_checkpoint_is_a_runtime_error(self, cli_ws, tmp_path, capsys):
        rc = main(["evaluate", str(cli_ws["manifest"]), "--features", str(cli_ws["features"]),
                   "--checkpoint", str(tmp_path / "none.ckpt"),
                   "--out-dir", str(tmp_path / "r")])
        assert rc == 1

    def test_corrupt_checkpoint_is_a_runtime_error(self, cli_ws, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"garbage" * 10)
        rc = main(["evaluate", str(cli_ws["manifest"]), "--features", str(cli_ws["features"]),
                   "--checkpoint", str(bad), "--out-dir", str(tmp_path / "r")])
        assert rc == 1
        assert "magic" in capsys.readouterr().err

    def test_truncated_feature_file_is_a_runtime_error(self, cli_ws, tmp_path, capsys):
        features = tmp_path / "features"
        shutil.copytree(cli_ws["features"], features)
        manifest = Manifest.load(cli_ws["manifest"])
        victim = features / f"{manifest.test_indices[0]:05d}.feat"
        victim.write_bytes(victim.read_bytes()[:-8])
        rc = main(["evaluate", str(cli_ws["manifest"]), "--features", str(features),
                   "--checkpoint", str(cli_ws["ckpt"]), "--out-dir", str(tmp_path / "r")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "payload" in err
        assert "Traceback" not in err

    def test_foreign_class_order_is_rejected(self, cli_ws, tmp_path, capsys):
        other = init_model((41, 8, 4), seed=0, class_order=("w", "x", "y", "z"))
        path = tmp_path / "other.ckpt"
        save_checkpoint(other, path)
        rc = main(["evaluate", str(cli_ws["manifest"]), "--features", str(cli_ws["features"]),
                   "--checkpoint", str(path), "--out-dir", str(tmp_path / "r")])
        assert rc == 1
        assert "class order" in capsys.readouterr().err


class TestTrajectory:
    def test_csv_columns_and_simplex_rows(self, cli_ws, tmp_path, capsys):
        wav = sorted(cli_ws["audio"].glob("*.wav"))[0]
        out = tmp_path / "traj.csv"
        rc = main(["trajectory", str(wav), "--checkpoint", str(cli_ws["ckpt"]),
                   "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["frame_index", "z_angry", "z_calm", "z_happy", "z_sad",
                           "x_angry", "x_calm", "x_happy", "x_sad"]
        body = np.array([[float(v) for v in r] for r in rows[1:]])
        assert f"{len(body)} frames" in printed
        np.testing.assert_array_equal(body[:, 0], np.arange(len(body)))
        np.testing.assert_allclose(body[:, 1:5].sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(body[:, 5:9].sum(axis=1), 1.0, atol=1e-9)

    def test_filtering_does_not_add_label_switches(self, cli_ws, tmp_path):
        wav = sorted(cli_ws["audio"].glob("*.wav"))[-1]
        out = tmp_path / "traj.csv"
        assert main(["trajectory", str(wav), "--checkpoint", str(cli_ws["ckpt"]),
                     "--out", str(out)]) == 0
        body = np.loadtxt(out, delimiter=",", skiprows=1)
        raw_switches = np.count_nonzero(np.diff(body[:, 1:5].argmax(axis=1)))
        filt_switches = np.count_nonzero(np.diff(body[:, 5:9].argmax(axis=1)))
        assert filt_switches <= raw_switches

    def test_unreadable_audio_is_a_runtime_error(self, cli_ws, tmp_path, capsys):
        rc = main(["trajectory", str(tmp_path / "nope.wav"),
                   "--checkpoint", str(cli_ws["ckpt"]), "--out", str(tmp_path / "t.csv")])
        assert rc == 1

    def test_zero_sample_rate_is_a_runtime_error(self, cli_ws, tmp_path, capsys):
        raw = bytearray(sorted(cli_ws["audio"].glob("*.wav"))[0].read_bytes())
        raw[24:28] = bytes(4)  # the fmt chunk's sample-rate field
        wav = tmp_path / "zero_rate.wav"
        wav.write_bytes(bytes(raw))
        rc = main(["trajectory", str(wav), "--checkpoint", str(cli_ws["ckpt"]),
                   "--out", str(tmp_path / "t.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {wav}: ") and "sample rate 0 (byte 12)" in err

    def test_extreme_sample_rate_is_a_runtime_error(self, cli_ws, tmp_path, capsys):
        """A header rate whose resampling kernel would take 2 TiB is one error
        line naming the file and the rate, not a MemoryError traceback."""
        raw = bytearray(sorted(cli_ws["audio"].glob("*.wav"))[0].read_bytes())
        raw[24:28] = struct.pack("<I", 4_294_967_291)  # the fmt chunk's sample-rate field
        wav = tmp_path / "extreme_rate.wav"
        wav.write_bytes(bytes(raw))
        rc = main(["trajectory", str(wav), "--checkpoint", str(cli_ws["ckpt"]),
                   "--out", str(tmp_path / "t.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {wav}: cannot resample 4294967291 Hz to 22050 Hz")
        assert err.count("\n") == 1
        assert not (tmp_path / "t.csv").exists()

    def test_non_finite_float_audio_is_a_runtime_error(self, cli_ws, tmp_path, capsys):
        samples = np.full(22050, 0.25, dtype="<f4")
        samples[300] = np.nan
        fmt = struct.pack("<HHIIHH", 3, 1, 22050, 22050 * 4, 4, 32)
        body = b"fmt " + struct.pack("<I", len(fmt)) + fmt
        body += b"data" + struct.pack("<I", samples.nbytes) + samples.tobytes()
        wav = tmp_path / "nan.wav"
        wav.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)
        rc = main(["trajectory", str(wav), "--checkpoint", str(cli_ws["ckpt"]),
                   "--out", str(tmp_path / "t.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {wav}: non-finite sample") and "index 300" in err
        assert not (tmp_path / "t.csv").exists()


class TestTune:
    def test_writes_grid_results(self, cli_ws, tmp_path, capsys):
        out = tmp_path / "tune.json"
        rc = main(["tune", str(cli_ws["manifest"]), "--features", str(cli_ws["features"]),
                   "--checkpoint", str(cli_ws["ckpt"]), "--grid", "0.001,0.1",
                   "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["best_ratio"] in (0.001, 0.1)
        assert payload["best_q"] == pytest.approx(payload["best_ratio"] * 0.1)
        assert set(payload["accuracies"]) == {"0.001", "0.1"}
        assert "best ratio:" in capsys.readouterr().out

    def test_a_grid_where_every_ratio_ties_says_so(self, cli_ws, tmp_path, capsys):
        out = tmp_path / "tune.json"
        rc = main(["tune", str(cli_ws["manifest"]), "--features", str(cli_ws["features"]),
                   "--checkpoint", str(cli_ws["ckpt"]), "--grid", "0.01,0.0001,0.001",
                   "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert len(set(payload["accuracies"].values())) == 1  # the model fits its train split
        assert payload["best_ratio"] == 0.0001
        stdout = capsys.readouterr().out
        tie = [line for line in stdout.splitlines() if line.startswith("note:")]
        assert tie == [f"note: all 3 ratios tie at accuracy "
                       f"{payload['accuracies']['0.0001']:.4f}, so the pick is the smallest "
                       "ratio, the edge of the grid"]

    def test_no_tie_note_when_the_ratios_differ(self, capsys):
        _print_tune(TuneResult(best_ratio=0.01, best_q=0.001,
                               accuracies={0.001: 0.5, 0.01: 0.75}), "mean")
        _print_tune(TuneResult(best_ratio=0.01, best_q=0.001, accuracies={0.01: 0.75}), "mean")
        assert "note:" not in capsys.readouterr().out

    @pytest.mark.parametrize("fusion", ["mean", "max", "final"])
    def test_a_fusion_the_tune_does_not_score_gets_a_note(self, cli_ws, tmp_path, capsys,
                                                          fusion):
        """The tune always scores mean fusion; any other config rule is named."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fusion": fusion}))
        rc = main(["tune", str(cli_ws["manifest"]), "--features", str(cli_ws["features"]),
                   "--checkpoint", str(cli_ws["ckpt"]), "--grid", "0.001,0.1",
                   "--out", str(tmp_path / "t.json"), "--config", str(cfg)])
        assert rc == 0
        notes = [line for line in capsys.readouterr().out.splitlines()
                 if "mean fusion" in line]
        expected = [f"note: the tune scores each ratio by mean fusion; the config's fusion "
                    f"is '{fusion}', so the pick is not tuned for it"]
        assert notes == ([] if fusion == "mean" else expected)

    @pytest.mark.parametrize("grid, message", [
        (",", "ratio grid is empty"),
        ("0.01,-0.1", "q/r ratio must be finite and >= 0, got -0.1"),
        ("nan", "q/r ratio must be finite and >= 0, got nan"),
        ("0.1,inf", "q/r ratio must be finite and >= 0, got inf"),
    ])
    def test_bad_grid_is_an_argument_error_before_any_loading(self, cli_ws, tmp_path, capsys,
                                                               grid, message):
        """The grid is checked first: a missing checkpoint would otherwise exit 1."""
        out = tmp_path / "t.json"
        rc = main(["tune", str(cli_ws["manifest"]), "--features", str(cli_ws["features"]),
                   "--checkpoint", str(tmp_path / "missing.ckpt"), f"--grid={grid}",
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_zero_r_is_an_argument_error(self, cli_ws, tmp_path, capsys):
        """q is tuned as ratio*r, so r = 0 leaves nothing to tune; say so, not q = r = 0."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kalman_r": 0.0}))
        out = tmp_path / "t.json"
        rc = main(["tune", str(cli_ws["manifest"]), "--features", str(cli_ws["features"]),
                   "--checkpoint", str(cli_ws["ckpt"]), "--out", str(out),
                   "--config", str(cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: tuning q as ratio*r needs kalman_r > 0, got kalman_r=0.0\n"
        assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "trajectory", "tune"])
def test_checkpoint_of_the_wrong_input_width_is_a_runtime_error(cli_ws, tmp_path, capsys,
                                                                 command):
    """A checkpoint trained on other features is bad data, not a usage error."""
    path = tmp_path / "narrow.ckpt"
    save_checkpoint(init_model((10, 8, 4), seed=0), path)
    out = tmp_path / "out"
    inputs = {"evaluate": [str(cli_ws["manifest"]), "--features", str(cli_ws["features"]),
                           "--out-dir", str(out)],
              "trajectory": [str(sorted(cli_ws["audio"].glob("*.wav"))[0]), "--out", str(out)],
              "tune": [str(cli_ws["manifest"]), "--features", str(cli_ws["features"]),
                       "--out", str(out)]}
    rc = main([command, *inputs[command], "--checkpoint", str(path)])
    assert rc == 1
    assert capsys.readouterr().err == (f"error: {path}: checkpoint input width 10 does not "
                                       "match the 41 features per frame\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "trajectory", "tune", "train"])
def test_overflowing_inputs_are_a_runtime_error(cli_ws, tmp_path, capsys, command):
    """Finite inputs whose arithmetic overflows, a checkpoint of 1e200
    parameters or a train-split .feat of 1e308 values, stop at the first
    overflow: exit 1, one error line naming the injected input, no
    RuntimeWarning (the test run turns each into an error), and no output."""
    model = load_checkpoint(cli_ws["ckpt"])
    model.params[:] = 1e200
    ckpt = tmp_path / "huge.ckpt"
    save_checkpoint(model, ckpt)
    features = tmp_path / "features"
    shutil.copytree(cli_ws["features"], features)
    victim = features / f"{Manifest.load(cli_ws['manifest']).train_indices[0]:05d}.feat"
    save_features(FeatureMatrix(rows=np.full((5, 41), 1e308)), victim)
    out = tmp_path / "out"
    inputs = {"evaluate": [str(cli_ws["manifest"]), "--features", str(cli_ws["features"]),
                           "--checkpoint", str(ckpt), "--out-dir", str(out)],
              "trajectory": [str(sorted(cli_ws["audio"].glob("*.wav"))[0]),
                             "--checkpoint", str(ckpt), "--out", str(out)],
              "tune": [str(cli_ws["manifest"]), "--features", str(cli_ws["features"]),
                       "--checkpoint", str(ckpt), "--out", str(out)],
              "train": [str(cli_ws["manifest"]), "--features", str(features),
                        "--out", str(out), "--epochs", "1"]}
    assert main([command, *inputs[command]]) == 1
    captured = capsys.readouterr()
    assert re.fullmatch(r"error: [^\n]*overflow[^\n]*\n", captured.err)
    assert str(features if command == "train" else ckpt) in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("n_frames, bad_frame, bad_value, detail", [
    (0, None, None, "holds no frames"),
    (3, 0, np.nan, "non-finite value in frame 0"),
    (4, 2, -np.inf, "non-finite value in frame 2"),
], ids=["zero-frames", "nan", "minus-inf"])
@pytest.mark.parametrize("command", ["evaluate", "tune", "train"])
def test_corrupt_feature_file_is_a_runtime_error(cli_ws, tmp_path, capsys, command, n_frames,
                                                 bad_frame, bad_value, detail):
    """A .feat with no frames or a non-finite value is bad data (exit 1), named
    by its path, before any output is written; train does not drop it."""
    features = tmp_path / "features"
    shutil.copytree(cli_ws["features"], features)
    manifest = Manifest.load(cli_ws["manifest"])
    split = manifest.test_indices if command == "evaluate" else manifest.train_indices
    victim = features / f"{split[0]:05d}.feat"
    rows = np.full((n_frames, 41), 0.5)
    if bad_frame is not None:
        rows[bad_frame, 40] = bad_value
    save_features(FeatureMatrix(rows=rows), victim)
    out = tmp_path / "out"
    outputs = {"evaluate": ["--checkpoint", str(cli_ws["ckpt"]), "--out-dir", str(out)],
               "tune": ["--checkpoint", str(cli_ws["ckpt"]), "--out", str(out)],
               "train": ["--out", str(out), "--epochs", "1"]}
    rc = main([command, str(cli_ws["manifest"]), "--features", str(features),
               *outputs[command]])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {victim}: {detail}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "trajectory"])
def test_write_into_a_missing_directory_names_the_target(cli_ws, tmp_path, monkeypatch, capsys,
                                                         command):
    """A write that fails exits 1 naming the file asked for, not the
    temporary file it is written through, and leaves no temporary file."""
    monkeypatch.chdir(tmp_path)
    inputs = {"train": [str(cli_ws["manifest"]), "--features", str(cli_ws["features"]),
                        "--out", "nodir/m.ckpt", "--epochs", "0"],
              "trajectory": [str(sorted(cli_ws["audio"].glob("*.wav"))[0]),
                             "--checkpoint", str(cli_ws["ckpt"]), "--out", "nodir/t.csv"]}
    rc = main([command, *inputs[command]])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno 2] No such file or directory: 'nodir/")
    assert ".tmp" not in err
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.fixture(scope="module")
def run_ws(cli_ws, tmp_path_factory):
    """`kftser run` on the cli_ws manifest with the seed and epochs cli_ws trained at."""
    out_dir = tmp_path_factory.mktemp("run_ws")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = main(["run", str(cli_ws["manifest"]), "--out-dir", str(out_dir),
                   "--epochs", "12", "--seed", "3"])
    assert rc == 0
    return out_dir, stdout.getvalue()


class TestRun:
    def test_writes_every_artifact_and_prints_best_ratio(self, run_ws):
        out_dir, stdout = run_ws
        assert "best ratio:" in stdout
        assert "utterance accuracy:" in stdout
        assert "mean fusion" not in stdout  # no fusion note at the default rule
        for name in ("model.ckpt", "eval_report.json", "gain_report.json",
                     "confusion.csv", "trajectory_000.csv"):
            assert (out_dir / name).is_file(), name
        assert len(list((out_dir / "features").glob("*.feat"))) == 16
        report = json.loads((out_dir / "eval_report.json").read_text())
        assert set(report["classes"]) == set(CLASS_NAMES)

    def test_prints_the_tie_when_every_ratio_ties(self, run_ws):
        _, stdout = run_ws
        scores = {line.split("accuracy ")[1] for line in stdout.splitlines()
                  if line.startswith("ratio ")}
        assert len(scores) == 1
        assert (f"note: all 5 ratios tie at accuracy {scores.pop()}, so the pick is the "
                "smallest ratio, the edge of the grid") in stdout.splitlines()

    def test_notes_a_fusion_the_tune_does_not_score(self, cli_ws, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fusion": "max", "epochs": 1}))
        rc = main(["run", str(cli_ws["manifest"]), "--out-dir", str(tmp_path / "out"),
                   "--config", str(cfg)])
        assert rc == 0
        assert ("note: the tune scores each ratio by mean fusion; the config's fusion is "
                "'max', so the pick is not tuned for it") in capsys.readouterr().out.splitlines()

    def test_matches_extract_then_train(self, run_ws, cli_ws):
        out_dir, _ = run_ws
        assert (out_dir / "model.ckpt").read_bytes() == cli_ws["ckpt"].read_bytes()
        for feat in sorted(cli_ws["features"].glob("*.feat")):
            assert (out_dir / "features" / feat.name).read_bytes() == feat.read_bytes()

    def test_prints_the_training_line_train_prints(self, run_ws, cli_ws, tmp_path, capsys):
        """run scores only its final model and train scores every epoch; the
        final accuracy they print must agree."""
        _, stdout = run_ws
        assert main(["train", str(cli_ws["manifest"]), "--features", str(cli_ws["features"]),
                     "--out", str(tmp_path / "m.ckpt"), "--epochs", "12", "--seed", "3"]) == 0
        want = [line for line in capsys.readouterr().out.splitlines() if line.startswith("epochs:")]
        assert len(want) == 1 and want[0].startswith("epochs: 12, final loss ")
        assert [line for line in stdout.splitlines() if line.startswith("epochs:")] == want

    def test_matches_tune_then_evaluate_at_the_tuned_q(self, run_ws, cli_ws, tmp_path):
        out_dir, _ = run_ws
        common = [str(cli_ws["manifest"]), "--features", str(cli_ws["features"]),
                  "--checkpoint", str(cli_ws["ckpt"])]
        assert main(["tune", *common, "--out", str(tmp_path / "tune.json")]) == 0
        best_q = json.loads((tmp_path / "tune.json").read_text())["best_q"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kalman_q": best_q}))
        assert main(["evaluate", *common, "--out-dir", str(tmp_path / "r"),
                     "--config", str(cfg)]) == 0
        for name in ("eval_report.json", "gain_report.json", "confusion.csv"):
            assert (out_dir / name).read_bytes() == (tmp_path / "r" / name).read_bytes()
        manifest = Manifest.load(cli_ws["manifest"])
        wav = manifest.records[manifest.test_indices[0]].file_path
        assert main(["trajectory", wav, "--checkpoint", str(cli_ws["ckpt"]),
                     "--out", str(tmp_path / "t.csv"), "--config", str(cfg)]) == 0
        assert ((out_dir / "trajectory_000.csv").read_bytes()
                == (tmp_path / "t.csv").read_bytes())

    @pytest.mark.parametrize("raw, message", [
        ('{"trim_threshold_db": NaN}', "trim_threshold_db must be finite and > 0, got nan"),
        ('{"learning_rate": Infinity}', "learning_rate must be finite and > 0, got inf"),
        ('{"epsilon": -1.0}', "epsilon must be finite and > 0, got -1.0"),
    ], ids=["nan-threshold", "inf-learning-rate", "negative-epsilon"])
    def test_bad_config_fails_before_writing(self, cli_ws, tmp_path, capsys, raw, message):
        """JSON's NaN and Infinity literals and out-of-range values stop `run`
        at load, as a usage error naming the key, before --out-dir exists."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(raw)
        rc = main(["run", str(cli_ws["manifest"]), "--out-dir", str(tmp_path / "run"),
                   "--config", str(cfg), "--epochs", "1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and message in captured.err
        assert captured.out == ""
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("split", ["train_indices", "test_indices"])
    def test_unsplit_manifest_fails_before_extracting(self, cli_ws, tmp_path, capsys,
                                                      split):
        raw = json.loads(cli_ws["manifest"].read_text())
        raw[split] = []
        bad_manifest = tmp_path / "unsplit.json"
        bad_manifest.write_text(json.dumps(raw))
        rc = main(["run", str(bad_manifest), "--out-dir", str(tmp_path / "run")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad_manifest}: run needs a train and a test split")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "run" / "features").exists()

    def test_zero_r_fails_before_extracting(self, cli_ws, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kalman_r": 0.0}))
        rc = main(["run", str(cli_ws["manifest"]), "--out-dir", str(tmp_path / "run"),
                   "--config", str(cfg), "--epochs", "1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == "error: tuning q as ratio*r needs kalman_r > 0, got kalman_r=0.0\n"
        assert captured.out == ""
        assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command, split", [("train", "train"), ("tune", "train"),
                                            ("evaluate", "test")])
def test_unsplit_manifest_is_a_data_error(cli_ws, tmp_path, capsys, command, split):
    """A manifest without the split a command needs is malformed data (exit 1),
    reported in one line before anything is written."""
    raw = json.loads(cli_ws["manifest"].read_text())
    raw["train_indices"] = raw["test_indices"] = []
    unsplit = tmp_path / "unsplit.json"
    unsplit.write_text(json.dumps(raw))
    out = tmp_path / "out"
    outputs = {"train": ["--out", str(out)],
               "tune": ["--checkpoint", str(cli_ws["ckpt"]), "--out", str(out)],
               "evaluate": ["--checkpoint", str(cli_ws["ckpt"]), "--out-dir", str(out)]}
    rc = main([command, str(unsplit), "--features", str(cli_ws["features"]), *outputs[command]])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: manifest has no {split} split")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert sorted(tmp_path.iterdir()) == [unsplit]


class TestLoggingEnv:
    def test_unknown_log_level_warns_and_proceeds(self, cli_ws, tmp_path, capsys,
                                                  monkeypatch):
        monkeypatch.setenv("KFTSER_LOG", "verbose")
        rc = main(["manifest", str(cli_ws["audio"]), "--out", str(tmp_path / "m.json")])
        assert rc == 0
        assert "unknown KFTSER_LOG" in capsys.readouterr().err


# Flags of each subcommand that take a value; positionals come first, in order.
_ARGV_FLAGS = {
    "manifest": (["root"], ["--out", "--test-fraction", "--seed"]),
    "extract": (["manifest"], ["--out-dir", "--config"]),
    "train": (["manifest"], ["--features", "--out", "--trace", "--config", "--seed",
                             "--epochs"]),
    "evaluate": (["manifest"], ["--features", "--checkpoint", "--out-dir", "--config"]),
    "trajectory": (["audio"], ["--checkpoint", "--out", "--config"]),
    "tune": (["manifest"], ["--features", "--checkpoint", "--grid", "--out", "--config"]),
    "synth": ([], ["--out-dir", "--out", "--per-class", "--sample-rate", "--duration",
                   "--seed", "--test-fraction"]),
    "run": (["manifest"], ["--out-dir", "--config", "--seed", "--epochs"]),
}
# (required, default, type) of every argument in _ARGV_FLAGS, by positional
# name or option string.
_REQUIRED, _OPTIONAL = (True, None, None), (False, None, None)
_CLI_SURFACE = {
    "manifest": {"root": _REQUIRED, "--out": _REQUIRED, "--test-fraction": (False, 0.2, float),
                 "--seed": (False, 0, int)},
    "extract": {"manifest": _REQUIRED, "--out-dir": _REQUIRED, "--config": _OPTIONAL},
    "train": {"manifest": _REQUIRED, "--features": _REQUIRED, "--out": _REQUIRED,
              "--trace": _OPTIONAL, "--config": _OPTIONAL, "--seed": (False, None, int),
              "--epochs": (False, None, int)},
    "evaluate": {"manifest": _REQUIRED, "--features": _REQUIRED, "--checkpoint": _REQUIRED,
                 "--out-dir": _REQUIRED, "--config": _OPTIONAL},
    "trajectory": {"audio": _REQUIRED, "--checkpoint": _REQUIRED, "--out": _REQUIRED,
                   "--config": _OPTIONAL},
    "tune": {"manifest": _REQUIRED, "--features": _REQUIRED, "--checkpoint": _REQUIRED,
             "--grid": _OPTIONAL, "--out": _REQUIRED, "--config": _OPTIONAL},
    "synth": {"--out-dir": _REQUIRED, "--out": _OPTIONAL, "--per-class": (False, 10, int),
              "--sample-rate": (False, 22050, int), "--duration": (False, 1.0, float),
              "--seed": (False, 0, int), "--test-fraction": (False, 0.2, float)},
    "run": {"manifest": _REQUIRED, "--out-dir": _REQUIRED, "--config": _OPTIONAL,
            "--seed": (False, None, int), "--epochs": (False, None, int)},
}
_ARGV_VALUES = ["0", "-1", "nan", "inf", "1e400", "abc", "", ",", "0.5",
                "MISSING", "JUNK", "EMPTY_SPLIT", "LIST_CONFIG"]


@st.composite
def _argv(draw):
    sub = draw(st.sampled_from(sorted(_ARGV_FLAGS)))
    positionals, flags = _ARGV_FLAGS[sub]
    # No drawn value makes real work: synth writes 4 half-second WAVs at most.
    argv = [sub, "--per-class", "1"] if sub == "synth" else [sub]
    argv += [draw(st.sampled_from(_ARGV_VALUES)) for _ in positionals]
    for flag in draw(st.lists(st.sampled_from(flags), unique=True)):
        argv += [flag, draw(st.sampled_from(_ARGV_VALUES))]
    return argv


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv())
def test_argv_fuzz_exits_with_documented_codes(tmp_path, monkeypatch, argv):
    """Any argv drawn from a fixed alphabet of bad numbers and bad files ends
    in exit code 0, 1 or 2, never in a traceback."""
    work = Path(tempfile.mkdtemp(dir=tmp_path))  # fresh per example: outputs land here
    files = {"MISSING": work / "missing", "JUNK": work / "junk.bin",
             "EMPTY_SPLIT": work / "empty.json", "LIST_CONFIG": work / "list.json"}
    files["JUNK"].write_bytes(b"\x00RIFF junk \xff" * 8)
    Manifest(records=[]).save(files["EMPTY_SPLIT"])
    files["LIST_CONFIG"].write_text("[1, 2]\n")
    argv = [str(files.get(value, value)) for value in argv]
    monkeypatch.chdir(work)
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in stderr.getvalue(), argv


def test_cli_surface_matches_the_table():
    """Each subcommand has exactly the positionals (in order) and options of
    _ARGV_FLAGS, each storing one value, with _CLI_SURFACE's required flag,
    default and type."""
    [subparsers] = [a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)]
    assert sorted(subparsers.choices) == sorted(_ARGV_FLAGS)
    for name, parser in subparsers.choices.items():
        actions = [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]
        assert all(type(a) is argparse._StoreAction and a.nargs is None for a in actions), name
        positionals = [a.dest for a in actions if not a.option_strings]
        options = [s for a in actions for s in a.option_strings]
        assert positionals == _ARGV_FLAGS[name][0], name
        assert sorted(options) == sorted(_ARGV_FLAGS[name][1]), name
        surface = {(a.option_strings or [a.dest])[0]: (a.required, a.default, a.type)
                   for a in actions}
        assert surface == _CLI_SURFACE[name], name


def test_outputs_do_not_depend_on_blas_thread_count(tmp_path, child_env):
    assert main(["synth", "--out-dir", str(tmp_path / "audio"), "--out",
                 str(tmp_path / "manifest.json"), "--per-class", "3", "--seed", "5",
                 "--test-fraction", "0.25"]) == 0
    script = ("import sys; from kftser.cli import main; m = sys.argv[1]; "
              "assert main(['extract', m, '--out-dir', 'features']) == 0; "
              "assert main(['train', m, '--features', 'features', '--out', 'model.ckpt', "
              "'--epochs', '2', '--seed', '5']) == 0; "
              "assert main(['evaluate', m, '--features', 'features', '--checkpoint', "
              "'model.ckpt', '--out-dir', 'reports']) == 0")
    runs = {}
    for threads in ("1", "2"):
        root = tmp_path / f"threads{threads}"
        root.mkdir()
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "manifest.json")],
                              capture_output=True, text=True, cwd=root,
                              env=child_env(OPENBLAS_NUM_THREADS=threads))
        assert proc.returncode == 0, proc.stderr
        # the trace CSV is the only artifact of train's epoch-scoring thread
        outputs = sorted(root.glob("features/*.feat")) + [
            root / "model.ckpt", root / "model.ckpt.trace.csv",
            *(root / "reports" / name
              for name in ("eval_report.json", "gain_report.json", "confusion.csv"))]
        runs[threads] = {p.relative_to(root).as_posix(): p.read_bytes() for p in outputs}
    assert len(runs["1"]) == 17
    assert runs["1"].keys() == runs["2"].keys()
    differing = [name for name in runs["1"] if runs["1"][name] != runs["2"][name]]
    assert not differing, f"bytes differ between 1 and 2 BLAS threads: {differing}"


def _assert_help(proc):
    assert proc.returncode == 0, proc.stderr
    assert "usage: kftser" in proc.stdout
    subcommands = {line.split()[0] for line in proc.stdout.splitlines()
                   if line.startswith("    ")}
    assert {"manifest", "run"} <= subcommands


def test_console_script_and_module_entry(tmp_path, child_env):
    env = child_env()
    _assert_help(subprocess.run([sys.executable, "-m", "kftser", "--help"],
                                capture_output=True, text=True, env=env, cwd=tmp_path))

    target = CONSOLE_SCRIPT
    if tomllib is not None:  # Python 3.10 has no tomllib: the declaration is not read
        with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["kftser"]
        assert target == CONSOLE_SCRIPT
    # Call the declared target as the installer-generated wrapper does.
    module, attr = target.split(":")
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    _assert_help(subprocess.run([sys.executable, "-c", wrapper, "--help"],
                                capture_output=True, text=True, env=env, cwd=tmp_path))


def test_both_module_entries_fail_alike(tmp_path, child_env):
    """python -m kftser.cli is not a silent no-op: it exits and reports as
    python -m kftser does, and neither writes the output directory."""
    runs = [subprocess.run([sys.executable, "-m", module, "run", "nothing.json",
                            "--out-dir", "x"],
                           capture_output=True, text=True, env=child_env(), cwd=tmp_path)
            for module in ("kftser", "kftser.cli")]
    assert [proc.returncode for proc in runs] == [1, 1]
    assert runs[0].stderr == runs[1].stderr
    assert runs[0].stderr.splitlines() == [
        "error: [Errno 2] No such file or directory: 'nothing.json'"]
    assert not (tmp_path / "x").exists()


@pytest.mark.skipif(shutil.which("kftser") is None,
                    reason="kftser console script is not installed on PATH")
def test_installed_console_script():
    _assert_help(subprocess.run(["kftser", "--help"], capture_output=True, text=True))
