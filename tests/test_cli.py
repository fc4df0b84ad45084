import contextlib
import csv
import io
import json
import shutil
import struct
import subprocess
import sys
from pathlib import Path

try:
    import tomllib
except ImportError:  # Python 3.10
    tomllib = None

import numpy as np
import pytest

from kftser.manifest import CLASS_NAMES, Manifest
from kftser.mlp import init_model, load_checkpoint, save_checkpoint
from kftser.cli import _print_tune, main
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

    @pytest.mark.parametrize("mangle", [
        lambda raw: '{"records": []}',
        lambda raw: json.dumps({**raw, "records": [{**raw["records"][0], "emotion": "bored"}]
                                + raw["records"][1:]}),
        lambda raw: "[]",
        lambda raw: '{"records": [',
        lambda raw: json.dumps({**raw, "test_indices": [len(raw["records"])]}),
    ], ids=["no-split-keys", "unknown-emotion", "json-list", "bad-json", "index-out-of-range"])
    def test_malformed_manifest_is_a_runtime_error(self, cli_ws, tmp_path, capsys, mangle):
        bad = tmp_path / "bad.json"
        bad.write_text(mangle(json.loads(cli_ws["manifest"].read_text())))
        rc = main(["extract", str(bad), "--out-dir", str(tmp_path / "feats")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: malformed manifest")
        assert "Traceback" not in err
        assert not (tmp_path / "feats").exists()

    def test_unknown_config_key_is_an_argument_error(self, cli_ws, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"learning_rte": 0.01}')
        rc = main(["extract", str(cli_ws["manifest"]), "--out-dir", str(tmp_path / "f"),
                   "--config", str(cfg)])
        assert rc == 2
        assert "learning_rte" in capsys.readouterr().err


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
                               accuracies={0.001: 0.5, 0.01: 0.75}))
        _print_tune(TuneResult(best_ratio=0.01, best_q=0.001, accuracies={0.01: 0.75}))
        assert "note:" not in capsys.readouterr().out

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

    def test_matches_extract_then_train(self, run_ws, cli_ws):
        out_dir, _ = run_ws
        assert (out_dir / "model.ckpt").read_bytes() == cli_ws["ckpt"].read_bytes()
        for feat in sorted(cli_ws["features"].glob("*.feat")):
            assert (out_dir / "features" / feat.name).read_bytes() == feat.read_bytes()

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

    @pytest.mark.parametrize("split", ["train_indices", "test_indices"])
    def test_unsplit_manifest_fails_before_extracting(self, cli_ws, tmp_path, capsys,
                                                      split):
        raw = json.loads(cli_ws["manifest"].read_text())
        raw[split] = []
        bad_manifest = tmp_path / "unsplit.json"
        bad_manifest.write_text(json.dumps(raw))
        rc = main(["run", str(bad_manifest), "--out-dir", str(tmp_path / "run")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
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


class TestLoggingEnv:
    def test_unknown_log_level_warns_and_proceeds(self, cli_ws, tmp_path, capsys,
                                                  monkeypatch):
        monkeypatch.setenv("KFTSER_LOG", "verbose")
        rc = main(["manifest", str(cli_ws["audio"]), "--out", str(tmp_path / "m.json")])
        assert rc == 0
        assert "unknown KFTSER_LOG" in capsys.readouterr().err


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
        outputs = sorted(root.glob("features/*.feat")) + [
            root / "model.ckpt", *(root / "reports" / name for name in (
                "eval_report.json", "gain_report.json", "confusion.csv"))]
        runs[threads] = {p.relative_to(root).as_posix(): p.read_bytes() for p in outputs}
    assert len(runs["1"]) == 16
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


@pytest.mark.skipif(shutil.which("kftser") is None,
                    reason="kftser console script is not installed on PATH")
def test_installed_console_script():
    _assert_help(subprocess.run(["kftser", "--help"], capture_output=True, text=True))
