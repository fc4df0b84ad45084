"""Smoke tests: each script under scripts/ runs end to end on tiny inputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kftser
from kftser import CLASS_NAMES

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
REPORTS = ("eval_report.json", "gain_report.json", "confusion.csv", "model.ckpt")


def _run(script, *args, cwd):
    # An absolute path to the imported package, so the child finds it from any cwd.
    env = dict(os.environ)
    src = str(Path(kftser.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), *map(str, args)],
                          capture_output=True, text=True, env=env, cwd=cwd, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def synthetic_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("synthetic_run")
    stdout = _run("run_synthetic_experiment.py", "--root", root, "--per-class", 2,
                  "--epochs", 1, cwd=root)
    return root, stdout


def test_synthetic_experiment_tunes_and_writes_reports(synthetic_run):
    root, stdout = synthetic_run
    assert "tuned q/r ratio" in stdout
    assert "utterance accuracy:" in stdout
    for name in REPORTS + ("manifest.json", "trajectory_000.csv"):
        assert (root / name).is_file(), name
    report = json.loads((root / "eval_report.json").read_text())
    assert set(report["classes"]) == set(CLASS_NAMES)


def test_ravdess_experiment_on_the_synthetic_audio(synthetic_run, tmp_path):
    audio = synthetic_run[0] / "audio"
    stdout = _run("run_ravdess_experiment.py", audio, "--root", tmp_path / "run",
                  "--epochs", 1, cwd=tmp_path)
    assert "frames per class:" in stdout
    assert "tuned q/r ratio" in stdout
    for name in REPORTS + ("manifest.json",):
        assert (tmp_path / "run" / name).is_file(), name


def test_noise_stabilization_demo_prints_one_row_per_flip(tmp_path):
    stdout = _run("noise_stabilization_demo.py", "--trajectories", 20, "--frames", 30,
                  cwd=tmp_path)
    lines = stdout.splitlines()
    assert lines[0].startswith("20 trajectories x 30 frames")
    assert lines[1].split() == ["flip", "frame", "raw+fuse", "filt+fuse", "rts+fuse"]
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == ["0.00", "0.10", "0.20", "0.30", "0.40"]
    for row in rows:
        assert all(0.0 <= float(v) <= 1.0 for v in row[1:])
