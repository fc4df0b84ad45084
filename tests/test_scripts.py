"""Public-surface tests: the names kftser exports, and the script under
scripts/ running end to end on tiny inputs."""

import subprocess
import sys
from pathlib import Path

import kftser

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_noise_stabilization_demo_prints_one_row_per_flip(tmp_path, child_env):
    proc = subprocess.run([sys.executable, str(SCRIPTS / "noise_stabilization_demo.py"),
                           "--trajectories", "20", "--frames", "30"],
                          capture_output=True, text=True, env=child_env(), cwd=tmp_path,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("20 trajectories x 30 frames")
    assert lines[1].split() == ["flip", "frame", "raw+fuse", "filt+fuse", "rts+fuse"]
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == ["0.00", "0.10", "0.20", "0.30", "0.40"]
    for row in rows:
        assert all(0.0 <= float(v) <= 1.0 for v in row[1:])


def test_package_exports_only_the_documented_surface():
    """README's Library section, the demo script and the acceptance checks import
    these names from kftser; everything else is imported from the submodules."""
    assert sorted(kftser.__all__) == [
        "ConfusionMatrix", "KalmanConfig", "PipelineConfig", "apply_scaler",
        "build_manifest", "build_mel_filterbank", "classification_report", "compute_delta",
        "compute_rmse", "compute_zcr", "cross_entropy", "evaluate_pipeline", "filter_batch",
        "filter_trajectory", "fit_scaler", "forward_trace", "fuse_utterance",
        "generate_synthetic_dataset", "init_model", "load_checkpoint", "pipeline",
        "predict_frames", "rts_smooth", "save_checkpoint", "split_manifest",
        "synth_noisy_trajectories",
    ]
    for name in kftser.__all__:
        assert getattr(kftser, name) is not None, name
