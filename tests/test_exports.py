"""Public-surface test: the names kftser exports."""

import kftser


def test_package_exports_only_the_documented_surface():
    """README's Library section and the acceptance checks import these names
    from kftser; everything else is imported from the submodules."""
    assert sorted(kftser.__all__) == [
        "ConfusionMatrix", "KalmanConfig", "PipelineConfig", "apply_scaler",
        "build_manifest", "build_mel_filterbank", "classification_report", "compute_delta",
        "compute_rmse", "compute_zcr", "cross_entropy", "evaluate_pipeline", "filter_batch",
        "filter_trajectory", "fit_scaler", "forward_trace", "fuse_utterance",
        "generate_synthetic_dataset", "init_model", "load_checkpoint", "pipeline",
        "predict_frames", "save_checkpoint", "split_manifest", "synth_noisy_trajectories",
    ]
    for name in kftser.__all__:
        assert getattr(kftser, name) is not None, name
