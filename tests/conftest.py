import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import kftser
from kftser.config import PipelineConfig
from kftser.manifest import generate_synthetic_dataset, split_manifest
from kftser import pipeline


@pytest.fixture
def traced_peak():
    """peak(fn): the most bytes fn held at once beyond what was held before,
    as tracemalloc counts them. numpy reports every array buffer to it, so
    the count does not depend on what the C allocator does with freed memory."""
    def peak(fn):
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
    return peak


@pytest.fixture(scope="session")
def tone_workspace(tmp_path_factory):
    """One synthetic dataset with features and a trained checkpoint.

    Session-scoped: building it costs a few seconds and several test files
    only ever read from it.
    """
    root = tmp_path_factory.mktemp("tone_workspace")
    manifest = generate_synthetic_dataset(root / "audio", per_class=6, seed=11)
    manifest = split_manifest(manifest, 0.25, seed=11)
    manifest.save(root / "manifest.json")

    cfg = PipelineConfig(epochs=30, seed=11)
    pipeline.extract_to_dir(manifest, cfg, root / "features")
    model, trace = pipeline.train_from_manifest(manifest, root / "features", cfg)
    return {
        "root": root,
        "manifest": manifest,
        "manifest_path": root / "manifest.json",
        "features_dir": root / "features",
        "cfg": cfg,
        "model": model,
        "trace": trace,
    }


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def child_env():
    """Build a subprocess environment that imports this kftser from any cwd."""

    def build(**extra):
        env = dict(os.environ, **extra)
        src = str(Path(kftser.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return env

    return build
