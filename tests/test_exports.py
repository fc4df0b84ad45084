"""Package-layout tests: the names kftser exports, the function that writes
files, and the bytes and failure behaviour of the writers."""

import ast
import hashlib
import os
import stat
from pathlib import Path

import pytest

import kftser
from kftser import manifest
from kftser.config import PipelineConfig
from kftser.manifest import generate_synthetic_dataset, split_manifest

SRC = Path(kftser.__file__).resolve().parent


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


class _FileWrites(ast.NodeVisitor):
    """Collects (module, enclosing function, mode) for every call that can
    write a file: open(file, mode), <module>.open(file, mode) and
    <path>.open(mode) in any mode but r, rb or rt (a mode that is not a
    literal counts as a write), and <path>.write_text / write_bytes."""

    def __init__(self, module: str, tree: ast.Module):
        self.module, self.function, self.found = module, None, set()
        self.imported = {alias.asname or alias.name for node in ast.walk(tree)
                         if isinstance(node, ast.Import) for alias in node.names}

    def visit_FunctionDef(self, node):
        outer, self.function = self.function, node.name
        self.generic_visit(node)
        self.function = outer

    def visit_Call(self, node):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("write_text", "write_bytes") and isinstance(func, ast.Attribute):
            self.found.add((self.module, self.function, name))
        elif name == "open":
            on_path = (isinstance(func, ast.Attribute)
                       and getattr(func.value, "id", None) not in self.imported)
            args = node.args[0 if on_path else 1:]
            mode = next((kw.value for kw in node.keywords if kw.arg == "mode"),
                        args[0] if args else ast.Constant("r"))
            mode = mode.value if isinstance(mode, ast.Constant) else None
            if mode not in ("r", "rb", "rt"):
                self.found.add((self.module, self.function, mode))
        self.generic_visit(node)


def test_files_are_written_by_one_function():
    """Every file, text or binary, goes through manifest.write_bytes: the other
    writers (write_json, write_csv, save_features, save_checkpoint) build bytes
    and pass them on, so how a file reaches disk (atomically, by a temporary
    file and a rename) is decided in one place."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        visitor = _FileWrites(path.stem, tree)
        visitor.visit(tree)
        found |= visitor.found
    assert found == {("manifest", "write_bytes", "wb")}


# sha256 of each file the tone generator, Manifest.save and PipelineConfig.save
# write for generate_synthetic_dataset("audio", per_class=1, seed=0), split 0.5, seed 0
WRITER_GOLDEN = {
    "audio/03-01-02-01-01-01-01.wav": "0958fb6ad79c7c35a2494d0b5379ae9c33cfb808719122c541c13b9df4102a87",
    "audio/03-01-03-01-01-01-01.wav": "5678660e8df20190e008690f021d33cae4989d904a63bc18ce77c270ddbd4a0f",
    "audio/03-01-04-01-01-01-01.wav": "854764c371fc8546822423e5c1683ff2cd0471b58cf19d40dafd2ae43ff46595",
    "audio/03-01-05-01-01-01-01.wav": "bd531c66aa230c548dcd5ae12ba608d13537942e29e9e04f4e11e202ee9bd8a8",
    "config.json": "0e11d7bd9794f40102e3ed2e0f9a5239d04afc7018303531b5f8ffd8ce5fe7b1",
    "manifest.json": "35a286515c661b236800391753b055966bfa59c0a3cd9aa0c8246a93a0298eef",
}


def test_wav_manifest_and_config_match_golden_bytes(tmp_path, monkeypatch):
    """Run from tmp_path with a relative out_dir, so the manifest stores the
    same file paths wherever the test runs."""
    monkeypatch.chdir(tmp_path)
    dataset = split_manifest(generate_synthetic_dataset("audio", per_class=1, seed=0),
                             0.5, seed=0)
    dataset.save("manifest.json")
    PipelineConfig().save("config.json")
    written = sorted(p for p in tmp_path.rglob("*") if p.is_file())
    got = {p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
           for p in written}
    assert got == WRITER_GOLDEN


def _replace_fails(monkeypatch, path):
    def refuse(src, dst):
        raise OSError("replace refused")
    monkeypatch.setattr(manifest.os, "replace", refuse)
    manifest.write_bytes(path, b"new bytes")


@pytest.mark.parametrize("write", [
    lambda monkeypatch, path: manifest.write_json(path, {"a": 1, "b": object()}),
    lambda monkeypatch, path: manifest.write_bytes(path, "text, not bytes"),
    _replace_fails,
], ids=["unserializable-json", "write-raises", "replace-raises"])
def test_failed_write_keeps_the_old_file(tmp_path, monkeypatch, write):
    """A write that fails before, during or after filling the temporary file
    leaves the target's old bytes and no temporary file."""
    path = tmp_path / "out.json"
    path.write_bytes(b"old bytes\n")
    with pytest.raises((TypeError, OSError)):
        write(monkeypatch, path)
    assert path.read_bytes() == b"old bytes\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json"]


def test_written_file_takes_its_mode_from_the_umask(tmp_path):
    """Not mkstemp's 0600: the umask decides, as for a file open() creates."""
    old_umask = os.umask(0o022)
    try:
        manifest.write_bytes(tmp_path / "written", b"x")
        with open(tmp_path / "plain", "wb"):
            pass
    finally:
        os.umask(old_umask)
    modes = [stat.S_IMODE((tmp_path / name).stat().st_mode) for name in ("written", "plain")]
    assert modes[0] == modes[1] == 0o644
