"""Package-layout tests: the names kftser exports and the functions that
write files."""

import ast
from pathlib import Path

import kftser

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


def test_files_are_written_by_five_functions():
    """Every text file goes through manifest.write_json or write_csv, every
    binary one through save_features, save_checkpoint or dsp.write_wav, so a
    change to how files are written (an atomic rename, say) has these five
    places to change."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        visitor = _FileWrites(path.stem, tree)
        visitor.visit(tree)
        found |= visitor.found
    assert found == {
        ("manifest", "write_json", "w"), ("manifest", "write_csv", "w"),
        ("features", "save_features", "wb"), ("mlp", "save_checkpoint", "wb"),
        ("dsp", "write_wav", "wb"),
    }
