"""Frame-level emotion classifier: a fully connected 41-256-128-4 network
trained with Adam on softmax cross-entropy. All math is float64 numpy so
runs are reproducible bit-for-bit from a seed. Every parameter lives in
one flat vector in checkpoint order (all weights, then all biases).
"""

from __future__ import annotations

import csv
import ctypes
import struct
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path

import numpy as np

from .errors import CheckpointError
from .features import N_FEATURES, FeatureMatrix, ScalerStats, apply_scaler
from .manifest import CLASS_NAMES

DEFAULT_LAYER_DIMS = (N_FEATURES, 256, 128, 4)

CHECKPOINT_MAGIC = b"KFTSERML"
CHECKPOINT_VERSION = 1


def _shapes(dims) -> list[tuple[int, ...]]:
    """Parameter shapes in checkpoint order: every weight, then every bias."""
    return [*zip(dims[:-1], dims[1:]), *((fan_out,) for fan_out in dims[1:])]


def _split(flat: np.ndarray, dims) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """(weights, biases) as views into a flat vector laid out by _shapes."""
    shapes = _shapes(dims)
    ends = np.cumsum([np.prod(shape) for shape in shapes])
    views = [flat[end - np.prod(shape) : end].reshape(shape) for shape, end in zip(shapes, ends)]
    return views[: len(dims) - 1], views[len(dims) - 1 :]


@dataclass
class MlpModel:
    """All weights and biases in one flat float64 `params` vector, plus the
    feature scaler. weights[i] (fan_in x fan_out) and biases[i] are views into
    params; lists passed in are packed into it once. Hidden layers are ReLU,
    the last emits logits in class_order.
    """

    layer_dims: tuple[int, ...]
    weights: list[np.ndarray] | None = None
    biases: list[np.ndarray] | None = None
    scaler: ScalerStats | None = None
    class_order: tuple[str, ...] = CLASS_NAMES
    params: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.params is None:
            parts = [np.asarray(p, dtype=np.float64) for p in [*self.weights, *self.biases]]
            if [p.shape for p in parts] != _shapes(self.layer_dims):
                raise ValueError(f"parameter shapes do not match layer_dims {self.layer_dims}")
            self.params = np.concatenate([p.ravel() for p in parts])
        self.weights, self.biases = _split(self.params, self.layer_dims)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    batch_size: int = 64
    epochs: int = 100
    shuffle: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if not 0.0 <= self.beta1 < 1.0 or not 0.0 <= self.beta2 < 1.0:
            raise ValueError("betas must lie in [0, 1)")


@dataclass
class TrainTrace:
    """Per-epoch mean batch loss and full-set frame accuracy."""

    losses: list[float] = field(default_factory=list)
    accuracies: list[float] = field(default_factory=list)


def init_model(layer_dims=DEFAULT_LAYER_DIMS, seed: int = 0,
               scaler: ScalerStats | None = None,
               class_order: tuple[str, ...] = CLASS_NAMES) -> MlpModel:
    """He-uniform weights (limit sqrt(6/fan_in)), zero biases."""
    layer_dims = tuple(int(d) for d in layer_dims)
    if len(layer_dims) < 2 or any(d < 1 for d in layer_dims):
        raise ValueError(f"layer_dims must be >= 2 positive entries, got {layer_dims}")
    if len(class_order) != layer_dims[-1]:
        raise ValueError("class_order length must match the output dimension")
    rng = np.random.default_rng(seed)
    weights = [rng.uniform(-np.sqrt(6.0 / fan_in), np.sqrt(6.0 / fan_in), size=(fan_in, fan_out))
               for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:])]
    return MlpModel(layer_dims=layer_dims, weights=weights,
                    biases=[np.zeros(d) for d in layer_dims[1:]],
                    scaler=scaler, class_order=tuple(class_order))


def forward_trace(model: MlpModel, x: np.ndarray, out: list[np.ndarray] | None = None):
    """Returns (logits, activations); activations[0] is the input batch.
    `out` holds one preallocated array per layer output (train passes its own
    and checks its rows once); without it, x is checked here.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != model.layer_dims[0]:
        raise ValueError(f"input width {x.shape[1]} != {model.layer_dims[0]}")
    if out is None:
        if not np.all(np.isfinite(x)):
            raise ValueError("input contains non-finite values")
        out = [np.empty((len(x), d)) for d in model.layer_dims[1:]]
    h = x
    for i, (w, b, o) in enumerate(zip(model.weights, model.biases, out)):
        h = np.matmul(h, w, out=o)
        h += b
        if i < len(out) - 1:
            np.maximum(h, 0.0, out=h)
    return h, [x, *out]


def softmax(logits: np.ndarray) -> np.ndarray:
    logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Class posteriors for scaled input rows; each row sums to 1."""
    return softmax(forward_trace(model, x)[0])


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean NLL straight from logits via log-sum-exp (no softmax round trip)."""
    logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.intp)
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    return float(np.mean(lse - shifted[np.arange(len(labels)), labels]))


class _Workspace:
    """Every array a training step on `batch` rows writes, allocated once.
    After backward, shifted and col hold the max-shifted logits and softmax
    row sums that the batch loss is read from.
    """

    def __init__(self, model: MlpModel, batch: int, grad: np.ndarray | None = None):
        dims = model.layer_dims
        self.x, self.labels = np.empty((batch, dims[0])), np.empty(batch, dtype=np.intp)
        self.rows = np.arange(batch)
        self.out = [np.empty((batch, d)) for d in dims[1:]]
        self.deltas = [np.empty((batch, d)) for d in dims[1:]]
        self.masks = [np.empty((batch, d), dtype=bool) for d in dims[1:-1]]
        self.shifted, self.col = np.empty((batch, dims[-1])), np.empty((batch, 1))
        self.grad = np.empty_like(model.params) if grad is None else grad
        self.grad_w, self.grad_b = _split(self.grad, dims)


def backward(model: MlpModel, activations: list[np.ndarray],
             logits: np.ndarray, labels: np.ndarray, ws: _Workspace | None = None):
    """Gradients of mean batch cross-entropy wrt every weight and bias, as
    (grad_w, grad_b) views into the flat gradient of the workspace `ws`.

    The logit gradient is (posterior - one_hot) / batch; the rest is plain
    backprop through the ReLU stack.
    """
    labels = np.asarray(labels, dtype=np.intp)
    batch = logits.shape[0]
    ws = ws or _Workspace(model, batch)
    delta = ws.deltas[-1]
    np.maximum.reduce(logits, axis=1, keepdims=True, out=ws.col)
    np.subtract(logits, ws.col, out=ws.shifted)
    np.exp(ws.shifted, out=delta)
    np.add.reduce(delta, axis=1, keepdims=True, out=ws.col)
    delta /= ws.col
    delta[ws.rows, labels] -= 1.0
    delta /= batch
    for i in range(len(model.weights) - 1, -1, -1):
        np.matmul(activations[i].T, delta, out=ws.grad_w[i])
        np.add.reduce(delta, axis=0, out=ws.grad_b[i])
        if i > 0:
            mask = np.greater(activations[i], 0, out=ws.masks[i - 1])
            delta = np.matmul(delta, model.weights[i].T, out=ws.deltas[i - 1])
            delta *= mask
    return ws.grad_w, ws.grad_b


class AdamState:
    """First/second moments over the flat parameters, plus two scratch vectors."""

    def __init__(self, model: MlpModel):
        self.m, self.v, self.a, self.b = (np.zeros_like(model.params) for _ in range(4))
        self.step = 0


def adam_step(model: MlpModel, grad: np.ndarray, state: AdamState, cfg: TrainConfig) -> None:
    """One bias-corrected Adam update of model.params, in place, run in the
    order of p -= lr * (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps) so the
    result is bit-identical to evaluating that expression with temporaries.
    """
    state.step += 1
    t = state.step
    p, m, v, a, b = model.params, state.m, state.v, state.a, state.b
    np.multiply(1.0 - cfg.beta1, grad, out=a)
    m *= cfg.beta1
    m += a
    np.multiply(1.0 - cfg.beta2, grad, out=a)
    a *= grad
    v *= cfg.beta2
    v += a
    np.divide(m, 1.0 - cfg.beta1**t, out=a)
    a *= cfg.learning_rate
    np.divide(v, 1.0 - cfg.beta2**t, out=b)
    np.sqrt(b, out=b)
    b += cfg.epsilon
    a /= b
    p -= a


@cache
def _openblas_threads():
    """(get, set) for the thread count of the OpenBLAS numpy loaded, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextmanager
def _one_blas_thread():
    """Hold OpenBLAS at one thread, then restore the count it had.

    The count is process-wide: other BLAS users in the process see one
    thread meanwhile. Without an OpenBLAS this does nothing.
    """
    fns = _openblas_threads()
    if fns is None:
        yield
        return
    get, put = fns
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def _frame_accuracy(model: MlpModel, rows: np.ndarray, labels: np.ndarray,
                    out: list[np.ndarray]) -> float:
    logits, _ = forward_trace(model, rows, out)
    return float(np.mean(logits.argmax(axis=1) == labels))


def train(model: MlpModel, rows: np.ndarray, labels: np.ndarray,
          cfg: TrainConfig | None = None):
    """Fit the classifier in place; returns (model, trace).

    rows are raw feature rows; the model's scaler (fitted on exactly these
    rows by the caller) is applied here. Shuffling and batching are seeded,
    so a fixed (model, data, cfg) triple reproduces bit-identical weights.

    BLAS runs on one thread here. Each epoch's full-set accuracy is scored
    on a worker thread from a copy of the parameters taken at the end of
    that epoch, while this thread trains the next one.
    """
    cfg = cfg or TrainConfig()
    rows = np.asarray(rows, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp)
    if rows.ndim != 2 or rows.shape[1] != model.layer_dims[0] or not 0 < len(rows) == len(labels):
        raise ValueError(f"rows must be non-empty (n, {model.layer_dims[0]}), one label per row")
    if labels.min() < 0 or labels.max() >= model.layer_dims[-1]:
        raise ValueError("labels out of range for the output layer")

    if model.scaler is not None:
        rows = apply_scaler(rows, model.scaler)
    if not np.all(np.isfinite(rows)):
        raise ValueError("input contains non-finite values")

    state, trace, rng = AdamState(model), TrainTrace(), np.random.default_rng(cfg.seed)
    n, size = len(rows), cfg.batch_size
    grad = np.empty_like(model.params)
    spaces = {b: _Workspace(model, b, grad) for b in {min(size, n), n % size} - {0}}
    full_out = [np.empty((n, d)) for d in model.layer_dims[1:]]
    snapshot = MlpModel(layer_dims=model.layer_dims, params=np.empty_like(model.params))

    with _one_blas_thread(), ThreadPoolExecutor(max_workers=1) as scorer:
        scored = None  # the previous epoch's accuracy, still being computed
        for _ in range(cfg.epochs):
            order = rng.permutation(n) if cfg.shuffle else np.arange(n)
            epoch_loss = 0.0
            for start in range(0, n, size):
                idx = order[start : start + size]
                ws = spaces[len(idx)]
                np.take(rows, idx, axis=0, out=ws.x)
                np.take(labels, idx, out=ws.labels)
                logits, acts = forward_trace(model, ws.x, ws.out)
                backward(model, acts, logits, ws.labels, ws)
                # cross_entropy(logits, labels), from the softmax backward kept
                lse = np.log(ws.col[:, 0])
                epoch_loss += float(np.mean(lse - ws.shifted[ws.rows, ws.labels])) * len(idx)
                adam_step(model, grad, state, cfg)
            trace.losses.append(epoch_loss / n)
            # the snapshot and full_out are reused only once the last pass is read
            if scored is not None:
                trace.accuracies.append(scored.result())
            np.copyto(snapshot.params, model.params)
            scored = scorer.submit(_frame_accuracy, snapshot, rows, labels, full_out)
        if scored is not None:
            trace.accuracies.append(scored.result())

    return model, trace


def predict_frames(model: MlpModel, features) -> np.ndarray:
    """Per-frame posteriors (T x n_classes) for one utterance.

    Accepts a FeatureMatrix or a raw (T, 41) array; the scaler stored on the
    model is applied here, so inputs stay unscaled.
    """
    rows = features.rows if isinstance(features, FeatureMatrix) else features
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {rows.shape}")
    if rows.shape[0] == 0:
        return np.empty((0, model.layer_dims[-1]))
    if model.scaler is not None:
        rows = apply_scaler(rows, model.scaler)
    return forward(model, rows)


def save_trace_csv(trace: TrainTrace, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss", "frame_accuracy"])
        for i, (loss, acc) in enumerate(zip(trace.losses, trace.accuracies)):
            writer.writerow([i, repr(loss), repr(acc)])


def save_checkpoint(model: MlpModel, path: str | Path) -> None:
    """Self-describing binary: dims, class names, scaler, then parameters
    (all weights first, then all biases) as one little-endian float64 block."""
    dims, names = model.layer_dims, [name.encode("utf-8") for name in model.class_order]
    header = struct.pack(f"<{len(dims) + 3}I", CHECKPOINT_VERSION, len(dims), *dims, len(names))
    scaler = () if model.scaler is None else (model.scaler.mean, model.scaler.std)
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC + header)
        for raw in names:
            fh.write(struct.pack("<I", len(raw)) + raw)
        fh.write(struct.pack("<I", len(scaler[0]) if scaler else 0))
        for arr in (*scaler, model.params):
            fh.write(arr.astype("<f8").tobytes())


def load_checkpoint(path: str | Path) -> MlpModel:
    raw, pos = Path(path).read_bytes(), 0

    def take(n: int, section: str) -> bytes:
        nonlocal pos
        if pos + n > len(raw):
            raise CheckpointError(f"{path}: truncated checkpoint in {section}")
        pos += n
        return raw[pos - n : pos]

    def u32(section: str) -> int:
        return struct.unpack("<I", take(4, section))[0]

    def f64s(count: int, section: str) -> np.ndarray:
        return np.frombuffer(take(8 * count, section), dtype="<f8").copy()

    if take(8, "magic") != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad checkpoint magic")
    version = u32("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    n_dims = u32("layer_dims")
    if not 2 <= n_dims <= 64:
        raise CheckpointError(f"{path}: implausible layer count {n_dims}")
    dims = tuple(u32("layer_dims") for _ in range(n_dims))
    if any(d < 1 for d in dims):
        raise CheckpointError(f"{path}: non-positive layer dimension in {dims}")
    n_classes = u32("class names")
    if n_classes != dims[-1]:
        raise CheckpointError(f"{path}: {n_classes} class names for {dims[-1]} outputs")
    names = [take(u32("class names"), "class names").decode("utf-8")
             for _ in range(n_classes)]

    scaler_cols = u32("scaler")
    scaler = None
    if scaler_cols:
        if scaler_cols != dims[0]:
            raise CheckpointError(f"{path}: scaler width {scaler_cols} != input {dims[0]}")
        scaler = ScalerStats(mean=f64s(scaler_cols, "scaler"), std=f64s(scaler_cols, "scaler"))

    params = f64s(sum(int(np.prod(s)) for s in _shapes(dims)), "parameters")
    if pos != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - pos} trailing bytes after parameters")
    if not np.all(np.isfinite(params)):
        raise CheckpointError(f"{path}: non-finite values in parameters")

    return MlpModel(layer_dims=dims, scaler=scaler, class_order=tuple(names), params=params)
