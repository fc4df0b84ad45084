"""Frame-level emotion classifier: a fully connected 41-256-128-4 network
trained with Adam on softmax cross-entropy. All math is float64 numpy so
runs are reproducible bit-for-bit from a seed.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import CheckpointError
from .features import N_FEATURES, FeatureMatrix, ScalerStats, apply_scaler
from .manifest import CLASS_NAMES

DEFAULT_LAYER_DIMS = (N_FEATURES, 256, 128, 4)

CHECKPOINT_MAGIC = b"KFTSERML"
CHECKPOINT_VERSION = 1


@dataclass
class MlpModel:
    """Per-layer weights and biases plus the feature scaler baked in at
    construction time.

    weights[i] has shape (fan_in, fan_out); hidden layers are ReLU, the last
    layer emits logits in class_order.
    """

    layer_dims: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    scaler: ScalerStats | None = None
    class_order: tuple[str, ...] = CLASS_NAMES

    @property
    def n_classes(self) -> int:
        return self.layer_dims[-1]


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
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        limit = np.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(layer_dims=layer_dims, weights=weights, biases=biases,
                    scaler=scaler, class_order=tuple(class_order))


def forward_trace(model: MlpModel, x: np.ndarray):
    """Returns (logits, activations); activations[0] is the input batch."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != model.layer_dims[0]:
        raise ValueError(f"input width {x.shape[1]} != {model.layer_dims[0]}")
    if not np.all(np.isfinite(x)):
        raise ValueError("input contains non-finite values")
    activations = [x]
    h = x
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        h = h @ w + b
        if i < last:
            h = np.maximum(h, 0.0)
        activations.append(h)
    return h, activations


def softmax(logits: np.ndarray) -> np.ndarray:
    logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Class posteriors for scaled input rows; each row sums to 1."""
    logits, _ = forward_trace(model, x)
    return softmax(logits)


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean NLL straight from logits via log-sum-exp (no softmax round trip)."""
    logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.intp)
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    return float(np.mean(lse - shifted[np.arange(len(labels)), labels]))


def backward(model: MlpModel, activations: list[np.ndarray],
             logits: np.ndarray, labels: np.ndarray):
    """Gradients of mean batch cross-entropy wrt every weight and bias.

    The logit gradient is (posterior - one_hot) / batch; the rest is plain
    backprop through the ReLU stack.
    """
    labels = np.asarray(labels, dtype=np.intp)
    batch = logits.shape[0]
    delta = softmax(logits)
    delta[np.arange(batch), labels] -= 1.0
    delta /= batch

    grad_w = [None] * len(model.weights)
    grad_b = [None] * len(model.biases)
    for i in range(len(model.weights) - 1, -1, -1):
        grad_w[i] = activations[i].T @ delta
        grad_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ model.weights[i].T) * (activations[i] > 0)
    return grad_w, grad_b


@dataclass
class AdamState:
    """First/second moment accumulators, one pair per parameter tensor, plus
    two scratch buffers per parameter so a step allocates no arrays.
    """

    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0
    scratch: list[tuple[np.ndarray, np.ndarray]] = field(init=False, repr=False)

    def __post_init__(self):
        self.scratch = [(np.empty_like(m), np.empty_like(m)) for m in self.m]

    @classmethod
    def for_model(cls, model: MlpModel) -> "AdamState":
        params = model.weights + model.biases
        return cls(m=[np.zeros_like(p) for p in params],
                   v=[np.zeros_like(p) for p in params])


def adam_step(model: MlpModel, grads_w, grads_b, state: AdamState, cfg: TrainConfig) -> None:
    """One bias-corrected Adam update, in place.

    The operations run in the order of the textbook expression
    p -= lr * (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps), so the
    result is bit-identical to evaluating it with temporaries.
    """
    state.step += 1
    t = state.step
    params = model.weights + model.biases
    grads = list(grads_w) + list(grads_b)
    for p, g, m, v, (a, b) in zip(params, grads, state.m, state.v, state.scratch):
        np.multiply(1.0 - cfg.beta1, g, out=a)
        m *= cfg.beta1
        m += a
        np.multiply(1.0 - cfg.beta2, g, out=a)
        a *= g
        v *= cfg.beta2
        v += a
        np.divide(m, 1.0 - cfg.beta1**t, out=a)
        a *= cfg.learning_rate
        np.divide(v, 1.0 - cfg.beta2**t, out=b)
        np.sqrt(b, out=b)
        b += cfg.epsilon
        a /= b
        p -= a


def train(model: MlpModel, rows: np.ndarray, labels: np.ndarray,
          cfg: TrainConfig | None = None):
    """Fit the classifier in place; returns (model, trace).

    rows are raw feature rows; the model's scaler (fitted on exactly these
    rows by the caller) is applied here. Shuffling and batching are seeded,
    so a fixed (model, data, cfg) triple reproduces bit-identical weights.
    """
    if cfg is None:
        cfg = TrainConfig()
    rows = np.asarray(rows, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp)
    if rows.ndim != 2 or len(rows) != len(labels):
        raise ValueError("rows must be 2-D with one label per row")
    if len(rows) == 0:
        raise ValueError("cannot train on an empty set")
    if labels.min() < 0 or labels.max() >= model.layer_dims[-1]:
        raise ValueError("labels out of range for the output layer")

    if model.scaler is not None:
        rows = apply_scaler(rows, model.scaler)

    state = AdamState.for_model(model)
    trace = TrainTrace()
    rng = np.random.default_rng(cfg.seed)
    n = len(rows)

    for _ in range(cfg.epochs):
        order = rng.permutation(n) if cfg.shuffle else np.arange(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            logits, acts = forward_trace(model, rows[idx])
            epoch_loss += cross_entropy(logits, labels[idx]) * len(idx)
            gw, gb = backward(model, acts, logits, labels[idx])
            adam_step(model, gw, gb, state, cfg)
        logits, _ = forward_trace(model, rows)
        trace.losses.append(epoch_loss / n)
        trace.accuracies.append(float(np.mean(logits.argmax(axis=1) == labels)))

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
        return np.empty((0, model.n_classes))
    if model.scaler is not None:
        rows = apply_scaler(rows, model.scaler)
    return forward(model, rows)


def save_trace_csv(trace: TrainTrace, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss", "frame_accuracy"])
        for i, (loss, acc) in enumerate(zip(trace.losses, trace.accuracies)):
            writer.writerow([i, repr(loss), repr(acc)])


def _write_array(fh, arr: np.ndarray) -> None:
    fh.write(arr.astype("<f8").tobytes())


def save_checkpoint(model: MlpModel, path: str | Path) -> None:
    """Self-describing binary: dims, class names, scaler, then parameters
    (all weights first, then all biases), little-endian float64.
    """
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(model.layer_dims)))
        fh.write(struct.pack(f"<{len(model.layer_dims)}I", *model.layer_dims))
        fh.write(struct.pack("<I", len(model.class_order)))
        for name in model.class_order:
            raw = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
        if model.scaler is None:
            fh.write(struct.pack("<I", 0))
        else:
            fh.write(struct.pack("<I", len(model.scaler.mean)))
            _write_array(fh, model.scaler.mean)
            _write_array(fh, model.scaler.std)
        for w in model.weights:
            _write_array(fh, w)
        for b in model.biases:
            _write_array(fh, b)


class _Reader:
    def __init__(self, raw: bytes, path):
        self.raw = raw
        self.pos = 0
        self.path = path

    def take(self, n: int, section: str) -> bytes:
        if self.pos + n > len(self.raw):
            raise CheckpointError(f"{self.path}: truncated checkpoint in {section}")
        out = self.raw[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self, section: str) -> int:
        return struct.unpack("<I", self.take(4, section))[0]

    def f64s(self, count: int, section: str) -> np.ndarray:
        return np.frombuffer(self.take(8 * count, section), dtype="<f8").copy()


def load_checkpoint(path: str | Path) -> MlpModel:
    r = _Reader(Path(path).read_bytes(), path)
    if r.take(8, "magic") != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad checkpoint magic")
    version = r.u32("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")

    n_dims = r.u32("layer_dims")
    if not 2 <= n_dims <= 64:
        raise CheckpointError(f"{path}: implausible layer count {n_dims}")
    dims = tuple(r.u32("layer_dims") for _ in range(n_dims))
    if any(d < 1 for d in dims):
        raise CheckpointError(f"{path}: non-positive layer dimension in {dims}")

    n_classes = r.u32("class names")
    if n_classes != dims[-1]:
        raise CheckpointError(f"{path}: {n_classes} class names for {dims[-1]} outputs")
    names = []
    for _ in range(n_classes):
        ln = r.u32("class names")
        names.append(r.take(ln, "class names").decode("utf-8"))

    scaler_cols = r.u32("scaler")
    scaler = None
    if scaler_cols:
        if scaler_cols != dims[0]:
            raise CheckpointError(f"{path}: scaler width {scaler_cols} != input {dims[0]}")
        scaler = ScalerStats(mean=r.f64s(scaler_cols, "scaler"),
                             std=r.f64s(scaler_cols, "scaler"))

    weights = [r.f64s(fi * fo, "weights").reshape(fi, fo)
               for fi, fo in zip(dims[:-1], dims[1:])]
    biases = [r.f64s(fo, "biases") for fo in dims[1:]]
    if r.pos != len(r.raw):
        raise CheckpointError(f"{path}: {len(r.raw) - r.pos} trailing bytes after parameters")
    for p in weights + biases:
        if not np.all(np.isfinite(p)):
            raise CheckpointError(f"{path}: non-finite values in parameters")

    return MlpModel(layer_dims=dims, weights=weights, biases=biases,
                    scaler=scaler, class_order=tuple(names))
