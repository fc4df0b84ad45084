"""Kalman filtering of per-frame class posteriors.

The state is the vector of class probabilities under the identity random
walk: transition F = I, observation H = I, process noise Q = qI and
measurement noise R = rI, starting from the uniform mean with covariance
P0 = I. Every covariance of that model is a multiple of I, so the matrix
recursion (Anderson & Moore, *Optimal Filtering*, 1979, ch. 3-4) reduces to
scalars: with p the filtered variance,

    predicted variance  p_t^p = p_{t-1} + q
    gain                k_t   = p_t^p / (p_t^p + r)
    filtered variance   p_t   = (1 - k_t) p_t^p
    filtered mean       x_t   = x_{t-1} + k_t (z_t - x_{t-1})

The gain never depends on the measurements, so one schedule serves every
trajectory and class, and the filter acts as a tuned temporal low-pass over
the classifier output. The Rauch-Tung-Striebel smoother (AIAA J., 1965)
reduces the same way, to the scalar gain p_t / p_{t+1}^p. A q/r grid search
rides on top; it filters every candidate q in the same pass.

The recursion has two loops with the same arithmetic in the same order. A
batch, or several q at once (the tune grid), advances through numpy
buffers, one time step per set of array calls. A single trajectory at a
single q with dim < 8 runs on Python floats, where numpy's per-call
overhead would outweigh the arithmetic; the smoother always does. The
selection depends only on the input's shape. test_kalman.py's
TestFilterBatch::test_matches_per_trajectory_filtering holds the two loops
byte-equal on both sides of the width cut.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class KalmanConfig:
    """Noise scales of the identity model; q = r = 0 is rejected.

    r = 0 is legal (full trust in the measurement) as long as q > 0, and
    q = 0 (a static state) as long as r > 0. With both zero the variance
    collapses to 0 after the first step and the gain becomes 0/0.
    """

    dim: int = 4
    q: float = 1e-3
    r: float = 0.1
    renormalize: bool = True

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        for name in ("q", "r"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if self.q == 0 and self.r == 0:
            raise ValueError(f"q and r cannot both be zero (q={self.q}, r={self.r})")

    @property
    def F(self) -> np.ndarray:
        return np.eye(self.dim)

    @property
    def H(self) -> np.ndarray:
        return np.eye(self.dim)

    @property
    def Q(self) -> np.ndarray:
        return self.q * np.eye(self.dim)

    @property
    def R(self) -> np.ndarray:
        return self.r * np.eye(self.dim)


def _renorm_rows(x: np.ndarray, dim: int) -> np.ndarray:
    """Project rows onto the probability simplex by clamp-and-rescale."""
    x = np.clip(x, 0.0, 1.0)
    s = x.sum(axis=-1, keepdims=True)
    return np.where(s > 0.0, x / np.where(s > 0.0, s, 1.0), 1.0 / dim)


def _as_measurements(m, cfg: KalmanConfig) -> np.ndarray:
    z = np.atleast_2d(np.asarray(m, dtype=np.float64))
    if z.size == 0:
        raise ValueError("cannot filter an empty trajectory")
    if z.ndim != 2 or z.shape[1] != cfg.dim:
        raise ValueError(f"measurements must be T x {cfg.dim}, got {z.shape}")
    if not np.isfinite(z).all():
        raise ValueError("measurements must be finite (found NaN or inf)")
    return z


def _schedule(q: float, r: float, t_max: int):
    """Predicted variance, gain and filtered variance for steps 0..t_max-1."""
    p_pred, gain, p_filt = [], [], []
    p = 1.0
    for _ in range(t_max):
        pp = p + q
        k = pp / (pp + r)
        p = (1.0 - k) * pp
        p_pred.append(pp)
        gain.append(k)
        p_filt.append(p)
    return p_pred, gain, p_filt


def _filter_floats(z: np.ndarray, gains: list[float], dim: int,
                   renormalize: bool) -> list[list[float]]:
    """_filter's numpy loop for one trajectory at one q, on Python floats.

    Every operation is the one the numpy loop does, in its order: x + k*(z - x),
    clamp to [0, 1], a left-to-right row sum, divide; a row whose clamped sum
    is 0 becomes the uniform row. One frame thus costs one short Python
    loop instead of about ten numpy calls on (1, 1, dim) arrays.
    The sum is an explicit loop: the built-in sum() is compensated from
    Python 3.12 on and would change the bits.
    """
    uniform = [1.0 / dim] * dim
    x, rows = uniform, []
    for zt, k in zip(z.tolist(), gains):
        if not renormalize:
            x = [a + k * (b - a) for a, b in zip(x, zt)]
        else:
            clamped, s = [], 0.0
            for a, b in zip(x, zt):
                v = a + k * (b - a)
                v = 1.0 if v > 1.0 else v if v > 0.0 else 0.0
                s += v
                clamped.append(v)
            x = [v / s for v in clamped] if s else uniform
        rows.append(x)
    return rows


def _filter(arrays: list[np.ndarray], cfg: KalmanConfig, qs=None):
    """The one recursion: filtered means of a batch under one or more q values.

    Measurements are zero-padded to the longest trajectory and laid out
    time-major, (T_max, B, dim). Each q in qs (default: cfg.q) gets its own
    scalar schedule and its own (B, dim) slice of the state; the measurements
    broadcast across the q axis. Each step writes straight into its output
    row through preallocated buffers. Row b of the output is valid up to
    that trajectory's length; padded steps never feed back into valid ones.
    One trajectory at one q with dim < 8 runs the same steps in
    _filter_floats instead. Returns (means (T_max, n_q, B, dim), predicted
    variances (n_q, T_max), filtered variances (n_q, T_max)).
    """
    qs = [cfg.q] if qs is None else list(qs)
    t_max, batch, dim = max(a.shape[0] for a in arrays), len(arrays), cfg.dim
    schedules = [_schedule(q, cfg.r, t_max) for q in qs]
    p_pred, gains, p_filt = (np.array(v) for v in zip(*schedules))
    if batch == 1 and len(qs) == 1 and dim < 8:
        # numpy's last-axis add.reduce sums a row left to right only up to
        # width 7 (wider rows are summed in unrolled partial sums), so only
        # below that width can a float loop reproduce the row sums bit for bit
        _, gain, _ = schedules[0]
        rows = _filter_floats(arrays[0], gain, dim, cfg.renormalize)
        return np.array(rows).reshape(t_max, 1, 1, dim), p_pred, p_filt

    z = np.zeros((t_max, batch, dim))
    for i, a in enumerate(arrays):
        z[: a.shape[0], i] = a
    gains = gains.T.reshape(t_max, len(qs), 1, 1)

    out = np.empty((t_max, len(qs), batch, dim))
    x = np.full((len(qs), batch, dim), 1.0 / dim)
    step = np.empty_like(x)
    clipped = np.empty_like(x)
    sums = np.empty((len(qs), batch, 1))
    for zt, row, g in zip(z, out, gains):
        np.subtract(zt, x, out=step)
        np.multiply(step, g, out=step)
        np.add(x, step, out=row)
        if cfg.renormalize:
            # _renorm_rows' projection in place; the function itself runs only
            # when some row clamps to all zeros
            np.maximum(row, 0.0, out=clipped)
            np.minimum(clipped, 1.0, out=clipped)
            np.add.reduce(clipped, axis=-1, keepdims=True, out=sums)
            if sums.all():
                np.divide(clipped, sums, out=row)
            else:
                row[...] = _renorm_rows(row, dim)
        x = row
    return out, p_pred, p_filt


@dataclass
class SmoothedTrajectory:
    """One trajectory's forward pass: measurements in, filtered states out.

    The (T,) predicted and filtered variances are kept so the
    fixed-interval smoother can run from this object alone.
    """

    raw: np.ndarray
    filtered: np.ndarray
    predicted_var: np.ndarray
    filtered_var: np.ndarray

    @property
    def n_steps(self) -> int:
        return self.filtered.shape[0]


def filter_trajectory(measurements: np.ndarray, cfg: KalmanConfig) -> SmoothedTrajectory:
    """Filter one (T, dim) sequence.

    Causal: row t of the output depends only on measurements 0..t.
    """
    z = _as_measurements(measurements, cfg)
    out, p_pred, p_filt = _filter([z], cfg)
    return SmoothedTrajectory(raw=z.copy(), filtered=out.reshape(z.shape),
                              predicted_var=p_pred[0], filtered_var=p_filt[0])


def filter_batch(measurement_list, cfg: KalmanConfig) -> list[np.ndarray]:
    """Filtered means for many trajectories at once.

    A batch of two or more advances on the numpy loop, the whole batch per
    time step; filter_trajectory uses the Python-float loop when dim < 8.
    Both do the same operations in the same order, so each output equals
    filter_trajectory's byte for byte (test_kalman.py's
    TestFilterBatch::test_matches_per_trajectory_filtering).
    """
    arrays = [_as_measurements(m, cfg) for m in measurement_list]
    if not arrays:
        return []
    out, _, _ = _filter(arrays, cfg)
    return [out[: a.shape[0], 0, i].copy() for i, a in enumerate(arrays)]


def rts_smooth(st: SmoothedTrajectory, cfg: KalmanConfig) -> np.ndarray:
    """Backward fixed-interval pass; returns the (T, dim) smoothed means.

    Under F = I the predicted mean at t+1 is the filtered mean at t, and the
    smoother gain is the scalar filtered_var[t] / predicted_var[t+1]. The
    final smoothed step equals the final filtered step exactly. The pass runs
    on Python floats, a + g*(b - a) per element, which gives the bits of the
    same update as a numpy row loop at a fraction of its per-call cost.
    """
    filtered = st.filtered.tolist()
    gain = (st.filtered_var[:-1] / st.predicted_var[1:]).tolist()
    nxt = filtered[-1]
    means = [nxt]
    for f, g in zip(filtered[-2::-1], gain[::-1]):
        nxt = [a + g * (b - a) for a, b in zip(f, nxt)]
        means.append(nxt)
    means.reverse()
    return np.array(means)


def write_trajectory_csv(st: SmoothedTrajectory, path: str | Path, class_names) -> None:
    """Plot-ready CSV: frame_index, raw posteriors (z_*), filtered states (x_*)."""
    if len(class_names) != st.raw.shape[1] or len(class_names) != st.filtered.shape[1]:
        raise ValueError("class_names length must match the trajectory width")
    header = (["frame_index"] + [f"z_{c}" for c in class_names]
              + [f"x_{c}" for c in class_names])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t in range(st.n_steps):
            writer.writerow([t] + list(st.raw[t]) + list(st.filtered[t]))


@dataclass
class TuneResult:
    best_ratio: float
    best_q: float
    accuracies: dict = field(default_factory=dict)


DEFAULT_RATIO_GRID = (1e-4, 1e-3, 1e-2, 1e-1, 1.0)


def tune_qr_ratio(measurement_list, labels, cfg: KalmanConfig,
                  ratios=DEFAULT_RATIO_GRID) -> TuneResult:
    """Grid-search q as ratio*r (r held fixed) by fused utterance accuracy.

    Every candidate runs in one pass of the batched recursion. Ties between
    ratios go to the smaller ratio, i.e. the more smoothed filter.
    """
    from .evaluation import fuse_utterance

    labels = np.asarray(labels, dtype=np.intp)
    if len(labels) != len(measurement_list):
        raise ValueError("one label per trajectory required")
    if len(measurement_list) == 0:
        raise ValueError("nothing to tune on")
    ratios = sorted(float(x) for x in ratios)
    if not ratios:
        raise ValueError("ratio grid is empty")
    qs = [replace(cfg, q=ratio * cfg.r).q for ratio in ratios]  # validates each q
    arrays = [_as_measurements(m, cfg) for m in measurement_list]
    out, _, _ = _filter(arrays, cfg, qs)
    accuracies = {}
    best_ratio, best_acc = None, -1.0
    for k, ratio in enumerate(ratios):
        # contiguous, as filter_batch returns them, so each mean sums in the same order
        preds = np.array([fuse_utterance(np.ascontiguousarray(out[: a.shape[0], k, i]))[0]
                          for i, a in enumerate(arrays)])
        acc = float(np.mean(preds == labels))
        accuracies[ratio] = acc
        if acc > best_acc:
            best_ratio, best_acc = ratio, acc
    return TuneResult(best_ratio=best_ratio, best_q=best_ratio * cfg.r,
                      accuracies=accuracies)
