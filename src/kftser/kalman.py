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
buffers, one time step per set of array calls. The batch is sorted by
length, longest first, and shrinks as trajectories end, so no step is
spent on padding. The tune keeps no filtered rows: each trajectory's mean
row is summed as it goes and fused when its last row is written, by the
same steps as evaluation.fuse_utterance's mean rule. A single
trajectory at a single q with dim < 8 runs on Python floats, where numpy's
per-call overhead would outweigh the arithmetic; the smoother always does.
The selection depends only on the input's shape. test_kalman.py's
TestFilterBatch::test_matches_per_trajectory_filtering holds the two loops
byte-equal on both sides of the width cut.
"""

from __future__ import annotations

import csv
import itertools
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
                   renormalize: bool) -> list[float]:
    """_filter's numpy loop for one trajectory at one q, on Python floats.

    Every operation is the one the numpy loop does, in its order: x + k*(z - x),
    clamp to [0, 1], a left-to-right row sum, divide; a row whose clamped sum
    is 0 becomes the uniform row. One frame thus costs one short Python
    loop instead of about ten numpy calls on (1, 1, dim) arrays.
    The sum is an explicit loop: the built-in sum() is compensated from
    Python 3.12 on and would change the bits. Returns the rows back to back
    in one flat list, which numpy converts far faster than a list of rows.
    """
    uniform = [1.0 / dim] * dim
    x, flat = uniform, []
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
        flat += x
    return flat


def _filter(arrays: list[np.ndarray], cfg: KalmanConfig, fuse_qs=None):
    """The one recursion: filtered means of a batch under one or more q values.

    Trajectories are sorted longest first (stably). Between two consecutive
    distinct lengths the same trajectories are active, the first n of the
    order, so each such stretch advances one (n_q, n, dim) prefix of the
    state through preallocated buffers, one time step per set of array calls,
    and the batch shrinks as trajectories end: no step computes a padded slot.
    Each q gets its own scalar schedule and its own (n, dim) slice of the
    state; the measurements broadcast across the q axis.

    Without fuse_qs the batch runs at cfg.q and the first return value is
    each trajectory's (T, dim) filtered means, in input order; one
    trajectory with dim < 8 runs the same steps in _filter_floats instead.
    With fuse_qs (the tune grid) no row is kept: each (q, trajectory) keeps
    a running sum of its rows, and when its last row is written the sum
    divided by its length becomes its mean row. The sum adds row after row
    to 0.0, as numpy's mean over axis 0 of a C-contiguous (T, dim) array
    does for dim >= 2; the first return value is then the (n_q, B, dim)
    mean rows, in input order.

    Also returns the predicted and filtered variances, (n_q, T_max) each.
    """
    qs = [cfg.q] if fuse_qs is None else list(fuse_qs)
    order = sorted(range(len(arrays)), key=lambda i: -arrays[i].shape[0])
    lengths = [arrays[i].shape[0] for i in order]
    t_max, batch, dim, n_q = lengths[0], len(arrays), cfg.dim, len(qs)
    schedules = [_schedule(q, cfg.r, t_max) for q in qs]
    if fuse_qs is None and batch == 1 and dim < 8:
        # numpy's last-axis add.reduce sums a row left to right only up to
        # width 7 (wider rows are summed in unrolled partial sums), so only
        # below that width can a float loop reproduce the row sums bit for bit
        p_pred, gains, p_filt = schedules[0]
        flat = _filter_floats(arrays[0], gains, dim, cfg.renormalize)
        return ([np.fromiter(flat, np.float64, len(flat)).reshape(t_max, dim)],
                np.array([p_pred]), np.array([p_filt]))
    p_pred, gains, p_filt = (np.array(v) for v in zip(*schedules))

    gains = gains.T.reshape(t_max, n_q, 1, 1)
    x = np.full((n_q, batch, dim), 1.0 / dim)
    step = np.empty_like(x)
    clipped = np.empty_like(x)
    sums = np.empty((n_q, batch, 1))
    if fuse_qs is None:
        out = np.empty((t_max, n_q, batch, dim))
    else:
        total = np.zeros_like(x)
        fused = np.empty_like(x)
    active, t_start = batch, 0
    for t_end in sorted(set(lengths)):
        # views onto the still-active prefix, bound once per stretch
        zs = np.stack([arrays[i][t_start:t_end] for i in order[:active]], axis=1)
        x, step_n, clipped_n, sums_n = (a[:, :active] for a in (x, step, clipped, sums))
        if fuse_qs is None:
            rows = out[t_start:t_end, :, :active]
        else:
            total_n = total[:, :active]
            rows = itertools.repeat(x)  # the state is updated in place
        for zt, row, g in zip(zs, rows, gains[t_start:t_end]):
            np.subtract(zt, x, out=step_n)
            np.multiply(step_n, g, out=step_n)
            np.add(x, step_n, out=row)
            if cfg.renormalize:
                # _renorm_rows' projection in place; the function itself runs
                # only when some row clamps to all zeros
                np.maximum(row, 0.0, out=clipped_n)
                np.minimum(clipped_n, 1.0, out=clipped_n)
                np.add.reduce(clipped_n, axis=-1, keepdims=True, out=sums_n)
                if sums_n.all():
                    np.divide(clipped_n, sums_n, out=row)
                else:
                    row[...] = _renorm_rows(row, dim)
            x = row
            if fuse_qs is not None:
                np.add(total_n, row, out=total_n)
        ending = lengths.count(t_end)
        if fuse_qs is not None:
            done = slice(active - ending, active)
            np.divide(total[:, done], t_end, out=fused[:, done])
        active -= ending
        t_start = t_end

    position = np.argsort(order)  # column of each input trajectory
    if fuse_qs is not None:
        return fused[:, position], p_pred, p_filt
    return ([out[: a.shape[0], 0, j].copy() for a, j in zip(arrays, position)],
            p_pred, p_filt)


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
    (filtered,), p_pred, p_filt = _filter([z], cfg)
    return SmoothedTrajectory(raw=z.copy(), filtered=filtered,
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
    return _filter(arrays, cfg)[0]


def rts_smooth(st: SmoothedTrajectory, cfg: KalmanConfig) -> np.ndarray:
    """Backward fixed-interval pass; returns the (T, dim) smoothed means.

    Under F = I the predicted mean at t+1 is the filtered mean at t, and the
    smoother gain is the scalar filtered_var[t] / predicted_var[t+1]. The
    final smoothed step equals the final filtered step exactly. The pass runs
    on Python floats, a + g*(b - a) per element, which gives the bits of the
    same update as a numpy row loop at a fraction of its per-call cost.
    The rows are collected last first in one flat list and put back in time
    order by one copy.
    """
    filtered = st.filtered.tolist()
    gain = (st.filtered_var[:-1] / st.predicted_var[1:]).tolist()
    nxt = filtered[-1]
    flat = list(nxt)
    for f, g in zip(filtered[-2::-1], gain[::-1]):
        nxt = [a + g * (b - a) for a, b in zip(f, nxt)]
        flat += nxt
    means = np.fromiter(flat, np.float64, len(flat)).reshape(len(filtered), -1)
    return means[::-1].copy()


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


def check_tunable(cfg: KalmanConfig) -> None:
    """Raise ValueError unless q can be tuned as ratio*r, which needs r > 0.

    With r = 0 every ratio gives q = 0, and q = r = 0 is not a valid model.
    """
    if cfg.r == 0:
        raise ValueError(f"tuning q as ratio*r needs kalman_r > 0, got kalman_r={cfg.r}")


def check_ratio_grid(ratios) -> list[float]:
    """The q/r ratio grid as sorted floats; ValueError unless it is non-empty
    and every ratio is finite and >= 0."""
    ratios = [float(x) for x in ratios]
    if not ratios:
        raise ValueError("ratio grid is empty")
    for ratio in ratios:
        if not (math.isfinite(ratio) and ratio >= 0):
            raise ValueError(f"q/r ratio must be finite and >= 0, got {ratio}")
    return sorted(ratios)


def tune_qr_ratio(measurement_list, labels, cfg: KalmanConfig,
                  ratios=DEFAULT_RATIO_GRID) -> TuneResult:
    """Grid-search q as ratio*r (r held fixed) by fused utterance accuracy.

    Every candidate runs in one pass of the batched recursion, which keeps
    only each trajectory's mean row; the decision is its argmax, exactly as
    fuse_utterance's mean rule on filter_batch's rows. Ties between ratios go
    to the smaller ratio, i.e. the more smoothed filter.
    """
    labels = np.asarray(labels, dtype=np.intp)
    if len(labels) != len(measurement_list):
        raise ValueError("one label per trajectory required")
    if len(measurement_list) == 0:
        raise ValueError("nothing to tune on")
    ratios = check_ratio_grid(ratios)
    check_tunable(cfg)
    qs = [replace(cfg, q=ratio * cfg.r).q for ratio in ratios]  # validates each q
    arrays = [_as_measurements(m, cfg) for m in measurement_list]
    fused, _, _ = _filter(arrays, cfg, qs)
    preds = fused.argmax(axis=-1)
    accuracies = {}
    best_ratio, best_acc = None, -1.0
    for ratio, pred in zip(ratios, preds):
        acc = float(np.mean(pred == labels))
        accuracies[ratio] = acc
        if acc > best_acc:
            best_ratio, best_acc = ratio, acc
    return TuneResult(best_ratio=best_ratio, best_q=best_ratio * cfg.r,
                      accuracies=accuracies)
