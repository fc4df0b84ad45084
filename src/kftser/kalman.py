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
the classifier output. The schedule is computed once per (q, r), cached and
sliced per trajectory: the recursion never reads its length, so a shorter
schedule is a bit-exact prefix of a longer one. The cache keeps, per key,
3 x 8 bytes x the bucket length (the next power of two of at least 64
steps), for up to 32 keys. The Rauch-Tung-Striebel smoother (AIAA J., 1965)
reduces the same way, to the scalar gain p_t / p_{t+1}^p. A q/r grid search
rides on top; it filters every candidate q in the same pass.

Every trajectory is filtered on Python floats, by a loop that _row_loops
generates once per row width and unrolls over the row's elements, so a
step runs no inner loop and builds no list; the smoother runs the same way.
Where the projection sums a row, a row of under 8 is added left to right
from 0.0, as numpy's add.reduce adds it, and a wider one goes to add.reduce
itself, so the bits equal a numpy row loop's at every width (test_kalman.py's
TestFilterBatch::test_matches_per_trajectory_filtering). The first use of
a width pays about 1 ms to generate the loops.

Measurements must be finite. With renormalisation on (the default) every
measurement must also lie in [0, 1], as every softmax or Dirichlet
posterior does, and anything else raises ValueError; with it off any
finite value is filtered as it is. The projection divides each filtered
row by its sum, and a row whose sum is 0 becomes the uniform row: at
r = 0 the gain is 1, so an all-zero measurement zeroes the state.

The reference filters in tests/test_acceptance.py and perfbench/oracle.py
also clamp each element to [0, 1] before the sum; on accepted input that
cannot change a bit under round-to-nearest. With the state a, the
measurement b and the gain k in [0, 1]: for b < a, fl(a + fl(k fl(b - a)))
lies in [0, a]; otherwise it is at most fl(a + fl(1 - a)), which is at most
1; a renormalised row v/s stays in [0, 1]; and no step makes -0.0, which
the clamp would turn into 0.0. The state starts uniform and every gain
lies in [0, 1], so this holds at every step.

Only the q/r tune runs on numpy, and only on posteriors (renormalisation
on, under 8 classes): every candidate q and every trajectory advance
together, one time step per set of array calls. Any other batch, or one
with a gain of exactly 1, goes through filter_trajectory. The batch is
sorted by length, longest first, and shrinks as trajectories end, so no
step is spent on padding; each stretch between two lengths works on
contiguous copies of the still-active state. The state is held
class-major, (n_q, dim, n), so the gain multiply runs on a contiguous
(n_q, dim * n) view and the row sum is one add.reduce over the class axis.
The tune keeps no filtered rows: each trajectory's mean row is summed as
it goes and fused when its last row is written, by the same steps as
evaluation.fuse_utterance's mean rule.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .manifest import write_csv


@dataclass(frozen=True)
class KalmanConfig:
    """Noise scales of the identity model; q = r = 0 is rejected.

    With renormalize on, each filtered row is divided by its sum and every
    measurement must lie in [0, 1]; off, any finite measurement is filtered
    as it is.

    r = 0 is legal (full trust in the measurement) as long as q > 0, and
    q = 0 (a static state) as long as r > 0. With both zero the variance
    collapses to 0 after the first step and the gain becomes 0/0.
    """

    dim: int = 4
    q: float = 1e-3
    r: float = 0.1
    renormalize: bool = True

    def __post_init__(self):
        if not isinstance(self.dim, numbers.Integral) or self.dim < 1:
            raise ValueError(f"dim must be an integer >= 1, got {self.dim!r}")
        for name in ("q", "r"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            _finite_nonneg(name, value)
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


def _finite_nonneg(name: str, value) -> float:
    """value as a float; ValueError unless it is finite and >= 0. An int too
    large for a float counts as inf, not as an OverflowError."""
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not (math.isfinite(number) and number >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {number}")
    return number


def _as_measurements(m, cfg: KalmanConfig) -> np.ndarray:
    """The (T, cfg.dim) float64 measurements.

    ValueError if m is empty, misshapen or not finite, or, with
    cfg.renormalize on, if any measurement lies outside [0, 1]. NaN and
    +-inf carry through min and max, so the two reductions that test the
    range also test finiteness.
    """
    z = np.atleast_2d(np.asarray(m, dtype=np.float64))
    if z.size == 0:
        raise ValueError("cannot filter an empty trajectory")
    if z.ndim != 2 or z.shape[1] != cfg.dim:
        raise ValueError(f"measurements must be T x {cfg.dim}, got {z.shape}")
    lo, hi = float(z.min()), float(z.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("measurements must be finite (found NaN or inf)")
    if cfg.renormalize and not (0.0 <= lo and hi <= 1.0):
        raise ValueError(f"renormalized measurements must lie in [0, 1], found [{lo!r}, {hi!r}]")
    return z


_SCHEDULE_MIN_STEPS = 64
_SCHEDULE_KEYS = 32


@functools.lru_cache(maxsize=_SCHEDULE_KEYS)
def _cached_schedule(q: float, r: float, n_steps: int):
    """Read-only predicted variance, gain and filtered variance for n_steps
    steps; the only code that steps the variance recursion."""
    p_pred, gain, p_filt = [], [], []
    p = 1.0
    for _ in range(n_steps):
        pp = p + q
        k = pp / (pp + r)
        p = (1.0 - k) * pp
        p_pred.append(pp)
        gain.append(k)
        p_filt.append(p)
    arrays = tuple(np.array(values, dtype=np.float64) for values in (p_pred, gain, p_filt))
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _schedule(q: float, r: float, t_steps: int):
    """Predicted variance, gain and filtered variance for steps 0..t_steps-1.

    Read-only slices of _cached_schedule's arrays for (q, r) at the next
    power of two of at least _SCHEDULE_MIN_STEPS steps, so a test set of many
    lengths under one q computes a handful of schedules, each once. Each key
    keeps 3 x 8 bytes x its bucket length, for up to _SCHEDULE_KEYS keys.
    """
    n_steps = max(_SCHEDULE_MIN_STEPS, 1 << (t_steps - 1).bit_length())
    return tuple(a[:t_steps] for a in _cached_schedule(float(q), float(r), n_steps))


_ROW_LOOPS = """\
def filter_rows(values, gains, renormalize, uniform):
    {chain} = uniform
    it = iter(values)
    flat = []
    if renormalize:
        for k, {b} in zip(gains, {its}):
            v{i} = a{i} + k * (b{i} - a{i})
            s = {v_sum}
            if s:
                a{i} = v{i} / s
            else:
                {chain} = uniform
            flat += ({a})
    else:
        for k, {b} in zip(gains, {its}):
            a{i} = a{i} + k * (b{i} - a{i})
            flat += ({a})
    return flat


def smooth_rows(values, gains):
    it = iter(values)
    {n} = {nexts}
    flat = [{n}]
    for g, {a} in zip(gains, {its}):
        n{i} = a{i} + g * (n{i} - a{i})
        flat += ({n})
    return flat
"""


def _row_sum(terms: list[str]) -> str:
    """Source that adds terms as numpy's add.reduce adds a float64 row.

    Below 8 terms numpy adds left to right from 0.0, and so does the source;
    from 8 terms on the source hands the row to add.reduce itself. Not the
    built-in sum(), which is compensated from Python 3.12 on and would change
    the bits.
    """
    if len(terms) < 8:
        return " + ".join(["0.0", *terms])
    return f"float(add_reduce(array(({', '.join(terms)},))))"


@functools.lru_cache(maxsize=16)
def _row_loops(dim: int):
    """The float loops of the filter and the smoother for rows of width dim.

    _ROW_LOOPS is written for one element: each run of lines that names {i}
    is repeated for i = 0..dim-1, so a step holds the row in dim locals, reads
    the input row as dim items of one iterator over the flat input values and
    runs no inner loop. Only _row_sum's fixed names and names built from
    range(dim) enter the source. Built once per width, in about 1 ms, and
    shared.
    """
    idx = range(dim)
    whole_row = {"chain": " = ".join(f"a{i}" for i in idx),
                 "v_sum": _row_sum([f"v{i}" for i in idx]),
                 "its": ", ".join("it" for _ in idx),
                 "nexts": "next(it), " * dim,
                 **{p: ", ".join(f"{p}{i}" for i in idx) + "," for p in "abn"}}
    lines = []
    for per_element, run in itertools.groupby(_ROW_LOOPS.splitlines(), lambda line: "{i}" in line):
        run = list(run)
        if per_element:
            lines += (line.format(i=i) for i in idx for line in run)
        else:
            lines += (line.format(**whole_row) for line in run)
    namespace = {"add_reduce": np.add.reduce, "array": np.array}
    exec(compile("\n".join(lines), f"<kftser.kalman rows, dim={dim}>", "exec"), namespace)
    return namespace["filter_rows"], namespace["smooth_rows"]


def _filtered_means(arrays, cfg: KalmanConfig, qs: list[float]) -> np.ndarray:
    """_tune_means' result by filter_trajectory and the mean rule, for any batch."""
    return np.array([[np.add.reduce(filter_trajectory(z, replace(cfg, q=q)).filtered, axis=0)
                      / len(z) for z in arrays] for q in qs])


def _tune_means(measurement_list, cfg: KalmanConfig, qs: list[float]) -> np.ndarray:
    """Each trajectory's mean filtered row under each q, (n_q, B, dim) in input order.

    Checks every trajectory as filter_trajectory does. Only posteriors take
    the batched recursion below: renormalisation on (so every measurement
    lies in [0, 1]), under 8 classes and every gain below 1. Any other batch
    goes to _filtered_means, before any step.

    Below a gain of 1 no filtered row sums to 0, so the recursion never
    needs the uniform fallback. The state sums to 1, so its largest entry is
    about 1/dim or more, and for k < 1 (so k <= 1 - 2**-53) and a measurement
    in [0, 1], x + k(z - x) keeps that entry positive in floating point too. A
    gain rounds to exactly 1 only when r is below about 1e-16 of the predicted
    variance: for q/r above about 1e16, or r below about 1e-16 at the first
    step. The default grid tops out at 1. Were this wrong, np.divide would
    warn on 0/0.

    Trajectories are sorted longest first (stably). Between two consecutive
    distinct lengths the same trajectories are active, the first n of the
    order. Each such stretch starts from contiguous copies of their state and
    running sums, with scratch of that shape, and advances them one time step
    per set of array calls; on a strided prefix view of the whole batch each
    call would leave numpy's contiguous fast path. The batch shrinks as
    trajectories end: no step computes a padded slot. Each q gets its own
    scalar schedule; the measurements broadcast across the q axis.

    The state is class-major, (n_q, dim, n): the gain multiply runs on its
    contiguous (n_q, dim * n) view, one gain per row of the view, and the row
    sum, one add.reduce over axis 1, adds left to right as _row_sum does.

    No row is kept: each (q, trajectory) keeps a running sum of its rows,
    and when its last row is written the sum divided by its length becomes
    its mean row. The sum adds row after row to 0.0, as np.add.reduce over
    axis 0 of a C-contiguous (T, dim) array does for dim >= 2, which is
    evaluation.fuse_utterance's mean rule.
    """
    arrays = [_as_measurements(m, cfg) for m in measurement_list]
    order = sorted(range(len(arrays)), key=lambda i: -arrays[i].shape[0])
    lengths = [arrays[i].shape[0] for i in order]
    t_max, batch, dim, n_q = lengths[0], len(arrays), cfg.dim, len(qs)
    gains = np.stack([_schedule(q, cfg.r, t_max)[1] for q in qs], axis=1).reshape(t_max, n_q, 1)
    if not (cfg.renormalize and dim < 8) or (gains == 1.0).any():
        return _filtered_means(arrays, cfg, qs)
    x = np.full((n_q, dim, batch), 1.0 / dim)
    total = np.zeros_like(x)
    fused = np.empty_like(x)
    active, t_start = batch, 0
    for t_end in sorted(set(lengths)):
        # contiguous copies of the still-active state and sums, and scratch
        # of their shape, so no call in the stretch works on a strided view
        zs = np.stack([arrays[i][t_start:t_end] for i in order[:active]], axis=2)
        x = np.ascontiguousarray(x[:, :, :active])
        total = np.ascontiguousarray(total[:, :, :active])
        step = np.empty_like(x)
        flat_step = step.reshape(n_q, dim * active)
        sums = np.empty((n_q, 1, active))
        for zt, g in zip(zs, gains[t_start:t_end]):
            np.subtract(zt, x, out=step)
            np.multiply(flat_step, g, out=flat_step)
            np.add(x, step, out=x)
            np.add.reduce(x, axis=1, keepdims=True, out=sums)
            np.divide(x, sums, out=x)
            np.add(total, x, out=total)
        ending = lengths.count(t_end)
        np.divide(total[:, :, active - ending:], t_end, out=fused[:, :, active - ending:active])
        active -= ending
        t_start = t_end
    return fused.transpose(0, 2, 1)[:, np.argsort(order)]


@dataclass
class SmoothedTrajectory:
    """One trajectory's forward pass: measurements in, filtered states out.

    It holds no variances: they depend only on (q, r, T), so rts_smooth
    reads them from the cached schedule and must get the config that
    filtered this trajectory.
    """

    filtered: np.ndarray

    @property
    def n_steps(self) -> int:
        return self.filtered.shape[0]


def filter_trajectory(measurements: np.ndarray, cfg: KalmanConfig) -> SmoothedTrajectory:
    """Filter one (T, dim) sequence.

    Causal: row t of the output depends only on measurements 0..t. Runs
    _row_loops' filter loop on Python floats, where numpy's per-call
    overhead would outweigh a step's few float operations: x + k*(z - x),
    then with renormalisation the row sum as numpy's add.reduce makes it
    and a divide; a row whose sum is 0 becomes the uniform row. The rows go
    in and come out as one flat list each: numpy converts a flat list both
    ways far faster than a list of rows.

    Raises ValueError unless measurements is (T, cfg.dim) with T >= 1 and
    finite, and, with renormalisation on, lies in [0, 1].
    """
    z = _as_measurements(measurements, cfg)
    gains = _schedule(cfg.q, cfg.r, z.shape[0])[1].tolist()
    flat = _row_loops(cfg.dim)[0](z.ravel().tolist(), gains, cfg.renormalize, 1.0 / cfg.dim)
    return SmoothedTrajectory(filtered=np.fromiter(flat, np.float64, len(flat)).reshape(z.shape))


def filter_batch(measurement_list, cfg: KalmanConfig) -> list[np.ndarray]:
    """Filtered means for many trajectories, in input order.

    Each is filter_trajectory's filtered rows, byte for byte; a bad input
    raises filter_trajectory's ValueError when its turn comes.
    """
    return [filter_trajectory(m, cfg).filtered for m in measurement_list]


def rts_smooth(st: SmoothedTrajectory, cfg: KalmanConfig) -> np.ndarray:
    """Backward fixed-interval pass; returns the (T, dim) smoothed means.

    cfg must be the config that filtered st: the variances come from its
    (q, r) schedule, not from st. Under F = I the predicted mean at t+1 is
    the filtered mean at t, and the smoother gain is the scalar
    p_t / p_{t+1}^p, the filtered variance at t over the predicted variance
    at t+1. The final smoothed step equals the final filtered step exactly.
    A predicted variance of exactly 0 (q = 0 once the filtered variance has
    rounded to 0, as it does for r below about 1e-16) takes the gain's exact
    value, 1: at q = 0 the two variances are equal.
    The pass is _row_loops' smoother loop, generated once per row width
    (about 1 ms on first use): n = a + g*(n - a) per element on Python
    floats, from the last row backwards, the operations of a numpy row loop
    in its order and so its bits, at a fraction of its per-call cost. The
    rows go in and come out last first, each as one flat list, and one copy
    puts them back in time order.

    Raises ValueError unless filtered is (T, cfg.dim) with T >= 1.
    """
    shape = st.filtered.shape
    if len(shape) != 2 or shape[0] < 1 or shape[1] != cfg.dim:
        raise ValueError(f"filtered must be T x {cfg.dim} with T >= 1, got {shape}")
    p_pred, _, p_filt = _schedule(cfg.q, cfg.r, shape[0])
    gain = np.divide(p_filt[-2::-1], p_pred[:0:-1], out=np.ones(shape[0] - 1),
                     where=p_pred[:0:-1] > 0).tolist()
    flat = _row_loops(cfg.dim)[1](st.filtered[::-1].ravel().tolist(), gain)
    means = np.fromiter(flat, np.float64, len(flat)).reshape(shape)
    return means[::-1].copy()


def write_trajectory_csv(raw: np.ndarray, filtered: np.ndarray, path: str | Path,
                         class_names) -> None:
    """Plot-ready CSV: frame_index, raw posteriors (z_*), filtered states (x_*)."""
    if not raw.shape == filtered.shape == (len(filtered), len(class_names)):
        raise ValueError(f"raw {raw.shape} and filtered {filtered.shape} must both be "
                         f"T x {len(class_names)}, one column per class name")
    header = ["frame_index", *(f"z_{c}" for c in class_names), *(f"x_{c}" for c in class_names)]
    write_csv(path, header, ([t, *z, *x] for t, (z, x) in enumerate(zip(raw, filtered))))


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
    ratios = [_finite_nonneg("q/r ratio", x) for x in ratios]
    if not ratios:
        raise ValueError("ratio grid is empty")
    return sorted(ratios)


def tune_qr_ratio(measurement_list, labels, cfg: KalmanConfig,
                  ratios=DEFAULT_RATIO_GRID) -> TuneResult:
    """Grid-search q as ratio*r (r held fixed) by fused utterance accuracy.

    On posteriors every candidate runs in one pass of the batched recursion,
    which keeps only each trajectory's mean row; any other batch is filtered
    trajectory by trajectory (_tune_means). The decision is the mean row's
    argmax, exactly as fuse_utterance's mean rule on filter_batch's rows. The
    score is always mean fusion, whatever rule the caller later fuses with.
    Ties between ratios go to the smaller ratio, i.e. the more smoothed filter.
    """
    labels = np.asarray(labels, dtype=np.intp)
    if len(labels) != len(measurement_list):
        raise ValueError("one label per trajectory required")
    if len(measurement_list) == 0:
        raise ValueError("nothing to tune on")
    ratios = check_ratio_grid(ratios)
    check_tunable(cfg)
    qs = [replace(cfg, q=ratio * cfg.r).q for ratio in ratios]  # validates each q
    fused = _tune_means(measurement_list, cfg, qs)
    accuracies = {ratio: float(np.mean(pred == labels))
                  for ratio, pred in zip(ratios, fused.argmax(axis=-1))}
    best_ratio = max(accuracies, key=accuracies.get)  # the first maximum: the smallest ratio
    return TuneResult(best_ratio=best_ratio, best_q=best_ratio * cfg.r, accuracies=accuracies)
