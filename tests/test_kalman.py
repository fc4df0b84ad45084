import functools
import hashlib
import re
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kftser.evaluation import fuse_utterance, synth_noisy_trajectories
from kftser.kalman import (
    DEFAULT_RATIO_GRID,
    KalmanConfig,
    TuneResult,
    filter_batch,
    filter_trajectory,
    rts_smooth,
    tune_qr_ratio,
    write_trajectory_csv,
)
from kftser import kalman
from kftser.features import N_FEATURES
from kftser.manifest import CLASS_NAMES
from kftser.mlp import init_model, predict_frames


def _naive_filter(z, cfg):
    """Textbook predict/correct with an explicit matrix inverse."""
    x = np.full(cfg.dim, 1.0 / cfg.dim)
    p = np.eye(cfg.dim)
    f, h, q, r = cfg.F, cfg.H, cfg.Q, cfg.R
    eye = np.eye(cfg.dim)
    out = np.empty((z.shape[0], cfg.dim))
    for t in range(z.shape[0]):
        x = f @ x
        p = f @ p @ f.T + q
        k = p @ h.T @ np.linalg.inv(h @ p @ h.T + r)
        x = x + k @ (z[t] - h @ x)
        p = (eye - k @ h) @ p
        if cfg.renormalize:
            x = np.clip(x, 0.0, 1.0)
            s = x.sum()
            x = x / s if s > 0 else np.full(cfg.dim, 1.0 / cfg.dim)
        out[t] = x
    return out


def _naive_smoother(z, cfg):
    """Textbook matrix Rauch-Tung-Striebel pass with explicit inverses."""
    f, h, q, r = cfg.F, cfg.H, cfg.Q, cfg.R
    x, p = np.full(cfg.dim, 1.0 / cfg.dim), np.eye(cfg.dim)
    xp, pp, xf, pf = [], [], [], []
    for t in range(z.shape[0]):
        x, p = f @ x, f @ p @ f.T + q
        xp.append(x)
        pp.append(p)
        k = p @ h.T @ np.linalg.inv(h @ p @ h.T + r)
        x, p = x + k @ (z[t] - h @ x), (np.eye(cfg.dim) - k @ h) @ p
        xf.append(x)
        pf.append(p)
    xs = np.array(xf)
    for t in range(len(xf) - 2, -1, -1):
        c = pf[t] @ f.T @ np.linalg.inv(pp[t + 1])
        xs[t] = xf[t] + c @ (xs[t + 1] - xp[t + 1])
    return xs


class TestAgainstNaiveRecursion:
    def test_random_cases_both_dims(self):
        rng = np.random.default_rng(42)
        for case in range(60):
            dim = 1 if case % 2 else 4
            cfg = KalmanConfig(
                dim=dim,
                q=float(rng.uniform(1e-4, 1.0)),
                r=float(rng.uniform(1e-3, 1.0)),
                renormalize=bool(case % 4 == 0 and dim == 4),
            )
            z = rng.uniform(0.0, 1.0, size=(int(rng.integers(1, 13)), dim))
            got = filter_trajectory(z, cfg).filtered
            want = _naive_filter(z, cfg)
            assert np.max(np.abs(got - want)) < 1e-10


class TestSingleSteps:
    def test_initial_state_is_uninformative(self):
        # the prior mean is uniform, so a uniform measurement changes nothing
        for dim in (1, 4):
            z = np.full((3, dim), 1.0 / dim)
            out = filter_trajectory(z, KalmanConfig(dim=dim, renormalize=False)).filtered
            np.testing.assert_array_equal(out, z)

    def test_predict_identity_no_noise_is_a_fixed_point(self):
        p_pred, _, p_filt = kalman._schedule(0.0, 0.1, 5)
        assert p_pred[0] == 1.0
        np.testing.assert_array_equal(p_pred[1:], p_filt[:-1])

    def test_predict_adds_process_noise(self):
        p_pred, _, p_filt = kalman._schedule(0.01, 0.1, 5)
        assert p_pred[0] == pytest.approx(1.01, abs=1e-15)
        np.testing.assert_allclose(p_pred[1:], p_filt[:-1] + 0.01, rtol=0, atol=1e-15)

    def test_correct_scalar_halves_the_innovation(self):
        cfg = KalmanConfig(dim=2, q=0.0, r=1.0, renormalize=False)
        traj = filter_trajectory(np.array([[1.0, 0.0]]), cfg)
        # gain = predicted / (predicted + r) = 1/2 from the unit prior variance
        np.testing.assert_allclose(traj.filtered[0], [0.75, 0.25], atol=1e-12)
        assert np.isclose(kalman._schedule(cfg.q, cfg.r, 1)[2][0], 0.5, atol=1e-12)


class TestNoiseExtremes:
    def test_zero_measurement_noise_passes_measurements_through(self, rng):
        z = rng.dirichlet(np.ones(4), size=30)
        for renorm in (False, True):
            cfg = KalmanConfig(dim=4, r=0.0, renormalize=renorm)
            out = filter_trajectory(z, cfg).filtered
            np.testing.assert_allclose(out, z, rtol=0, atol=1e-12)

    def test_huge_measurement_noise_freezes_the_state(self, rng):
        cfg = KalmanConfig(dim=4, r=1e12)
        z = rng.dirichlet(np.ones(4), size=100)
        out = filter_trajectory(z, cfg).filtered
        assert np.max(np.abs(out - 0.25)) < 1e-3

    def test_constant_input_converges_to_it(self):
        c = np.array([0.7, 0.1, 0.1, 0.1])
        z = np.tile(c, (200, 1))
        out = filter_trajectory(z, KalmanConfig()).filtered
        assert np.max(np.abs(out[-1] - c)) < 1e-6


class TestTrajectoryProperties:
    def test_causal_prefix_stability(self, rng):
        cfg = KalmanConfig()
        z = rng.dirichlet(np.ones(4), size=15)
        full = filter_trajectory(z, cfg).filtered
        for k in (1, 4, 9, 15):
            np.testing.assert_array_equal(filter_trajectory(z[:k], cfg).filtered, full[:k])

    def test_covariances_stay_symmetric_positive(self):
        # every covariance is var * I: symmetric by construction, positive iff var > 0
        p_pred, _, p_filt = kalman._schedule(0.05, 0.3, 50)
        assert p_pred.shape == p_filt.shape == (50,)
        assert np.all(p_filt > 0.0)
        assert np.all(p_filt < p_pred)

    def test_empty_and_misshapen_input_rejected(self):
        cfg = KalmanConfig()
        with pytest.raises(ValueError):
            filter_trajectory(np.empty((0, 4)), cfg)
        with pytest.raises(ValueError):
            filter_trajectory(np.ones((5, 3)), cfg)
        for bad in (np.nan, np.inf, -np.inf):
            z = np.full((5, 4), 0.25)
            z[2, 1] = bad
            with pytest.raises(ValueError, match="finite"):
                filter_trajectory(z, cfg)

    @given(
        z=hnp.arrays(
            np.float64,
            st.tuples(st.integers(min_value=1, max_value=20), st.just(4)),
            elements=st.floats(min_value=0.0, max_value=1.0),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_renormalized_outputs_live_on_the_simplex(self, z):
        out = filter_trajectory(z, KalmanConfig()).filtered
        assert np.all(out >= 0.0)
        assert np.all(out <= 1.0 + 1e-12)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)


class TestGainSchedule:
    def test_steady_state_gain_shrinks_with_measurement_noise(self):
        gain = []
        for r in (0.01, 0.1, 1.0, 10.0):
            gain.append(kalman._schedule(1e-3, r, 300)[2][-1] / r)  # k = p_filtered / r
        assert all(b < a for a, b in zip(gain, gain[1:]))


def _uncached_schedule(q, r, t_steps):
    """The variance recursion as one plain loop on Python floats: the
    reference for kalman's cached, sliced schedule."""
    p_pred, gain, p_filt = [], [], []
    p = 1.0
    for _ in range(t_steps):
        pp = p + q
        k = pp / (pp + r)
        p = (1.0 - k) * pp
        p_pred.append(pp)
        gain.append(k)
        p_filt.append(p)
    return p_pred, gain, p_filt


def _posterior_filtering_batch():
    """The posterior_filtering benchmark's shape: 8 noisy trajectories each
    of 44, 88, 151, 302 and 453 frames, shuffled."""
    trajs, labels = [], []
    for seed, t in enumerate((44, 88, 151, 302, 453)):
        z, y = synth_noisy_trajectories(8, t, flip_prob=0.3, seed=seed)
        trajs += z
        labels += list(y)
    order = np.random.default_rng(7).permutation(len(trajs))
    return [trajs[i] for i in order], [labels[i] for i in order]


class TestScheduleCache:
    def test_slices_equal_an_uncached_loop(self):
        kalman._cached_schedule.cache_clear()
        # q = 0 and r = 0, then an int and an np.float64 equal to floats cached before
        pairs = [(1e-3, 0.1), (0.0, 0.1), (1e-3, 0.0), (1.0, 0.1), (1, 0.1),
                 (np.float64(1e-3), 0.1), (1e-3, np.float64(0.1))]
        for q, r in pairs:
            for t_steps in (1, 2, 63, 64, 65, 128, 129, 453, 1000):
                want = _uncached_schedule(q, r, t_steps)
                got = kalman._schedule(q, r, t_steps)
                for w, g in zip(want, got):
                    assert g.dtype == np.float64 and g.shape == (t_steps,)
                    assert g.tobytes() == np.array(w, dtype=np.float64).tobytes()
        # 4 distinct float pairs x buckets 64 to 1024; the int and np.float64
        # pairs hit the keys of the floats before them
        assert kalman._cached_schedule.cache_info().misses == 4 * 5

    def test_cached_arrays_are_read_only(self):
        for a in (*kalman._schedule(1e-3, 0.1, 70), *kalman._cached_schedule(1e-3, 0.1, 128)):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0

    def test_one_miss_per_q_and_bucket(self):
        """A tune-then-filter pass shaped like the posterior_filtering benchmark:
        the default grid, then filter and smooth every trajectory under the
        tuned q."""
        trajs, labels = _posterior_filtering_batch()
        cfg = KalmanConfig()
        kalman._cached_schedule.cache_clear()
        misses = []
        for _ in range(2):
            tuned = tune_qr_ratio(trajs, labels, cfg)
            best = replace(cfg, q=tuned.best_q)
            for z in trajs:
                rts_smooth(filter_trajectory(z, best), best)
            misses.append(kalman._cached_schedule.cache_info().misses)
        keys = {(ratio * cfg.r, 512) for ratio in DEFAULT_RATIO_GRID}
        keys |= {(best.q, bucket) for bucket in (64, 128, 256, 512)}
        assert misses == [len(keys), len(keys)]


def _numpy_rts_smooth(filtered, p_pred, p_filt):
    """rts_smooth as a numpy row loop: the reference for its float loop."""
    means = filtered.copy()
    gain = p_filt[:-1] / p_pred[1:]
    for t in range(len(filtered) - 2, -1, -1):
        means[t] = filtered[t] + gain[t] * (means[t + 1] - filtered[t])
    return means


def _numpy_filter(z, cfg):
    """The filter as a numpy row loop: the reference for its float loop.

    Returns the (T, dim) means and the (T,) predicted and filtered variances.
    """
    x = np.full(cfg.dim, 1.0 / cfg.dim)
    means, p_pred, p_filt = np.empty_like(z), np.empty(len(z)), np.empty(len(z))
    p = 1.0
    for t, zt in enumerate(z):
        p_pred[t] = p + cfg.q
        k = p_pred[t] / (p_pred[t] + cfg.r)
        p = p_filt[t] = (1.0 - k) * p_pred[t]
        x = x + k * (zt - x)
        if cfg.renormalize:
            clipped = np.minimum(np.maximum(x, 0.0), 1.0)
            s = np.add.reduce(clipped)
            x = clipped / s if s else np.full(cfg.dim, 1.0 / cfg.dim)
        means[t] = x
    return means, p_pred, p_filt


class TestFilterBatch:
    @pytest.mark.parametrize("renorm", [False, True])
    @pytest.mark.parametrize("q, r", [(1e-3, 0.1), (0.0, 0.1), (1e-3, 0.0)])
    @pytest.mark.parametrize("dim", [*range(1, 13), 15, 16, 17, 129, 200])
    def test_matches_per_trajectory_filtering(self, rng, dim, q, r, renorm):
        """filter_batch, filter_trajectory and a numpy row loop agree byte for
        byte, the schedule's variances and the loop's included, and so do
        rts_smooth and its numpy row loop.
        The widths cover every order of numpy's pairwise row sum: left to
        right below 8, eight partial sums up to 128, halves above that.
        Renormalised rows lie in [0, 1], with 0.0, -0.0 and all-zero rows, and
        the numpy loop clamps them, so the filter's bytes are checked against a
        reference that clamps; unprojected rows reach beyond [0, 1]."""
        cfg = KalmanConfig(dim=dim, q=q, r=r, renormalize=renorm)
        lo, hi, whole_row = (0.0, 1.0, 0.0) if renorm else (-0.5, 1.5, -0.25)
        trajs = [rng.dirichlet(np.ones(dim), size=7)]
        for t in (1, 2, 17, 60, 453, int(rng.integers(1, 61))):
            z = rng.uniform(lo, hi, size=(t, dim))
            pick = rng.uniform(size=z.shape)
            z[pick < 0.15] = 0.0
            z[pick > 0.85] = -0.0
            z[rng.uniform(size=t) < 0.1] = whole_row
            trajs.append(z)
        batched = filter_batch(trajs, cfg)
        for z, got in zip(trajs, batched):
            st = filter_trajectory(z, cfg)
            means, p_pred, p_filt = _numpy_filter(z, cfg)
            assert got.shape == st.filtered.shape == z.shape
            assert got.tobytes() == st.filtered.tobytes() == means.tobytes()
            sched_pred, _, sched_filt = kalman._schedule(q, r, len(z))
            assert sched_pred.tobytes() == p_pred.tobytes()
            assert sched_filt.tobytes() == p_filt.tobytes()
            smoothed = _numpy_rts_smooth(means, p_pred, p_filt)
            assert rts_smooth(st, cfg).tobytes() == smoothed.tobytes()

    def test_empty_batch_and_empty_trajectory(self):
        cfg = KalmanConfig()
        assert filter_batch([], cfg) == []
        with pytest.raises(ValueError):
            filter_batch([np.ones((3, 4)), np.empty((0, 4))], cfg)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                filter_batch([np.ones((3, 4)), np.full((2, 4), bad)], cfg)


def _row_weights(gains):
    """Closed-form weights of each filtered row, without the clamp.

    x_t = (1 - k_t) x_{t-1} + k_t z_t from the uniform start u, so x_t is
    sum_s A[t, s] z_s + c_t u with A[t, s] = k_s prod_{j=s+1..t}(1 - k_j) and
    c_t = prod_{j<=t}(1 - k_j). Returns the (T, T) A and the (T,) c.
    """
    t_steps = len(gains)
    a, c = np.zeros((t_steps, t_steps)), np.empty(t_steps)
    row, start = np.zeros(t_steps), 1.0
    for t, k in enumerate(gains):
        row *= 1.0 - k
        row[t] = k
        start *= 1.0 - k
        a[t], c[t] = row, start
    return a, c


@functools.lru_cache(maxsize=None)
def _mean_weights(q, r, t_steps, smoothed):
    """Each raw row's weight in the mean of the T filtered rows (or of the T
    RTS-smoothed rows), and the uniform start's weight.

    The smoother's s_{T-1} = x_{T-1} and s_t = x_t + g_t (s_{t+1} - x_t),
    g_t = p_t / p_{t+1}^p from the schedule, combine filtered rows with
    fixed coefficients, so they combine the filtered rows' weights the same way.
    """
    p_pred, gains, p_filt = kalman._schedule(q, r, t_steps)
    a, c = _row_weights(gains)
    if smoothed:
        for t in range(t_steps - 2, -1, -1):
            g = p_filt[t] / p_pred[t + 1]
            a[t] += g * (a[t + 1] - a[t])
            c[t] += g * (c[t + 1] - c[t])
    return a.mean(axis=0), c.mean()


def _probability_rows(dim):
    """Probability rows: softmax rows of an untrained net and, above
    width 1, the Dirichlet rows of synth_noisy_trajectories, at 1 to 453 frames.
    At width 1 the only probability row is [1.0]."""
    rng = np.random.default_rng(dim)
    model = init_model((N_FEATURES, 256, 128, dim), seed=dim,
                       class_order=tuple(map(str, range(dim))))
    trajs = []
    for t_steps in (43, 17, 1, 110, 453):
        trajs.append(predict_frames(model, rng.normal(size=(t_steps, N_FEATURES))))
        if dim > 1:
            trajs += synth_noisy_trajectories(3, t_steps, seed=t_steps, n_classes=dim)[0]
    return trajs


class TestFrameWeights:
    """On probability rows each filtered row sums to 1 up to rounding, so the
    renormalising divide is the identity to 1e-12, and the filter and the
    smoother are linear in the raw rows with weights that depend only on q, r
    and T, whether renormalisation is on or off: mean
    fusion of their rows is a fixed reweighting of the raw rows in time, plus
    the uniform start, and adds no evidence to the decision."""

    @pytest.mark.parametrize("ratio", [1e-4, 1e-2, 1.0])
    @pytest.mark.parametrize("dim", range(1, 13))
    def test_mean_fused_rows_reweight_raw_rows_in_time(self, dim, ratio):
        trajs = _probability_rows(dim)
        for renorm in (True, False):
            cfg = KalmanConfig(dim=dim, q=ratio * 0.1, r=0.1, renormalize=renorm)
            for z, rows in zip(trajs, filter_batch(trajs, cfg)):
                weights, start = _mean_weights(cfg.q, cfg.r, len(z), smoothed=False)
                np.testing.assert_allclose(fuse_utterance(rows)[1], weights @ z + start / dim,
                                           rtol=0, atol=1e-12)

    @pytest.mark.parametrize("ratio", [1e-4, 1e-2, 1.0])
    @pytest.mark.parametrize("dim", range(1, 13))
    def test_mean_smoothed_rows_reweight_raw_rows_in_time(self, dim, ratio):
        trajs = _probability_rows(dim)
        for renorm in (True, False):
            cfg = KalmanConfig(dim=dim, q=ratio * 0.1, r=0.1, renormalize=renorm)
            for z in trajs:
                rows = rts_smooth(filter_trajectory(z, cfg), cfg)
                weights, start = _mean_weights(cfg.q, cfg.r, len(z), smoothed=True)
                np.testing.assert_allclose(fuse_utterance(rows)[1], weights @ z + start / dim,
                                           rtol=0, atol=1e-12)


class TestZeroSumProjection:
    """Rows whose sum is 0 fall back to the uniform row."""

    @staticmethod
    def _count_fallbacks(monkeypatch):
        """Record the batch size of every tune batch that leaves the batched
        recursion for _filtered_means, the per-trajectory exact path."""
        calls = []
        original = kalman._filtered_means

        def counted(arrays, cfg, qs):
            calls.append(len(arrays))
            return original(arrays, cfg, qs)

        monkeypatch.setattr(kalman, "_filtered_means", counted)
        return calls

    @staticmethod
    def _assert_means_match_filter_then_fuse(trajs, cfg, qs):
        """_tune_means' mean rows equal fuse_utterance's on filter_batch's rows."""
        for q_k, fused_k in zip(qs, kalman._tune_means(trajs, cfg, qs)):
            want = [fuse_utterance(m)[1] for m in filter_batch(trajs, replace(cfg, q=q_k))]
            assert fused_k.tobytes() == np.array(want).tobytes()

    @staticmethod
    def _zero_rows(rng, n, dim):
        """n rows in [0, 1], about half of them all zeros (0.0 or -0.0) and
        the others all ones or uniform draws."""
        zeros = np.where(rng.uniform(size=(n, dim)) < 0.5, 0.0, -0.0)
        high = rng.uniform(0.0, 1.0, size=(n, dim))
        high[::3] = 1.0
        return np.where(rng.uniform(size=(n, 1)) < 0.5, zeros, high)

    @pytest.mark.parametrize("dim", [1, 4])
    def test_fallback_matches_naive_and_per_trajectory(self, rng, dim):
        cfg = KalmanConfig(dim=dim, q=1e-3, r=0.0)
        bad = self._zero_rows(rng, 12, dim)
        filtered = filter_trajectory(bad, cfg).filtered
        np.testing.assert_allclose(filtered, _naive_filter(bad, cfg), rtol=0, atol=1e-12)
        assert filtered.tobytes() == _numpy_filter(bad, cfg)[0].tobytes()
        # at r = 0 the gain is 1, so an all-zero row zeroes the state and its
        # step must come out as the uniform row, exactly
        low = (bad == 0.0).all(axis=1)
        assert low.any()
        assert (filtered[low] == 1.0 / dim).all()

        # a batch holding the trajectory that falls back gives each its own rows
        trajs = [rng.dirichlet(np.ones(dim), size=t) for t in (5, 12, 9)]
        trajs.insert(1, bad)
        batched = filter_batch(trajs, cfg)
        for z, got in zip(trajs, batched):
            np.testing.assert_array_equal(got, filter_trajectory(z, cfg).filtered)

    def test_probability_rows_never_fall_back(self, monkeypatch):
        """A convex step from a simplex row to a probability row stays on the
        simplex, so noisy Dirichlet rows and softmax rows never leave the
        batched recursion for the exact path, even at ratios 0 and 100."""

        def unreachable(arrays, cfg, qs):
            raise AssertionError("probability rows left the batched recursion")

        monkeypatch.setattr(kalman, "_filtered_means", unreachable)
        rng = np.random.default_rng(3)
        model = init_model(seed=3)
        trajs, labels = synth_noisy_trajectories(12, 60, flip_prob=0.6, seed=3)
        for t_steps in (1, 17, 60, 110):
            trajs.append(predict_frames(model, rng.normal(size=(t_steps, N_FEATURES))))
        labels = [*labels, 0, 1, 2, 3]
        ratios = (0.0, 1e-4, 1e-2, 1.0, 100.0)
        res = tune_qr_ratio(trajs, labels, KalmanConfig(), ratios=ratios)
        assert set(res.accuracies) == set(ratios)

    def test_tune_matches_separate_batches(self, monkeypatch):
        calls = self._count_fallbacks(monkeypatch)
        cfg = KalmanConfig(r=0.1)
        trajs, labels = [], []
        for t_steps, seed in ((30, 1), (17, 2)):  # mixed lengths make the batch shrink
            z, y = synth_noisy_trajectories(8, t_steps, flip_prob=0.5, seed=seed)
            trajs += z
            labels += list(y)
        trajs[2][4:9] = 0.0  # zeroes the state under ratio 1e301, whose gain is 1
        ratios = (*DEFAULT_RATIO_GRID, 1e301)
        res = tune_qr_ratio(trajs, labels, cfg, ratios=ratios)
        assert calls
        want = {}
        for ratio in ratios:
            filtered = filter_batch(trajs, replace(cfg, q=ratio * cfg.r))
            preds = np.array([fuse_utterance(m)[0] for m in filtered])
            want[ratio] = float(np.mean(preds == np.array(labels)))
        assert len(set(want.values())) > 1  # else a mixed-up candidate would go unseen
        assert res.accuracies == want

    @pytest.mark.parametrize("renorm", [True, False])
    @pytest.mark.parametrize("q, r", [(1e-3, 0.1), (0.0, 0.1)])
    @pytest.mark.parametrize("dim", range(1, 13))
    def test_streamed_tune_matches_filter_batch_then_fuse(self, monkeypatch, rng, dim, q, r,
                                                          renorm):
        """The tune keeps no rows, only a running mean per (q, trajectory); its
        decisions, and for dim >= 2 its mean rows, equal fuse_utterance's on
        filter_batch's rows. A (T, 1) column is averaged pairwise by numpy, so
        at dim 1 the mean rows may differ in the last bit; the argmax of a
        1-wide vector is 0 either way, so there only TuneResult is compared.
        The rows reach beyond [0, 1], so with renormalisation on the tune
        rejects both batches before it filters anything."""
        calls = self._count_fallbacks(monkeypatch)
        cfg = KalmanConfig(dim=dim, q=q, r=r, renormalize=renorm)
        ratios = [q / r, 1.0]
        qs = [ratio * r for ratio in ratios]
        trajs = []
        for t in (17, 1, 60, 5, 5, 5, 2, 60, 33):  # mixed, equal and single-frame lengths
            z = rng.uniform(-0.5, 1.5, size=(t, dim))
            z[rng.uniform(size=t) < 0.2] = -100.0
            trajs.append(z)
        labels = rng.integers(0, dim, size=len(trajs))
        for batch in (trajs, trajs[2:3]):  # mixed lengths, then a single trajectory
            calls.clear()
            if renorm:
                with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
                    tune_qr_ratio(batch, labels[: len(batch)], cfg, ratios=ratios)
                assert calls == []
                continue
            res = tune_qr_ratio(batch, labels[: len(batch)], cfg, ratios=ratios)
            assert calls  # renormalisation off takes the exact path
            fused = kalman._tune_means(batch, cfg, qs)
            want = {}
            for ratio, q_k, fused_k in zip(ratios, qs, fused):
                rows = filter_batch(batch, replace(cfg, q=q_k))
                decisions = [fuse_utterance(m) for m in rows]
                if dim >= 2:
                    for got, (_, vector) in zip(fused_k, decisions):
                        assert got.tobytes() == vector.tobytes()
                preds = np.array([label for label, _ in decisions])
                want[ratio] = float(np.mean(preds == labels[: len(batch)]))
            best = max(ratios, key=lambda ratio: (want[ratio], -ratio))
            assert res == TuneResult(best_ratio=best, best_q=best * r, accuracies=want)

    @pytest.mark.parametrize("renorm", [True, False])
    @pytest.mark.parametrize("q, r", [(1e-3, 0.1), (0.0, 0.1)])
    @pytest.mark.parametrize("dim", range(1, 13))
    def test_streamed_tune_matches_filter_batch_then_fuse_in_range(self, monkeypatch, rng, dim,
                                                                   q, r, renorm):
        """The same equality on rows in [0, 1]: uniform, Dirichlet and all-zero
        rows. Ratio 1e301 makes the gain exactly 1, so an all-zero row zeroes
        the state, and the zero row sum sends the batch to the exact path, as
        renormalisation off and dim >= 8 do."""
        calls = self._count_fallbacks(monkeypatch)
        cfg = KalmanConfig(dim=dim, q=q, r=r, renormalize=renorm)
        ratios = [q / r, 1.0, 1e301]
        qs = [ratio * r for ratio in ratios]
        trajs = []
        for i, t in enumerate((17, 1, 60, 5, 5, 5, 2, 60, 33)):
            z = rng.uniform(0.0, 1.0, size=(t, dim)) if i % 2 else rng.dirichlet(np.ones(dim), t)
            z[rng.uniform(size=t) < 0.2] = 0.0
            trajs.append(z)
        trajs[1][0] = 0.0  # so every batch holds an all-zero row
        labels = rng.integers(0, dim, size=len(trajs))
        res = tune_qr_ratio(trajs, labels, cfg, ratios=ratios)
        assert calls
        fused = kalman._tune_means(trajs, cfg, qs)
        want = {}
        for ratio, q_k, fused_k in zip(ratios, qs, fused):
            decisions = [fuse_utterance(m) for m in filter_batch(trajs, replace(cfg, q=q_k))]
            if dim >= 2:
                for got, (_, vector) in zip(fused_k, decisions):
                    assert got.tobytes() == vector.tobytes()
            want[ratio] = float(np.mean(np.array([label for label, _ in decisions]) == labels))
        best = max(ratios, key=lambda ratio: (want[ratio], -ratio))
        assert res == TuneResult(best_ratio=best, best_q=best * r, accuracies=want)

    @pytest.mark.parametrize("dim", range(2, 8))
    def test_batched_tune_matches_filter_batch_then_fuse(self, monkeypatch, rng, dim):
        """Dirichlet and uniform rows in [0, 1], edge values and all-zero rows
        included, at every width the batched recursion takes and at ratios that
        never make the gain 1: no batch leaves it, and its mean rows equal
        fuse_utterance's on filter_batch's rows byte for byte."""
        calls = self._count_fallbacks(monkeypatch)
        cfg = KalmanConfig(dim=dim, r=0.1)
        ratios = (0.0, 1e-4, 1e-2, 1.0, 100.0)
        qs = [ratio * cfg.r for ratio in ratios]
        trajs = []
        for i, t in enumerate((17, 1, 60, 5, 5, 5, 2, 110, 33)):
            z = rng.uniform(0.0, 1.0, size=(t, dim)) if i % 2 else rng.dirichlet(np.ones(dim), t)
            z[rng.uniform(size=t) < 0.1] = 0.0
            z[rng.uniform(size=z.shape) < 0.05] = rng.choice(_EDGE_VALUES)
            trajs.append(z)
        self._assert_means_match_filter_then_fuse(trajs, cfg, qs)
        assert calls == []

    @pytest.mark.parametrize("case", ["out_of_range", "dim_8", "renormalize_off", "zero_sum"])
    def test_dispatch_to_the_exact_path(self, monkeypatch, rng, case):
        """Each batch the batched recursion does not serve goes whole to the
        exact path, with the bytes of filter_batch then fuse_utterance; a batch
        with one entry outside [0, 1] is rejected before either path."""
        calls = self._count_fallbacks(monkeypatch)
        dim = 8 if case == "dim_8" else 4
        cfg = KalmanConfig(dim=dim, r=0.1, renormalize=case != "renormalize_off")
        ratios = (1e-2, 1e301) if case == "zero_sum" else (1e-2, 1.0)
        qs = [ratio * cfg.r for ratio in ratios]
        trajs = [rng.dirichlet(np.ones(dim), size=t) for t in (9, 14, 6)]
        if case == "out_of_range":
            trajs[1][7, 2] = 1.0 + 2.0**-52
        if case == "zero_sum":
            trajs[2][3] = 0.0
        if case == "out_of_range":
            with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
                kalman._tune_means(trajs, cfg, qs)
            assert calls == []
            return
        self._assert_means_match_filter_then_fuse(trajs, cfg, qs)
        assert calls == [len(trajs)]

    def test_tune_holds_no_padded_output(self):
        """40 trajectories of 44 to 453 frames through the 5-ratio grid: the old
        (T_max, n_q, B, dim) array of every filtered row alone took 2,899,200 bytes."""
        trajs, labels = _posterior_filtering_batch()
        tracemalloc.start()
        try:
            tune_qr_ratio(trajs, labels, KalmanConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 453 * 5 * 40 * 4 * 8


_EDGE_VALUES = (0.0, -0.0, 1.0, 5e-324, 1.0 - 2.0**-53)
_NOISE_SCALES = (0.0, 1e-300, 1e-3, 1.0, 1e300)


@st.composite
def _unit_rows(draw, dims=st.integers(min_value=1, max_value=12)):
    """(T, dim) rows in [0, 1] at widths drawn from dims (1 to 12), rich in the
    edge values and in rows of zeros."""
    dim = draw(dims)
    t_steps = draw(st.integers(min_value=1, max_value=30))
    element = st.one_of(st.sampled_from(_EDGE_VALUES), st.floats(min_value=0.0, max_value=1.0))
    z = draw(hnp.arrays(np.float64, (t_steps, dim), elements=element))
    z[draw(hnp.arrays(np.bool_, t_steps))] = 0.0
    return z


class TestMeasurementRange:
    """With renormalisation on, every measurement must lie in [0, 1]. There
    the clamp of the reference filters cannot change a bit (module docstring
    of kalman), so the filter, which has no clamp, matches them byte for byte."""

    @given(z=_unit_rows(), q=st.sampled_from(_NOISE_SCALES), r=st.sampled_from(_NOISE_SCALES))
    @settings(max_examples=300, deadline=None)
    def test_filter_matches_the_clamping_loop_on_rows_in_range(self, z, q, r):
        """Equal values and equal sign bits, so no -0.0 comes out either."""
        assume(q or r)
        cfg = KalmanConfig(dim=z.shape[1], q=q, r=r)
        got = filter_trajectory(z, cfg).filtered
        assert got.tobytes() == _numpy_filter(z, cfg)[0].tobytes()
        assert not np.signbit(got).any()

    def test_signed_zero_and_unit_rows_are_accepted(self, rng):
        cfg = KalmanConfig()
        z = rng.dirichlet(np.ones(4), size=20)
        z[3] = 0.0
        z[4] = -0.0
        z[5] = (1.0, 0.0, 0.0, 0.0)
        z[6] = (-0.0, 1.0, -0.0, 0.0)
        assert filter_trajectory(z, cfg).filtered.tobytes() == _numpy_filter(z, cfg)[0].tobytes()

    @pytest.mark.parametrize("bad", [1.0 + 2.0**-52, -5e-324, 2.0, -100.0])
    def test_one_entry_out_of_range_is_rejected(self, rng, bad):
        """One entry outside [0, 1] in one trajectory is a ValueError naming the
        range found, from the filter, the batch filter and the tune, with
        renormalisation on; with it off the same rows filter as the numpy
        reference filters them."""
        cfg = KalmanConfig(q=1e-3, r=0.0)
        trajs = [rng.dirichlet(np.ones(4), size=t) for t in (9, 14, 6)]
        trajs[1][7, 2] = bad
        lo, hi = float(trajs[1].min()), float(trajs[1].max())
        found = re.escape(f"must lie in [0, 1], found [{lo!r}, {hi!r}]")
        with pytest.raises(ValueError, match=found):
            filter_trajectory(trajs[1], cfg)
        with pytest.raises(ValueError, match=found):
            filter_batch(trajs, cfg)
        with pytest.raises(ValueError, match=found):
            tune_qr_ratio(trajs, [0, 1, 2], replace(cfg, r=0.1))
        off = replace(cfg, renormalize=False)
        for z, rows in zip(trajs, filter_batch(trajs, off)):
            assert rows.tobytes() == _numpy_filter(z, off)[0].tobytes()


@st.composite
def _unit_batches(draw):
    """1 to 4 trajectories of _unit_rows at one width from 1 to 7, the widths
    the batched tune serves."""
    dim = draw(st.integers(min_value=1, max_value=7))
    return draw(st.lists(_unit_rows(dims=st.just(dim)), min_size=1, max_size=4))


class _StepCounter:
    """numpy for kalman's globals, counting np.subtract calls: each step of the
    batched tune opens with one."""

    def __init__(self):
        self.steps = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def subtract(self, *args, **kwargs):
        self.steps += 1
        return np.subtract(*args, **kwargs)


class TestTuneDispatch:
    """The tune picks its path before its loop: the batched recursion unless a
    gain is exactly 1, which it is at ratio 1e301 but below 1 up to 1e15."""

    @given(trajs=_unit_batches(),
           ratios=st.lists(st.one_of(st.sampled_from([0.0, 1e-4, 1.0, 1e15]),
                                     st.floats(min_value=0.0, max_value=1e15)),
                           min_size=1, max_size=3),
           r=st.sampled_from([1e-3, 0.1, 10.0]))
    @settings(max_examples=200, deadline=None)
    def test_gains_below_one_never_leave_the_batched_recursion(self, trajs, ratios, r):
        """All-zero rows included: below a gain of 1 no filtered row sums to 0,
        and the batched means equal _filtered_means' byte for byte (at dim 1
        every renormalised row is exactly 1.0, so its mean is too)."""
        cfg = KalmanConfig(dim=trajs[0].shape[1], r=r)
        qs = [ratio * r for ratio in ratios]
        exact = kalman._filtered_means
        with mock.patch.object(kalman, "_filtered_means",
                               side_effect=AssertionError("left the batched recursion")):
            got = kalman._tune_means(trajs, cfg, qs)
        assert got.tobytes() == exact(trajs, cfg, qs).tobytes()

        # a gain of exactly 1 sends the batch to the exact path before any step
        counter, steps_at_call = _StepCounter(), []

        def exact_path(arrays, cfg, qs):
            steps_at_call.append(counter.steps)
            return exact(arrays, cfg, qs)

        qs.append(1e301 * r)
        with mock.patch.object(kalman, "np", counter), \
                mock.patch.object(kalman, "_filtered_means", exact_path):
            got = kalman._tune_means(trajs, cfg, qs)
        assert steps_at_call == [0]
        assert got.tobytes() == exact(trajs, cfg, qs).tobytes()


class TestRtsSmoother:
    def test_matches_naive_matrix_smoother(self, rng):
        for q, r in ((1e-3, 0.1), (0.05, 0.3), (0.0, 1.0), (0.2, 0.0)):
            cfg = KalmanConfig(q=q, r=r, renormalize=False)
            z = rng.uniform(0, 1, size=(25, 4))
            got = rts_smooth(filter_trajectory(z, cfg), cfg)
            np.testing.assert_allclose(got, _naive_smoother(z, cfg), rtol=0, atol=1e-10)

    def test_last_smoothed_equals_last_filtered(self, rng):
        cfg = KalmanConfig(renormalize=False)
        traj = filter_trajectory(rng.uniform(0, 1, size=(30, 4)), cfg)
        smoothed = rts_smooth(traj, cfg)
        np.testing.assert_array_equal(smoothed[-1], traj.filtered[-1])

    def test_static_model_pins_every_step_to_the_final_estimate(self, rng):
        cfg = KalmanConfig(q=0.0, renormalize=False)
        traj = filter_trajectory(rng.uniform(0, 1, size=(20, 4)), cfg)
        smoothed = rts_smooth(traj, cfg)
        np.testing.assert_allclose(smoothed, np.tile(smoothed[-1], (20, 1)), atol=1e-9)

    @pytest.mark.parametrize("r", [1e-17, 1e-300, 5e-324])
    def test_zero_process_noise_and_tiny_r_keep_the_filtered_rows(self, rng, r):
        """At q = 0 with r this small the first gain rounds to 1, so every
        later predicted variance is exactly 0; the smoother gain there is its
        exact value, 1, not 0/0."""
        cfg = KalmanConfig(q=0.0, r=r)
        traj = filter_trajectory(rng.dirichlet(np.ones(4), size=3), cfg)
        with warnings.catch_warnings(), np.errstate(divide="raise", invalid="raise"):
            warnings.simplefilter("error")
            smoothed = rts_smooth(traj, cfg)
        np.testing.assert_array_equal(smoothed, traj.filtered)

    def test_single_step_is_unchanged(self, rng):
        cfg = KalmanConfig()
        traj = filter_trajectory(rng.dirichlet(np.ones(4), size=1), cfg)
        np.testing.assert_array_equal(rts_smooth(traj, cfg), traj.filtered)

    def test_smoothing_reduces_total_variation(self):
        trajs, _ = synth_noisy_trajectories(50, 40, flip_prob=0.3, seed=5)
        cfg = KalmanConfig()
        tv = {"raw": 0.0, "filtered": 0.0, "smoothed": 0.0}
        for z in trajs:
            traj = filter_trajectory(z, cfg)
            smoothed = rts_smooth(traj, cfg)
            tv["raw"] += np.abs(np.diff(z, axis=0)).sum()
            tv["filtered"] += np.abs(np.diff(traj.filtered, axis=0)).sum()
            tv["smoothed"] += np.abs(np.diff(smoothed, axis=0)).sum()
        assert tv["smoothed"] < tv["filtered"] < tv["raw"]

    @pytest.mark.parametrize("index, match", [
        ((slice(None), slice(3)), r"filtered must be T x 4 with T >= 1, got \(10, 3\)"),
        (slice(0), r"filtered must be T x 4 with T >= 1, got \(0, 4\)"),
    ], ids=["3-wide-under-dim-4", "empty"])
    def test_inconsistent_trajectory_rejected(self, rng, index, match):
        """Filtered rows that disagree with cfg.dim, or none at all, are an
        error, not a smoothed result of the wrong shape."""
        cfg = KalmanConfig(dim=4)
        st = filter_trajectory(rng.dirichlet(np.ones(4), size=10), cfg)
        with pytest.raises(ValueError, match=match):
            rts_smooth(replace(st, filtered=st.filtered[index]), cfg)


class TestTuning:
    def test_singleton_grid(self, rng):
        trajs, labels = synth_noisy_trajectories(20, 30, flip_prob=0.3, seed=0)
        res = tune_qr_ratio(trajs, labels, KalmanConfig(), ratios=(0.01,))
        assert res.best_ratio == 0.01
        assert res.best_q == pytest.approx(0.01 * 0.1)
        assert set(res.accuracies) == {0.01}

    def test_ties_resolve_to_the_smaller_ratio(self):
        # nearly clean trajectories: every ratio scores 1.0
        trajs, labels = synth_noisy_trajectories(12, 40, flip_prob=0.0, seed=1)
        res = tune_qr_ratio(trajs, labels, KalmanConfig(), ratios=(1.0, 1e-3, 1e-1))
        assert set(res.accuracies.values()) == {1.0}
        assert res.best_ratio == 1e-3

    def test_grid_covers_default_ratios(self):
        trajs, labels = synth_noisy_trajectories(30, 50, flip_prob=0.3, seed=2)
        res = tune_qr_ratio(trajs, labels, KalmanConfig())
        assert set(res.accuracies) == set(DEFAULT_RATIO_GRID)
        assert res.best_ratio in DEFAULT_RATIO_GRID

    def test_argument_validation(self):
        trajs, labels = synth_noisy_trajectories(4, 10, seed=0)
        with pytest.raises(ValueError):
            tune_qr_ratio(trajs, labels, KalmanConfig(), ratios=())
        with pytest.raises(ValueError):
            tune_qr_ratio(trajs, labels[:-1], KalmanConfig())
        with pytest.raises(ValueError):
            tune_qr_ratio([], [], KalmanConfig())
        with pytest.raises(ValueError, match=r"needs kalman_r > 0, got kalman_r=0.0"):
            tune_qr_ratio(trajs, labels, KalmanConfig(r=0.0))
        for bad, shown in ((-0.1, -0.1), (np.nan, np.nan), (np.inf, np.inf), (10**400, np.inf)):
            with pytest.raises(ValueError, match=f"q/r ratio must be finite and >= 0, got {shown}"):
                tune_qr_ratio(trajs, labels, KalmanConfig(), ratios=(0.01, bad))
        with pytest.raises(ValueError, match="got inf"):
            kalman.check_ratio_grid([10**400])


class TestConfigAndCsv:
    def test_validation(self):
        with pytest.raises(ValueError):
            KalmanConfig(dim=0)
        with pytest.raises(ValueError):
            KalmanConfig(q=-1e-9)
        with pytest.raises(ValueError):
            KalmanConfig(r=-0.1)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                KalmanConfig(q=bad)
            with pytest.raises(ValueError, match="finite"):
                KalmanConfig(r=bad)
        with pytest.raises(ValueError, match=r"q=0\.0, r=0\.0"):
            KalmanConfig(q=0.0, r=0.0)
        # an int beyond float range is not finite, not an OverflowError
        with pytest.raises(ValueError, match="q must be finite and >= 0, got inf"):
            KalmanConfig(q=10**400)
        with pytest.raises(ValueError, match="r must be finite and >= 0, got inf"):
            KalmanConfig(r=10**400)
        for bad in (4.0, "4", None):
            with pytest.raises(ValueError, match="dim must be an integer >= 1"):
                KalmanConfig(dim=bad)
        with pytest.raises(ValueError, match="q must be a real number"):
            KalmanConfig(q="0.1")
        KalmanConfig(q=0.0, r=0.1)
        KalmanConfig(q=1e-3, r=0.0)

    def test_default_matrices(self):
        cfg = KalmanConfig(dim=3, q=0.5, r=2.0)
        np.testing.assert_array_equal(cfg.F, np.eye(3))
        np.testing.assert_array_equal(cfg.H, np.eye(3))
        np.testing.assert_array_equal(cfg.Q, 0.5 * np.eye(3))
        np.testing.assert_array_equal(cfg.R, 2.0 * np.eye(3))

    def test_trajectory_csv_layout(self, tmp_path, rng):
        z = rng.dirichlet(np.ones(4), size=6)
        filtered = filter_trajectory(z, KalmanConfig()).filtered
        path = tmp_path / "traj.csv"
        write_trajectory_csv(z, filtered, path, CLASS_NAMES)
        lines = path.read_text().splitlines()
        assert lines[0] == ("frame_index,z_angry,z_calm,z_happy,z_sad,"
                            "x_angry,x_calm,x_happy,x_sad")
        assert len(lines) == 7
        assert lines[1].split(",")[0] == "0"
        with pytest.raises(ValueError):
            write_trajectory_csv(z, filtered, path, ("a", "b"))
        with pytest.raises(ValueError):
            write_trajectory_csv(z[:5], filtered, path, CLASS_NAMES)


PER_TRAJECTORY_GOLDEN = [
    (44, True,
     ["10a9370bf745354e3d9891fb654df2d0062664d9b89f83bc003b12cb975a1c1f",
      "c7a22dbb6113c1c377cc5a15b3e0b7dcaa8b367e83c88e379d3fece7e8edda56",
      "340f076f7a1b8676bf0ba83fd26ed862749a93bb31fa17e1be567134c01b415c"]),
    (44, False,
     ["0b919613df067006e4f7af582fef3c087e24d59c977760fba65dba9b4093de7b",
      "5a6d4ddab9d68d556b1712b4fa72d15a1e3c6761a994eac1aa835c7f5f4e75ca",
      "edf42d35eff36b665f2345d785b114e324a0cb008fe3ebd2561513d971396b90"]),
    (453, True,
     ["4bec609dee8bf00917b31ca222177ac8476643ad9df2440329abd58c8ed9d6ff",
      "dddfc686e10985cf615a51c40b5bad2c2f5dd975a93a75a1c9d2f0d202b36717",
      "e240805c243e4d9f851c30a8c5d4d916f28779b205b316a3b683661ce339c397"]),
    (453, False,
     ["bd465017cba35161c2b8b53328b98733cbabc692b796721ff99783d3ab967d07",
      "086202fdaa1347694467172c53ef9e7dd7bcff4657f34ebfb4e792edf0507b8a",
      "b0c3be7309881de50958121307a6cefb1104d91f97e0bf76eca856c887defe8e"]),
]


@pytest.mark.parametrize("t_steps, renorm, want", PER_TRAJECTORY_GOLDEN)
def test_per_trajectory_outputs_match_golden_bytes(tmp_path, t_steps, renorm, want):
    """filter_trajectory's means, rts_smooth's means and the trajectory CSV
    are pinned, not only compared with another code path."""
    (z,), _ = synth_noisy_trajectories(1, t_steps, flip_prob=0.3, seed=t_steps)
    cfg = KalmanConfig(dim=4, renormalize=renorm)
    st = filter_trajectory(z, cfg)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(z, st.filtered, path, CLASS_NAMES)
    got = [hashlib.sha256(b).hexdigest()
           for b in (st.filtered.tobytes(), rts_smooth(st, cfg).tobytes(), path.read_bytes())]
    assert got == want


def _zero_rows_and_edges(z, rng):
    """z with about a tenth of its rows set to zeros and about one entry in
    twenty set to one of _EDGE_VALUES, in place; every entry stays in [0, 1]."""
    z[rng.uniform(size=len(z)) < 0.1] = 0.0
    edges = rng.uniform(size=z.shape) < 0.05
    z[edges] = rng.choice(_EDGE_VALUES, size=int(edges.sum()))


ZERO_NOISE_GOLDEN = ["44a491310f698263e8b3df6e71986d6e3fdda8224757910e7f1fb475445b9717",
                     "44a491310f698263e8b3df6e71986d6e3fdda8224757910e7f1fb475445b9717",
                     "8be2d967d721af86f32bae2c58f94c4515033acc8e7c981a4a3f06887b802ed9"]


def test_zero_noise_outputs_match_golden_bytes(tmp_path):
    """Renormalisation on at r = 0: the gain is 1, so each filtered row is its
    measurement renormalised, and an all-zero row becomes the uniform row."""
    (z,), _ = synth_noisy_trajectories(1, 453, flip_prob=0.3, seed=453)
    _zero_rows_and_edges(z, np.random.default_rng(0))
    cfg = KalmanConfig(dim=4, r=0.0)
    st = filter_trajectory(z, cfg)
    assert (st.filtered[(z == 0.0).all(axis=1)] == 0.25).all()
    path = tmp_path / "traj.csv"
    write_trajectory_csv(z, st.filtered, path, CLASS_NAMES)
    got = [hashlib.sha256(b).hexdigest()
           for b in (st.filtered.tobytes(), rts_smooth(st, cfg).tobytes(), path.read_bytes())]
    assert got == ZERO_NOISE_GOLDEN


# posterior_filtering's batch (8 trajectories each at 44 to 453 frames,
# shuffled) through the default grid: the workload itself at dim 4. Then
# noisier batches at dims 4 and 9, with all-zero rows and edge values in
# [0, 1], through the default grid and ratio 1e301, whose gain is exactly 1:
# an all-zero row zeroes the state and the row falls back to the uniform row
TUNE_GOLDEN = [
    (4, 0.3, False,
     ["32273d06d16f996ab08492a858c72a0add67b0768e31c2cc19492ff4c05acc73",
      "997c23778078979f2682a8698869a2346c229b5d85e38051ba2cd01969e12547"]),
    (4, 0.7, True,
     ["7f4910df8ec1bace999df7b69451421c241fc035a8ff631809372e7cef12f0cc",
      "8af59eeadaa2780d0a60301c0df0656d3ed5074cd0226632fbda566cba28ebd8"]),
    (9, 0.8, True,
     ["69d7c4f316ca22e000d0f6d33183f729dc03bcad0fd4d6c4a73c817547591f93",
      "d5f861473a92dbab3f98a4a346acc6ab774464e7a528fe7147ee20f8f86c3d70"]),
]


@pytest.mark.parametrize("dim, flip_prob, edges, want", TUNE_GOLDEN)
def test_tune_matches_golden_bytes(monkeypatch, dim, flip_prob, edges, want):
    """The tune's fused mean rows and its accuracies are pinned, not only
    compared with filter_batch from the same code. The batches with zero rows
    leave the batched recursion for the exact path: at dim 4 on the zero row
    sum, at dim 9 on the width."""
    trajs, labels = [], []
    for t in (44, 88, 151, 302, 453):
        z, y = synth_noisy_trajectories(8, t, flip_prob=flip_prob, seed=t, n_classes=dim)
        trajs += z
        labels += list(y)
    order = np.random.default_rng(7).permutation(len(trajs))
    trajs = [trajs[i] for i in order]
    labels = [labels[i] for i in order]
    ratios = DEFAULT_RATIO_GRID
    if edges:
        rng = np.random.default_rng(dim)
        for z in trajs[::7]:
            _zero_rows_and_edges(z, rng)
        ratios = (*DEFAULT_RATIO_GRID, 1e301)
    calls = TestZeroSumProjection._count_fallbacks(monkeypatch)
    cfg = KalmanConfig(dim=dim)
    fused = kalman._tune_means(trajs, cfg, [ratio * cfg.r for ratio in ratios])
    res = tune_qr_ratio(trajs, labels, cfg, ratios=ratios)
    assert bool(calls) == edges
    got = [hashlib.sha256(fused.tobytes()).hexdigest(),
           hashlib.sha256(repr(sorted(res.accuracies.items())).encode()).hexdigest()]
    assert got == want
