import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
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
from kftser.manifest import CLASS_NAMES


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

    def test_predict_identity_no_noise_is_a_fixed_point(self, rng):
        traj = filter_trajectory(rng.uniform(0, 1, size=(5, 4)), KalmanConfig(q=0.0))
        assert traj.predicted_var[0] == 1.0
        np.testing.assert_array_equal(traj.predicted_var[1:], traj.filtered_var[:-1])

    def test_predict_adds_process_noise(self, rng):
        traj = filter_trajectory(rng.uniform(0, 1, size=(5, 4)), KalmanConfig(q=0.01))
        assert traj.predicted_var[0] == pytest.approx(1.01, abs=1e-15)
        np.testing.assert_allclose(traj.predicted_var[1:], traj.filtered_var[:-1] + 0.01,
                                   rtol=0, atol=1e-15)

    def test_correct_scalar_halves_the_innovation(self):
        cfg = KalmanConfig(dim=2, q=0.0, r=1.0, renormalize=False)
        traj = filter_trajectory(np.array([[1.0, 0.0]]), cfg)
        # gain = predicted / (predicted + r) = 1/2 from the unit prior variance
        np.testing.assert_allclose(traj.filtered[0], [0.75, 0.25], atol=1e-12)
        assert np.isclose(traj.filtered_var[0], 0.5, atol=1e-12)


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

    def test_covariances_stay_symmetric_positive(self, rng):
        # every covariance is var * I: symmetric by construction, positive iff var > 0
        cfg = KalmanConfig(q=0.05, r=0.3)
        traj = filter_trajectory(rng.uniform(0, 1, size=(50, 4)), cfg)
        assert traj.predicted_var.shape == traj.filtered_var.shape == (50,)
        assert np.all(traj.filtered_var > 0.0)
        assert np.all(traj.filtered_var < traj.predicted_var)

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
        z = np.full((300, 4), 0.25)
        gain = []
        for r in (0.01, 0.1, 1.0, 10.0):
            traj = filter_trajectory(z, KalmanConfig(q=1e-3, r=r))
            gain.append(traj.filtered_var[-1] / r)  # k = p_filtered / r
        assert all(b < a for a, b in zip(gain, gain[1:]))


def _numpy_rts_smooth(st):
    """rts_smooth as a numpy row loop: the reference for its float loop."""
    means = st.filtered.copy()
    gain = st.filtered_var[:-1] / st.predicted_var[1:]
    for t in range(st.n_steps - 2, -1, -1):
        means[t] = st.filtered[t] + gain[t] * (means[t + 1] - st.filtered[t])
    return means


class TestFilterBatch:
    @pytest.mark.parametrize("renorm", [False, True])
    @pytest.mark.parametrize("q, r", [(1e-3, 0.1), (0.0, 0.1), (1e-3, 0.0)])
    @pytest.mark.parametrize("dim", range(1, 13))
    def test_matches_per_trajectory_filtering(self, rng, dim, q, r, renorm):
        """filter_trajectory (Python floats below dim 8) and a batch of several
        (numpy buffers) agree byte for byte, and so do rts_smooth and its
        numpy row loop."""
        cfg = KalmanConfig(dim=dim, q=q, r=r, renormalize=renorm)
        trajs = [rng.dirichlet(np.ones(dim), size=7)]
        for t in (1, 2, 17, 60, int(rng.integers(1, 61))):
            z = rng.uniform(-0.5, 1.5, size=(t, dim))
            pick = rng.uniform(size=z.shape)
            z[pick < 0.15] = 0.0
            z[pick > 0.85] = -0.0
            z[rng.uniform(size=t) < 0.1] = -0.25  # whole rows that clamp to zero
            trajs.append(z)
        batched = filter_batch(trajs, cfg)
        _, p_pred, p_filt = kalman._filter(trajs, cfg)
        for z, got in zip(trajs, batched):
            st = filter_trajectory(z, cfg)
            assert got.shape == st.filtered.shape == z.shape
            assert got.tobytes() == st.filtered.tobytes()
            assert st.predicted_var.tobytes() == p_pred[0, : len(z)].tobytes()
            assert st.filtered_var.tobytes() == p_filt[0, : len(z)].tobytes()
            assert rts_smooth(st, cfg).tobytes() == _numpy_rts_smooth(st).tobytes()

    def test_empty_batch_and_empty_trajectory(self):
        cfg = KalmanConfig()
        assert filter_batch([], cfg) == []
        with pytest.raises(ValueError):
            filter_batch([np.ones((3, 4)), np.empty((0, 4))], cfg)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                filter_batch([np.ones((3, 4)), np.full((2, 4), bad)], cfg)


class TestZeroSumProjection:
    """Rows whose clamped sum is 0 fall back to the uniform row."""

    @staticmethod
    def _count_fallbacks(monkeypatch):
        calls = []
        original = kalman._renorm_rows

        def counted(x, dim):
            calls.append(x.shape)
            return original(x, dim)

        monkeypatch.setattr(kalman, "_renorm_rows", counted)
        return calls

    @staticmethod
    def _bad_rows(rng, n, dim):
        """Rows that clamp to all zeros (all <= 0) or to all ones (all > 1)."""
        low = rng.uniform(-2.0, 0.0, size=(n, dim))
        low[::3] = 0.0
        high = rng.uniform(1.0, 3.0, size=(n, dim)) + 1e-9
        return np.where(rng.uniform(size=(n, 1)) < 0.5, low, high)

    @pytest.mark.parametrize("dim", [1, 4])
    def test_fallback_matches_naive_and_per_trajectory(self, monkeypatch, rng, dim):
        calls = self._count_fallbacks(monkeypatch)
        cfg = KalmanConfig(dim=dim, q=1e-3, r=0.0)
        bad = self._bad_rows(rng, 12, dim)
        filtered = filter_trajectory(bad, cfg).filtered
        np.testing.assert_allclose(filtered, _naive_filter(bad, cfg), rtol=0, atol=1e-12)
        # at r = 0 the gain is 1, so a row that is all <= 0 clamps to a zero
        # sum and its step must come out as the uniform row, exactly
        low = (bad <= 0.0).all(axis=1)
        assert low.any()
        assert (filtered[low] == 1.0 / dim).all()

        # one trajectory falls back, the others stay on the fast path
        trajs = [rng.dirichlet(np.ones(dim), size=t) for t in (5, 12, 9)]
        trajs.insert(1, bad)
        calls.clear()
        batched = filter_batch(trajs, cfg)
        assert calls
        for z, got in zip(trajs, batched):
            np.testing.assert_array_equal(got, filter_trajectory(z, cfg).filtered)

    def test_tune_matches_separate_batches(self, monkeypatch):
        calls = self._count_fallbacks(monkeypatch)
        cfg = KalmanConfig(r=0.1)
        trajs, labels = [], []
        for t_steps, seed in ((30, 1), (17, 2)):  # mixed lengths make the batch shrink
            z, y = synth_noisy_trajectories(8, t_steps, flip_prob=0.5, seed=seed)
            trajs += z
            labels += list(y)
        trajs[2][4:9] = -100.0  # drives the state below 0 for every ratio
        res = tune_qr_ratio(trajs, labels, cfg)
        assert calls
        want = {}
        for ratio in DEFAULT_RATIO_GRID:
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
        1-wide vector is 0 either way, so there only TuneResult is compared."""
        calls = self._count_fallbacks(monkeypatch)
        cfg = KalmanConfig(dim=dim, q=q, r=r, renormalize=renorm)
        ratios = [q / r, 1.0]
        qs = [ratio * r for ratio in ratios]
        trajs = []
        for t in (17, 1, 60, 5, 5, 5, 2, 60, 33):  # mixed, equal and single-frame lengths
            z = rng.uniform(-0.5, 1.5, size=(t, dim))
            z[rng.uniform(size=t) < 0.2] = -100.0  # rows that clamp to zero
            trajs.append(z)
        labels = rng.integers(0, dim, size=len(trajs))
        for batch in (trajs, trajs[2:3]):  # mixed lengths, then a single trajectory
            calls.clear()
            res = tune_qr_ratio(batch, labels[: len(batch)], cfg, ratios=ratios)
            assert bool(calls) == renorm
            fused, _, _ = kalman._filter(batch, cfg, qs)
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

    def test_tune_holds_no_padded_output(self):
        """40 trajectories of 44 to 453 frames through the 5-ratio grid: the old
        (T_max, n_q, B, dim) array of every filtered row alone took 2,899,200 bytes."""
        trajs, labels = [], []
        for seed, t in enumerate((44, 88, 151, 302, 453)):
            z, y = synth_noisy_trajectories(8, t, flip_prob=0.3, seed=seed)
            trajs += z
            labels += list(y)
        order = np.random.default_rng(7).permutation(len(trajs))
        trajs = [trajs[i] for i in order]
        labels = [labels[i] for i in order]
        tracemalloc.start()
        try:
            tune_qr_ratio(trajs, labels, KalmanConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 453 * 5 * 40 * 4 * 8


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
        for bad in (-0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match=f"q/r ratio must be finite and >= 0, got {bad}"):
                tune_qr_ratio(trajs, labels, KalmanConfig(), ratios=(0.01, bad))


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
        KalmanConfig(q=0.0, r=0.1)
        KalmanConfig(q=1e-3, r=0.0)

    def test_default_matrices(self):
        cfg = KalmanConfig(dim=3, q=0.5, r=2.0)
        np.testing.assert_array_equal(cfg.F, np.eye(3))
        np.testing.assert_array_equal(cfg.H, np.eye(3))
        np.testing.assert_array_equal(cfg.Q, 0.5 * np.eye(3))
        np.testing.assert_array_equal(cfg.R, 2.0 * np.eye(3))

    def test_trajectory_csv_layout(self, tmp_path, rng):
        traj = filter_trajectory(rng.dirichlet(np.ones(4), size=6), KalmanConfig())
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path, CLASS_NAMES)
        lines = path.read_text().splitlines()
        assert lines[0] == ("frame_index,z_angry,z_calm,z_happy,z_sad,"
                            "x_angry,x_calm,x_happy,x_sad")
        assert len(lines) == 7
        assert lines[1].split(",")[0] == "0"
        with pytest.raises(ValueError):
            write_trajectory_csv(traj, path, ("a", "b"))
