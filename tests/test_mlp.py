import contextlib
import csv
import hashlib
import sys
import threading

import numpy as np
import pytest

from kftser import mlp
from kftser.errors import CheckpointError
from kftser.features import FeatureMatrix, ScalerStats, apply_scaler
from kftser.mlp import (
    DEFAULT_LAYER_DIMS,
    AdamState,
    MlpModel,
    TrainConfig,
    adam_step,
    backward,
    cross_entropy,
    forward,
    forward_trace,
    init_model,
    load_checkpoint,
    predict_frames,
    save_checkpoint,
    save_trace_csv,
    softmax,
    train,
)


def _zeroed(dims):
    model = init_model(dims, seed=0, class_order=tuple(f"c{i}" for i in range(dims[-1])))
    for w in model.weights:
        w[:] = 0.0
    return model


def _fd_grads(model, x, y, h=1e-5):
    def loss():
        logits, _ = forward_trace(model, x)
        return cross_entropy(logits, y)

    grads = []
    for p in model.weights + model.biases:
        flat = p.reshape(-1)
        g = np.zeros(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = loss()
            flat[i] = orig - h
            lo = loss()
            flat[i] = orig
            g[i] = (hi - lo) / (2.0 * h)
        grads.append(g.reshape(p.shape))
    return grads


class TestForward:
    def test_default_dims(self):
        assert DEFAULT_LAYER_DIMS == (41, 256, 128, 4)
        model = init_model()
        assert [w.shape for w in model.weights] == [(41, 256), (256, 128), (128, 4)]
        assert all(np.all(b == 0.0) for b in model.biases)

    def test_init_respects_fan_in_limit_and_seed(self):
        a = init_model(seed=3)
        b = init_model(seed=3)
        c = init_model(seed=4)
        for wa, wb, fan_in in zip(a.weights, b.weights, (41, 256, 128)):
            assert np.array_equal(wa, wb)
            assert np.max(np.abs(wa)) <= np.sqrt(6.0 / fan_in)
        assert not np.array_equal(a.weights[0], c.weights[0])

    def test_zero_weights_give_uniform_posterior(self):
        model = _zeroed((5, 4))
        p = forward(model, np.ones((3, 5)))
        assert np.array_equal(p, np.full((3, 4), 0.25))

    def test_hand_computed_two_layer_net(self):
        model = _zeroed((2, 2, 2))
        model.weights[0][:] = np.eye(2)
        model.biases[0][:] = [0.5, -1.0]
        model.weights[1][:] = np.eye(2)
        logits, acts = forward_trace(model, np.array([[1.0, 2.0]]))
        np.testing.assert_array_equal(acts[1], [[1.5, 1.0]])
        np.testing.assert_array_equal(logits, [[1.5, 1.0]])
        expect = np.exp([1.5, 1.0]) / np.exp([1.5, 1.0]).sum()
        np.testing.assert_allclose(forward(model, [[1.0, 2.0]]), [expect], atol=1e-15)

    def test_relu_clamps_hidden_layer(self):
        model = _zeroed((2, 2, 2))
        model.weights[0][:] = np.eye(2)
        model.biases[0][:] = [-5.0, 1.0]
        _, acts = forward_trace(model, np.array([[1.0, 1.0]]))
        np.testing.assert_array_equal(acts[1], [[0.0, 2.0]])

    def test_posteriors_sum_to_one(self, rng):
        model = init_model((41, 16, 4), seed=1)
        p = forward(model, rng.normal(size=(50, 41)))
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(p >= 0.0)

    def test_input_validation(self):
        model = init_model((4, 3), seed=0, class_order=("a", "b", "c"))
        with pytest.raises(ValueError, match="width"):
            forward(model, np.ones((2, 5)))
        with pytest.raises(ValueError, match="finite"):
            forward(model, np.array([[1.0, np.nan, 0.0, 0.0]]))

    def test_softmax_max_shift_stability(self):
        p = softmax(np.array([[1000.0, 1000.0, 999.0, 998.0]]))
        assert np.all(np.isfinite(p))
        np.testing.assert_allclose(p.sum(), 1.0, atol=1e-12)


class TestLossAndGradients:
    def test_cross_entropy_reference_values(self):
        assert np.isclose(cross_entropy(np.zeros((6, 4)), np.zeros(6, dtype=int)),
                          np.log(4.0), atol=1e-12)
        logits = np.log(np.array([[0.7, 0.1, 0.1, 0.1]]))
        assert np.isclose(cross_entropy(logits, [0]), -np.log(0.7), atol=1e-12)

    def test_cross_entropy_shift_invariant(self, rng):
        logits = rng.normal(size=(10, 4))
        labels = rng.integers(0, 4, 10)
        shifted = logits + 137.0
        assert np.isclose(cross_entropy(logits, labels),
                          cross_entropy(shifted, labels), atol=1e-9)

    def test_logit_gradient_at_uniform_posterior(self):
        model = _zeroed((3, 4))
        logits, acts = forward_trace(model, np.ones((1, 3)))
        _, gb = backward(model, acts, logits, np.array([0]))
        np.testing.assert_allclose(gb[0], [-0.75, 0.25, 0.25, 0.25], atol=1e-15)

    def test_duplicated_batch_matches_single_example(self, rng):
        model = init_model((5, 6, 3), seed=2, class_order=("a", "b", "c"))
        x = rng.normal(size=(1, 5))
        logits1, acts1 = forward_trace(model, x)
        gw1, gb1 = backward(model, acts1, logits1, np.array([1]))
        xx = np.vstack([x, x])
        logits2, acts2 = forward_trace(model, xx)
        gw2, gb2 = backward(model, acts2, logits2, np.array([1, 1]))
        for a, b in zip(gw1 + gb1, gw2 + gb2):
            np.testing.assert_allclose(a, b, atol=1e-15)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_gradients_match_central_differences(self, seed):
        rng = np.random.default_rng(seed)
        model = init_model((6, 8, 5, 3), seed=seed, class_order=("a", "b", "c"))
        x = rng.normal(size=(7, 6))
        y = rng.integers(0, 3, 7)
        logits, acts = forward_trace(model, x)
        gw, gb = backward(model, acts, logits, y)
        numeric = _fd_grads(model, x, y)
        for analytic, fd in zip(gw + gb, numeric):
            rel = np.abs(analytic - fd) / np.maximum(1e-8, np.abs(analytic) + np.abs(fd))
            assert np.max(rel) < 1e-4


class TestAdam:
    def test_first_step_size_is_learning_rate(self):
        model = init_model((3, 2), seed=0, class_order=("a", "b"))
        before = [w.copy() for w in model.weights]
        cfg = TrainConfig(learning_rate=0.05)
        state = AdamState(model)
        grad = np.concatenate([np.full(6, 0.7), np.full(2, -0.3)])  # weights, then biases
        adam_step(model, grad, state, cfg)
        # first bias-corrected step moves every coordinate by ~lr * sign(g)
        np.testing.assert_allclose(before[0] - model.weights[0], 0.05, atol=1e-6)
        np.testing.assert_allclose(model.biases[0], 0.05, atol=1e-6)

    def test_zero_gradient_leaves_parameters_alone(self):
        model = init_model((3, 2), seed=0, class_order=("a", "b"))
        before = model.params.copy()
        state = AdamState(model)
        adam_step(model, np.zeros_like(model.params), state, TrainConfig())
        assert np.array_equal(before, model.params)

    def test_three_steps_match_textbook_recursion(self):
        cfg = TrainConfig(learning_rate=0.01)
        model = _zeroed((1, 1))
        model.weights[0][:] = 2.0
        state = AdamState(model)
        grads = [0.5, -1.5, 0.25]

        p, m, v = 2.0, 0.0, 0.0
        for t, g in enumerate(grads, start=1):
            adam_step(model, np.array([g, 0.0]), state, cfg)
            m = cfg.beta1 * m + (1 - cfg.beta1) * g
            v = cfg.beta2 * v + (1 - cfg.beta2) * g * g
            m_hat = m / (1 - cfg.beta1**t)
            v_hat = v / (1 - cfg.beta2**t)
            p -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
            assert np.isclose(model.weights[0][0, 0], p, atol=1e-15)

    def test_in_place_update_is_bit_identical_to_the_expression(self, rng):
        cfg = TrainConfig(learning_rate=3e-3)
        model = init_model((5, 7, 3), seed=2, class_order=("a", "b", "c"))
        params = [p.copy() for p in model.weights + model.biases]
        m = [np.zeros_like(p) for p in params]
        v = [np.zeros_like(p) for p in params]
        state = AdamState(model)
        for t in range(1, 5):
            grads = [rng.normal(size=p.shape) for p in params]
            adam_step(model, np.concatenate([g.ravel() for g in grads]), state, cfg)
            for i, g in enumerate(grads):
                m[i] = cfg.beta1 * m[i] + (1.0 - cfg.beta1) * g
                v[i] = cfg.beta2 * v[i] + (1.0 - cfg.beta2) * g * g
                m_hat = m[i] / (1.0 - cfg.beta1**t)
                v_hat = v[i] / (1.0 - cfg.beta2**t)
                params[i] = params[i] - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
        for got, want in zip(model.weights + model.biases, params):
            assert got.tobytes() == want.tobytes()
        for got, want in ((state.m, m), (state.v, v)):
            assert got.tobytes() == np.concatenate([x.ravel() for x in want]).tobytes()


class TestFlatLayout:
    def test_layer_views_write_through_to_params_and_forward(self):
        model = init_model((3, 4, 2), seed=0, class_order=("a", "b"))
        x = np.ones((2, 3))
        before = forward(model, x)
        model.weights[1][0, 0] += 1.0
        model.biases[1][1] -= 2.0
        assert model.params[3 * 4] == model.weights[1][0, 0]
        assert model.params[-1] == model.biases[1][1]
        assert not np.array_equal(forward(model, x), before)

    def test_params_hold_weights_then_biases(self):
        model = init_model((3, 4, 2), seed=1, class_order=("a", "b"))
        assert model.params.dtype == np.float64 and model.params.flags.c_contiguous
        packed = np.concatenate([p.ravel() for p in model.weights + model.biases])
        assert model.params.tobytes() == packed.tobytes()
        assert all(np.shares_memory(p, model.params) for p in model.weights + model.biases)

    def test_model_from_per_layer_lists(self):
        w0, w1 = np.arange(8.0).reshape(2, 4), -np.arange(8.0).reshape(4, 2)
        model = MlpModel(layer_dims=(2, 4, 2), weights=[w0, w1],
                         biases=[np.ones(4), np.zeros(2)], class_order=("a", "b"))
        np.testing.assert_array_equal(model.weights[1], w1)
        np.testing.assert_array_equal(model.params[:8], w0.ravel())
        p = forward(model, [[1.0, -1.0]])
        np.testing.assert_allclose(p.sum(), 1.0, atol=1e-12)
        with pytest.raises(ValueError, match="shapes"):
            MlpModel(layer_dims=(2, 4, 2), weights=[w1, w0], biases=[np.ones(4), np.zeros(2)])

    def test_save_load_save_is_byte_identical(self, tmp_path, rng):
        stats = ScalerStats(mean=rng.normal(size=5), std=np.abs(rng.normal(size=5)) + 0.5)
        model = init_model((5, 6, 4), seed=3, scaler=stats)
        model, _ = train(model, rng.normal(size=(30, 5)), rng.integers(0, 4, 30),
                         TrainConfig(epochs=2, seed=3))
        first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(model, first)
        save_checkpoint(load_checkpoint(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_non_finite_training_rows_rejected_once_up_front(self, rng):
        rows, labels = _blobs(rng, n_per_class=5)
        rows[7, 1] = np.inf
        with pytest.raises(ValueError, match="finite"):
            train(init_model((2, 4), seed=0), rows, labels, TrainConfig(epochs=1))


def _blobs(rng, n_per_class=30, spread=0.25):
    centers = np.array([[4.0, 0.0], [0.0, 4.0], [-4.0, 0.0], [0.0, -4.0]])
    rows = np.vstack([c + spread * rng.normal(size=(n_per_class, 2)) for c in centers])
    labels = np.repeat(np.arange(4), n_per_class)
    return rows, labels


class TestTrain:
    def test_separable_blobs_reach_full_accuracy(self, rng):
        rows, labels = _blobs(rng)
        model = init_model((2, 16, 4), seed=0)
        cfg = TrainConfig(learning_rate=0.01, batch_size=16, epochs=50, seed=0)
        model, trace = train(model, rows, labels, cfg)
        assert len(trace.losses) == 50
        assert trace.accuracies[-1] == 1.0
        assert trace.losses[-1] < 0.1

    def test_zero_epochs_is_a_no_op(self, rng):
        rows, labels = _blobs(rng, n_per_class=5)
        model = init_model((2, 8, 4), seed=7)
        fresh = init_model((2, 8, 4), seed=7)
        out, trace = train(model, rows, labels, TrainConfig(epochs=0))
        assert out is model
        assert trace.losses == [] and trace.accuracies == []
        for w, wf in zip(out.weights, fresh.weights):
            assert np.array_equal(w, wf)

    def test_same_seed_training_is_bit_identical(self, rng):
        rows, labels = _blobs(rng, n_per_class=10)
        runs = []
        for _ in range(2):
            model = init_model((2, 8, 4), seed=5)
            model, trace = train(model, rows, labels,
                                 TrainConfig(epochs=8, batch_size=8, seed=5))
            runs.append((model, trace))
        for wa, wb in zip(runs[0][0].weights, runs[1][0].weights):
            assert wa.tobytes() == wb.tobytes()
        assert runs[0][1].losses == runs[1][1].losses

    def test_full_batch_descent_reduces_loss(self, rng):
        # plain gradient steps on the analytic gradients must descend
        rows, labels = _blobs(rng, n_per_class=8)
        model = init_model((2, 8, 4), seed=1)
        losses = []
        for _ in range(20):
            logits, acts = forward_trace(model, rows)
            losses.append(cross_entropy(logits, labels))
            gw, gb = backward(model, acts, logits, labels)
            for w, g in zip(model.weights, gw):
                w -= 0.1 * g
            for b, g in zip(model.biases, gb):
                b -= 0.1 * g
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_scaler_is_applied_during_training_and_inference(self, rng):
        rows, labels = _blobs(rng, n_per_class=10)
        rows = rows * 40.0 + 300.0  # wildly unscaled
        stats = ScalerStats(mean=rows.mean(axis=0), std=rows.std(axis=0))
        model = init_model((2, 8, 4), seed=0, scaler=stats)
        model, _ = train(model, rows, labels, TrainConfig(epochs=20, seed=0))
        bare = MlpModel(layer_dims=model.layer_dims, weights=model.weights,
                        biases=model.biases, scaler=None, class_order=model.class_order)
        np.testing.assert_array_equal(
            predict_frames(model, rows),
            forward(bare, apply_scaler(rows, stats)),
        )

    def test_argument_validation(self, rng):
        model = init_model((2, 4), seed=0)
        rows, labels = _blobs(rng, n_per_class=3)
        with pytest.raises(ValueError):
            train(model, rows[0], labels[:1])
        with pytest.raises(ValueError):
            train(model, rows, labels[:-1])
        with pytest.raises(ValueError):
            train(model, np.empty((0, 2)), np.empty(0, dtype=int))
        with pytest.raises(ValueError):
            train(model, rows, labels + 3)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(beta1=1.0)


class TestPredictFrames:
    def test_empty_input_gives_empty_posteriors(self):
        model = init_model()
        out = predict_frames(model, np.empty((0, 41)))
        assert out.shape == (0, 4)

    def test_accepts_feature_matrix(self, rng):
        model = init_model(seed=2)
        rows = rng.normal(size=(6, 41))
        fm = FeatureMatrix(rows=rows)
        np.testing.assert_array_equal(predict_frames(model, fm), predict_frames(model, rows))

    def test_rows_are_posteriors(self, rng):
        model = init_model(seed=2)
        p = predict_frames(model, rng.normal(size=(9, 41)))
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)

    def test_wrong_width_rejected(self, rng):
        model = init_model()
        with pytest.raises(ValueError):
            predict_frames(model, rng.normal(size=(4, 40)))
        with pytest.raises(ValueError):
            predict_frames(model, rng.normal(size=41))


class TestCheckpoint:
    def _model(self, rng):
        stats = ScalerStats(mean=rng.normal(size=6), std=np.abs(rng.normal(size=6)) + 0.5)
        model = init_model((6, 5, 4), seed=9, scaler=stats)
        model, _ = train(model, rng.normal(size=(40, 6)), rng.integers(0, 4, 40),
                         TrainConfig(epochs=3, seed=9))
        return model

    def test_round_trip_preserves_everything(self, tmp_path, rng):
        model = self._model(rng)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.layer_dims == model.layer_dims
        assert loaded.class_order == model.class_order
        assert loaded.scaler.mean.tobytes() == model.scaler.mean.tobytes()
        assert loaded.scaler.std.tobytes() == model.scaler.std.tobytes()
        for a, b in zip(model.weights + model.biases, loaded.weights + loaded.biases):
            assert a.tobytes() == b.tobytes()
        x = rng.normal(size=(100, 6))
        np.testing.assert_array_equal(predict_frames(model, x), predict_frames(loaded, x))

    def test_checkpoint_without_scaler(self, tmp_path):
        model = init_model((3, 4), seed=0)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        assert load_checkpoint(path).scaler is None

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda raw: b"X" + raw[1:], "magic"),
            (lambda raw: raw[:8] + (99).to_bytes(4, "little") + raw[12:], "version"),
            (lambda raw: raw[:-4], "truncated"),
            (lambda raw: raw + b"\x00" * 8, "trailing"),
            (lambda raw: raw[:-8] + np.float64("nan").tobytes(), "non-finite"),
        ],
    )
    def test_corrupted_files_are_rejected(self, tmp_path, rng, mutate, message):
        model = self._model(rng)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(mutate(path.read_bytes()))
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(bad)

    def test_trace_csv_round_trips(self, tmp_path, rng):
        rows, labels = _blobs(rng, n_per_class=5)
        model = init_model((2, 8, 4), seed=0)
        _, trace = train(model, rows, labels, TrainConfig(epochs=4))
        path = tmp_path / "trace.csv"
        save_trace_csv(trace, path)
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            body = list(reader)
        assert header == ["epoch", "loss", "frame_accuracy"]
        assert [int(r[0]) for r in body] == [0, 1, 2, 3]
        assert [float(r[1]) for r in body] == trace.losses
        assert [float(r[2]) for r in body] == trace.accuracies


def _golden_hashes(tmp_path, dims, n_rows, epochs):
    rng = np.random.default_rng(11)
    rows = 3.0 * rng.normal(size=(n_rows, dims[0])) + 1.0
    labels = rng.integers(0, dims[-1], n_rows)
    stats = ScalerStats(mean=rows.mean(axis=0), std=rows.std(axis=0))
    model = init_model(dims, seed=4, scaler=stats)
    model, trace = train(model, rows, labels, TrainConfig(epochs=epochs, seed=4))
    save_checkpoint(model, tmp_path / "model.ckpt")
    save_trace_csv(trace, tmp_path / "train_trace.csv")
    return [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("model.ckpt", "train_trace.csv")]


GOLDEN = [
    # 150 rows = two batches of 64 plus a partial batch of 22
    ((41, 32, 4), 150, 6,
     ["92d2612c166897ee4308d5dd04bc2ee8284e54c652bcef161f5da9471100c933",
      "ff219ab231a6940017893efa4b51ef923e59faa6b2145ff45fc2998d9e2d0816"]),
    (DEFAULT_LAYER_DIMS, 200, 3,
     ["e95246b4596dcfe5cdc705539b89dad8d5345512a3cfb3424a06924467d047a2",
      "4ae5b703f93e5936cc7021d36d8befc178942970ab31a51e14213abcdfd93bd4"]),
]


@pytest.mark.parametrize("dims, n_rows, epochs, want", GOLDEN)
def test_training_artifacts_match_golden_bytes(tmp_path, dims, n_rows, epochs, want):
    """Checkpoint and trace bytes are pinned, not only compared run to run."""
    assert _golden_hashes(tmp_path, dims, n_rows, epochs) == want


@pytest.fixture
def two_blas_threads():
    """OpenBLAS set to two threads for the test, then back; yields its getter."""
    fns = mlp._openblas_threads()
    if fns is None:
        pytest.skip("numpy is not linked to an OpenBLAS this process can find")
    get, put = fns
    before = get()
    put(2)
    try:
        yield get
    finally:
        put(before)


@pytest.mark.parametrize("dims, n_rows, epochs, want", GOLDEN)
def test_golden_bytes_do_not_depend_on_the_blas_cap(tmp_path, monkeypatch, two_blas_threads,
                                                   dims, n_rows, epochs, want):
    """Without the one-thread cap, the background accuracy pass runs beside
    two-thread BLAS on the training thread; a short switch interval makes the
    two threads interleave often. The bytes must not move."""
    monkeypatch.setattr(mlp, "_one_blas_thread", contextlib.nullcontext)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        assert _golden_hashes(tmp_path, dims, n_rows, epochs) == want
    finally:
        sys.setswitchinterval(interval)


class TestTrainThreads:
    @pytest.mark.parametrize("epochs", [0, 3])
    def test_one_blas_thread_inside_and_the_count_restored_after(
            self, rng, monkeypatch, two_blas_threads, epochs):
        seen, real = [], mlp.forward_trace

        def spy(model, x, out=None):
            seen.append(two_blas_threads())
            return real(model, x, out)

        monkeypatch.setattr(mlp, "forward_trace", spy)
        rows, labels = _blobs(rng, n_per_class=10)
        threads = set(threading.enumerate())
        _, trace = train(init_model((2, 8, 4), seed=0), rows, labels,
                         TrainConfig(epochs=epochs, batch_size=8))
        assert len(trace.losses) == len(trace.accuracies) == epochs
        assert seen == [1] * epochs * 6  # 5 batches and one full-set pass per epoch
        assert two_blas_threads() == 2
        assert set(threading.enumerate()) == threads

    def test_failed_accuracy_pass_reaches_the_caller(self, rng, monkeypatch,
                                                     two_blas_threads):
        rows, labels = _blobs(rng, n_per_class=10)
        real = mlp.forward_trace

        def fail_on_full_set(model, x, out=None):
            if len(x) == len(rows):
                raise RuntimeError("injected accuracy-pass failure")
            return real(model, x, out)

        monkeypatch.setattr(mlp, "forward_trace", fail_on_full_set)
        threads = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="injected accuracy-pass failure"):
            train(init_model((2, 8, 4), seed=0), rows, labels,
                  TrainConfig(epochs=3, batch_size=8))
        assert two_blas_threads() == 2
        assert set(threading.enumerate()) == threads
