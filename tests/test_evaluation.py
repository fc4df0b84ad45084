import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kftser.evaluation import (
    ConfusionMatrix,
    GainReport,
    classification_report,
    confusion_matrix,
    evaluate_pipeline,
    fuse_utterance,
    synth_noisy_trajectories,
)
from kftser.kalman import KalmanConfig, filter_batch
from kftser.mlp import MlpModel


class TestFusion:
    def test_mean_of_identical_rows_is_the_row(self):
        row = np.array([0.1, 0.2, 0.3, 0.4])
        cls, fused = fuse_utterance(np.tile(row, (6, 1)))
        assert cls == 3
        np.testing.assert_allclose(fused, row, atol=1e-15)

    def test_mean_ties_break_to_the_lowest_index(self):
        traj = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
        cls, fused = fuse_utterance(traj)
        assert cls == 0
        np.testing.assert_array_equal(fused, [0.5, 0.5, 0.0, 0.0])

    def test_max_rule_takes_per_class_peaks(self):
        traj = np.array([[0.6, 0.1, 0.2, 0.1], [0.1, 0.7, 0.1, 0.1]])
        cls, fused = fuse_utterance(traj, rule="max")
        assert cls == 1
        np.testing.assert_array_equal(fused, [0.6, 0.7, 0.2, 0.1])

    def test_final_rule_takes_the_last_row(self):
        traj = np.array([[0.9, 0.1, 0.0, 0.0], [0.0, 0.0, 0.2, 0.8]])
        cls, fused = fuse_utterance(traj, rule="final")
        assert cls == 3
        np.testing.assert_array_equal(fused, traj[-1])

    def test_single_row_input_is_accepted(self):
        cls, fused = fuse_utterance(np.array([0.2, 0.5, 0.2, 0.1]))
        assert cls == 1

    def test_errors(self):
        with pytest.raises(ValueError, match="empty"):
            fuse_utterance(np.empty((0, 4)))
        with pytest.raises(ValueError, match="median"):
            fuse_utterance(np.ones((2, 4)) / 4, rule="median")

    @given(
        traj=hnp.arrays(
            np.float64,
            st.tuples(st.integers(min_value=1, max_value=12), st.just(4)),
            elements=st.floats(min_value=0.0, max_value=1.0),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_mean_fusion_stays_on_the_simplex(self, traj):
        traj = traj / np.maximum(traj.sum(axis=1, keepdims=True), 1e-12)
        _, fused = fuse_utterance(traj)
        assert np.isclose(fused.sum(), traj.mean(axis=0).sum(), atol=1e-12)


class TestConfusionMatrix:
    def test_perfect_predictions_fill_the_diagonal(self):
        labels = [0, 1, 2, 3, 0, 1, 2, 3]
        cm = confusion_matrix(labels, labels)
        np.testing.assert_array_equal(cm.counts, 2 * np.eye(4, dtype=int))
        np.testing.assert_array_equal(cm.support, [2, 2, 2, 2])
        assert cm.total == 8

    def test_collapsed_predictions_fill_one_column(self):
        cm = confusion_matrix([0, 1, 2, 3], [0, 0, 0, 0])
        np.testing.assert_array_equal(cm.counts[:, 0], [1, 1, 1, 1])
        assert cm.counts[:, 1:].sum() == 0

    def test_hand_tallied_pairs(self):
        true = [0, 0, 1, 1, 2, 2, 3, 3, 3, 0]
        pred = [0, 1, 1, 1, 2, 3, 3, 3, 0, 0]
        cm = confusion_matrix(true, pred)
        expect = np.array([[2, 1, 0, 0], [0, 2, 0, 0], [0, 0, 1, 1], [1, 0, 0, 2]])
        np.testing.assert_array_equal(cm.counts, expect)

    def test_validation(self):
        with pytest.raises(ValueError):
            confusion_matrix([0, 1], [0])
        with pytest.raises(ValueError):
            confusion_matrix([0, 4], [0, 1])
        with pytest.raises(ValueError):
            confusion_matrix([0, -1], [0, 1])
        with pytest.raises(ValueError):
            ConfusionMatrix(counts=np.zeros((3, 4)))
        with pytest.raises(ValueError):
            ConfusionMatrix(counts=-np.eye(4))

    def test_csv_layout(self, tmp_path):
        cm = confusion_matrix([0, 1, 2, 3], [0, 1, 2, 0])
        path = tmp_path / "cm.csv"
        cm.save_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "class,angry,calm,happy,sad"
        assert lines[1] == "angry,1,0,0,0"
        assert lines[4] == "sad,1,0,0,0"


class TestClassificationReport:
    def test_diagonal_matrix_is_perfect(self):
        report = classification_report(ConfusionMatrix(counts=5 * np.eye(4, dtype=int)))
        np.testing.assert_array_equal(report.precision, np.ones(4))
        np.testing.assert_array_equal(report.recall, np.ones(4))
        np.testing.assert_array_equal(report.f1, np.ones(4))
        assert report.accuracy == 1.0
        assert report.macro_f1 == 1.0

    def test_known_matrix_values(self):
        counts = np.array(
            [[170, 4, 10, 8], [8, 170, 4, 10], [7, 5, 167, 13], [5, 15, 8, 164]]
        )
        report = classification_report(ConfusionMatrix(counts=counts))
        np.testing.assert_array_equal(report.support, [192, 192, 192, 192])
        assert report.recall[3] == pytest.approx(164 / 192)
        assert report.precision[3] == pytest.approx(164 / 195)
        assert report.accuracy == pytest.approx(671 / 768)
        assert round(report.recall[3], 2) == 0.85
        assert round(report.precision[3], 2) == 0.84

    def test_never_predicted_class_scores_zero(self):
        counts = np.array([[0, 3, 0, 0], [0, 3, 0, 0], [0, 0, 3, 0], [0, 0, 0, 3]])
        report = classification_report(ConfusionMatrix(counts=counts))
        assert report.precision[0] == 0.0
        assert report.recall[0] == 0.0
        assert report.f1[0] == 0.0
        assert np.all(np.isfinite(report.f1))

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            classification_report(ConfusionMatrix(counts=np.zeros((4, 4), dtype=int)))

    @given(
        counts=hnp.arrays(np.int64, (4, 4), elements=st.integers(min_value=0, max_value=50))
    )
    @settings(max_examples=60, deadline=None)
    def test_accuracy_equals_weighted_recall(self, counts):
        if counts.sum() == 0:
            counts[0, 0] = 1
        report = classification_report(ConfusionMatrix(counts=counts))
        assert np.isclose(report.accuracy, report.weighted_recall, atol=1e-12)

    def test_dict_and_json_round_trip(self, tmp_path):
        cm = confusion_matrix([0, 1, 2, 3, 2], [0, 1, 2, 3, 3])
        report = classification_report(cm)
        d = report.to_dict()
        assert set(d) == {"classes", "accuracy", "macro_avg", "weighted_avg", "confusion"}
        assert set(d["classes"]) == {"angry", "calm", "happy", "sad"}
        assert set(d["classes"]["sad"]) == {"precision", "recall", "f1", "support"}
        path = tmp_path / "report.json"
        report.save_json(path)
        assert json.loads(path.read_text()) == json.loads(json.dumps(d))

    def test_table_formatting(self):
        cm = confusion_matrix([0, 1, 2, 3], [0, 1, 2, 3])
        table = classification_report(cm).format_table()
        lines = table.splitlines()
        assert "precision" in lines[0] and "support" in lines[0]
        assert any(line.startswith("angry") for line in lines)
        assert any(line.startswith("macro avg") for line in lines)
        assert any(line.startswith("weighted avg") for line in lines)
        accuracy_line = next(line for line in lines if line.startswith("accuracy"))
        assert "1.00" in accuracy_line


class TestGainReport:
    def test_gain_is_the_plain_difference(self):
        gr = GainReport(frame_level_accuracy=0.625, utterance_level_accuracy=0.875)
        assert gr.absolute_gain == 0.25
        assert gr.to_dict() == {
            "frame_level_accuracy": 0.625,
            "utterance_level_accuracy": 0.875,
            "absolute_gain": 0.25,
        }

    def test_json_file(self, tmp_path):
        gr = GainReport(frame_level_accuracy=0.5, utterance_level_accuracy=0.75)
        path = tmp_path / "gain.json"
        gr.save_json(path)
        assert json.loads(path.read_text()) == gr.to_dict()


def _passthrough_model(sharpness=20.0):
    """4-input linear model whose posterior argmax copies the input argmax."""
    w = sharpness * np.eye(4)
    return MlpModel(layer_dims=(4, 4), weights=[w], biases=[np.zeros(4)], scaler=None)


class TestEvaluatePipeline:
    def test_bookkeeping_and_exact_gain(self):
        model = _passthrough_model()
        trajs, labels = synth_noisy_trajectories(8, 25, flip_prob=0.3, seed=3)
        result = evaluate_pipeline(model, KalmanConfig(), trajs, labels)
        assert result.n_utterances == 8
        assert result.n_frames == 8 * 25
        assert result.gain.absolute_gain == (
            result.utterance_accuracy - result.frame_accuracy
        )
        assert result.report.confusion.total == 8
        assert 0.0 <= result.frame_accuracy <= 1.0

    def test_filtering_beats_raw_frames_on_noisy_posteriors(self):
        model = _passthrough_model()
        trajs, labels = synth_noisy_trajectories(100, 60, flip_prob=0.35, seed=0)
        result = evaluate_pipeline(model, KalmanConfig(), trajs, labels)
        assert result.utterance_accuracy > result.frame_accuracy
        assert result.filtered_frame_accuracy > result.frame_accuracy

    def test_single_clean_utterance_is_perfect(self):
        model = _passthrough_model()
        trajs, labels = synth_noisy_trajectories(1, 40, flip_prob=0.0, seed=1)
        result = evaluate_pipeline(model, KalmanConfig(), trajs, labels)
        assert result.utterance_accuracy == 1.0
        assert result.report.accuracy == 1.0

    def test_fusion_rule_is_forwarded(self):
        model = _passthrough_model()
        trajs, labels = synth_noisy_trajectories(6, 30, flip_prob=0.2, seed=2)
        for rule in ("mean", "max", "final"):
            result = evaluate_pipeline(model, KalmanConfig(), trajs, labels, fusion=rule)
            assert result.n_utterances == 6
        with pytest.raises(ValueError):
            evaluate_pipeline(model, KalmanConfig(), trajs, labels, fusion="mode")

    def test_argument_validation(self):
        model = _passthrough_model()
        trajs, labels = synth_noisy_trajectories(4, 10, seed=0)
        with pytest.raises(ValueError):
            evaluate_pipeline(model, KalmanConfig(), [], [])
        with pytest.raises(ValueError):
            evaluate_pipeline(model, KalmanConfig(), trajs, labels[:-1])


class TestSynthTrajectories:
    def test_zero_flip_probability_is_always_correct(self):
        trajs, labels = synth_noisy_trajectories(12, 30, flip_prob=0.0, seed=0)
        for z, y in zip(trajs, labels):
            assert np.all(z.argmax(axis=1) == y)

    def test_labels_cycle_round_robin(self):
        _, labels = synth_noisy_trajectories(10, 5, seed=0)
        np.testing.assert_array_equal(labels, [0, 1, 2, 3, 0, 1, 2, 3, 0, 1])

    def test_rows_are_probability_vectors(self):
        trajs, _ = synth_noisy_trajectories(5, 20, flip_prob=0.4, seed=4)
        for z in trajs:
            assert z.shape == (20, 4)
            assert np.all(z >= 0.0)
            np.testing.assert_allclose(z.sum(axis=1), 1.0, atol=1e-12)

    def test_flip_rate_matches_request(self):
        trajs, labels = synth_noisy_trajectories(1000, 20, flip_prob=0.3, seed=6)
        wrong = np.mean(
            [np.mean(z.argmax(axis=1) != y) for z, y in zip(trajs, labels)]
        )
        assert abs(wrong - 0.3) < 0.05

    def test_same_seed_reproduces_exactly(self):
        a, la = synth_noisy_trajectories(6, 15, flip_prob=0.25, seed=9)
        b, lb = synth_noisy_trajectories(6, 15, flip_prob=0.25, seed=9)
        np.testing.assert_array_equal(la, lb)
        for za, zb in zip(a, b):
            assert np.array_equal(za, zb)

    def test_validation(self):
        for kwargs in (
            {"flip_prob": 1.0},
            {"flip_prob": -0.1},
        ):
            with pytest.raises(ValueError):
                synth_noisy_trajectories(4, 10, **kwargs)
        with pytest.raises(ValueError):
            synth_noisy_trajectories(0, 10)
        with pytest.raises(ValueError):
            synth_noisy_trajectories(4, 0)


class TestStabilizationProperties:
    def test_filtering_recovers_utterance_accuracy_per_seed(self):
        cfg = KalmanConfig()
        for seed in range(10):
            trajs, labels = synth_noisy_trajectories(100, 50, flip_prob=0.3, seed=seed)
            filtered = filter_batch(trajs, cfg)
            frame_acc = np.mean(
                [np.mean(z.argmax(axis=1) == y) for z, y in zip(trajs, labels)]
            )
            fused = np.array([fuse_utterance(m)[0] for m in filtered])
            assert np.mean(fused == labels) - frame_acc > 0.15

    def test_filtered_fusion_never_trails_raw_fusion_in_aggregate(self):
        # moderate flip rates and long trajectories: the regime where
        # low-passing the posteriors can only help the fused decision
        cfg = KalmanConfig()
        for flip in (0.2, 0.3, 0.4):
            raw_correct = filtered_correct = 0
            for seed in range(25):
                trajs, labels = synth_noisy_trajectories(40, 50, flip_prob=flip, seed=seed)
                filtered = filter_batch(trajs, cfg)
                raw_pred = np.array([fuse_utterance(z)[0] for z in trajs])
                fil_pred = np.array([fuse_utterance(m)[0] for m in filtered])
                raw_correct += int(np.sum(raw_pred == labels))
                filtered_correct += int(np.sum(fil_pred == labels))
            assert filtered_correct >= raw_correct
