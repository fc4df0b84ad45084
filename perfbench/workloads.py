"""The three benchmark workloads.

Each workload builds its inputs from one seed in `setup`, then runs jobs
until the run's time is up. The program only ever sees the generated
WAVs, manifests, checkpoint and posterior arrays. Outputs are stored on the
first job, compared bit for bit on every later job, and checked against
independent references in `finish`.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import wave
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

import oracle
from kftser import evaluation, kalman, manifest, mlp, pipeline
from kftser.config import PipelineConfig
from tracing import ItemClock

REFERENCE_FILE = Path(__file__).with_name("reference.json")


@dataclass
class Job:
    wall_s: float | None = None  # None when the job did not complete
    frames: int = 0
    item_ms: list = field(default_factory=list)
    item_at: list = field(default_factory=list)  # seconds from job start to each item
    attempted: int = 0
    failed: int = 0
    scale: float = 1.0  # machine-speed factor for this job's times; see speed.py
    item_scale: list = field(default_factory=list)  # the same for each item


@dataclass
class Outcome:
    attempted: int
    failed: int
    utterance_accuracy: float


def derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


class Workload:
    name = ""
    setup_reps = 3
    speed_mix: tuple = ()  # (part, units) of the reference kernel; see speed.py
    setup_mix: tuple = ()  # the same for set-up, when it differs from the job's

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.failures: list[str] = []

    def fail(self, message: str) -> int:
        self.failures.append(message)
        return 1


class Experiment(Workload):
    """README quick-start as one batch job: extract, train, tune, evaluate."""

    name = "experiment"
    setup_reps = 5
    speed_mix = (("mlp", 12), ("signal", 4))  # mlp.train is ~75 % of the job
    setup_mix = (("signal", 8),)  # set-up is the tone generator: numpy over audio
    per_class = 24
    test_fraction = 0.25
    epochs = 30

    def config(self) -> PipelineConfig:
        return PipelineConfig(epochs=self.epochs, seed=self.seed)

    def setup(self) -> None:
        root = self.work / "experiment"
        shutil.rmtree(root, ignore_errors=True)
        m = manifest.generate_synthetic_dataset(root / "audio", per_class=self.per_class,
                                                seed=self.seed)
        m = manifest.split_manifest(m, self.test_fraction, seed=self.seed)
        m.save(root / "manifest.json")
        self.manifest = manifest.Manifest.load(root / "manifest.json")
        self.first = None
        references = json.loads(REFERENCE_FILE.read_text())["experiment"]
        self.reference = references.get(str(self.seed))

    def execute(self, features_dir: Path):
        """The timed job. Returns (model, evaluation, frames carried to a label)."""
        cfg, m = self.config(), self.manifest
        pipeline.extract_to_dir(m, cfg, features_dir)
        model, _ = pipeline.train_from_manifest(m, features_dir, cfg)
        kcfg = pipeline.kalman_config(cfg)
        train_mats = pipeline.load_features_for_indices(features_dir, m.train_indices)
        train_labels = [int(m.records[i].emotion) for i in m.train_indices]
        tuned = kalman.tune_qr_ratio([mlp.predict_frames(model, fm) for fm in train_mats],
                                     train_labels, kcfg)
        kcfg = replace(kcfg, q=tuned.best_q)
        mats, labels = pipeline.test_set(m, features_dir)
        result = evaluation.evaluate_pipeline(model, kcfg, mats, labels, fusion=cfg.fusion)
        frames = sum(fm.n_frames for fm in train_mats) + sum(fm.n_frames for fm in mats)
        return model, result, frames

    def fingerprint(self, model, result) -> dict:
        path = self.work / "experiment" / "model.ckpt"
        mlp.save_checkpoint(model, path)
        return {
            "checkpoint_sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
            "frame_accuracy": result.frame_accuracy,
            "filtered_frame_accuracy": result.filtered_frame_accuracy,
            "utterance_accuracy": result.utterance_accuracy,
        }

    def run_job(self, k: int, tracer) -> Job:
        features_dir = self.work / "experiment" / f"features{k}"
        job = Job(attempted=1)
        # The items are clips, timed where extract_to_dir calls wav_to_features.
        # A traced job reports layer times instead, so it needs no item clock.
        if tracer is None:
            clock = ItemClock(pipeline, "wav_to_features")
        else:
            tracer.item = f"job{k}"
            clock = ItemClock()
        try:
            with clock:
                t0 = perf_counter()
                model, result, frames = self.execute(features_dir)
                job.wall_s = perf_counter() - t0
        except Exception as exc:
            job.failed = self.fail(f"job {k}: {type(exc).__name__}: {exc}")
            return job
        finally:
            shutil.rmtree(features_dir, ignore_errors=True)
        job.item_ms = clock.item_ms
        job.item_at = [t - t0 for t in clock.item_t0]
        job.frames = frames
        got = self.fingerprint(model, result)
        if self.first is None:
            self.first = got
        expected = self.reference or self.first
        if got != expected:
            job.failed = self.fail(f"job {k}: outputs {got} differ from {expected}")
        return job

    def finish(self) -> Outcome:
        if self.reference is None:
            print(f"note: perfbench/reference.json has no entry for seed {self.seed}; "
                  "jobs are checked against each other only")
        accuracy = self.first["utterance_accuracy"] if self.first else 0.0
        return Outcome(attempted=0, failed=0, utterance_accuracy=accuracy)


def _pad_wav(path: Path, lead_s: float, total_s: float) -> None:
    """Surround a 16-bit mono WAV with digital silence up to total_s seconds."""
    with wave.open(str(path), "rb") as fh:
        rate = fh.getframerate()
        tone = np.frombuffer(fh.readframes(fh.getnframes()), dtype="<i2")
    lead = int(round(lead_s * rate))
    out = np.zeros(int(round(total_s * rate)), dtype="<i2")
    out[lead:lead + len(tone)] = tone
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(rate)
        fh.writeframes(out.tobytes())


class RealRateClips(Workload):
    """RAVDESS-like clips at 48 kHz and 44.1 kHz, one at a time as
    `kftser trajectory` runs them, against a checkpoint trained in set-up."""

    name = "realrate_clips"
    rates = (48000, 44100)
    tone_s = (2.0, 2.25, 2.5, 2.75)  # voiced part; the rest of the clip is silence
    clip_s = 3.5
    lead_s = 0.5
    train_per_class = 12
    train_epochs = 20
    speed_mix = (("signal", 8), ("kalman", 3))  # dsp + features ~70 %, kalman ~30 %
    setup_mix = (("mlp", 6), ("signal", 2))  # training ~70 % of set-up, then audio

    def setup(self) -> None:
        root = self.work / "realrate"
        shutil.rmtree(root, ignore_errors=True)
        self.cfg = PipelineConfig(epochs=self.train_epochs, seed=self.seed)
        m = manifest.generate_synthetic_dataset(root / "train_audio",
                                                per_class=self.train_per_class, seed=self.seed)
        m = manifest.split_manifest(m, 0.25, seed=self.seed)
        pipeline.extract_to_dir(m, self.cfg, root / "train_features")
        model, _ = pipeline.train_from_manifest(m, root / "train_features", self.cfg)
        mlp.save_checkpoint(model, root / "model.ckpt")

        by_rate = []
        for rate in self.rates:
            clips = []
            for j, tone_s in enumerate(self.tone_s):
                clip_dir = root / "clips" / f"{rate}_{j}"
                mm = manifest.generate_synthetic_dataset(
                    clip_dir, per_class=1, sample_rate=rate, duration=tone_s,
                    seed=derived_seed(self.seed, rate, j))
                for rec in mm.records:
                    _pad_wav(Path(rec.file_path), self.lead_s, self.clip_s)
                    clips.append((rec.file_path, int(rec.emotion), rate))
            rng = np.random.default_rng(derived_seed(self.seed, rate))
            by_rate.append([clips[i] for i in rng.permutation(len(clips))])
        self.clips = [c for pair in zip(*by_rate) for c in pair]  # interleave the rates
        self.model = mlp.load_checkpoint(root / "model.ckpt")
        self.kcfg = pipeline.kalman_config(self.cfg)
        self.first = {}

    def run_job(self, k: int, tracer) -> Job:
        job = Job()
        outputs = {}
        t_pass = perf_counter()
        for i, (path, _, _) in enumerate(self.clips):
            job.attempted += 1
            if tracer is not None:
                tracer.item = f"pass{k}/clip{i}"
            try:
                t0 = perf_counter()
                job.item_at.append(t0 - t_pass)
                fm = pipeline.wav_to_features(path, self.cfg, utterance_id=Path(path).stem)
                posteriors = mlp.predict_frames(self.model, fm)
                st = kalman.filter_trajectory(posteriors, self.kcfg)
                label, _ = evaluation.fuse_utterance(st.filtered)
                job.item_ms.append((perf_counter() - t0) * 1e3)
            except Exception as exc:
                job.failed += self.fail(f"pass {k} clip {i}: {type(exc).__name__}: {exc}")
                continue
            job.frames += fm.n_frames
            outputs[i] = (posteriors, st.filtered, label)
        job.wall_s = perf_counter() - t_pass
        for i, out in outputs.items():
            if not _same(out, self.first.setdefault(i, out)):
                job.failed += self.fail(f"pass {k} clip {i}: output differs from pass 0")
        return job

    def finish(self) -> Outcome:
        q, r, renorm = self.kcfg.q, self.kcfg.r, self.kcfg.renormalize
        failed = correct = 0
        for i, (_, true_label, rate) in enumerate(self.clips):
            if i not in self.first:
                continue
            posteriors, filtered, label = self.first[i]
            ref, _, _, _ = oracle.kalman_filter(posteriors, q, r, renorm)
            diff = oracle.max_abs_diff(filtered, ref)
            if diff > oracle.TOLERANCE or label != oracle.fused_label(ref):
                failed += self.fail(f"clip {i} ({rate} Hz): filtered means differ from the "
                                    f"reference by {diff:.3g} or the fused label differs")
            correct += label == true_label
        return Outcome(attempted=len(self.first), failed=failed,
                       utterance_accuracy=correct / len(self.clips))


class PosteriorFiltering(Workload):
    """Noisy posterior trajectories, no audio: tune q/r with the batched
    filter, then filter, smooth and fuse each trajectory on its own."""

    name = "posterior_filtering"
    setup_reps = 9  # set-up takes milliseconds here
    speed_mix = (("kalman", 8),)
    # 1 s, 2 s, one RAVDESS clip (3.5 s), two and three clips. An odd number
    # of equal groups puts p50 and p95 inside a group, not between two.
    lengths = (44, 88, 151, 302, 453)
    per_length = 8
    flip_prob = 0.3

    def setup(self) -> None:
        trajectories, labels = [], []
        for length in self.lengths:
            z, y = evaluation.synth_noisy_trajectories(
                self.per_length, length, flip_prob=self.flip_prob,
                seed=derived_seed(self.seed, length))
            trajectories += z
            labels += [int(v) for v in y]
        order = np.random.default_rng(self.seed).permutation(len(labels))
        self.trajectories = [trajectories[i] for i in order]
        self.labels = [labels[i] for i in order]
        self.cfg = kalman.KalmanConfig()
        self.first = None

    def run_job(self, k: int, tracer) -> Job:
        job = Job()
        outputs = []
        t_job = perf_counter()
        try:
            job.attempted += 1
            if tracer is not None:
                tracer.item = f"job{k}/tune"
            tuned = kalman.tune_qr_ratio(self.trajectories, self.labels, self.cfg)
            cfg = replace(self.cfg, q=tuned.best_q)
        except Exception as exc:
            job.failed = self.fail(f"job {k} tune: {type(exc).__name__}: {exc}")
            return job
        for i, z in enumerate(self.trajectories):
            job.attempted += 1
            if tracer is not None:
                tracer.item = f"job{k}/traj{i}"
            try:
                t0 = perf_counter()
                job.item_at.append(t0 - t_job)
                st = kalman.filter_trajectory(z, cfg)
                smoothed = kalman.rts_smooth(st, cfg)
                label, _ = evaluation.fuse_utterance(st.filtered)
                smoothed_label, _ = evaluation.fuse_utterance(smoothed)
                job.item_ms.append((perf_counter() - t0) * 1e3)
            except Exception as exc:
                job.failed += self.fail(f"job {k} trajectory {i}: {type(exc).__name__}: {exc}")
                outputs.append(None)
                continue
            job.frames += len(z)
            outputs.append((st.filtered, smoothed, label, smoothed_label))
        job.wall_s = perf_counter() - t_job
        got = (tuned.best_ratio, dict(tuned.accuracies), outputs)
        if self.first is None:
            self.first = got
        elif not _same(got, self.first):
            job.failed += self.fail(f"job {k}: outputs differ from job 0")
        return job

    def finish(self) -> Outcome:
        if self.first is None:
            return Outcome(attempted=0, failed=0, utterance_accuracy=0.0)
        best_ratio, accuracies, outputs = self.first
        r, renorm = self.cfg.r, self.cfg.renormalize
        failed = 0
        # The batched path behind tune_qr_ratio, checked candidate by candidate.
        expected = {}
        for ratio in accuracies:
            preds = [oracle.fused_label(oracle.kalman_filter(z, ratio * r, r, renorm)[0])
                     for z in self.trajectories]
            expected[ratio] = float(np.mean(np.array(preds) == np.array(self.labels)))
        best = max(sorted(expected), key=lambda ratio: expected[ratio])
        if expected != accuracies or best != best_ratio:
            failed += self.fail(f"tune: accuracies {accuracies} (best {best_ratio}) differ "
                                f"from the reference {expected} (best {best})")
        # The per-trajectory path at the tuned q.
        correct = 0
        for i, (z, out) in enumerate(zip(self.trajectories, outputs)):
            if out is None:
                continue
            filtered, smoothed, label, smoothed_label = out
            passes = oracle.kalman_filter(z, best_ratio * r, r, renorm)
            ref_smoothed = oracle.rts_smooth(*passes)
            diff = max(oracle.max_abs_diff(filtered, passes[0]),
                       oracle.max_abs_diff(smoothed, ref_smoothed))
            if (diff > oracle.TOLERANCE or label != oracle.fused_label(passes[0])
                    or smoothed_label != oracle.fused_label(ref_smoothed)):
                failed += self.fail(f"trajectory {i}: filtered or smoothed means differ from "
                                    f"the reference by {diff:.3g}, or a fused label differs")
            correct += label == self.labels[i]
        return Outcome(attempted=1 + len(outputs), failed=failed,
                       utterance_accuracy=correct / len(self.labels))


def _same(a, b) -> bool:
    """Exact equality through nested tuples, lists, dicts and arrays."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, (tuple, list)):
        return (isinstance(b, (tuple, list)) and len(a) == len(b)
                and all(_same(x, y) for x, y in zip(a, b)))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[key], b[key]) for key in a)
    return a == b


WORKLOADS = {w.name: w for w in (Experiment, RealRateClips, PosteriorFiltering)}
