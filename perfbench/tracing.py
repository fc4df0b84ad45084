"""Spans recorded from outside the program.

`install` replaces public functions of the kftser modules with timing
wrappers, each at the module attribute through which its caller looks it up
(for example `kftser.pipeline.decode_wav`, which `wav_to_features` calls, or
`kftser.mlp.forward_trace`, which `train` calls). Spans stay in memory; the
benchmark writes them out when it ends. `per_layer_metrics` turns them into
per-job busy times, self times and work counts.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

import numpy as np

LAYERS = ("dsp", "features", "mlp", "kalman", "evaluation", "pipeline")
RATE_TAGS = {48000: "48k", 44100: "44k1"}


@dataclass
class Span:
    sid: int
    parent: int | None
    item: str
    layer: str
    name: str
    t0: float = 0.0
    t1: float = 0.0
    rate: int = 0

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Stack of open spans plus counters taken at the same boundaries.

    `item` names the clip, trajectory or job the next spans belong to.
    Work done by a wrapper after the call returns (counting frames, bytes,
    resampler gain) is recorded as its own `trace` span, so it never lands
    in a program layer's self time.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.item = ""
        self._stack: list[int] = []
        self._patched: list = []

    def wrap(self, module, attr: str, layer: str, on_return=None) -> None:
        fn = module.__dict__.get(attr)
        if fn is None:  # not defined by this version of the program
            return
        name = f"{layer}.{attr}"

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), parent, self.item, layer, name)
            self.spans.append(span)
            self._stack.append(span.sid)
            span.t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.counts[f"{layer}.errors"] += 1
                raise
            finally:
                span.t1 = perf_counter()
                self._stack.pop()
            if on_return is not None:
                hook = Span(len(self.spans), parent, self.item, "trace", "trace.hook")
                hook.t0 = perf_counter()
                on_return(self, span, args, kwargs, out)
                hook.t1 = perf_counter()
                self.spans.append(hook)
            return out

        setattr(module, attr, traced)
        self._patched.append((module, attr, fn))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def dump(self, origin: float) -> list:
        return [[s.sid, s.parent, s.item, s.name, round(s.t0 - origin, 7),
                 round(s.t1 - origin, 7)] for s in self.spans]


class ItemClock:
    """Times every call of one function while active; untraced runs use it
    for per-item latency where the item is called by the program itself.
    Without a module it times nothing."""

    def __init__(self, module=None, attr: str = ""):
        self.module, self.attr = module, attr
        self.item_ms: list[float] = []
        self.item_t0: list[float] = []

    def __enter__(self):
        if self.module is not None:
            fn = self.fn = getattr(self.module, self.attr)

            def timed(*args, **kwargs):
                t0 = perf_counter()
                out = fn(*args, **kwargs)
                self.item_t0.append(t0)
                self.item_ms.append((perf_counter() - t0) * 1e3)
                return out

            setattr(self.module, self.attr, timed)
        return self

    def __exit__(self, *exc):
        if self.module is not None:
            setattr(self.module, self.attr, self.fn)


def _rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(x))))


def _on_resample(tr, span, args, kwargs, out):
    clip = args[0]
    span.rate = clip.sample_rate
    tag = RATE_TAGS.get(clip.sample_rate)
    if tag is not None:
        tr.counts[f"gain_sum.{tag}"] += _rms(out.samples) / _rms(clip.samples)
        tr.counts[f"gain_calls.{tag}"] += 1


def _on_trim(tr, span, args, kwargs, out):
    tr.counts["trim_in"] += len(args[0].samples)
    tr.counts["trim_out"] += len(out.samples)


def _on_extract(tr, span, args, kwargs, out):
    tr.counts["features.frames"] += out.n_frames


def _on_save(tr, span, args, kwargs, out):
    tr.counts["bytes_written"] += os.path.getsize(args[1])


def _on_load(tr, span, args, kwargs, out):
    tr.counts["bytes_read"] += os.path.getsize(args[0])


def _on_train(tr, span, args, kwargs, out):
    from kftser.mlp import TrainConfig

    model, rows = args[0], args[1]
    cfg = (args[3] if len(args) > 3 else kwargs.get("cfg")) or TrainConfig()
    dims = model.layer_dims
    macs = sum(a * b for a, b in zip(dims[:-1], dims[1:]))
    # Matmul FLOPs per frame and epoch: batch forward, weight gradients and
    # delta propagation below the top layer, plus the end-of-epoch forward pass.
    flop = 2 * (4 * macs - dims[0] * dims[1])
    tr.counts["train_epochs"] += cfg.epochs
    tr.counts["mlp.train_frame_epochs"] += len(rows) * cfg.epochs
    tr.counts["train_flop"] += flop * len(rows) * cfg.epochs


def _on_backward(tr, span, args, kwargs, out):
    tr.counts["mlp.batches"] += 1


def _on_predict(tr, span, args, kwargs, out):
    tr.counts["mlp.predict_frames"] += len(out)


def _on_filter_trajectory(tr, span, args, kwargs, out):
    tr.counts["filter_frames"] += out.n_steps


def _on_filter_batch(tr, span, args, kwargs, out):
    lengths = [len(m) for m in out]
    if lengths:
        tr.counts["batch_real"] += sum(lengths)
        tr.counts["batch_slots"] += len(lengths) * max(lengths)


def _on_tune(tr, span, args, kwargs, out):
    tr.counts["kalman.tune_candidates"] += len(out.accuracies)


def _on_fuse(tr, span, args, kwargs, out):
    tr.counts["evaluation.fuse_calls"] += 1


def install(tracer: Tracer) -> None:
    from kftser import evaluation, kalman, mlp, pipeline

    w = tracer.wrap
    w(pipeline, "decode_wav", "dsp")
    w(pipeline, "resample", "dsp", _on_resample)
    w(pipeline, "trim_silence", "dsp", _on_trim)
    w(pipeline, "build_mel_filterbank", "features")
    w(pipeline, "extract_features", "features", _on_extract)
    w(pipeline, "save_features", "features", _on_save)
    w(pipeline, "load_features", "features", _on_load)
    w(pipeline, "train", "mlp", _on_train)
    w(mlp, "forward_trace", "mlp")
    w(mlp, "backward", "mlp", _on_backward)
    w(mlp, "adam_step", "mlp")
    w(mlp, "predict_frames", "mlp", _on_predict)
    w(evaluation, "predict_frames", "mlp", _on_predict)
    w(kalman, "filter_trajectory", "kalman", _on_filter_trajectory)
    w(kalman, "rts_smooth", "kalman")
    w(kalman, "tune_qr_ratio", "kalman", _on_tune)
    w(kalman, "filter_batch", "kalman", _on_filter_batch)
    w(evaluation, "filter_batch", "kalman", _on_filter_batch)
    w(kalman, "gain_schedule", "kalman")
    w(evaluation, "evaluate_pipeline", "evaluation")
    w(evaluation, "fuse_utterance", "evaluation", _on_fuse)
    for name in ("extract_to_dir", "wav_to_features", "train_from_manifest",
                 "load_features_for_indices", "test_set"):
        w(pipeline, name, "pipeline")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer: Tracer, jobs: int, traced_wall_s: float,
                      untraced_wall_s: float) -> dict:
    """Per-job layer metrics: {name: (value, unit)}.

    traced_wall_s and untraced_wall_s are mean job wall times with and
    without the wrappers installed. Layer self times plus `trace.unattributed_s`
    add up to `trace.wall_s`.
    """
    busy = Counter()
    self_s = Counter()
    resample_s = Counter()
    child_s = Counter()
    for s in tracer.spans:
        if s.parent is not None:
            child_s[s.parent] += s.duration
    for s in tracer.spans:
        busy[s.name] += s.duration
        self_s[s.layer] += s.duration - child_s[s.sid]
        if s.rate in RATE_TAGS:
            resample_s[RATE_TAGS[s.rate]] += s.duration
    c = tracer.counts
    per = 1.0 / jobs

    m = {}

    def put(name, value, unit):
        m[name] = (float(value), unit)

    put("dsp.decode_s", busy["dsp.decode_wav"] * per, "s")
    for tag in RATE_TAGS.values():
        put(f"dsp.resample_{tag}_s", resample_s[tag] * per, "s")
        put(f"dsp.resample_gain_{tag}", _ratio(c[f"gain_sum.{tag}"], c[f"gain_calls.{tag}"]),
            "ratio")
    put("dsp.trim_s", busy["dsp.trim_silence"] * per, "s")
    put("dsp.trim_kept_ratio", _ratio(c["trim_out"], c["trim_in"]), "ratio")

    extract_s = busy["features.extract_features"]
    put("features.extract_s", extract_s * per, "s")
    put("features.frames", c["features.frames"] * per, "count")
    put("features.extract_us_per_frame", _ratio(extract_s * 1e6, c["features.frames"]), "us")
    put("features.save_s", busy["features.save_features"] * per, "s")
    put("features.load_s", busy["features.load_features"] * per, "s")
    put("features.mb_written", c["bytes_written"] * per / 1e6, "MB")
    put("features.mb_read", c["bytes_read"] * per / 1e6, "MB")

    train_s = busy["mlp.train"]
    put("mlp.train_s", train_s * per, "s")
    put("mlp.epoch_s", _ratio(train_s, c["train_epochs"]), "s")
    put("mlp.forward_trace_s", busy["mlp.forward_trace"] * per, "s")
    put("mlp.backward_s", busy["mlp.backward"] * per, "s")
    put("mlp.adam_step_s", busy["mlp.adam_step"] * per, "s")
    put("mlp.batches", c["mlp.batches"] * per, "count")
    put("mlp.train_frame_epochs", c["mlp.train_frame_epochs"] * per, "count")
    put("mlp.train_gflop", c["train_flop"] * per / 1e9, "GFLOP")
    put("mlp.predict_s", busy["mlp.predict_frames"] * per, "s")
    put("mlp.predict_frames", c["mlp.predict_frames"] * per, "count")

    filter_s = busy["kalman.filter_trajectory"]
    put("kalman.filter_trajectory_s", filter_s * per, "s")
    put("kalman.filter_us_per_frame", _ratio(filter_s * 1e6, c["filter_frames"]), "us")
    put("kalman.rts_smooth_s", busy["kalman.rts_smooth"] * per, "s")
    put("kalman.filter_batch_s", busy["kalman.filter_batch"] * per, "s")
    put("kalman.gain_schedule_s", busy["kalman.gain_schedule"] * per, "s")
    put("kalman.batch_useful_ratio", _ratio(c["batch_real"], c["batch_slots"]), "ratio")
    put("kalman.tune_s", busy["kalman.tune_qr_ratio"] * per, "s")
    put("kalman.tune_candidates", c["kalman.tune_candidates"] * per, "count")

    put("evaluation.evaluate_s", busy["evaluation.evaluate_pipeline"] * per, "s")
    put("evaluation.fuse_s", busy["evaluation.fuse_utterance"] * per, "s")
    put("evaluation.fuse_calls", c["evaluation.fuse_calls"] * per, "count")

    for layer in LAYERS:
        put(f"{layer}.self_s", self_s[layer] * per, "s")
    for layer in LAYERS:
        put(f"{layer}.errors", c[f"{layer}.errors"], "count")

    attributed = sum(self_s[layer] for layer in LAYERS) * per
    put("trace.wall_s", traced_wall_s, "s")
    put("trace.untraced_wall_s", untraced_wall_s, "s")
    put("trace.overhead_s", traced_wall_s - untraced_wall_s, "s")
    put("trace.hook_s", self_s["trace"] * per, "s")
    put("trace.unattributed_s", traced_wall_s - attributed, "s")
    put("trace.spans", len(tracer.spans) * per, "count")
    return m
