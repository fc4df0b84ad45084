"""kftser benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a kftser checkout; the package is imported from
./src. Set-up runs several times and reports its median. After one
untimed warm-up job, jobs run back to back (one client, closed loop) for
--seconds, and for at least MIN_JOBS jobs and MIN_ITEMS items so that p95
has ten samples beyond it. A fixed reference kernel runs before the first
set-up and job and after each one; every end-to-end time is scaled by how
fast the machine ran it (speed.py).

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
jobs with jobs that run with span wrappers installed, and prints per-layer
metrics and the tracing overhead. Either way the last line of standard
output is one JSON object: correct, attempted, failed, metrics. A fuller
record (machine facts, job times, failures, spans) goes to
.perfbench_out/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import speed
import tracing

ROOT = Path(__file__).resolve().parent.parent
MIN_ITEMS = 200
MIN_JOBS = 3
TIME_CAP_S = 120.0  # stop adding jobs past this, whatever the minimums


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def blas_threads():
    """Thread count OpenBLAS reports at run time, or None if it cannot be asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def run_jobs(run_job, seconds: float, min_jobs: int, min_items: int, probe=None) -> list:
    """Call run_job(k) for k = 1, 2, ... until the time and minimums are met.

    With a probe, the reference kernel runs before the first job and after
    each job, and each job's scale comes from the runs on either side of it.
    """
    jobs = []
    t0 = perf_counter()
    before = probe.measure() if probe else None
    while True:
        gc.collect()  # every job starts from the same heap state
        job = run_job(1 + len(jobs))
        if probe:
            after = probe.measure()
            job.scale = probe.scale(before, after)
            span = job.wall_s or 1.0
            job.item_scale = [probe.scale(before, after, min((t + ms / 2e3) / span, 1.0))
                              for t, ms in zip(job.item_at, job.item_ms)]
            before = after
        jobs.append(job)
        elapsed = perf_counter() - t0
        items = sum(len(j.item_ms) for j in jobs)
        if elapsed >= TIME_CAP_S or (
                elapsed >= seconds and len(jobs) >= min_jobs and items >= min_items):
            return jobs


def traced_job(workload, k: int, tracer):
    """Odd jobs run untraced, even jobs traced, so both see the same machine."""
    if k % 2:
        return workload.run_job(k, None)
    tracing.install(tracer)
    try:
        return workload.run_job(k, tracer)
    finally:
        tracer.uninstall()


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(setup_s, jobs, accuracy) -> dict:
    """Times are scaled by machine speed, per job and per item (speed.py)."""
    done = [j for j in jobs if j.wall_s]
    items = [ms * sc for j in jobs for ms, sc in zip(j.item_ms, j.item_scale)]
    p50, p95 = np.percentile(items, [50, 95]) if items else (0.0, 0.0)
    return {
        "setup_s": (_median(setup_s), "s"),
        "wall_s": (_median([j.wall_s * j.scale for j in done]), "s"),
        "frames_per_s": (_median([j.frames / (j.wall_s * j.scale) for j in done]), "frames/s"),
        "item_ms_p50": (float(p50), "ms"),
        "item_ms_p95": (float(p95), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "utterance_accuracy": (accuracy, "ratio"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "kftser" / "__init__.py").is_file():
        print(f"error: no kftser package under {src}; run from the root of a kftser "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](work, args.seed)
    origin = perf_counter()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_facts()}
    # End-to-end times are scaled by machine speed; traced runs report raw times.
    probe = None if args.trace else speed.Probe(workload.speed_mix)
    setup_probe = None if args.trace else speed.Probe(workload.setup_mix or workload.speed_mix)
    try:
        setup_raw_s, setup_s = [], []
        before = setup_probe.measure() if setup_probe else None
        for _ in range(workload.setup_reps if not args.trace else 1):
            t0 = perf_counter()
            workload.setup()
            setup_raw_s.append(perf_counter() - t0)
            setup_s.append(setup_raw_s[-1])
            if setup_probe:
                after = setup_probe.measure()
                setup_s[-1] *= setup_probe.scale(before, after)
                before = after
        # One warm-up job fills caches and starts the BLAS threads; its
        # outputs are checked like any other, its times are not reported.
        warmup = workload.run_job(0, None)
        if not args.trace:
            jobs = run_jobs(lambda k: workload.run_job(k, None), args.seconds,
                            MIN_JOBS, MIN_ITEMS, probe)
        else:
            tracer = tracing.Tracer()
            jobs = run_jobs(lambda k: traced_job(workload, k, tracer), args.seconds, 2, 0)
            untraced, traced = jobs[0::2], jobs[1::2]
        outcome = workload.finish()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    if not args.trace:
        metrics = end_to_end_metrics(setup_s, jobs, outcome.utterance_accuracy)
    else:
        mean_wall = lambda js: statistics.fmean([j.wall_s for j in js if j.wall_s] or [0.0])
        metrics = tracing.per_layer_metrics(tracer, len(traced), mean_wall(traced),
                                            mean_wall(untraced))
        record["spans"] = tracer.dump(origin)
    attempted = sum(j.attempted for j in [warmup] + jobs) + outcome.attempted
    failed = sum(j.failed for j in [warmup] + jobs) + outcome.failed
    items = sum(len(j.item_ms) for j in jobs)

    record.update(setup_s=setup_s, setup_raw_s=setup_raw_s, warmup_wall_s=warmup.wall_s,
                  job_wall_s=[j.wall_s for j in jobs], job_scale=[j.scale for j in jobs],
                  speed_mix=workload.speed_mix,
                  setup_mix=workload.setup_mix or workload.speed_mix, items=items,
                  attempted=attempted, failed=failed, failures=workload.failures,
                  metrics={k: v for k, (v, _) in metrics.items()})
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record) + "\n")

    print(f"machine: {json.dumps(record['machine'])}")
    print(f"{args.workload} seed={args.seed}: {len(jobs)} jobs, {items} items, "
          f"setup x{len(setup_s)}")
    for message in workload.failures[:10]:
        print(f"FAILED {message}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:>14.6g} {unit}")
    print(f"  {'fail_ratio':<32} {failed / max(attempted, 1):>14.6g} "
          f"({failed} of {attempted} operations)")
    if probe:
        raw = [j.wall_s for j in jobs if j.wall_s]
        print(f"  {'machine speed scale (median)':<32} {_median([j.scale for j in jobs]):>14.6g} "
              f"(reference kernel {workload.speed_mix}, {probe.reference_s:g} s)")
        print(f"  {'wall_s unscaled':<32} {_median(raw):>14.6g} s")
        print(f"  {'setup_s unscaled':<32} {_median(setup_raw_s):>14.6g} s")
    print(f"record: {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
