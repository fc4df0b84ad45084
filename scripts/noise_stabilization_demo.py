"""Frame flips vs filtering: frame accuracy and fused utterance accuracy.

Uses synthetic posterior trajectories (no audio involved) so the effect of
the temporal model can be measured in isolation. For each flip probability
the table reports per-frame accuracy of the raw argmax, then utterance
accuracy after mean fusion of the raw, filtered, and RTS-smoothed
trajectories.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from kftser import (
    KalmanConfig,
    filter_trajectory,
    fuse_utterance,
    rts_smooth,
    synth_noisy_trajectories,
)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trajectories", type=int, default=500)
    ap.add_argument("--frames", type=int, default=100)
    ap.add_argument("--flips", default="0.0,0.1,0.2,0.3,0.4",
                    help="comma-separated flip probabilities")
    ap.add_argument("--q", type=float, default=None,
                    help="process noise override")
    ap.add_argument("--r", type=float, default=None,
                    help="measurement noise override")
    ap.add_argument("--seed", type=int, default=0)
    return ap.parse_args(argv)


def run_condition(flip, n, t, cfg, seed):
    trajs, labels = synth_noisy_trajectories(n, t, flip_prob=flip, seed=seed)
    frame_hits = 0
    frames = 0
    fused = {"raw": [], "filtered": [], "smoothed": []}
    for z, label in zip(trajs, labels):
        st = filter_trajectory(z, cfg)
        frame_hits += int(np.sum(z.argmax(axis=1) == label))
        frames += z.shape[0]
        fused["raw"].append(fuse_utterance(z)[0])
        fused["filtered"].append(fuse_utterance(st.filtered)[0])
        fused["smoothed"].append(fuse_utterance(rts_smooth(st, cfg))[0])
    accs = {k: float(np.mean(np.asarray(v) == labels)) for k, v in fused.items()}
    accs["frame"] = frame_hits / frames
    return accs


def main(argv=None) -> int:
    args = parse_args(argv)
    overrides = {k: v for k, v in (("q", args.q), ("r", args.r)) if v is not None}
    cfg = KalmanConfig(**overrides)
    flips = [float(x) for x in args.flips.split(",") if x.strip()]

    print(f"{args.trajectories} trajectories x {args.frames} frames, "
          f"q={cfg.q:g}, r={cfg.r:g}, seed={args.seed}")
    print(f"{'flip':>6} {'frame':>8} {'raw+fuse':>9} {'filt+fuse':>10} {'rts+fuse':>9}")
    for flip in flips:
        accs = run_condition(flip, args.trajectories, args.frames, cfg, args.seed)
        print(f"{flip:>6.2f} {accs['frame']:>8.4f} {accs['raw']:>9.4f} "
              f"{accs['filtered']:>10.4f} {accs['smoothed']:>9.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
