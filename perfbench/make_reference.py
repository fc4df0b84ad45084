"""Record the experiment workload's reference outputs per seed.

    python3 perfbench/make_reference.py 0-99 123 1234

Runs the experiment job once per seed and writes the checkpoint SHA-256 and
the three evaluation accuracies to perfbench/reference.json, which the
benchmark checks every job against. Re-run it only when a change is meant to
alter those outputs, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(args) -> list[int]:
    seeds = []
    for arg in args:
        lo, _, hi = arg.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    seeds = parse_seeds(sys.argv[1:] if argv is None else argv)
    if not seeds:
        print(__doc__, file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import REFERENCE_FILE, Experiment

    reference = json.loads(REFERENCE_FILE.read_text())
    table = reference["experiment"]
    work = ROOT / ".perfbench_work" / "reference"
    try:
        for seed in seeds:
            wl = Experiment(work, seed)
            wl.setup()
            model, result, _ = wl.execute(work / "features")
            table[str(seed)] = wl.fingerprint(model, result)
            shutil.rmtree(work / "features")
            print(seed, table[str(seed)], flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    reference["experiment"] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
