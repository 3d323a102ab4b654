#!/usr/bin/env python3
"""Record the reference digests that ``run.py`` checks op outputs against.

Run from the repository root, on the commit whose float64 path is the
reference:

    python3 perfbench/record_refs.py

For each workload and each seed in ``SEEDS`` it runs every distinct op once
at full scale, checks the seed-independent invariants, and writes the op
digests to ``perfbench/references.json``. Re-recording on a later commit would make
that commit its own oracle; do it only on purpose, and say so.
"""

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFS = HERE / "references.json"
SEEDS = range(24)


def main() -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", str(len(os.sched_getaffinity(0))))
    sys.path.insert(0, str(ROOT / "src"))
    from run import src_sha256
    from workloads import SCALES, WORKLOADS, make_workdir

    refs = {"digests": {}, "src_sha256": src_sha256()}
    workdir = make_workdir(HERE / "out", f"refs-{os.getpid()}")
    try:
        for name, cls in WORKLOADS.items():
            distinct = cls.cycle * SCALES["full"][name]["pool"]
            for seed in SEEDS:
                wl = cls(seed, "full", workdir)
                digests = {}
                for k in range(distinct):
                    op = wl.run_op(k)
                    problems = wl.problems(op, None)
                    if problems:
                        print(f"{name} seed {seed}: {problems}", file=sys.stderr)
                        return 1
                    digests[op.key] = wl.digest(op)
                refs["digests"].setdefault(name, {})[str(seed)] = digests
                print(f"{name} seed {seed}: {len(digests)} digests", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
