"""trflm benchmark: one workload per call, in a fresh process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pilot-train --seed 0 --seconds 25 --trace 0

The workload runs in a child process (workload.py) whose BLAS thread count is
pinned before numpy loads. The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. See README.md.
"""
from __future__ import annotations

import argparse
import os
import subprocess
import sys

# The networks are 12-48 units wide, too small for BLAS threads to help; one
# thread also keeps timings steady on a shared machine.
BLAS_THREADS = 1
TIMEOUT_S = 170
WORKLOADS = ("pilot-train", "paper-train", "rescore")
REQUIRED = ("src/trflm/cli.py", "src/trflm/data/pilot_words.txt", "configs/pilot.ini")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    missing = [p for p in REQUIRED if not os.path.isfile(p)]
    if missing:
        print(f"error: run from the root of a trflm checkout; missing {missing}",
              file=sys.stderr)
        return 2
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    worker = os.path.join(os.path.dirname(os.path.abspath(__file__)), "workload.py")
    cmd = [sys.executable, worker, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        return subprocess.run(cmd, env=env, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"error: {args.workload} did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
