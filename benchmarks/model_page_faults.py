#!/usr/bin/env python3
"""Minor page faults and system time of the model's prefill-heavy path.

Runs the ``model_eval`` benchmark workload's LongBench-shaped greedy
``generate`` (one left-padded batch of six 769-token prompts, eight new
tokens) under FP16 and GEAR-4, in a fresh process with
``benchmarks/perf/run.py``'s child environment (glibc's mmap threshold
pinned, one BLAS thread), and prints each warm repetition's minor page
faults and system seconds.  A minor fault is the kernel mapping and
zeroing a fresh page the first time an array writes it.  The script
only prints; it asserts nothing.

Usage (from the repository root)::

    python3 benchmarks/model_page_faults.py [--reps N] [--seed S]
"""

from __future__ import annotations

import argparse
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
PERF = HERE / "perf"
SRC = HERE.parent / "src"
ALGOS = ("fp16", "gear-4")


def child(reps: int, seed: int) -> None:
    """Build the workload's model and inputs, then time ``reps`` warm
    ``generate`` calls per algorithm."""
    sys.path[:0] = [str(SRC), str(PERF)]
    import workloads

    wl = workloads.make("model_eval")
    wl.load()
    wl.build()
    samples, _, _ = wl.inputs(seed)
    prompts = [s.prompt for s in samples]
    shape = f"{len(prompts)}x{max(map(len, prompts))}"
    for algo in ALGOS:
        def generate():
            comp = None if algo == "fp16" else wl.create(algo)
            wl.generate(
                wl.model, prompts, compressor=comp,
                sampler=wl.Sampler(greedy=True),
                max_new_tokens=wl.eval_new_tokens,
            )

        generate()  # warm: the model's workspace reaches its size
        for rep in range(reps):
            before = resource.getrusage(resource.RUSAGE_SELF)
            t0 = time.perf_counter()
            generate()
            wall = time.perf_counter() - t0
            after = resource.getrusage(resource.RUSAGE_SELF)
            print(
                f"{algo:<7} {shape} rep {rep}: "
                f"minor faults {after.ru_minflt - before.ru_minflt:>7}  "
                f"system {after.ru_stime - before.ru_stime:.3f} s  "
                f"wall {wall:.3f} s",
                flush=True,
            )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        child(args.reps, args.seed)
        return 0
    sys.path.insert(0, str(PERF))
    from run import CHILD_ENV

    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--reps", str(args.reps), "--seed", str(args.seed),
    ]
    return subprocess.run(cmd, env=dict(os.environ, **CHILD_ENV)).returncode


if __name__ == "__main__":
    sys.exit(main())
