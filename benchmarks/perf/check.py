"""Correctness checks over the benchmark's public outputs.

Every check reads only what the program hands back: request records,
``Trace`` events (through ``of_kind`` / ``rows_of`` / ``payload``),
replay reports and generated tokens.  Each checked item counts as one
attempted operation and each violation as one failure; ``error_rate``
is failures over attempts.  The invariants:

- every request ends exactly once, as a finish or a reject;
- TTFT <= E2E (arrival <= first token <= finish);
- every ``DECODE_STEP`` has ``used_tokens <= token_budget``;
- the fleet recording replays EXACT;
- each repetition's output digest equals the first repetition's;
- on seeds with a committed reference, digests and generated tokens
  equal ``reference/seed<N>.json``.

Run as a script, ``--write-reference`` regenerates those files from one
repetition of every workload (do this only for an intended change of
simulated behaviour or generated tokens, and say so in the change)::

    python benchmarks/perf/check.py --write-reference [--seed 0 --seed 1]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
REFERENCE_SEEDS = (0, 1)


class Checker:
    """Tally of checked items and failures, with the first messages."""

    max_messages = 20

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def count(self, checked: int, failed: int, message: str) -> None:
        self.attempted += checked
        if failed:
            self.failed += failed
            if len(self.messages) < self.max_messages:
                self.messages.append(f"{message} ({failed} of {checked})")

    def expect(self, ok: bool, message: str) -> None:
        self.count(1, 0 if ok else 1, message)


def check_request_ends(chk: Checker, trace, request_ids: Sequence[str]) -> None:
    """Each input request ends exactly once (FINISH or REJECT), and no
    trace id ends twice.  A disaggregated request whose prefill stage
    (``<id>#pf``) was rejected ends there instead."""
    from repro.serving import EventType
    from repro.serving.fleet import PREFILL_SUFFIX

    ends: Counter = Counter()
    rejected = set()
    for kind in (EventType.FINISH, EventType.REJECT):
        for ev in trace.of_kind(kind):
            ends[ev.request_id] += 1
            if kind is EventType.REJECT:
                rejected.add(ev.request_id)
    twice = sum(1 for n in ends.values() if n > 1)
    chk.count(len(ends), twice, "a request ended more than once")
    missing = sum(
        1 for rid in request_ids
        if not (ends[rid] == 1
                or (ends[rid] == 0 and rid + PREFILL_SUFFIX in rejected))
    )
    chk.count(len(request_ids), missing, "a request never ended")


def check_ttft(chk: Checker, trace) -> None:
    """arrival <= first token <= finish on every FINISH event."""
    from repro.serving import EventType

    finishes = trace.of_kind(EventType.FINISH)
    bad = 0
    for ev in finishes:
        arrival = ev.data.get("arrival")
        first = ev.data.get("first_token")
        if arrival is None or first is None or not arrival <= first <= ev.time:
            bad += 1
    chk.count(len(finishes), bad, "TTFT > E2E (or a negative TTFT)")


def check_budget(chk: Checker, trace) -> None:
    """No decode step writes more KV tokens than the budget."""
    from repro.serving import EventType

    rows = trace.rows_of(EventType.DECODE_STEP)
    if not len(rows):
        return
    used, _ = trace.payload("used_tokens")
    budget, _ = trace.payload("token_budget")
    over = int((used[rows] > budget[rows]).sum())
    chk.count(len(rows), over, "DECODE_STEP used_tokens > token_budget")


def check_serving(chk: Checker, trace, request_ids: Sequence[str]) -> None:
    """Every serving invariant on one trace."""
    check_request_ends(chk, trace, request_ids)
    check_ttft(chk, trace)
    check_budget(chk, trace)


def token_match(
    reference: Dict[str, List[List[int]]], got: Dict[str, List[List[int]]]
) -> float:
    """Share of generated token positions equal to the reference streams
    (a missing or extra token counts as a mismatch)."""
    same = total = 0
    for label, ref_seqs in reference.items():
        got_seqs = got.get(label, [])
        for i, ref in enumerate(ref_seqs):
            seq = got_seqs[i] if i < len(got_seqs) else []
            total += max(len(ref), len(seq))
            same += sum(1 for a, b in zip(ref, seq) if a == b)
    return same / total if total else 1.0


def reference_path(seed: int) -> Path:
    return REFERENCE_DIR / f"seed{seed}.json"


def load_reference(seed: int) -> Optional[dict]:
    path = reference_path(seed)
    if not path.exists():
        return None
    return json.loads(path.read_text())


def check_reference(chk: Checker, ref: Optional[dict], workload: str, rep) -> Optional[float]:
    """Compare one repetition with the committed reference for its seed;
    returns the token-match share when the reference holds tokens."""
    entry = (ref or {}).get(workload)
    if entry is None:
        return None
    chk.expect(
        rep.digest == entry["digest"],
        f"{workload}: outputs differ from the committed reference "
        f"(digest {rep.digest} != {entry['digest']})",
    )
    if "tokens" not in entry:
        return None
    match = token_match(entry["tokens"], rep.tokens_by_run)
    chk.expect(match == 1.0, f"{workload}: token match {match:.4f} < 1")
    return match


def write_reference(seeds: Sequence[int]) -> None:
    """Run one repetition of every workload per seed; write references."""
    import shutil
    import tempfile

    import workloads

    root = HERE.parent.parent
    for seed in seeds:
        data = {}
        for name in workloads.WORKLOADS:
            wl = workloads.make(name)
            wl.load()
            wl.build()
            inputs = wl.inputs(seed)
            workdir = tempfile.mkdtemp(prefix=".perf-work-", dir=root)
            try:
                raw = wl.run(inputs, workdir, lambda: None)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            rep = wl.summarize(raw, inputs)
            entry = {"digest": rep.digest, "quality": rep.quality}
            if rep.tokens_by_run:
                entry["tokens"] = rep.tokens_by_run
            data[name] = entry
        REFERENCE_DIR.mkdir(exist_ok=True)
        reference_path(seed).write_text(json.dumps(data, sort_keys=True) + "\n")
        print(f"wrote {reference_path(seed)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write-reference", action="store_true", required=True)
    parser.add_argument("--seed", type=int, action="append")
    args = parser.parse_args(argv)
    write_reference(args.seed or list(REFERENCE_SEEDS))
    return 0


if __name__ == "__main__":
    # the same single-threaded BLAS as the benchmark processes, set
    # before NumPy is first imported
    import run

    os.environ.update(run.CHILD_ENV)
    sys.path.insert(0, str(run.SRC))
    sys.exit(main())
