"""Workload worker: times repetitions of one workload command in a fresh process.

    python3 perfbench/worker.py SPEC.json RESULT.json

The parent prepares the inputs and passes the CLI arguments in SPEC.json.
The worker warms up, then repeats the command, each repetition writing to
an empty directory, until it has made `min_reps` repetitions and another
would end after `seconds` seconds. It records its peak resident memory.
With `trace`, it then makes one repetition under the tracer and one more
untraced repetition after it. Running in its own process keeps the
parent's set-up work out of the peak-memory figure.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest waited-for child, in MiB (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    from common import call_cli, warm_up
    from tracer import Tracer

    work = spec["work_dir"]
    problems = warm_up(spec["root"], os.path.join(work, "warm_worker"))
    if problems:
        print("\n".join(problems))
        return 1

    # Repeat until min_reps are done and one more would end after `seconds`.
    reps = []
    started = time.perf_counter()
    while True:
        out = os.path.join(work, f"rep_{len(reps)}")
        wall, code, log = call_cli(spec["argv"] + ["--out", out])
        reps.append({"out": out, "wall_s": wall, "code": code, "log": log[-4000:]})
        typical = statistics.median(r["wall_s"] for r in reps)
        if code != 0 or (len(reps) >= spec["min_reps"] and time.perf_counter() - started + typical > spec["seconds"]):
            break
    result = {"reps": reps, "peak_rss_mb": _peak_rss_mb(), "traced": None}

    if spec["trace"] and all(r["code"] == 0 for r in reps):
        out = os.path.join(work, "rep_traced")
        tracer = Tracer()
        tracer.install()
        try:
            wall, code, log = call_cli(spec["argv"] + ["--out", out], tracer)
        finally:
            leaked = tracer.restore()
        tracer.dump(os.path.join(work, "spans_workload.json"))
        # One more untraced repetition brackets the traced one, so the
        # overhead ratio compares it with runs made just before and after.
        out_after = os.path.join(work, f"rep_{len(reps)}")
        wall_after, code_after, log_after = call_cli(spec["argv"] + ["--out", out_after])
        reps.append({"out": out_after, "wall_s": wall_after, "code": code_after, "log": log_after[-4000:]})
        result["traced"] = {
            "out": out,
            "wall_s": wall,
            "code": code,
            "log": log[-4000:],
            "leaked": leaked,
            "stats": tracer.stats(),
        }

    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
