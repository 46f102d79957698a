"""Count garbage collections per operation kind in one benchmark run.

    python3 tools/gcprofile.py --workload row --seed 1 --seconds 14

Takes ``perfbench/run.py``'s arguments and runs its ``main`` in this process,
so the run prints its own metrics as usual.  While the timed loop runs, a
``gc.callbacks`` hook counts each collection, by generation, and its pause,
under the operation that was running when it started: ``certify``,
``check`` or ``reject`` (``perfbench/run.py``'s ``certify_op``, ``check_op``
and ``reject_op``), or ``harness`` for everything else in the loop (timing,
mutation, bookkeeping).  The hook only counts: it changes no threshold and
starts no collection.  A run's tail latency is a high percentile, so it
carries a full (generation-2) collection's pause as soon as enough
operations of one kind host one; the table shows which kind does.

After the run's own output, one line per kind, then the counts as one JSON
line (the last line of stdout).
"""
from __future__ import annotations

import gc
import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402  (perfbench/run.py, found through the path above)

KINDS = ("certify", "check", "reject", "harness")


class Profile:
    """Collections and pause seconds per operation kind."""

    def __init__(self) -> None:
        self.counts = {kind: [0, 0, 0] for kind in KINDS}
        self.pause = dict.fromkeys(KINDS, 0.0)
        self.kind = None  # None outside the timed loop
        self.started = None  # (kind, time) of the collection in progress

    def hook(self, phase: str, info: dict) -> None:
        if phase == "start":
            self.started = (self.kind, perf_counter()) if self.kind else None
        elif self.started is not None:
            kind, t0 = self.started
            self.counts[kind][info["generation"]] += 1
            self.pause[kind] += perf_counter() - t0
            self.started = None

    def during(self, kind: str, fn):
        """``fn``, with its collections counted under ``kind``."""

        def wrapped(*args, **kwargs):
            outer, self.kind = self.kind, kind
            try:
                return fn(*args, **kwargs)
            finally:
                self.kind = outer

        return wrapped

    def rows(self) -> dict[str, dict[str, float]]:
        return {
            kind: {
                "gen0": self.counts[kind][0],
                "gen1": self.counts[kind][1],
                "gen2": self.counts[kind][2],
                "pause_s": round(self.pause[kind], 6),
            }
            for kind in KINDS
        }


def main(argv=None) -> int:
    profile = Profile()
    run.measure = profile.during("harness", run.measure)
    run.certify_op = profile.during("certify", run.certify_op)
    run.check_op = profile.during("check", run.check_op)
    run.reject_op = profile.during("reject", run.reject_op)
    gc.callbacks.append(profile.hook)
    try:
        code = run.main(argv)
    finally:
        gc.callbacks.remove(profile.hook)
    rows = profile.rows()
    print("gc collections in the timed loop, by the operation that hosted them:")
    for kind, row in rows.items():
        print(
            f"  {kind:8} gen0 {row['gen0']:6d}  gen1 {row['gen1']:5d}  "
            f"gen2 {row['gen2']:4d}  pause {row['pause_s']:.6f} s"
        )
    print(json.dumps({"gc": rows}))
    return code


if __name__ == "__main__":
    sys.exit(main())
