"""Operation timing in calm-core seconds.

On the 2-core VM this benchmark was sized on, the host is shared and the
speed of a core drifts: a fixed pure-Python loop ran up to 1.87x slower from
one 5-second window to the next, in wall and CPU time alike, with no steal
time recorded.  Raw wall times of identical runs spread by 15-20%.

So the clock times a fixed reference job between operations and scales each
operation by the mean pace just before and just after it.  The reference
uses no boxcert, so a change in boxcert moves the operation's time and not
the scale.
"""
from __future__ import annotations

import json
import statistics
from fractions import Fraction
from time import perf_counter
from typing import Any, Callable

# reference_work() on an idle core of that VM (Python 3.11, 2.1 GHz); it only
# fixes the scale, so that on a calm core the times read as wall seconds.
REF_CALM_S = 0.0022
REF_REPEATS = 5


def reference_work() -> None:
    """Fixed work of the program's kind (fractions, dicts, JSON)."""
    table = {}
    for i in range(1, 600):
        f = Fraction(i % 37 + 1, i % 11 + 2) + Fraction(i, 7)
        table[(f.numerator, i)] = [str(f), i]
    json.loads(json.dumps(sorted(table.values())))


def pace() -> float:
    """How much faster than calm the core runs now: REF_CALM_S / reference time."""
    times = []
    for _ in range(REF_REPEATS):
        start = perf_counter()
        reference_work()
        times.append(perf_counter() - start)
    return REF_CALM_S / statistics.median(times)


class Clock:
    """Times calls; each call's scale is the mean pace just before and after it."""

    def __init__(self) -> None:
        self._last = pace()
        self._wall = self._calm = 0.0

    def scaled(self, seconds: float) -> float:
        """``seconds`` of wall time that just ended, in calm-core seconds."""
        now = pace()
        scale = (self._last + now) / 2
        self._last = now
        self._wall += seconds
        self._calm += seconds * scale
        return seconds * scale

    @property
    def mean_pace(self) -> float:
        """Calm-core over wall seconds, over everything scaled so far."""
        return self._calm / self._wall if self._wall else 1.0

    def time(self, fn: Callable[[], Any]) -> tuple[Any, float, float]:
        """(result or the exception raised, calm-core seconds, wall seconds)."""
        start = perf_counter()
        try:
            result = fn()
        except Exception as exc:  # counted against the operation by the caller
            result = exc
        wall = perf_counter() - start
        return result, self.scaled(wall), wall
