"""Seeded random position sequences for the reducer tests and gate 6."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable

from boxcert.geometry import RatLike, format_rat, parse_rat
from boxcert.trailgraph import YSequence


class GenerationFailed(Exception):
    """The walk generator exhausted its retry budget."""


def random_y_sequence(
    length: RatLike,
    step_pool: Iterable[RatLike],
    seed: int,
    *,
    max_steps: int = 64,
    retries: int = 200,
) -> YSequence:
    """A seeded random walk from 0 to ``length`` inside [0, length].

    Steps are drawn (signed) from ``step_pool``; a move that lands exactly on
    the endpoint is always taken, so the walk terminates as soon as it can.
    Attempts that wander too long are retried up to ``retries`` times; if the
    endpoint is unreachable (or never hit within the budget) this raises
    :class:`GenerationFailed`.
    """
    target = parse_rat(length)
    pool = sorted({parse_rat(s) for s in step_pool})
    if target <= 0:
        raise ValueError(f"length must be positive, got {format_rat(target)}")
    if not pool:
        raise ValueError("step pool must be nonempty")
    if any(s <= 0 for s in pool):
        raise ValueError("step pool entries must be positive")
    rng = random.Random(seed)
    pool_set = set(pool)
    for _ in range(retries):
        pos = Fraction(0)
        points = [pos]
        for _ in range(max_steps):
            if target - pos in pool_set:
                points.append(target)
                return YSequence(axis=1, length=target, points=tuple(points))
            moves = [pos + s for s in pool if pos + s < target]
            moves += [pos - s for s in pool if pos - s >= 0]
            if not moves:
                break
            pos = rng.choice(moves)
            points.append(pos)
    raise GenerationFailed(
        f"no walk from 0 to {format_rat(target)} with steps "
        f"{{{', '.join(format_rat(s) for s in pool)}}} found (seed {seed})"
    )
