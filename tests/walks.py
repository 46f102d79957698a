"""Seeded random position sequences for the reducer tests and gate 6."""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
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
    :class:`GenerationFailed`.  The walk runs on integers, every value scaled
    by the lcm ``q`` of the denominators, and its points become ``Fraction``
    only at the end.
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
    q = lcm(target.denominator, *(s.denominator for s in pool))
    end = target.numerator * (q // target.denominator)
    steps = [s.numerator * (q // s.denominator) for s in pool]
    step_set = set(steps)
    for _ in range(retries):
        pos = 0
        points = [pos]
        for _ in range(max_steps):
            if end - pos in step_set:
                points.append(end)
                return YSequence(
                    axis=1,
                    length=target,
                    points=tuple(Fraction(v, q) for v in points),
                )
            moves = [pos + s for s in steps if pos + s < end]
            moves += [pos - s for s in steps if pos - s >= 0]
            if not moves:
                break
            pos = rng.choice(moves)
            points.append(pos)
    raise GenerationFailed(
        f"no walk from 0 to {format_rat(target)} with steps "
        f"{{{', '.join(format_rat(s) for s in pool)}}} found (seed {seed})"
    )


def sampled_walks(
    seed: int, count: int, attempts: int
) -> list[tuple[int, list[Fraction], YSequence]]:
    """Up to ``count`` walks over random step pools, from at most ``attempts`` draws.

    Draw ``a`` picks a pool of one to four lengths (numerators 1..12 over 1, 2
    or 3) and a target that is a sum of one to six of them, then walks with
    seed ``9000 + a``; a draw whose walk fails is skipped.  Returns
    ``(walk seed, pool, walk)`` triples.
    """
    rng = random.Random(seed)
    walks: list[tuple[int, list[Fraction], YSequence]] = []
    for attempt in range(1, attempts + 1):
        if len(walks) == count:
            break
        pool = sorted(
            {
                Fraction(rng.randint(1, 12), rng.choice((1, 1, 2, 3)))
                for _ in range(rng.randint(1, 4))
            }
        )
        target = sum(rng.choice(pool) for _ in range(rng.randint(1, 6)))
        try:
            y = random_y_sequence(target, pool, seed=9000 + attempt)
        except GenerationFailed:
            continue  # unreachable target: a sampler miss, not a reducer bug
        walks.append((9000 + attempt, pool, y))
    return walks
