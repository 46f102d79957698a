"""Constructors for the partitions the certifier is exercised on.

The two named families are the necessity witnesses for the closure
operations: a square split into two full-height strips forces ``x + y``, and
the five-box pinwheel square forces ``x + y - z``.  ``lift_product`` turns
either 2D witness into an n-dimensional one; ``random_guillotine`` and
``hypothesis_instance`` produce seeded random instances for property tests.
"""
from __future__ import annotations

import random
from fractions import Fraction

from .closure import GeneratorSet
from .geometry import Box, Partition
from .kernel import RatLike, format_rat, parse_rat


def strip_partition(x: RatLike, y: RatLike) -> Partition:
    """Square of side ``x + y`` cut into two full-height vertical strips.

    The strips have widths x and y; every side of either strip is x, y, or
    x + y, so with generators {x, y} the square's own side x + y must be
    derivable — by a single sum.
    """
    xf, yf = parse_rat(x), parse_rat(y)
    if xf <= 0 or yf <= 0:
        raise ValueError(
            f"strip widths must be positive, got {format_rat(xf)}, {format_rat(yf)}"
        )
    s = xf + yf
    zero = Fraction(0)
    outer = Box((zero, zero), (s, s))
    left = Box((zero, zero), (xf, s))
    right = Box((xf, zero), (s, s))
    return Partition(dim=2, outer=outer, boxes=(left, right))


def pinwheel_partition(x: RatLike, y: RatLike, z: RatLike) -> Partition:
    """Square of side ``x + y - z`` cut into five boxes pinwheel-fashion.

    Requires ``x > z > 0`` and ``y > z``.  Four rectangles wind around a
    central z-by-z square; every box has a side in {x, y, z}, so with those
    generators the square's side x + y - z must be derivable — by a single
    triple operation.

    Box order (1-based): left column (width y-z, height x), top row (width
    y), right column (height y), bottom row (width x), centre square.
    """
    xf, yf, zf = parse_rat(x), parse_rat(y), parse_rat(z)
    if not (xf > zf > 0 and yf > zf):
        raise ValueError(
            f"need x > z > 0 and y > z, got x={format_rat(xf)}, "
            f"y={format_rat(yf)}, z={format_rat(zf)}"
        )
    s = xf + yf - zf
    zero = Fraction(0)
    outer = Box((zero, zero), (s, s))
    boxes = (
        Box((zero, zero), (yf - zf, xf)),          # left column, height x
        Box((zero, xf), (yf, s)),                  # top row, width y
        Box((yf, xf - zf), (s, s)),                # right column
        Box((yf - zf, zero), (s, xf - zf)),        # bottom row, width x
        Box((yf - zf, xf - zf), (yf, xf)),         # centre z x z square
    )
    return Partition(dim=2, outer=outer, boxes=boxes)


def lift_product(p: Partition, length: RatLike, n: int) -> Partition:
    """Lift a 2D partition to dimension ``n`` by crossing with ``[0, L]^(n-2)``.

    Every box keeps its 2D footprint and spans the full new axes, so the
    partition property and every 2D side length are preserved verbatim.
    """
    if p.dim != 2:
        raise ValueError(f"can only lift 2D partitions, got dimension {p.dim}")
    if n < 2:
        raise ValueError(f"target dimension must be >= 2, got {n}")
    if n == 2:
        return p
    lf = parse_rat(length)
    if lf <= 0:
        raise ValueError(f"lift length must be positive, got {format_rat(lf)}")
    extra = n - 2
    zero = Fraction(0)

    def lift(b: Box) -> Box:
        return Box(b.lo + (zero,) * extra, b.hi + (lf,) * extra)

    return Partition(dim=n, outer=lift(p.outer), boxes=tuple(lift(b) for b in p.boxes))


def _grid_cuts(lo: Fraction, hi: Fraction, denom_bound: int) -> list[Fraction]:
    """All rationals strictly between lo and hi with denominator <= bound."""
    cuts: set[Fraction] = set()
    for q in range(1, denom_bound + 1):
        k = (lo.numerator * q) // lo.denominator + 1  # smallest k with k/q > lo
        while Fraction(k, q) < hi:
            if Fraction(k, q) > lo:
                cuts.add(Fraction(k, q))
            k += 1
    return sorted(cuts)


def random_guillotine(
    n: int,
    max_depth: int,
    seed: int,
    coord_denom_bound: int = 6,
) -> Partition:
    """Seeded random guillotine partition of a random cube ``[0, s]^n``.

    Recursively slices boxes by axis-orthogonal hyperplanes.  All cut
    coordinates (and the outer side s) are taken from the absolute grid of
    rationals with denominator <= ``coord_denom_bound``, so every box extent
    has a small denominator no matter how deep the recursion goes.
    Deterministic per seed.
    """
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    if max_depth < 0:
        raise ValueError(f"depth must be >= 0, got {max_depth}")
    if coord_denom_bound < 1:
        raise ValueError(f"denominator bound must be >= 1, got {coord_denom_bound}")
    rng = random.Random(seed)
    q = rng.randint(1, coord_denom_bound)
    side = Fraction(rng.randint(q, 4 * q), q)  # in [1, 4], denominator <= bound
    zero = Fraction(0)
    outer = Box((zero,) * n, (side,) * n)
    leaves: list[Box] = []

    def split(b: Box, depth: int) -> None:
        if depth >= max_depth or rng.random() < 0.25:
            leaves.append(b)
            return
        axis = rng.randint(1, n)
        cuts = _grid_cuts(b.lo[axis - 1], b.hi[axis - 1], coord_denom_bound)
        if not cuts:
            leaves.append(b)
            return
        cut = cuts[rng.randrange(len(cuts))]
        lo_hi = list(b.hi)
        lo_hi[axis - 1] = cut
        hi_lo = list(b.lo)
        hi_lo[axis - 1] = cut
        split(Box(b.lo, tuple(lo_hi)), depth + 1)
        split(Box(tuple(hi_lo), b.hi), depth + 1)

    split(outer, 0)
    return Partition(dim=n, outer=outer, boxes=tuple(leaves))


def hypothesis_instance(p: Partition, seed: int) -> tuple[Partition, GeneratorSet]:
    """Pair a partition with generators that make its premise true by fiat.

    For each box one axis is picked at random and its extent becomes a
    generator, so every box has at least one side in the generated set.
    Deterministic per seed.
    """
    rng = random.Random(seed)
    gens: set[Fraction] = set()
    for b in p.boxes:
        gens.add(b.extent(rng.randint(1, p.dim)))
    return p, GeneratorSet(frozenset(gens))
