"""Seeded instance generators for the boxcert benchmark, with their oracles.

Every workload builds its partitions itself, as the JSON payload a user would
hand to ``boxcert certify``, and knows by construction which side the
certificate must claim.  Nothing here imports boxcert: the generators and the
expected answers are independent of the program under test.

A workload spreads its size parameter over a band.  The pool of one run has
one instance per stratum of the band, at the same size for every seed.  The
seed picks every other detail (widths, heights, numerators), which moves the
cost of an instance much less than its size does.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, lcm
from typing import Callable

POOL = 16  # instances per run, one per stratum


@dataclass(frozen=True)
class Spec:
    """One generated instance: the program's inputs plus the expected claim."""

    label: str
    partition: dict  # partition JSON payload, as ``partition_from_json`` reads it
    gens: tuple[str, ...]  # generator values as "p/q" strings
    length: Fraction  # the outer side the certificate must claim
    axes: tuple[int, ...]  # the 1-based axes on which that claim is right


@dataclass(frozen=True)
class Workload:
    name: str
    band: str
    #: (rng, stratum, u, tiny) -> Spec; u = stratum / POOL, the place in the band
    make: Callable[[random.Random, int, float, bool], Spec]


def rat(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _box(lo, hi) -> dict:
    return {"lo": [rat(Fraction(c)) for c in lo], "hi": [rat(Fraction(c)) for c in hi]}


def _partition(outer_hi, boxes) -> dict:
    return {"dim": 2, "outer": _box((0, 0), outer_hi), "boxes": [_box(lo, hi) for lo, hi in boxes]}


def _strip_boxes(x: Fraction, y: Fraction):
    s = x + y
    return (s, s), [((0, 0), (x, s)), ((x, 0), (s, s))]


def _pinwheel_boxes(x: Fraction, y: Fraction, z: Fraction):
    # Square of side x + y - z: four rectangles winding round a z-by-z centre.
    s = x + y - z
    return (s, s), [
        ((0, 0), (y - z, x)),
        ((0, x), (y, s)),
        ((y, x - z), (s, s)),
        ((y - z, 0), (s, x - z)),
        ((y - z, x - z), (y, x)),
    ]


def _columns(widths, heights):
    xs, ys = [Fraction(0)], [Fraction(0)]
    for w in widths:
        xs.append(xs[-1] + w)
    for h in heights:
        ys.append(ys[-1] + h)
    boxes = [
        ((xs[i], ys[j]), (xs[i + 1], ys[j + 1]))
        for j in range(len(heights))
        for i in range(len(widths))
    ]
    return (xs[-1], ys[-1]), boxes


def second_shape(stratum: int) -> bool:
    # One stratum in four, spread over the band.
    return stratum % 4 == 0


def _spec(label, outer_hi, boxes, gens, length, axes) -> Spec:
    return Spec(
        label=label,
        partition=_partition(outer_hi, boxes),
        gens=tuple(sorted(rat(Fraction(g)) for g in set(gens))),
        length=Fraction(length),
        axes=axes,
    )


# --- grid: validation --------------------------------------------------------


# (columns, rows) with 16 distinct box counts from 320 to 400, so that the
# cost of validation (quadratic in the box count) climbs in small steps.
GRID_SHAPES = sorted(
    ((k, m) for k in range(16, 21) for m in range(k, 23) if 320 <= k * m <= 400),
    key=lambda km: (km[0] * km[1], km),
)


def make_grid(rng: random.Random, stratum: int, u: float, tiny: bool) -> Spec:
    # Integer column widths are the generators; row heights have denominator 7,
    # so no height is in the (integer) closure and every box is assigned the
    # x axis.  The trail then runs along the bottom edge: axis 1, length W.
    cols, rows = (3 + int(u * 2),) * 2 if tiny else GRID_SHAPES[int(u * len(GRID_SHAPES))]
    widths = [Fraction(rng.randint(1, 7)) for _ in range(cols)]
    heights = [Fraction(rng.randint(7, 34), 7) for _ in range(rows)]
    heights = [h if h.denominator != 1 else h + Fraction(1, 7) for h in heights]
    outer, boxes = _columns(widths, heights)
    return _spec(f"grid {cols}x{rows}", outer, boxes, widths, outer[0], (1,))


# --- row: reducer and trail check --------------------------------------------


def _row(rng: random.Random, n: int) -> Spec:
    # One row of n full-height strips whose widths are the generators: the
    # trail has n steps along the bottom edge, and the y-sequence n + 1 points.
    widths = [Fraction(rng.randint(2, 9)) for _ in range(n)]
    height = Fraction(rng.randint(4, 20), 3)
    outer, boxes = _columns(widths, [height])
    return _spec(f"row n={n}", outer, boxes, widths, outer[0], (1,))


def make_row(rng: random.Random, stratum: int, u: float, tiny: bool) -> Spec:
    return _row(rng, 8 + int(u * 8) if tiny else 270 + int(u * 64))


def make_row_deep(rng: random.Random, stratum: int, u: float, tiny: bool) -> Spec:
    return _row(rng, 480 + int(u * 96))


# --- coprime: closure --------------------------------------------------------

COPRIME_DENOMS = (5, 7, 11, 13)


def closure_size(gens: list[Fraction], bound: Fraction, cap: int) -> int:
    """Number of closure elements <= bound (or some count > cap), by shift-or
    saturation on a bitset.

    Written here apart from boxcert so that the generator can aim at an
    element-count band without asking the program under test.  The count only
    grows from round to round, so it stops as soon as it passes ``cap``.
    """
    gens = [g for g in gens if g <= bound]
    q = lcm(*(g.denominator for g in gens))
    limit = bound.numerator * q // bound.denominator
    full = (1 << (limit + 1)) - 2
    mask = 0
    for g in gens:
        mask |= 1 << int(g * q)
    while True:
        els = [v for v in range(limit + 1) if mask >> v & 1]
        if len(els) > cap:
            return len(els)
        new = 0
        for v in els:
            new |= mask << v  # sums v + w
        pair_sums = suffix = 0
        for v in reversed(els):  # triples b + c - a with a <= b <= c
            suffix |= 1 << v
            pair_sums |= suffix << v
            new |= pair_sums >> v
        new &= full
        if new | mask == mask:
            return len(els)
        mask |= new


def make_coprime(rng: random.Random, stratum: int, u: float, tiny: bool) -> Spec:
    # Three generators with pairwise coprime denominators put the closure on a
    # fine grid; cost follows the element count, so redraw until it lands in
    # the band.  A quarter of the instances are strips that carry the third
    # generator too, so that their closure is as large as a pinwheel's.
    strip = second_shape(stratum)
    if tiny:
        lo, hi, gap = 10, 700, (0, 1)
    else:
        lo, hi = 950, 1050
        gap = (1, 3) if strip else (2, 5)  # x - z and y - z; these hit the band most
    while True:
        dx, dy, dz = rng.sample(COPRIME_DENOMS, 3)
        z = Fraction(rng.randint(dz, 2 * dz), dz)
        x = Fraction(rng.randint(ceil((z + gap[0]) * dx), floor((z + gap[1]) * dx)), dx)
        y = Fraction(rng.randint(ceil((z + gap[0]) * dy), floor((z + gap[1]) * dy)), dy)
        if (x.denominator, y.denominator, z.denominator) != (dx, dy, dz):
            continue  # a numerator cancelled: denominators no longer coprime
        side = x + y if strip else x + y - z
        if not lo <= closure_size([x, y, z], side, hi) <= hi:
            continue
        if strip:
            outer, boxes = _strip_boxes(x, y)
            return _spec("coprime strip", outer, boxes, (x, y, z), side, (1,))
        outer, boxes = _pinwheel_boxes(x, y, z)
        return _spec("coprime pinwheel", outer, boxes, (x, y, z), side, (1, 2))


# --- bigcert: certificate size and JSON --------------------------------------


def make_bigcert(rng: random.Random, stratum: int, u: float, tiny: bool) -> Spec:
    # Over the generator {1} every integer is in the closure and derivations
    # grow with the side, so the certificate grows linearly with it.
    side = 16 + int(u * 16) if tiny else 4800 + int(u * 1700)
    if second_shape(stratum):
        z = rng.randint(1, side // 4)
        x = rng.randint(z + 1, side - 1)
        y = side + z - x
        outer, boxes = _pinwheel_boxes(Fraction(x), Fraction(y), Fraction(z))
        return _spec(f"bigcert pinwheel s={side}", outer, boxes, (1,), side, (1, 2))
    x = rng.randint(side // 3, 2 * side // 3)
    outer, boxes = _strip_boxes(Fraction(x), Fraction(side - x))
    return _spec(f"bigcert strip s={side}", outer, boxes, (1,), side, (1,))


# Why each workload was chosen is in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "grid",
            "k x m grids, k and m in 16..22, 320..400 boxes; widths 1..7 are the "
            "generators; heights p/7",
            make_grid,
        ),
        Workload(
            "coprime",
            "closure size 950..1050 elements; denominators from {5, 7, 11, 13}",
            make_coprime,
        ),
        Workload("bigcert", "outer side 4800..6400; 1 in 4 a pinwheel", make_bigcert),
        Workload("row", "N in 270..330 strips; widths 2..9 are the generators", make_row),
        Workload(
            "row-deep",
            "N in 480..570 strips, across the depth where serialization fails",
            make_row_deep,
        ),
    )
}


def generate(name: str, seed: int, tiny: bool = False, pool: int = POOL) -> list[Spec]:
    """The run's pool of instances for ``seed``, one per stratum of the band."""
    w = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    return [w.make(rng, s, s / pool, tiny) for s in range(pool)]
