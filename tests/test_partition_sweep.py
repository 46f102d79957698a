"""Partition validation against an all-pairs oracle.

``validate_partition`` decides by counting the boxes' signed corners
(``geometry._tiles``) and accepts a tiling without testing any pair of boxes.
Only a rejected partition gets a report, and it tests no pair either: it
lists the degenerate and the escaping boxes and names one cell where the
cover is wrong, at the lexicographically smallest point where the corner
counts differ.  The oracles below work on the exact Fractions and live only
here, so they stay independent: the plain all-pairs loop, and the signed
corner count with its cell.  The decision must match the all-pairs verdict;
the degenerate and not-contained defects must agree with it exactly; the
named cell must be exactly the oracle's, with exactly the boxes that cover
it, and a named pair must be one the all-pairs loop finds overlapping.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from fractions import Fraction
from typing import Optional

import pytest

from boxcert import factory, geometry
from boxcert.errors import SoundnessError
from boxcert.geometry import (
    Box,
    Defect,
    Partition,
    ValidationReport,
    format_rat,
    interiors_disjoint,
    rank_partition,
    validate_partition,
)

_F = Fraction


def pairwise_validate(p: Partition) -> ValidationReport:
    """Independent oracle: every pair of proper boxes gets the exact test."""
    defects: list[Defect] = []
    outer = p.outer
    if outer.is_degenerate():
        defects.append(
            Defect("degenerate", (), f"outer box {outer} has a non-positive side")
        )
    for k, b in enumerate(p.boxes, start=1):
        if b.is_degenerate():
            defects.append(Defect("degenerate", (k,), f"box {b} has a non-positive side"))
        elif not outer.contains_box(b):
            defects.append(
                Defect("not-contained", (k,), f"box {b} is not inside outer {outer}")
            )
    solid = [(k, b) for k, b in enumerate(p.boxes, start=1) if not b.is_degenerate()]
    for i, (ka, a) in enumerate(solid):
        for kb, b in solid[i + 1 :]:
            if not interiors_disjoint(a, b):
                lo = tuple(max(al, bl) for al, bl in zip(a.lo, b.lo))
                hi = tuple(min(ah, bh) for ah, bh in zip(a.hi, b.hi))
                defects.append(
                    Defect("interior-overlap", (ka, kb), f"common interior {Box(lo, hi)}")
                )
    if not defects:
        total = sum((b.volume() for b in p.boxes), _F(0))
        if total != outer.volume():
            defects.append(
                Defect(
                    "volume-mismatch",
                    (),
                    f"boxes cover volume {format_rat(total)} of "
                    f"{format_rat(outer.volume())}: the cover has gaps",
                )
            )
    return ValidationReport(
        box_count=len(p.boxes), outer=outer, defects=tuple(defects)
    )


def _with_boxes(p: Partition, boxes) -> Partition:
    return Partition(p.dim, p.outer, tuple(boxes))


def _shuffled(p: Partition, rng: random.Random) -> Partition:
    boxes = list(p.boxes)
    rng.shuffle(boxes)
    return _with_boxes(p, boxes)


def _perturbed(p: Partition, rng: random.Random) -> Partition:
    """Move 1-3 box coordinates: overlaps, escapes, gaps, and degenerate boxes."""
    boxes = list(p.boxes)
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(boxes))
        j = rng.randrange(p.dim)
        side = rng.choice(("lo", "hi"))
        coords = list(getattr(boxes[k], side))
        coords[j] += rng.choice((_F(-1), _F(-1, 2), _F(-1, 7), _F(1, 7), _F(1, 2), _F(1)))
        lo, hi = (coords, boxes[k].hi) if side == "lo" else (boxes[k].lo, coords)
        boxes[k] = Box(tuple(lo), tuple(hi))
    return _with_boxes(p, boxes)


def _grid(cols: int, rows: int) -> Partition:
    """``cols`` x ``rows`` unit squares, numbered row by row."""
    boxes = [
        Box((_F(i), _F(j)), (_F(i + 1), _F(j + 1)))
        for j in range(rows)
        for i in range(cols)
    ]
    return Partition(2, Box((_F(0), _F(0)), (_F(cols), _F(rows))), tuple(boxes))


def _prime_row(n: int = 200) -> Partition:
    """``n`` strips cut at ``i + 1/p_i``, one distinct prime ``p_i`` per cut.

    The outer box ends at the last cut, so the exact volumes have ``n``
    distinct prime denominators between them.
    """
    primes: list[int] = []
    m = 2
    while len(primes) < n:
        if all(m % q for q in primes if q * q <= m):
            primes.append(m)
        m += 1
    cuts = [_F(0)] + [i + _F(1, q) for i, q in enumerate(primes, start=1)]
    boxes = tuple(
        Box((lo, _F(0)), (hi, _F(1))) for lo, hi in zip(cuts, cuts[1:])
    )
    return Partition(2, Box((_F(0), _F(0)), (cuts[-1], _F(1))), boxes)


def cell_defect(p: Partition) -> Optional[Defect]:
    """Independent oracle for the report's cell, on exact points: the lower
    corner is the lexicographically smallest point where the nondegenerate
    boxes' signed corner counts differ from the outer box's, and the cell
    reaches the next coordinate on each axis.  None when the counts agree or
    the cell lies outside the outer box."""
    solid = [b for b in p.boxes if not b.is_degenerate()]
    delta: Counter = Counter()
    for sign, boxes in ((1, solid), (-1, [p.outer])):
        for b in boxes:
            for bits, corner in enumerate(b.corners()):
                delta[corner] += sign * (-1) ** bin(bits).count("1")
    unbalanced = [c for c, n in delta.items() if n]
    if not unbalanced:
        return None
    lo = min(unbalanced)
    if not all(ol <= c < oh for ol, c, oh in zip(p.outer.lo, lo, p.outer.hi)):
        return None
    shapes = (p.outer,) + p.boxes
    hi = tuple(
        min(v for b in shapes for v in (b.lo[j], b.hi[j]) if v > c)
        for j, c in enumerate(lo)
    )
    cell = Box(lo, hi)
    covering = []
    for k, b in enumerate(p.boxes, start=1):
        if b.is_degenerate() or interiors_disjoint(cell, b):
            continue
        assert b.contains_box(cell)  # no face of any box cuts the cell
        covering.append(k)
    assert len(covering) != 1, "the corner counts differ at a tiled cell"
    return Defect(
        "interior-overlap" if covering else "gap",
        tuple(covering[:2]),
        f"cell {cell} is covered by {len(covering)} boxes; "
        f"the corner counts differ at {len(unbalanced)} points",
    )


def _assert_agree(p: Partition) -> ValidationReport:
    expected = pairwise_validate(p)
    report = validate_partition(p)
    assert report.ok == expected.ok, expected.summary()
    boxwise = tuple(
        d for d in expected.defects if d.kind in ("degenerate", "not-contained")
    )
    cell = cell_defect(p)
    assert report.defects == boxwise + ((cell,) if cell else ()), expected.summary()
    if cell is not None and cell.kind == "interior-overlap":
        pairs = {d.boxes for d in expected.defects if d.kind == "interior-overlap"}
        assert cell.boxes in pairs
    return report


@pytest.mark.parametrize("dim", [2, 3])
def test_sweep_matches_oracle_on_random_guillotine_partitions(dim):
    rng = random.Random(dim)
    overlapping = 0
    named: Counter = Counter()
    for seed in range(60):
        p = factory.random_guillotine(dim, 6 if dim == 2 else 4, seed)
        assert _assert_agree(_shuffled(p, rng)).ok
        for _ in range(3):
            case = _shuffled(_perturbed(p, rng), rng)
            named.update(d.kind for d in _assert_agree(case).defects)
            overlapping += any(
                d.kind == "interior-overlap" for d in pairwise_validate(case).defects
            )
    # the perturbed cases really do exercise overlaps, and the report names
    # cells of both kinds
    assert overlapping >= 40
    assert min(named["interior-overlap"], named["gap"]) >= 20, named


def test_sweep_matches_oracle_on_degenerate_and_duplicated_boxes():
    rng = random.Random(7)
    for seed in range(40):
        p = factory.random_guillotine(2 + seed % 2, 5, seed)
        boxes = list(p.boxes)
        for _ in range(rng.randint(1, 3)):
            boxes.append(rng.choice(p.boxes))  # an exact duplicate
        b = rng.choice(p.boxes)
        j = rng.randrange(p.dim)
        flat = list(b.hi)
        flat[j] = b.lo[j]  # zero width on axis j
        boxes.append(Box(b.lo, tuple(flat)))
        boxes.append(Box(b.hi, b.lo))  # inverted on every axis
        report = _assert_agree(_shuffled(_with_boxes(p, boxes), rng))
        kinds = {d.kind for d in report.defects}
        assert {"degenerate", "interior-overlap"} <= kinds
    dup = _grid(3, 3)
    _assert_agree(_with_boxes(dup, dup.boxes + dup.boxes))
    # two copies of a box that escapes on the left: the first unbalanced cell
    # lies outside the outer box, where not-contained already names them
    wide = Box((_F(-1), _F(0)), (_F(1), _F(1)))
    right = Box((_F(1), _F(0)), (_F(2), _F(1)))
    outer = Box((_F(0), _F(0)), (_F(2), _F(1)))
    report = _assert_agree(Partition(2, outer, (wide, wide, right)))
    assert [(d.kind, d.boxes) for d in report.defects] == [
        ("not-contained", (1,)),
        ("not-contained", (2,)),
    ]
    # one cut of the prime-denominator row nudged into its right neighbour
    row = _prime_row()
    boxes = list(row.boxes)
    b = boxes[99]
    boxes[99] = Box(b.lo, (b.hi[0] + _F(1, 1000003), b.hi[1]))
    report = _assert_agree(_with_boxes(row, boxes))
    assert [(d.kind, d.boxes) for d in report.defects] == [("interior-overlap", (100, 101))]


def test_a_thousand_duplicates_name_one_cell_and_its_two_first_boxes():
    unit = Box((_F(0), _F(0)), (_F(1), _F(1)))
    p = Partition(2, unit, (unit,) * 1000)
    # all 499,500 pairs overlap; the report names the one cell they share
    summary = validate_partition(p).summary()
    assert summary == (
        "INVALID: 1 defect(s)\n"
        "  - interior-overlap (k=1,k=2): cell [0, 1] x [0, 1] is covered by "
        "1000 boxes; the corner counts differ at 4 points"
    )
    assert len(summary.encode()) < 16_000


def test_sweep_matches_oracle_when_boxes_only_touch():
    # every neighbour pair shares a face or a corner, and none overlaps
    assert _assert_agree(_grid(6, 5)).ok
    # checkerboard: the kept squares meet only at corners, so only a gap shows
    board = _grid(6, 6)
    kept = [b for b in board.boxes if (b.lo[0] + b.lo[1]) % 2 == 0]
    report = _assert_agree(_with_boxes(board, kept))
    assert [(d.kind, d.boxes) for d in report.defects] == [("gap", ())]
    assert report.defects[0].detail.startswith("cell [0, 1] x [1, 2] ")
    # 3D: eight unit cubes around the centre, touching on faces, edges, corners
    cubes = tuple(
        Box((_F(x), _F(y), _F(z)), (_F(x + 1), _F(y + 1), _F(z + 1)))
        for x in (0, 1)
        for y in (0, 1)
        for z in (0, 1)
    )
    outer = Box((_F(0),) * 3, (_F(2),) * 3)
    assert _assert_agree(Partition(3, outer, cubes)).ok
    assert not _assert_agree(Partition(3, outer, cubes[::2])).ok
    # strips whose cuts have 200 distinct prime denominators; a missing strip
    # leaves a gap, named by its exact cut points
    row = _prime_row()
    assert _assert_agree(row).ok
    report = _assert_agree(_with_boxes(row, row.boxes[:77] + row.boxes[78:]))
    assert [(d.kind, d.boxes) for d in report.defects] == [("gap", ())]
    assert report.defects[0].detail.startswith("cell [29954/389, 30967/397] x [0, 1] ")


@pytest.fixture
def pair_tests(monkeypatch) -> list[int]:
    """Count calls of ``geometry.interiors_disjoint``; read as ``pair_tests[0]``."""
    calls = [0]

    def counting(a, b):
        calls[0] += 1
        return interiors_disjoint(a, b)

    monkeypatch.setattr(geometry, "interiors_disjoint", counting)
    return calls


def test_sweep_on_a_grid_tests_far_fewer_pairs_than_all_pairs(pair_tests):
    k = 40
    grid = _grid(k, k)
    # the corner count accepts the tiling without a single pair test
    assert validate_partition(grid).ok
    assert pair_tests[0] == 0
    # one box nudged into its right neighbour: the report reads the corner
    # count too, where all pairs would be k**2 * (k**2 - 1) / 2 = 1,279,200
    # tests
    boxes = list(grid.boxes)
    b = boxes[k * k // 2]
    boxes[k * k // 2] = Box(b.lo, (b.hi[0] + _F(1, 2), b.hi[1]))
    report = validate_partition(_with_boxes(grid, boxes))
    assert [(d.kind, d.boxes) for d in report.defects] == [
        ("interior-overlap", (801, 802))
    ]
    assert report.defects[0].detail.startswith("cell [1, 3/2] x [20, 21] ")
    assert pair_tests[0] == 0


def test_an_invalid_grid_is_reported_within_twice_the_decision_time():
    k = 200
    grid = _grid(k, k)
    boxes = list(grid.boxes)
    b = boxes[k * k // 2]
    boxes[k * k // 2] = Box(b.lo, (b.hi[0] + _F(1, 2), b.hi[1]))
    widened = _with_boxes(grid, boxes)
    valid, invalid = [], []
    for _ in range(3):  # alternating, best of 3 each
        for p, times in ((grid, valid), (widened, invalid)):
            start = time.perf_counter()
            validate_partition(p)
            times.append(time.perf_counter() - start)
    assert min(invalid) < 2 * min(valid), (valid, invalid)


@pytest.mark.parametrize("cols,rows", [(1, 400), (400, 1)])
def test_sweep_on_a_line_of_strips_tests_no_pair(pair_tests, cols, rows):
    assert validate_partition(_grid(cols, rows)).ok
    assert pair_tests[0] == 0


def _tiles(p: Partition) -> bool:
    return geometry._tiles(rank_partition(p))


@pytest.mark.parametrize("dim,depth", [(2, 5), (3, 4), (4, 3)])
def test_corner_count_decides_as_the_oracle_does(dim, depth):
    rng = random.Random(100 + dim)
    verdicts = {True: 0, False: 0}
    named: Counter = Counter()
    for seed in range(175):
        p = factory.random_guillotine(dim, depth, seed)
        boxes = list(p.boxes)
        k = rng.randrange(len(boxes))
        cases = [
            p,
            _perturbed(p, rng),
            _with_boxes(p, boxes + [boxes[k]]),  # a duplicate
            _with_boxes(p, boxes[:k] + boxes[k + 1 :] or boxes),  # one dropped
        ]
        for case in cases:
            case = _shuffled(case, rng)
            report = _assert_agree(case)
            assert _tiles(case) == report.ok, case
            verdicts[report.ok] += 1
            named.update(d.kind for d in report.defects)
    assert sum(verdicts.values()) == 700 and min(verdicts.values()) >= 175
    # both kinds of named cell occur in every dimension
    assert min(named["gap"], named["interior-overlap"]) >= 100, named


def _cubes(k: int) -> Partition:
    """``k`` x ``k`` x ``k`` unit cubes."""
    cubes = tuple(
        Box((_F(x), _F(y), _F(z)), (_F(x + 1), _F(y + 1), _F(z + 1)))
        for x in range(k)
        for y in range(k)
        for z in range(k)
    )
    return Partition(3, Box((_F(0),) * 3, (_F(k),) * 3), cubes)


def _inverted_twin() -> Partition:
    # in 3-D the inverted copy's corners cancel the copy's, so the counts
    # equal the tiling's
    p = _cubes(2)
    b = p.boxes[3]
    return _with_boxes(p, p.boxes + (b, Box(b.hi, b.lo)))


def _zero_width() -> Partition:
    p = _grid(3, 2)
    b = p.boxes[4]
    return _with_boxes(p, p.boxes + (Box(b.lo, (b.lo[0], b.hi[1])),))


def _shifted_by_own_width() -> Partition:
    # box 2 moved onto box 3: the overlap and the gap have the same volume
    p = _grid(4, 1)
    b = p.boxes[1]
    moved = Box((b.hi[0], b.lo[1]), (2 * b.hi[0] - b.lo[0], b.hi[1]))
    return _with_boxes(p, p.boxes[:1] + (moved,) + p.boxes[2:])


def _inverted_outer() -> Partition:
    # in 2-D an outer box inverted on both axes has the upright one's corners
    p = _grid(3, 3)
    return Partition(2, Box(p.outer.hi, p.outer.lo), p.boxes)


@pytest.mark.parametrize(
    "make",
    [_inverted_twin, _zero_width, _shifted_by_own_width, _inverted_outer],
    ids=["inverted-twin", "zero-width", "shifted-by-own-width", "inverted-outer"],
)
def test_corner_count_rejects_what_cancels_or_balances(make):
    p = make()
    assert not _tiles(p)
    assert not _assert_agree(p).ok


def test_shifted_box_keeps_the_volume_sum():
    p = _shifted_by_own_width()
    assert sum(b.volume() for b in p.boxes) == p.outer.volume()
    # the overlap on [2, 3] has the gap it left on [1, 2] below it
    assert [str(d) for d in validate_partition(p).defects] == [
        "gap: cell [1, 2] x [0, 1] is covered by 0 boxes; "
        "the corner counts differ at 6 points"
    ]


@pytest.mark.parametrize(
    "make",
    [
        lambda: _grid(200, 200),
        lambda: _cubes(10),
        lambda: factory.lift_product(factory.pinwheel_partition(3, 5, 1), 2, 4),
        lambda: factory.lift_product(_grid(6, 5), _F(7, 3), 4),
    ],
    ids=["grid-200x200", "cubes-10x10x10", "pinwheel-4d", "grid-4d"],
)
def test_valid_partitions_are_accepted_without_a_pair_test(pair_tests, make):
    assert validate_partition(make()).ok
    assert pair_tests[0] == 0


def test_a_decision_the_defect_checks_cannot_explain_is_a_soundness_error(
    monkeypatch,
):
    monkeypatch.setattr(geometry, "_tiles", lambda view: False)
    with pytest.raises(SoundnessError, match="no defect is found"):
        validate_partition(_grid(3, 3))
