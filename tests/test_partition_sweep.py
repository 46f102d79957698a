"""Partition validation against an all-pairs oracle.

``validate_partition`` decides by counting the boxes' signed corners
(``geometry._tiles``) and accepts a tiling without testing any pair of boxes.
Only a rejected partition gets a report, whose overlapping boxes are found
with a sweep along one axis.  The oracle below is the plain all-pairs loop
both replaced; it lives only here, so they stay independent.  The decision
must match the oracle's verdict, reports must agree exactly (kinds, box
pairs, witness text and order), and the sweep must not fall back to testing
every pair.
"""

from __future__ import annotations

import random
from fractions import Fraction

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


def _assert_agree(p: Partition) -> ValidationReport:
    expected = pairwise_validate(p)
    assert validate_partition(p) == expected, expected.summary()
    return expected


@pytest.mark.parametrize("dim", [2, 3])
def test_sweep_matches_oracle_on_random_guillotine_partitions(dim):
    rng = random.Random(dim)
    overlapping = 0
    for seed in range(60):
        p = factory.random_guillotine(dim, 6 if dim == 2 else 4, seed)
        assert _assert_agree(_shuffled(p, rng)).ok
        for _ in range(3):
            report = _assert_agree(_shuffled(_perturbed(p, rng), rng))
            overlapping += any(d.kind == "interior-overlap" for d in report.defects)
    # the perturbed cases really do exercise the overlap path
    assert overlapping >= 40


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
    # one cut of the prime-denominator row nudged into its right neighbour
    row = _prime_row()
    boxes = list(row.boxes)
    b = boxes[99]
    boxes[99] = Box(b.lo, (b.hi[0] + _F(1, 1000003), b.hi[1]))
    report = _assert_agree(_with_boxes(row, boxes))
    assert [(d.kind, d.boxes) for d in report.defects] == [("interior-overlap", (100, 101))]


def test_a_thousand_duplicates_list_a_hundred_overlaps_and_count_the_rest():
    unit = Box((_F(0), _F(0)), (_F(1), _F(1)))
    p = Partition(2, unit, (unit,) * 1000)
    report = validate_partition(p)
    # The oracle lists all 499,500 pairs in order, (1, 2) .. (1, 1000) first,
    # so its first 100 are also the first 100 it lists for boxes 1..101.
    first = pairwise_validate(_with_boxes(p, p.boxes[:101])).defects[:100]
    assert report.defects == first
    assert report.unlisted_overlaps == 1000 * 999 // 2 - 100 == 499_400
    summary = report.summary()
    assert summary.startswith("INVALID: 499500 defect(s)")
    assert summary.endswith("… and 499400 more interior overlaps")
    assert len(summary.encode()) < 16_000


def test_sweep_matches_oracle_when_boxes_only_touch():
    # every neighbour pair shares a face or a corner, and none overlaps
    assert _assert_agree(_grid(6, 5)).ok
    # checkerboard: the kept squares meet only at corners, so only a gap shows
    board = _grid(6, 6)
    kept = [b for b in board.boxes if (b.lo[0] + b.lo[1]) % 2 == 0]
    report = _assert_agree(_with_boxes(board, kept))
    assert [d.kind for d in report.defects] == ["volume-mismatch"]
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
    # strips whose cuts have 200 distinct prime denominators: the integer
    # volume is scaled by their product; a missing strip leaves a gap
    row = _prime_row()
    assert _assert_agree(row).ok
    report = _assert_agree(_with_boxes(row, row.boxes[:77] + row.boxes[78:]))
    assert [d.kind for d in report.defects] == ["volume-mismatch"]


def _random_solid(rng: random.Random, dim: int, n: int) -> list[tuple[int, Box]]:
    """``n`` nondegenerate boxes on a small rank grid, so that many touch,
    nest or repeat; about one box in ten is a copy of an earlier one."""
    boxes: list[Box] = []
    for _ in range(n):
        if boxes and rng.random() < 0.1:
            boxes.append(rng.choice(boxes))
            continue
        lo, hi = [], []
        for _ in range(dim):
            a, b = rng.sample(range(8), 2)
            lo.append(min(a, b))
            hi.append(max(a, b))
        boxes.append(Box(tuple(lo), tuple(hi)))
    return list(enumerate(boxes, start=1))


@pytest.mark.parametrize("dim", [2, 3])
def test_meeting_pairs_counts_what_the_sweep_yields(dim):
    rng = random.Random(dim)
    for n in (0, 1, 2, 5, 40, 150):
        solid = _random_solid(rng, dim, n)
        for j in range(dim):
            swept = sum(len(active) for _, _, active in geometry._sweep(solid, j))
            assert geometry._meeting_pairs(solid, j) == swept


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
    # one box nudged into its right neighbour: only the report sweeps
    boxes = list(grid.boxes)
    b = boxes[k * k // 2]
    boxes[k * k // 2] = Box(b.lo, (b.hi[0] + _F(1, 2), b.hi[1]))
    report = validate_partition(_with_boxes(grid, boxes))
    assert [d.kind for d in report.defects] == ["interior-overlap"]
    # all pairs would be k**2 * (k**2 - 1) / 2 = 1,279,200 tests
    assert 0 < pair_tests[0] <= k**3


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
            verdict = pairwise_validate(case).ok
            assert _tiles(_shuffled(case, rng)) == verdict, case
            verdicts[verdict] += 1
    assert sum(verdicts.values()) == 700 and min(verdicts.values()) >= 175


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
    assert [d.kind for d in validate_partition(p).defects] == ["interior-overlap"]


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
