"""Exact-arithmetic boxes, partitions, and defect detection."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

from boxcert import jsonio
from boxcert.factory import random_guillotine
from boxcert.geometry import (
    Box,
    Partition,
    format_point,
    interiors_disjoint,
    parse_point,
    rank_partition,
    validate_partition,
)
from boxcert.kernel import format_rat, parse_rat


def _box(lo, hi) -> Box:
    return Box(parse_point(lo), parse_point(hi))


def test_parse_rat_accepts_ints_strings_fractions():
    assert parse_rat(3) == Fraction(3)
    assert parse_rat("3/4") == Fraction(3, 4)
    assert parse_rat("-2") == Fraction(-2)
    assert parse_rat("2.5") == Fraction(5, 2)
    assert parse_rat("-.25") == Fraction(-1, 4)
    assert parse_rat(Fraction(5, 10)) == Fraction(1, 2)


@pytest.mark.parametrize(
    "bad", [1.5, True, "1/0", "abc", None, "1e3", "2E5", "1e-9"]
)
def test_parse_rat_rejects_floats_bools_and_garbage(bad):
    with pytest.raises((ValueError, TypeError, ZeroDivisionError)):
        parse_rat(bad)


def test_parse_rat_reads_strings_as_fraction_does_less_exponents_and_underscores():
    rng = random.Random(11)
    alphabet = "0123456789" * 3 + "+-./ eE_"
    accepted = 0
    for _ in range(5000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
        try:
            want = None if set("eE_") & set(text) else Fraction(text)
        except (ValueError, ZeroDivisionError):
            want = None
        try:
            got = parse_rat(text)
        except ValueError:
            got = None
        assert got == want, text
        accepted += got is not None
    assert accepted > 1000


def test_format_rat_lowest_terms():
    assert format_rat(Fraction(4, 2)) == "2"
    assert format_rat(Fraction(3, 4)) == "3/4"
    assert format_rat(Fraction(-1, 3)) == "-1/3"


def test_point_round_trip():
    p = parse_point(["1/2", 3])
    assert p == (Fraction(1, 2), Fraction(3))
    assert format_point(p) == "(1/2, 3)"


def test_box_extents_volume_and_corners():
    b = _box((0, 0), (3, "5/2"))
    assert b.dim == 2
    assert b.extent(1) == 3
    assert b.extent(2) == Fraction(5, 2)
    assert b.extents() == (Fraction(3), Fraction(5, 2))
    assert b.volume() == Fraction(15, 2)
    # corners come in binary order: bit j-1 set means hi on axis j
    assert b.corners() == (
        (Fraction(0), Fraction(0)),
        (Fraction(3), Fraction(0)),
        (Fraction(0), Fraction(5, 2)),
        (Fraction(3), Fraction(5, 2)),
    )


def test_box_rejects_mismatched_dims():
    with pytest.raises(ValueError):
        Box(parse_point((0, 0)), parse_point((1, 1, 1)))


def test_degenerate_box_is_constructible_but_flagged():
    b = _box((0, 0), (0, 1))
    assert b.is_degenerate()
    assert b.volume() == 0


def test_contains_box():
    outer = _box((0, 0), (4, 4))
    assert outer.contains_box(_box((1, 1), (2, 2)))
    assert outer.contains_box(outer)
    assert not outer.contains_box(_box((3, 3), (5, 4)))


def test_interiors_disjoint_shared_face_is_fine():
    a = _box((0, 0), (2, 2))
    b = _box((2, 0), (4, 2))
    assert interiors_disjoint(a, b)
    assert not interiors_disjoint(a, _box((1, 1), (3, 3)))
    with pytest.raises(ValueError):
        interiors_disjoint(a, _box((0, 0, 0), (1, 1, 1)))


def test_partition_requires_dim_two_plus_and_consistency():
    with pytest.raises(ValueError):
        Partition(1, _box((0,), (1,)), (_box((0,), (1,)),))
    with pytest.raises(ValueError):
        Partition(2, _box((0, 0), (1, 1)), ())
    with pytest.raises(ValueError):
        Partition(2, _box((0, 0), (1, 1)), (_box((0, 0, 0), (1, 1, 1)),))


def _two_box_partition() -> Partition:
    outer = _box((0, 0), (4, 2))
    return Partition(2, outer, (_box((0, 0), (2, 2)), _box((2, 0), (4, 2))))


def test_validate_accepts_exact_partition():
    report = validate_partition(_two_box_partition())
    assert report.ok
    assert bool(report)
    assert report.summary() == "OK: 2 boxes, volume 8"


def test_validate_flags_overlap_with_witness():
    outer = _box((0, 0), (4, 2))
    p = Partition(2, outer, (_box((0, 0), (3, 2)), _box((2, 0), (4, 2))))
    report = validate_partition(p)
    assert not report.ok
    kinds = {d.kind for d in report.defects}
    assert kinds == {"interior-overlap"}
    (defect,) = report.defects
    assert defect.boxes == (1, 2)
    # the witness intersection box shows up in the detail text
    assert "3" in defect.detail
    assert report.summary().startswith("INVALID: 1 defect(s)")


def test_validate_flags_escape_and_degenerate():
    outer = _box((0, 0), (4, 2))
    p = Partition(2, outer, (_box((0, 0), (5, 2)), _box((1, 1), (1, 2))))
    kinds = {d.kind for d in validate_partition(p).defects}
    assert kinds == {"not-contained", "degenerate"}


def test_validate_flags_volume_gap_only_when_otherwise_clean():
    outer = _box((0, 0), (4, 2))
    p = Partition(2, outer, (_box((0, 0), (2, 2)),))
    report = validate_partition(p)
    assert [str(d) for d in report.defects] == [
        "gap: cell [2, 4] x [0, 2] is covered by 0 boxes; "
        "the corner counts differ at 4 points"
    ]
    # the first cell where the cover is wrong is doubly covered: no gap named
    q = Partition(2, outer, (_box((0, 0), (3, 2)), _box((2, 0), (4, 2))))
    assert [str(d) for d in validate_partition(q).defects] == [
        "interior-overlap (k=1,k=2): cell [2, 3] x [0, 2] is covered by 2 boxes; "
        "the corner counts differ at 4 points"
    ]


def _unshared(p: Partition) -> Partition:
    """``p`` with every coordinate a Fraction object of its own."""

    def fresh(b: Box) -> Box:
        return Box(
            tuple(Fraction(c.numerator, c.denominator) for c in b.lo),
            tuple(Fraction(c.numerator, c.denominator) for c in b.hi),
        )

    return Partition(p.dim, fresh(p.outer), tuple(map(fresh, p.boxes)))


def _loaded(p: Partition) -> Partition:
    """``p`` written as JSON and read back: one Fraction per distinct string."""
    return jsonio.partition_from_json(
        json.loads(jsonio.canonical_json(jsonio.partition_to_json(p)))
    )


def _respelled(p: Partition) -> Partition:
    """``p`` loaded from JSON that writes every second occurrence of each
    value ``a/b`` as ``2a/2b``: two strings, two Fraction objects, one value."""
    seen: dict[str, int] = {}

    def spell(text: str) -> str:
        seen[text] = seen.get(text, 0) + 1
        if seen[text] % 2:
            return text
        value = Fraction(text)
        return f"{2 * value.numerator}/{2 * value.denominator}"

    def box(obj: dict) -> dict:
        return {end: [spell(c) for c in obj[end]] for end in ("lo", "hi")}

    payload = jsonio.partition_to_json(p)
    payload["outer"] = box(payload["outer"])
    payload["boxes"] = [box(b) for b in payload["boxes"]]
    return jsonio.partition_from_json(json.loads(json.dumps(payload)))


@pytest.mark.parametrize(
    "build, shared", [(_unshared, False), (_loaded, True), (_respelled, False)]
)
def test_ranks_by_identity_merge_equal_values_held_by_distinct_objects(build, shared):
    # rank_partition ranks coordinate objects by id, then merges equal values;
    # the oracle sorts each axis's set of values and makes one rank box per box
    for seed in range(40):
        n = 2 if seed % 2 == 0 else 3
        p = build(random_guillotine(n, 4, seed=seed))
        shapes = (p.outer,) + p.boxes
        coords = [[c for b in shapes for c in (b.lo[j], b.hi[j])] for j in range(n)]
        objects = {(c, id(c)) for column in coords for c in column}
        assert (len(objects) == len({c for c, _ in objects})) == shared
        values = [sorted(set(column)) for column in coords]
        rank = [{v: r for r, v in enumerate(column)} for column in values]

        def ranked(b: Box) -> Box:
            return Box(
                tuple(rank[j][c] for j, c in enumerate(b.lo)),
                tuple(rank[j][c] for j, c in enumerate(b.hi)),
            )

        expected = tuple(map(ranked, p.boxes))
        view = rank_partition(p)
        assert list(map(list, view.values)) == values
        assert view.outer == ranked(p.outer)
        assert view.lo == tuple(tuple(b.lo[j] for b in expected) for j in range(n))
        assert view.hi == tuple(tuple(b.hi[j] for b in expected) for j in range(n))
