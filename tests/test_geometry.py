"""Exact-arithmetic boxes, partitions, and defect detection."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from boxcert.geometry import (
    Box,
    Partition,
    format_point,
    format_rat,
    interiors_disjoint,
    parse_point,
    parse_rat,
    validate_partition,
)


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
    assert [d.kind for d in report.defects] == ["volume-mismatch"]
    # with an overlap present, the volume complaint would be noise: omitted
    q = Partition(2, outer, (_box((0, 0), (3, 2)), _box((2, 0), (4, 2))))
    assert "volume-mismatch" not in {d.kind for d in validate_partition(q).defects}
