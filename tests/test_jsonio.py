"""Canonical JSON wire formats: round-trips, digests, strict parsing."""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction

import pytest

from boxcert import factory, jsonio
from boxcert.closure import GeneratorSet, Leaf, Sum, Triple, bounded_closure
from boxcert.pipeline import certificate_to_json, certify
from boxcert.trailgraph import (
    AxisAssignment,
    assign_axes,
    build_graph,
    extract_trail,
    project_to_axis,
)

# frozen snapshots: canonical digests of the two figure instances
STRIP_DIGEST = "41724a25c1489fe8411ec1fe982415b2c44cddac595f7c5dc18784cd3c36712b"
PINWHEEL_DIGEST = "212e7dfdf79e990c80134bfd6832a3ef353a81e8546dee99fb46909300e8ce1d"


def _F(x) -> Fraction:
    return Fraction(x)


def test_canonical_json_sorted_and_compact():
    assert jsonio.canonical_json({"b": 1, "a": [2, 3]}) == '{"a":[2,3],"b":1}'
    assert jsonio.pretty_json({"a": 1}).endswith("\n")


def test_rationals_normalize_on_output():
    assert jsonio.rat_from_json("6/4") == Fraction(3, 2)
    assert jsonio.rat_from_json(7) == 7
    for bad in (1.5, True, False, None, [1], "3/0"):
        with pytest.raises((ValueError, ZeroDivisionError)):
            jsonio.rat_from_json(bad)


def test_partition_round_trip_for_factory_outputs():
    for p in (
        factory.strip_partition(15, 5),
        factory.pinwheel_partition(17, 10, 7),
        factory.lift_product(factory.strip_partition("3/2", "5/2"), 4, 3),
        factory.random_guillotine(2, 4, seed=12),
    ):
        assert jsonio.partition_from_json(jsonio.partition_to_json(p)) == p


def test_partition_digests_are_frozen():
    assert jsonio.partition_digest(factory.strip_partition(15, 5)) == STRIP_DIGEST
    assert (
        jsonio.partition_digest(factory.pinwheel_partition(17, 10, 7))
        == PINWHEEL_DIGEST
    )
    # any geometric change moves the digest
    assert jsonio.partition_digest(factory.strip_partition(15, 6)) != STRIP_DIGEST


def test_partition_parsing_rejects_floats():
    payload = jsonio.partition_to_json(factory.strip_partition(15, 5))
    text = jsonio.canonical_json(payload).replace('"15"', "15.0")
    with pytest.raises(ValueError):
        jsonio.partition_from_json(json.loads(text))


def test_partition_parsing_reports_missing_keys():
    with pytest.raises(ValueError, match="outer"):
        jsonio.partition_from_json({"dim": 2, "boxes": []})
    with pytest.raises(ValueError, match="dim"):
        jsonio.partition_from_json({"outer": {}, "boxes": []})


def test_derivation_round_trip_and_value_annotations():
    seven = Leaf(_F(7))
    d = Sum(Triple(Leaf(_F(10)), seven, Leaf(_F(17))), Sum(seven, Leaf(_F(7))))
    enc = jsonio.derivation_to_json(d)
    # children first, root last; the two 7 leaves share one entry
    assert enc == [
        {"op": "leaf", "value": "10", "args": []},
        {"op": "leaf", "value": "7", "args": []},
        {"op": "leaf", "value": "17", "args": []},
        {"op": "triple", "value": "20", "args": [0, 1, 2]},
        {"op": "sum", "value": "14", "args": [1, 1]},
        {"op": "sum", "value": "34", "args": [3, 4]},
    ]
    assert jsonio.derivation_from_json(enc) == d
    # equal subtrees that are distinct objects are written once too
    twice = Sum(Sum(Leaf(_F(1)), Leaf(_F("1/2"))), Sum(Leaf(_F(1)), Leaf(_F("1/2"))))
    assert [e["args"] for e in jsonio.derivation_to_json(twice)] == [[], [], [0, 1], [2, 2]]


def test_derivation_parse_rejects_wrong_value_annotation():
    enc = jsonio.derivation_to_json(Sum(Leaf(_F(1)), Leaf(_F(2))))
    enc[-1]["value"] = "4"
    with pytest.raises(ValueError, match="value"):
        jsonio.derivation_from_json(enc)
    enc = jsonio.derivation_to_json(Sum(Leaf(_F(1)), Leaf(_F(2))))
    enc[0]["value"] = "0"  # a leaf must be positive
    with pytest.raises(ValueError):
        jsonio.derivation_from_json(enc)


def test_derivation_parse_rejects_wrong_arity():
    two = {"op": "leaf", "value": "2", "args": []}
    with pytest.raises(ValueError, match="arguments"):
        jsonio.derivation_from_json([two, {"op": "sum", "value": "2", "args": [0]}])
    with pytest.raises(ValueError, match="arguments"):
        jsonio.derivation_from_json([{"op": "leaf", "value": "2", "args": [0]}])
    with pytest.raises(ValueError):
        jsonio.derivation_from_json([{"op": "halve", "value": "1", "args": []}])
    with pytest.raises(ValueError):
        jsonio.derivation_from_json([{"op": ["sum"], "value": "1", "args": []}])
    # hostile tables: every argument must index an earlier entry
    hostile = {
        "forward reference": [two, {"op": "sum", "value": "4", "args": [0, 2]}, two],
        "self reference": [two, {"op": "sum", "value": "4", "args": [0, 1]}],
        "negative index": [two, {"op": "sum", "value": "4", "args": [0, -1]}],
        "out-of-range index": [two, {"op": "sum", "value": "4", "args": [0, 7]}],
        "true index": [two, two, {"op": "sum", "value": "4", "args": [0, True]}],
        "empty table": [],
        "non-list": two,
        # every entry must be distinct and part of the derivation
        "duplicate leaf": [two, two, {"op": "sum", "value": "4", "args": [0, 1]}],
        "duplicate op": [
            two,
            {"op": "sum", "value": "4", "args": [0, 0]},
            {"op": "sum", "value": "4", "args": [0, 0]},
            {"op": "sum", "value": "8", "args": [1, 2]},
        ],
        "unreachable leaf": [
            {"op": "leaf", "value": "3", "args": []},
            two,
            {"op": "sum", "value": "4", "args": [1, 1]},
        ],
        "unreachable op": [
            two,
            {"op": "sum", "value": "4", "args": [0, 0]},
            {"op": "triple", "value": "2", "args": [0, 0, 0]},
        ],
    }
    for table in hostile.values():
        with pytest.raises(ValueError):
            jsonio.derivation_from_json(table)


def test_deep_derivation_round_trips_without_recursion():
    d = Leaf(_F(1))
    for _ in range(4000):
        d = Sum(d, Leaf(_F(1)))
    back = jsonio.derivation_from_json(jsonio.derivation_to_json(d))
    # compare with an explicit stack; == on the dataclasses would recurse
    stack = [(d, back)]
    while stack:
        a, b = stack.pop()
        assert type(a) is type(b)
        if isinstance(a, Leaf):
            assert a.value == b.value
        elif isinstance(a, Sum):
            stack += [(a.left, b.left), (a.right, b.right)]
        else:
            stack += [(a.first, b.first), (a.second, b.second), (a.third, b.third)]


def _strip_trail():
    p = factory.strip_partition(15, 5)
    c = AxisAssignment((1, 1))
    return p, extract_trail(build_graph(p, c))


def test_trail_round_trip():
    _, t = _strip_trail()
    enc = jsonio.trail_to_json(t)
    assert [st["box"] for st in enc["steps"]] == [1, 2]
    assert jsonio.trail_from_json(enc) == t


def test_ysequence_round_trip():
    p, t = _strip_trail()
    y = project_to_axis(t, p.outer)
    enc = jsonio.ysequence_to_json(y)
    assert enc == {"axis": 1, "length": "20", "points": ["0", "15", "20"]}
    assert jsonio.ysequence_from_json(enc) == y


def test_reduction_round_trip():
    p = factory.pinwheel_partition(17, 10, 7)
    cert = certify(p, GeneratorSet.of(17, 10, 7))
    assert cert.reduction.steps[0].kind == "triple"
    enc = json.loads(jsonio.canonical_json(certificate_to_json(cert)["reduction"]))
    assert sorted(enc) == ["derivation", "result"]  # the rewrite log is not on the wire
    assert enc["derivation"][-1]["op"] == "triple"
    back = jsonio.reduction_from_json(enc)
    assert back == dataclasses.replace(cert.reduction, steps=())
