"""Canonical JSON wire formats: round-trips, digests, strict parsing."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import re
import time
from fractions import Fraction

import pytest

from boxcert import factory, jsonio
from boxcert.closure import GeneratorSet, Leaf, Sum, Triple, bounded_closure
from boxcert.geometry import Box, Partition, format_rat
from boxcert.pipeline import certificate_from_json, certificate_to_json, certify
from boxcert.trailgraph import (
    Edge,
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


def _composed_digest(p: Partition) -> str:
    """The digest's definition, composed from the wire format: the oracle."""
    data = jsonio.canonical_json(jsonio.partition_to_json(p)).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _digest_cases():
    for seed in range(12):
        for dim in (2, 3):
            yield factory.random_guillotine(dim, 5, seed=seed)
    yield factory.lift_product(factory.strip_partition("3/2", "5/2"), 4, 3)
    yield factory.lift_product(factory.pinwheel_partition(17, 10, 7), "7/3", 4)
    # built in code: equal values are distinct Fraction objects
    yield Partition(
        2,
        Box((_F("1/3"), _F(0)), (_F("2/3"), _F(5))),
        (
            Box((_F("1/3"), _F(0)), (Fraction(1, 2), _F(5))),
            Box((Fraction(2, 4), _F(0)), (Fraction(4, 6), Fraction(10, 2))),
        ),
    )
    # negative, int and huge coordinates
    big = Fraction(10**31 + 7, 3)
    yield Partition(
        2,
        Box((-3, _F("-7/2")), (big, 4)),
        (Box((-3, _F("-7/2")), (_F(-1), 4)), Box((-1, Fraction(-7, 2)), (big, 4))),
    )


def test_partition_digest_matches_the_composed_canonical_json():
    for p in _digest_cases():
        assert jsonio.partition_digest(p) == _composed_digest(p)
        text = jsonio.canonical_json(jsonio.partition_to_json(p))
        loaded = jsonio.partition_from_json(json.loads(text))
        assert jsonio.partition_digest(loaded) == _composed_digest(p)


def test_a_grid_partition_digest_formats_each_coordinate_once(monkeypatch):
    # A loaded partition shares one Fraction per distinct string, and the
    # digest formats each coordinate object once.
    n = 40
    boxes = tuple(
        Box((_F(i), _F(j)), (_F(i + 1), _F(j + 1))) for i in range(n) for j in range(n)
    )
    p = Partition(2, Box((_F(0), _F(0)), (_F(n), _F(n))), boxes)
    loaded = jsonio.partition_from_json(
        json.loads(jsonio.canonical_json(jsonio.partition_to_json(p)))
    )
    calls = [0]
    fmt = jsonio.format_rat

    def counted(value):
        calls[0] += 1
        return fmt(value)

    monkeypatch.setattr(jsonio, "format_rat", counted)
    digest = jsonio.partition_digest(loaded)
    assert 0 < calls[0] <= n + 1
    monkeypatch.undo()
    assert digest == _composed_digest(p)


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
    # children first, root last; the two 7 leaves share one entry, and the
    # inner sum, used once and by a sum, is written inside the root
    assert enc == [
        {"op": "leaf", "value": "10", "args": []},
        {"op": "leaf", "value": "7", "args": []},
        {"op": "leaf", "value": "17", "args": []},
        {"op": "triple", "value": "20", "args": [0, 1, 2]},
        {"op": "sum", "value": "34", "args": [3, 1, 1]},
    ]
    back = jsonio.derivation_from_json(enc)
    assert back.value == d.value and jsonio.derivation_to_json(back) == enc
    # equal subtrees that are distinct objects are written once too, and a
    # sum used twice stays an entry of its own
    twice = Sum(Sum(Leaf(_F(1)), Leaf(_F("1/2"))), Sum(Leaf(_F(1)), Leaf(_F("1/2"))))
    assert [e["args"] for e in jsonio.derivation_to_json(twice)] == [[], [], [0, 1], [2, 2]]


def test_folding_that_makes_two_sums_equal_writes_them_once():
    # (a+b)+s and a+(b+s) fold to the same sum over a, b, s, and a triple
    # takes both.  Written once, that sum leaves s, a sum of two leaves that
    # both used to take, with one use, by a sum: so s folds in as well.
    a, b, s = Leaf(_F(2)), Leaf(_F(3)), Sum(Leaf(_F(5)), Leaf(_F(7)))
    d = Triple(Sum(Sum(a, b), s), Sum(a, Sum(b, s)), Leaf(_F(1)))
    enc = jsonio.derivation_to_json(d)
    assert enc[4:] == [
        {"op": "sum", "value": "17", "args": [0, 1, 2, 3]},
        {"op": "leaf", "value": "1", "args": []},
        {"op": "triple", "value": "33", "args": [4, 4, 5]},
    ]
    back = jsonio.derivation_from_json(enc)
    assert back.value == d.value and jsonio.derivation_to_json(back) == enc


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
    # A chain of sums is one wide sum on the wire ...
    d = Leaf(_F(1))
    for _ in range(4000):
        d = Sum(d, Leaf(_F(1)))
    enc = jsonio.derivation_to_json(d)
    assert enc == [
        {"op": "leaf", "value": "1", "args": []},
        {"op": "sum", "value": "4001", "args": [0] * 4001},
    ]
    assert jsonio.derivation_to_json(jsonio.derivation_from_json(enc)) == enc
    # ... while sums under triples stay entries: 8,000 deep on the wire.
    d = Leaf(_F(1))
    for _ in range(4000):
        d = Triple(Sum(d, Leaf(_F(1))), Leaf(_F(1)), Leaf(_F(1)))
    enc = jsonio.derivation_to_json(d)
    assert len(enc) == 8001
    back = jsonio.derivation_from_json(enc)
    assert back.value == 4001 and jsonio.derivation_to_json(back) == enc


def _leaf(value: str) -> dict:
    return {"op": "leaf", "value": value, "args": []}


def _sum(value: str, *args: int) -> dict:
    return {"op": "sum", "value": value, "args": list(args)}


# A rational of 8,501 digits: CPython converts no decimal integer string of
# more than 4,300 digits, so a value on the wire cannot grow much wider.
_WIDE = Fraction(int("7" * 4250), 10**4249 + 1)


def _wide_sum(off: int = 0) -> list[dict]:
    """One sum that takes the wide leaf 10^5 times."""
    total = 100_000 * _WIDE + off
    return [_leaf(format_rat(_WIDE)), _sum(format_rat(total), *[0] * 100_000)]


def _doublings(n: int) -> list[dict]:
    return [_leaf("1")] + [_sum(str(2**i), i - 1, i - 1) for i in range(1, n + 1)]


@pytest.mark.parametrize(
    "table, error",
    [
        (_wide_sum(), None),
        (_wide_sum(off=1), "derivation[1]: value annotation"),
        (_doublings(5000), None),
    ],
    ids=["wide-sum", "wide-sum-off-by-one", "doublings"],
)
def test_hostile_tables_are_answered_in_time_with_one_sum_per_entry(
    monkeypatch, table, error
):
    built = [0]
    evaluate = Sum.__post_init__

    def counted(node):
        built[0] += 1
        evaluate(node)

    monkeypatch.setattr(Sum, "__post_init__", counted)
    t0 = time.perf_counter()
    if error is None:
        root = jsonio.derivation_from_json(table)
        assert root.value == jsonio.rat_from_json(table[-1]["value"])
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(error)}"):
            jsonio.derivation_from_json(table)
    assert time.perf_counter() - t0 < 1.0
    assert built[0] == sum(e["op"] == "sum" for e in table)


@pytest.mark.parametrize(
    "table, error",
    [
        ([_leaf("2"), _sum("2", 0)], "[1]: op 'sum' takes 2 or more arguments, got 1"),
        ([_leaf("2"), {"op": "sum", "args": [0, 0]}], "[1]: missing key 'value'"),
        ([_leaf("2"), _sum("5", 0, 0)], "[1]: value annotation 5 does not match recomputed 4"),
        (
            [_leaf("2"), _sum("4", 0, 0), _sum("6", 1, 0)],
            "[1]: a sum that only one sum uses must be written inside it",
        ),
        ([{"op": "leaf", "value": "2", "args": [0]}], "[0]: op 'leaf' takes 0 arguments, got 1"),
    ],
    ids=["one-argument-sum", "sum-without-value", "sum-off-by-one", "unfolded-sum", "leaf-with-args"],
)
def test_malformed_sums_are_rejected_at_their_entry(table, error):
    with pytest.raises(ValueError) as caught:
        jsonio.derivation_from_json(table)
    assert str(caught.value) == "derivation" + error


def _strip_trail():
    p = factory.strip_partition(15, 5)
    c = (1, 1)
    return p, extract_trail(build_graph(p, c))


def test_trail_round_trip():
    _, t = _strip_trail()
    enc = jsonio.trail_to_json(t)
    assert [st["box"] for st in enc["steps"]] == [1, 2]
    assert jsonio.trail_from_json(enc) == t


def test_ysequence_round_trip():
    p, t = _strip_trail()
    y = project_to_axis(t, p)
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


# --- malformed documents: the exact messages -------------------------------

_PINWHEEL_CERT = json.dumps(
    certificate_to_json(
        certify(factory.pinwheel_partition(17, 10, 7), GeneratorSet.of(17, 10, 7))
    )
)
_STRIP_PARTITION = json.dumps(jsonio.partition_to_json(factory.strip_partition(15, 5)))


def _set(*path_and_value):
    *path, value = path_and_value

    def edit(doc):
        *head, last = path
        for k in head:
            doc = doc[k]
        doc[last] = value

    return edit


def _delete(*path):
    def edit(doc):
        *head, last = path
        for k in head:
            doc = doc[k]
        del doc[last]

    return edit


def _both(*edits):
    def edit(doc):
        for e in edits:
            e(doc)

    return edit


_RAT = 'expected an integer or a "p/q" string'
MALFORMED = {
    "box coordinate": (
        "partition",
        _set("boxes", 1, "lo", 1, None),
        f"partition.boxes[1].lo[1]: {_RAT}, got None",
    ),
    "true after the int 1": (
        "partition",
        _both(_set("boxes", 0, "lo", 0, 0), _set("outer", "lo", 1, 1), _set("boxes", 1, "hi", 0, True)),
        f"partition.boxes[1].hi[0]: {_RAT}, got True",
    ),
    "true after the string 1": (
        "partition",
        _both(_set("outer", "lo", 0, "1"), _set("boxes", 0, "hi", 1, True)),
        f"partition.boxes[0].hi[1]: {_RAT}, got True",
    ),
    "float": (
        "partition",
        _set("boxes", 0, "hi", 0, 15.0),
        f"partition.boxes[0].hi[0]: {_RAT}, got 15.0",
    ),
    "zero denominator twice": (
        "partition",
        _both(_set("boxes", 0, "hi", 0, "3/0"), _set("boxes", 1, "lo", 0, "3/0")),
        "not a rational: '3/0'",
    ),
    "step endpoint coordinate": (
        "certificate.trail",
        _set("trail", "steps", 3, "to", 1, [0]),
        f"trail.steps[3].to[1]: {_RAT}, got [0]",
    ),
    "empty step endpoint": (
        "certificate.trail",
        _set("trail", "steps", 0, "from", []),
        "trail.steps[0].from: expected a non-empty list of rationals",
    ),
    "missing step key": (
        "certificate.trail",
        _delete("trail", "steps", 2, "box"),
        "trail.steps[2]: missing key 'box'",
    ),
    "bool box": (
        "certificate.trail",
        _set("trail", "steps", 1, "box", True),
        "trail.steps[1].box: expected an integer, got True",
    ),
    "step not an object": (
        "certificate.trail",
        _set("trail", "steps", 4, []),
        "trail.steps[4]: expected an object, got list",
    ),
    "y point": (
        "certificate.y",
        _set("y", "points", 2, {"p": 3}),
        f"y.points[2]: {_RAT}, got {{'p': 3}}",
    ),
    "derivation value": (
        "certificate",
        _set("reduction", "derivation", 2, "value", False),
        f"reduction.derivation[2].value: {_RAT}, got False",
    ),
    "derivation argument": (
        "certificate",
        _set("reduction", "derivation", 3, "args", 1, "1"),
        "reduction.derivation[3].args[1]: expected an integer, got '1'",
    ),
    "derivation op": (
        "certificate",
        _set("reduction", "derivation", 1, "op", "halve"),
        "reduction.derivation[1].op: unknown operation 'halve'",
    ),
    "gens entry": (
        "certificate",
        _set("gens", 1, 10.5),
        f"certificate.gens[1]: {_RAT}, got 10.5",
    ),
    "assignment entry": (
        "certificate.assignment",
        _set("assignment", 3, "1"),
        "certificate.assignment[3]: expected an integer, got '1'",
    ),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_documents_raise_the_pinned_message(name):
    # A kind "certificate.<field>" names an audit field: the certificate
    # parser keeps it as written, and reading the field's view decodes it.
    kind, edit, message = MALFORMED[name]
    doc = json.loads(_STRIP_PARTITION if kind == "partition" else _PINWHEEL_CERT)
    edit(doc)
    if kind == "partition":
        parse = jsonio.partition_from_json
    elif kind == "certificate":
        parse = certificate_from_json
    else:
        cert = certificate_from_json(doc)
        parse = lambda doc: getattr(cert, kind.split(".")[1])  # noqa: E731
    with pytest.raises(ValueError) as caught:
        parse(doc)
    assert str(caught.value) == message


def test_equal_values_written_differently_parse_equal():
    doc = json.loads(_STRIP_PARTITION)
    doc["boxes"][0]["lo"] = ["2/4", "1/2"]
    lo = jsonio.partition_from_json(doc).boxes[0].lo
    assert lo == (Fraction(1, 2), Fraction(1, 2))
    assert jsonio.point_from_json(["1/2", "2/4", "0.5"]) == (Fraction(1, 2),) * 3


# --- each distinct rational string is parsed once per document --------------


def _counted(fn, calls):
    """``fn``, counting its calls in ``calls[0]``."""

    def counted(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)

    return counted


def _count_parse_rat(monkeypatch):
    calls = [0]
    monkeypatch.setattr(jsonio, "parse_rat", _counted(jsonio.parse_rat, calls))
    return calls


def _rational_strings(doc, skip=frozenset()):
    """Every string in a JSON document that is a value, not a key."""
    stack, found = [doc], set()
    while stack:
        x = stack.pop()
        if isinstance(x, dict):
            stack += x.values()
        elif isinstance(x, list):
            stack += x
        elif isinstance(x, str) and x not in skip:
            found.add(x)
    return found


def test_a_grid_partition_parses_each_coordinate_string_once(monkeypatch):
    n = 40
    boxes = tuple(
        Box((_F(i), _F(j)), (_F(i + 1), _F(j + 1))) for i in range(n) for j in range(n)
    )
    doc = json.loads(
        jsonio.canonical_json(
            jsonio.partition_to_json(Partition(2, Box((_F(0), _F(0)), (_F(n), _F(n))), boxes))
        )
    )
    assert len(_rational_strings(doc)) == n + 1
    calls = _count_parse_rat(monkeypatch)
    p = jsonio.partition_from_json(doc)
    assert len(p.boxes) == n * n
    assert 0 < calls[0] <= n + 1


def test_a_row_certificate_parses_each_rational_string_once(monkeypatch):
    rng = random.Random(300)
    xs = [0]
    for _ in range(300):
        xs.append(xs[-1] + rng.randint(2, 9))
    height = _F("5/3")
    strips = tuple(Box((_F(a), _F(0)), (_F(b), height)) for a, b in zip(xs, xs[1:]))
    p = Partition(2, Box((_F(0), _F(0)), (_F(xs[-1]), height)), strips)
    doc = json.loads(
        jsonio.canonical_json(certificate_to_json(certify(p, GeneratorSet.of(*range(2, 10)))))
    )
    distinct = _rational_strings(doc, skip={doc["partition_sha256"], "leaf", "sum", "triple"})
    calls = _count_parse_rat(monkeypatch)
    cert = certificate_from_json(doc)
    assert len(cert.trail.steps) == 300
    assert 0 < calls[0] <= len(distinct)
    # A step is the edge it walks, read as written: no endpoint is ordered.
    ordered, built = [0], [0]
    for name in ("__lt__", "__le__", "__gt__", "__ge__"):
        monkeypatch.setattr(Fraction, name, _counted(getattr(Fraction, name), ordered))
    monkeypatch.setattr(Edge, "__init__", _counted(Edge.__init__, built))
    trail = jsonio.trail_from_json(doc["trail"])
    assert (ordered[0], built[0]) == (0, 300)
    assert trail == cert.trail


def test_equal_strings_in_one_document_share_one_fraction():
    cert = certificate_from_json(json.loads(_PINWHEEL_CERT))
    assert cert.bound is cert.claimed_side.length  # both "20"
    assert cert.y.length is cert.bound
    assert cert.trail.steps[0].dst[1] is cert.trail.steps[1].src[1]  # "17"
    p = jsonio.partition_from_json(json.loads(_STRIP_PARTITION))
    assert p.boxes[0].hi[1] is p.outer.hi[1]  # "20"
    assert p.boxes[1].lo[0] is p.boxes[0].hi[0]  # "15"
