"""End-to-end certification and independent certificate checking."""

from __future__ import annotations

import __future__
import dataclasses
import hashlib
import inspect
import json
import random
import sys
import textwrap
import time
from fractions import Fraction

import pytest

from boxcert import factory, jsonio, pipeline, reduction
from boxcert.closure import (
    GeneratorSet,
    Leaf,
    Sum,
    Triple,
    bounded_closure,
    op_sum,
    op_triple,
    topological,
)
from boxcert.errors import HypothesisViolated, SoundnessError
from boxcert.geometry import Box, Partition, format_rat, parse_point, parse_rat
from boxcert.pipeline import (
    ClaimedSide,
    PartitionInvalid,
    certificate_from_json,
    certificate_to_json,
    certify,
    check_certificate,
)
from boxcert.reduction import reduce_sequence
from boxcert.trailgraph import (
    Edge,
    Trail,
    YSequence,
    build_graph,
    edges_of_box,
    extract_trail,
    project_to_axis,
)


def _F(x) -> Fraction:
    return Fraction(x)


def _pt(*coords):
    return parse_point(coords)


def _strip():
    return factory.strip_partition(15, 5), GeneratorSet.of(15, 5)


def _pinwheel():
    return factory.pinwheel_partition(17, 10, 7), GeneratorSet.of(17, 10, 7)


def test_certify_strip_golden():
    p, g = _strip()
    cert = certify(p, g)
    assert cert.claimed_side == ClaimedSide(axis=1, length=_F(20))
    assert cert.bound == 20
    assert cert.assignment == (1, 1)
    assert cert.y.points == (_F(0), _F(15), _F(20))
    assert cert.reduction.derivation == Sum(Leaf(_F(15)), Leaf(_F(5)))
    assert cert.partition_sha256 == jsonio.partition_digest(p)


def test_certify_pinwheel_golden():
    p, g = _pinwheel()
    cert = certify(p, g)
    assert cert.claimed_side == ClaimedSide(axis=1, length=_F(20))
    assert cert.assignment == (2, 1, 1, 1, 1)
    assert cert.y.points == (_F(0), _F(10), _F(3), _F(20))
    assert cert.reduction.derivation == Triple(Leaf(_F(10)), Leaf(_F(7)), Leaf(_F(17)))


def test_certify_emits_identical_bytes_across_runs():
    p, g = _pinwheel()
    a = jsonio.canonical_json(certificate_to_json(certify(p, g)))
    b = jsonio.canonical_json(certificate_to_json(certify(p, g)))
    assert a == b


def test_certify_lifted_instances():
    for base, gens in (_strip(), _pinwheel()):
        p = factory.lift_product(base, 20, 3)
        cert = certify(p, gens)
        assert cert.claimed_side.length == 20
        assert check_certificate(cert, p, gens).ok


def test_certify_custom_start_corner():
    p, g = _strip()
    cert = certify(p, g, start=_pt(20, 20))
    assert cert.trail.start == _pt(20, 20)
    assert cert.claimed_side.length == 20
    assert check_certificate(cert, p, g).ok


def test_the_start_corner_is_read_as_exact_rationals():
    # An int start is read exactly and still written as "0"; a float start
    # is rejected like any float, and check reports it at the trail stage.
    p, g = _strip()
    cert = certify(p, g, start=(0, 0))
    assert cert.trail.start == _pt(0, 0)
    assert certificate_to_json(cert)["trail"]["start"] == ["0", "0"]
    with pytest.raises(ValueError, match="floats are not accepted"):
        certify(p, g, start=(0.0, 0.0))
    floated = dataclasses.replace(cert, start=(0.0, 0.0))
    result = check_certificate(floated, p, g)
    assert not result.ok
    assert result.reasons[0].startswith("trail"), result.reasons


def test_certify_rejects_invalid_partition():
    outer = Box(_pt(0, 0), _pt(4, 4))
    p = Partition(2, outer, (Box(_pt(0, 0), _pt(2, 4)),))
    with pytest.raises(PartitionInvalid) as info:
        certify(p, GeneratorSet.of(2))
    assert not info.value.report.ok


def test_certify_raises_hypothesis_violated():
    p, _ = _pinwheel()
    with pytest.raises(HypothesisViolated):
        certify(p, GeneratorSet.of(4))


def test_check_accepts_json_round_trip():
    p, g = _pinwheel()
    cert = certify(p, g)
    back = certificate_from_json(json.loads(jsonio.canonical_json(certificate_to_json(cert))))
    result = check_certificate(back, p, g)
    assert result.ok and result.reasons == ()
    assert bool(result)


def test_check_flags_wrong_partition():
    p, g = _pinwheel()
    cert = certify(p, g)
    other = factory.pinwheel_partition(17, 10, 6)
    result = check_certificate(cert, other, g)
    assert not result.ok
    assert result.reasons[0].startswith("digest")


def test_check_flags_wrong_gens():
    p, g = _pinwheel()
    cert = certify(p, g)
    result = check_certificate(cert, p, GeneratorSet.of(17, 10))
    assert not result.ok
    assert result.reasons[0].startswith("gens")


def _mutated_json(mutate):
    p, g = _pinwheel()
    cert = certify(p, g)
    payload = json.loads(jsonio.canonical_json(certificate_to_json(cert)))
    mutate(payload)
    return certificate_from_json(payload), p, g


@pytest.mark.parametrize(
    "gens",
    [
        ["7", "10", "17", "7"],
        ["17", "10", "7"],
        ["7", "10", "34/2"],
        ["7", "10", "017"],
        ["7", "10", 17],
    ],
    ids=["duplicated", "unsorted", "not-in-lowest-terms", "leading-zero", "integer"],
)
def test_check_accepts_only_the_gens_list_certify_writes(gens):
    # Each list parses to the set {7, 10, 17} that certify was given, but
    # certify writes it one way only: sorted, distinct, in lowest terms.
    def rewrite(payload):
        payload["gens"] = gens

    cert, p, g = _mutated_json(rewrite)
    assert cert.gens == g
    result = check_certificate(cert, p, g)
    assert not result.ok
    assert result.reasons[0].startswith("gens: certificate gens ")


def test_check_flags_tampered_assignment():
    def flip(payload):
        payload["assignment"][1] = 2  # box 2 reassigned to its 3-side

    cert, p, g = _mutated_json(flip)
    result = check_certificate(cert, p, g)
    assert not result.ok
    assert result.reasons[0].startswith("assignment")


def _swap_first_steps(payload):
    steps = payload["trail"]["steps"]
    steps[0], steps[1] = steps[1], steps[0]


def _edit_middle_step(field, value):
    # The pinwheel trail's step 2 is box 5, edge 1, from (10,17) to (3,17).
    def edit(payload):
        payload["trail"]["steps"][2][field] = value

    return edit


def _edit_trail_end(payload):
    payload["trail"]["end"] = ["20", "20"]


@pytest.mark.parametrize(
    "mutate",
    [
        _swap_first_steps,
        _edit_middle_step("from", ["11", "17"]),
        _edit_middle_step("to", ["4", "17"]),
        _edit_middle_step("box", 4),
        _edit_middle_step("edge", 0),
        _edit_trail_end,
    ],
    ids=["swap", "from", "to", "box", "edge", "end"],
)
def test_check_flags_tampered_trail(mutate):
    # Each field of a step is stored once, so an edit to any one of them,
    # parsed back, must make the trail differ from the recomputed one.
    cert, p, g = _mutated_json(mutate)
    result = check_certificate(cert, p, g)
    assert not result.ok
    assert result.reasons[0].startswith("trail")


def test_check_flags_tampered_projection():
    def bump(payload):
        # the reduction parses against the same y, so both stay consistent
        payload["y"]["points"][1] = "11"

    cert, p, g = _mutated_json(bump)
    result = check_certificate(cert, p, g)
    assert not result.ok
    assert result.reasons[0].startswith("projection")


def test_check_flags_tampered_claim():
    p, g = _pinwheel()
    cert = certify(p, g)
    bad = dataclasses.replace(
        cert, claimed_side=ClaimedSide(axis=2, length=cert.claimed_side.length)
    )
    result = check_certificate(bad, p, g)
    assert not result.ok
    assert result.reasons[0].startswith("claim")


def test_check_rejects_a_valid_but_non_canonical_trail():
    # This instance has a second non-repeating trail from the same start: take
    # the largest far endpoint at every vertex instead of the smallest.  Its
    # projection, reduction and claim are all consistent, but it is not the
    # trail certify extracts, so the trail stage rejects it.  The walk runs on
    # its own incidence map of the boxes' exact edges.
    p, g = factory.hypothesis_instance(
        factory.random_guillotine(2, max_depth=3, seed=1084), seed=5084
    )
    cert = certify(p, g)
    adjacency: dict = {}
    for k, b in enumerate(p.boxes, start=1):
        for e in edges_of_box(b, k, cert.assignment[k - 1]):
            adjacency.setdefault(e.src, []).append((e.dst, e))
            adjacency.setdefault(e.dst, []).append((e.src, e))
    used, current, steps = set(), cert.trail.start, []
    while True:
        options = [(far, e) for far, e in adjacency[current] if e not in used]
        if not options:
            break
        far, e = max(options, key=lambda fe: (fe[0], fe[1].box, fe[1].edge_id))
        used.add(e)
        steps.append(Edge(e.box, e.edge_id, current, far))
        current = far
    trail = Trail(start=cert.trail.start, steps=tuple(steps), end=current)
    assert trail != cert.trail
    y = project_to_axis(trail, p)
    closure = bounded_closure(g, max(p.outer.extents()))
    bad = dataclasses.replace(
        cert,
        audit=pipeline._write_audit(cert.bound, cert.assignment, trail, y),
        reduction=reduce_sequence(y, closure.derivation_for),
        claimed_side=ClaimedSide(axis=y.axis, length=y.length),
    )
    result = check_certificate(bad, p, g)
    assert not result.ok
    assert result.reasons[0].startswith("trail")


def test_check_rejects_a_valid_but_non_canonical_assignment():
    # Box 1 of strip(15,5) has both extents in the closure of {15, 5}; giving
    # it its 20-side instead of its 15-side yields a consistent trail,
    # projection (0 -> 20 on axis 2), reduction and claim.  It is not the
    # assignment certify makes, so the assignment stage rejects it.
    p, g = _strip()
    cert = certify(p, g)
    assignment = (2, 1)
    trail = extract_trail(build_graph(p, assignment), cert.trail.start)
    y = project_to_axis(trail, p)
    assert (y.axis, y.points) == (2, (_F(0), _F(20)))
    closure = bounded_closure(g, max(p.outer.extents()))
    bad = dataclasses.replace(
        cert,
        audit=pipeline._write_audit(cert.bound, assignment, trail, y),
        reduction=reduce_sequence(y, closure.derivation_for),
        claimed_side=ClaimedSide(axis=y.axis, length=y.length),
    )
    result = check_certificate(bad, p, g)
    assert not result.ok
    assert result.reasons[0].startswith("assignment")


def test_check_never_raises_on_garbage_fields():
    p, g = _pinwheel()
    cert = certify(p, g)
    bad = dataclasses.replace(
        cert, audit=pipeline._write_audit(_F(-5), cert.assignment, cert.trail, cert.y)
    )
    result = check_certificate(bad, p, g)
    assert not result.ok
    assert result.reasons[0].startswith("bound")


# --- the audit record: compared as written, never decoded by check ---------


def _put(doc, *path_and_value):
    """Set (or add) the entry at ``path`` of a JSON document."""
    *head, last, value = path_and_value
    for k in head:
        doc = doc[k]
    doc[last] = value


def _written(p, g) -> dict:
    return json.loads(jsonio.canonical_json(certificate_to_json(certify(p, g))))


# Spellings of the pinwheel(17,10,7) certificate's audit values that denote
# what certify wrote but are not what it writes, with the stage that must
# reject each: (path and value, stage).
_RESPELLINGS = {
    "trail coordinate 10/1": (("trail", "steps", 1, "to", 0, "10/1"), "trail"),
    "trail start 0/1": (("trail", "start", 1, "0/1"), "trail"),
    "extra key in a step": (("trail", "steps", 0, "note", "x"), "trail"),
    "true for a step box": (("trail", "steps", 0, "box", True), "trail"),
    "1.0 for a step box": (("trail", "steps", 1, "box", 2.0), "trail"),
    "true for a step edge": (("trail", "steps", 2, "edge", True), "trail"),
    "1.0 for a step edge": (("trail", "steps", 0, "edge", 0.0), "trail"),
    "y point 10/1": (("y", "points", 1, "10/1"), "projection"),
    "y length 20/1": (("y", "length", "20/1"), "projection"),
    "true for y.axis": (("y", "axis", True), "projection"),
    "1.0 for y.axis": (("y", "axis", 1.0), "projection"),
    "bound as a JSON integer": (("bound", 20), "bound"),
    "true in assignment": (("assignment", 1, True), "assignment"),
    "1.0 in assignment": (("assignment", 0, 2.0), "assignment"),
}


@pytest.mark.parametrize("name", sorted(_RESPELLINGS))
def test_check_accepts_each_audit_field_only_as_certify_writes_it(name):
    # ``==`` holds "10/1" apart from "10", but not true or 1.0 from 1: the
    # integer positions are checked for type as well.
    edit, stage = _RESPELLINGS[name]
    p, g = _pinwheel()
    doc = _written(p, g)
    assert check_certificate(certificate_from_json(doc), p, g).ok
    _put(doc, *edit)
    result = check_certificate(certificate_from_json(doc), p, g)
    assert not result.ok
    assert result.reasons[0].split(":")[0] == stage, result.reasons


# Spellings of the same certificate's other fields outside the derivation
# table, with the stage that must reject each.
_ENVELOPE_RESPELLINGS = {
    "extra top-level key": (("note", "x"), "certificate"),
    "extra key in claimed_side": (("claimed_side", "note", "x"), "claim"),
    "extra key in reduction": (("reduction", "note", "x"), "reduction"),
    "claimed length 20/1": (("claimed_side", "length", "20/1"), "claim"),
    "claimed length as a JSON integer": (("claimed_side", "length", 20), "claim"),
    "reduction result 20/1": (("reduction", "result", "20/1"), "reduction"),
    "reduction result as a JSON integer": (("reduction", "result", 20), "reduction"),
}


@pytest.mark.parametrize("name", sorted(_ENVELOPE_RESPELLINGS))
def test_check_accepts_the_envelope_only_as_certify_writes_it(name):
    # Each edit parses to the certificate certify wrote; only its spelling
    # or an unread key differs.
    edit, stage = _ENVELOPE_RESPELLINGS[name]
    p, g = _pinwheel()
    doc = _written(p, g)
    _put(doc, *edit)
    cert = certificate_from_json(doc)
    assert cert.claimed_side == ClaimedSide(axis=1, length=_F(20))
    assert cert.reduction.result == 20
    result = check_certificate(cert, p, g)
    assert not result.ok
    assert result.reasons[0].split(":")[0] == stage, result.reasons


def test_certificate_from_json_parses_no_rational_inside_the_audit(monkeypatch):
    # Of a 300-strip row's rationals, the parser reads those of gens, the
    # table, the result, the claimed length and the trail's start; none of
    # the trail's 1,200 step coordinates or the 301 y points.
    p, g = _row300()
    doc = _written(p, g)
    read = {
        *doc["gens"],
        *(e["value"] for e in doc["reduction"]["derivation"]),
        doc["reduction"]["result"],
        doc["claimed_side"]["length"],
        *doc["trail"]["start"],
    }
    calls = [0]
    parse = jsonio.parse_rat

    def counted(value):
        calls[0] += 1
        return parse(value)

    monkeypatch.setattr(jsonio, "parse_rat", counted)
    cert = certificate_from_json(doc)
    assert 0 < calls[0] <= len(read) < 30
    assert len(cert.audit["trail"]["steps"]) == 300


_HOSTILE_AUDITS = {
    "steps as a string": (("trail", "steps", "junk"), "trail"),
    "a step that is a list": (("trail", "steps", 2, [1, 0, "3", "17"]), "trail"),
    "a point that is a dict": (("trail", "steps", 1, "from", {"x": "0"}), "trail"),
    "a y point that is a dict": (("y", "points", 1, {"p": 3}), "projection"),
    "an exponent y point": (("y", "points", 1, "1e3000000"), "projection"),
    "10^5 junk steps": (("trail", "steps", [[None, {}, "1e3"]] * 100_000), "trail"),
}


@pytest.mark.parametrize("name", sorted(_HOSTILE_AUDITS))
def test_check_rejects_malformed_audit_content_at_its_stage_in_time(name):
    # Malformed content inside an audit field parses (nothing in it is
    # decoded) and is rejected by the comparison, at that field's stage;
    # the field's view raises on it.
    edit, stage = _HOSTILE_AUDITS[name]
    p, g = _row300()
    doc = _written(p, g)
    _put(doc, *edit)
    t0 = time.perf_counter()
    cert = certificate_from_json(doc)
    result = check_certificate(cert, p, g)
    assert time.perf_counter() - t0 < 1.0
    assert not result.ok
    assert result.reasons[0].split(":")[0] == stage, result.reasons
    with pytest.raises(ValueError):
        getattr(cert, "trail" if stage == "trail" else "y")


def test_check_does_not_rerun_the_reduction(monkeypatch):
    p, g = _pinwheel()
    cert = certify(p, g)

    def forbidden(*args):
        raise AssertionError("check re-ran the reduction")

    monkeypatch.setattr(pipeline, "reduce_sequence", forbidden)
    monkeypatch.setattr(reduction, "reduce_sequence", forbidden)
    result = check_certificate(cert, p, g)
    assert result.ok, result.reasons


def _count_op_calls(fn):
    """``fn()`` and the number of op_sum/op_triple calls it made.

    Calls are told apart by code object, so a reference held anywhere (a
    table of operations, say) is counted too.
    """
    codes = {op_sum.__code__, op_triple.__code__}
    calls = [0]

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls[0] += 1

    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, calls[0]


def _row300():
    rng = random.Random(300)
    xs = [0]
    for _ in range(300):
        xs.append(xs[-1] + rng.randint(2, 9))
    height = _F("5/3")
    strips = tuple(Box((_F(a), _F(0)), (_F(b), height)) for a, b in zip(xs, xs[1:]))
    p = Partition(2, Box((_F(0), _F(0)), (_F(xs[-1]), height)), strips)
    return p, GeneratorSet.of(*range(2, 10))


def test_certify_evaluates_each_node_it_builds_once():
    p, g = _row300()

    def certify_and_write():
        cert = certify(p, g)
        certificate_to_json(cert)
        return cert

    cert, calls = _count_op_calls(certify_and_write)
    # Every step is a generator, so each internal node is one reducer merge.
    internal = [n for n in topological(cert.reduction.derivation) if not isinstance(n, Leaf)]
    merges = [s for s in cert.reduction.steps if s.kind != "loop"]
    assert len(internal) == len(merges) > 250
    assert calls == len(internal)


def test_check_evaluates_each_table_entry_once(monkeypatch):
    # The row's chain of sums is one entry over its 300 strips: it is built
    # once, and costs one op_sum per distinct child after the first (two
    # operands cost one), not one per strip.
    p, g = _row300()
    doc = json.loads(jsonio.canonical_json(certificate_to_json(certify(p, g))))
    table = doc["reduction"]["derivation"]
    sums = [e for e in table if e["op"] == "sum"]
    bound = sum(max(len(set(e["args"])) - 1, 1) for e in sums)
    bound += sum(e["op"] == "triple" for e in table)
    built = [0]
    evaluate = Sum.__post_init__

    def counted(node):
        built[0] += 1
        evaluate(node)

    monkeypatch.setattr(Sum, "__post_init__", counted)
    result, calls = _count_op_calls(
        lambda: check_certificate(certificate_from_json(doc), p, g)
    )
    assert result.ok, result.reasons
    assert built[0] == len(sums) == 1
    assert calls <= bound <= 8, (calls, bound)


def test_certify_does_fraction_work_per_distinct_extent_and_position(monkeypatch):
    # The projection, the step check and the reduction run on ranks and grid
    # integers, so one certify subtracts and equates Fractions a bounded
    # number of times: per distinct box extent (axis assignment) and per y
    # point, not per step or merge.  The YSequence checks its order on the
    # projection's ranks, so the projection order-compares no Fraction per
    # position (only the length with 0).
    p, g = _row300()
    extents = {(j, b.lo[j], b.hi[j]) for b in p.boxes for j in range(p.dim)}
    calls = {"sub": 0, "eq": 0, "order": 0}
    projecting = [False]

    def counting(kind, method):
        def counted(*args):
            if kind != "order" or projecting[0]:
                calls[kind] += 1
            return method(*args)

        return counted

    def project(*args):
        projecting[0] = True
        try:
            return real_project(*args)
        finally:
            projecting[0] = False

    real_project = pipeline.project_to_axis
    monkeypatch.setattr(pipeline, "project_to_axis", project)

    for name in ("__sub__", "__rsub__"):
        monkeypatch.setattr(Fraction, name, counting("sub", getattr(Fraction, name)))
    monkeypatch.setattr(Fraction, "__eq__", counting("eq", Fraction.__eq__))
    for name in ("__lt__", "__le__", "__gt__", "__ge__"):
        monkeypatch.setattr(Fraction, name, counting("order", getattr(Fraction, name)))
    cert = certify(p, g)
    monkeypatch.undo()
    assert len(cert.y.points) == len(p.boxes) + 1
    bound = len(extents) + len(cert.y.points)
    assert 0 < calls["sub"] <= bound, calls
    assert 0 < calls["eq"] <= bound, calls
    assert calls["order"] <= 1, calls


@pytest.mark.parametrize(
    "tamper, message",
    [
        (
            lambda y: YSequence(y.axis, y.length, y.points[::2], y.ranks[::2]),
            "projected step 0 -> 20 is not the span of a box assigned axis 1",
        ),
        (
            lambda y: dataclasses.replace(y, ranks=()),
            "projected positions carry no ranks",
        ),
    ],
    ids=["skipped-vertex", "no-ranks"],
)
def test_certify_checks_each_projected_step_against_the_assigned_spans(
    monkeypatch, tamper, message
):
    # A projection that skips a vertex still runs from 0 to the outer extent
    # and its one step, 20, is in the closure; only the step check sees that
    # no box assigned axis 1 spans it.
    p, g = _strip()
    cert = certify(p, g)
    real = pipeline.project_to_axis
    monkeypatch.setattr(pipeline, "project_to_axis", lambda t, view: tamper(real(t, view)))
    with pytest.raises(SoundnessError, match=f"^{message}$"):
        certify(p, g)
    result = check_certificate(cert, p, g)
    assert result.reasons == (f"error: SoundnessError: {message}",)


def test_check_runs_the_kernel_before_any_partition_work(monkeypatch):
    p, g = _pinwheel()
    enc = certificate_to_json(certify(p, g))

    def forbidden(*args):
        raise AssertionError("check validated the partition")

    monkeypatch.setattr(pipeline, "validate_partition", forbidden)
    for field in ("result", "length"):
        bad = json.loads(json.dumps(enc))
        part = bad["reduction"] if field == "result" else bad["claimed_side"]
        part[field] = "21"
        result = check_certificate(certificate_from_json(bad), p, g)
        assert not result.ok
        assert result.reasons[0].split(":")[0] in ("claim", "reduction"), result.reasons


def _leaf_only(value):
    """A reduction whose derivation is the single leaf ``value``."""
    return {"result": value, "derivation": [{"op": "leaf", "value": value, "args": []}]}


def _leaf_in_place_of(n):
    """Forge a reduction: derivation entry ``n`` becomes a leaf of its own
    value, the entries only it used are dropped, and the entries above it are
    re-indexed.  Every value, the root's included, stays as it was."""

    def forge(reduction):
        table = [dict(e) for e in reduction["derivation"]]
        table[n] = {"op": "leaf", "value": table[n]["value"], "args": []}
        kept = {len(table) - 1}
        for i in range(len(table) - 1, -1, -1):
            if i in kept:
                kept.update(table[i]["args"])
        index = {old: new for new, old in enumerate(sorted(kept))}
        derivation = [
            dict(table[i], args=[index[a] for a in table[i]["args"]])
            for i in sorted(kept)
        ]
        return dict(reduction, derivation=derivation)

    return forge


def _wide_root(reduction, value, drop, add=None):
    """Forge a reduction whose root is a wide sum: ``drop`` of its operands
    that are the leaf ``value`` go, and a new leaf ``add`` (placed before the
    root) joins it.  The root's value and the result follow."""
    table = [dict(e) for e in reduction["derivation"]]
    *body, root = table
    leaf = next(i for i, e in enumerate(body) if e == {"op": "leaf", "value": value, "args": []})
    args = list(root["args"])
    for _ in range(drop):
        args.remove(leaf)
    total = parse_rat(root["value"]) - drop * parse_rat(value)
    if add is not None:
        body.append({"op": "leaf", "value": add, "args": []})
        args.append(len(body) - 1)
        total += parse_rat(add)
    root = dict(root, args=args, value=format_rat(total))
    return dict(reduction, result=root["value"], derivation=body + [root])


def _pinwheel_46_77():
    # 46/77 has no sum split in the closure of {3/5, 4/7, 6/11}: the derivation
    # of the claimed 232/385 holds it as a triple, an internal entry.
    return (
        factory.pinwheel_partition("3/5", "3/5", "46/77"),
        GeneratorSet.of("3/5", "4/7", "6/11"),
    )


@pytest.mark.parametrize(
    "instance, reduction, claim, reason",
    [
        # A valid derivation of another element, the result moved to match.
        (
            _pinwheel,
            _leaf_only("7"),
            {},
            "claim: derived result does not match the claimed length",
        ),
        # Derivation, result and claimed length agree on 17, which is no
        # outer extent; the audit's last comparison would catch it later.
        (
            _pinwheel,
            _leaf_only("17"),
            {"length": "17"},
            "claim: claimed length is not the outer extent",
        ),
        (_pinwheel, None, {"axis": 3}, "claim: axis 3 out of range"),
        # The triple 46/77 (entry 3) turned into a leaf: root value, result
        # and claim still agree on 232/385, but 46/77 is no generator.
        (
            _pinwheel_46_77,
            _leaf_in_place_of(3),
            {},
            "reduction: leaf 46/77 is not a generator",
        ),
        # One strip fewer in the row's wide sum, the table kept consistent.
        (
            _row300,
            lambda r: _wide_root(r, "9", drop=1),
            {},
            "claim: derived result does not match the claimed length",
        ),
        # Two strips of 9 in the wide sum become one leaf 18: every value
        # stays, but 18 is no generator.
        (
            _row300,
            lambda r: _wide_root(r, "9", drop=2, add="18"),
            {},
            "reduction: leaf 18 is not a generator",
        ),
    ],
    ids=[
        "result_moved",
        "claim_moved",
        "axis_out_of_range",
        "non_generator_leaf",
        "multiplicity_changed",
        "non_generator_leaf_in_wide_sum",
    ],
)
def test_check_kernel_rejects_self_consistent_forgeries(instance, reduction, claim, reason):
    # Each forgery parses and breaks exactly one kernel fact.  The kernel alone
    # must give the same first reason, so the audit after it cannot mask a
    # missing kernel line.
    p, g = instance()
    enc = certificate_to_json(certify(p, g))
    if callable(reduction):
        enc["reduction"] = reduction(enc["reduction"])
        assert enc["reduction"]["derivation"][-1]["value"] == enc["reduction"]["result"]
    elif reduction is not None:
        enc["reduction"] = reduction
    enc["claimed_side"].update(claim)
    forged = certificate_from_json(enc)
    result = check_certificate(forged, p, g)
    assert not result.ok
    assert result.reasons[0] == reason
    assert pipeline._kernel(forged, p, g) == tuple(reason.split(": ", 1))


def _table_rejected(table, error):
    try:
        jsonio.derivation_from_json(table)
    except ValueError as exc:
        assert str(exc) == error, exc
    else:
        raise AssertionError(f"accepted {table}")


def _sum_rejected(*args):
    try:
        Sum(*args)
    except ValueError:
        return
    raise AssertionError(f"built a sum of {args}")


def _row_checks_out():
    p, g = _row300()
    doc = json.loads(jsonio.canonical_json(certificate_to_json(certify(p, g))))
    assert check_certificate(certificate_from_json(doc), p, g).ok


def _wide_forgery_rejected_at_claim():
    p, g = _row300()
    enc = certificate_to_json(certify(p, g))
    enc["reduction"] = _wide_root(enc["reduction"], "9", drop=1)
    reasons = check_certificate(certificate_from_json(enc), p, g).reasons
    assert reasons == ("claim: derived result does not match the claimed length",)


_TWO, _THREE = ({"op": "leaf", "value": v, "args": []} for v in ("2", "3"))
_SUM_KILLERS = (
    _row_checks_out,
    _wide_forgery_rejected_at_claim,
    lambda: _table_rejected(
        [_TWO, _THREE, {"op": "sum", "value": "8", "args": [0, 0, 1]}],
        "derivation[2]: value annotation 8 does not match recomputed 7",
    ),
    lambda: _table_rejected(
        [_TWO, {"op": "sum", "value": "2", "args": [0]}],
        "derivation[1]: op 'sum' takes 2 or more arguments, got 1",
    ),
    lambda: _sum_rejected(Leaf(_F(1))),
    lambda: _sum_rejected(*[Leaf(_F(0))] * 3),
)

# Hand-written mutants of the n-ary sum: (function, owner, text, replacement).
_SUM_MUTANTS = {
    "multiplicity ignored": (
        Sum.__post_init__, Sum, "times.pop(id(k)) * k.value", "times.pop(id(k)) and k.value"
    ),
    "positivity test dropped": (Sum.__post_init__, Sum, "if terms[0] <= 0:", "if False:"),
    "one-operand sum built": (Sum.__post_init__, Sum, "if len(args) < 2:", "if False:"),
    "one-operand sum parsed": (
        jsonio.derivation_from_json, jsonio, "len(args) < arity or ", ""
    ),
    "annotation comparison dropped": (
        jsonio.derivation_from_json, jsonio, "if node.value != claimed:", "if False:"
    ),
}


def _survives(killers) -> bool:
    for killer in killers:
        try:
            killer()
        except Exception:
            return False
    return True


@pytest.mark.parametrize("name", sorted(_SUM_MUTANTS))
def test_hand_written_sum_mutants_are_killed(monkeypatch, name):
    # Each mutant is compiled from the function's source with one edit and
    # swapped into its class or module in-process, never written to disk.
    assert _survives(_SUM_KILLERS)
    fn, owner, text, replacement = _SUM_MUTANTS[name]
    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(text) == 1, f"{name}: {text!r} is not in {fn.__qualname__}"
    code = compile(
        source.replace(text, replacement),
        inspect.getsourcefile(fn),
        "exec",
        flags=__future__.annotations.compiler_flag,
        dont_inherit=True,
    )
    namespace = dict(fn.__globals__)
    exec(code, namespace)
    monkeypatch.setattr(owner, fn.__name__, namespace[fn.__name__])
    assert not _survives(_SUM_KILLERS), f"mutant survived: {name}"


def test_check_rejects_unreachable_and_duplicate_table_entries():
    # Prepend a leaf no entry uses and append a copy of the root: every value
    # still checks out, but the table is not the derivation certify writes.
    p, g = _pinwheel()
    enc = certificate_to_json(certify(p, g))
    table = enc["reduction"]["derivation"]
    shifted = [dict(e, args=[a + 1 for a in e["args"]]) for e in table]
    enc["reduction"]["derivation"] = (
        [{"op": "leaf", "value": "99991", "args": []}] + shifted + [dict(shifted[-1])]
    )
    with pytest.raises(ValueError):
        certificate_from_json(enc)


def test_certificate_json_shape():
    p, g = _pinwheel()
    enc = certificate_to_json(certify(p, g))
    assert set(enc) == {
        "partition_sha256",
        "gens",
        "bound",
        "assignment",
        "trail",
        "y",
        "reduction",
        "claimed_side",
    }
    assert enc["assignment"] == [2, 1, 1, 1, 1]
    assert enc["claimed_side"] == {"axis": 1, "length": "20"}


def test_certificate_from_json_rejects_malformed():
    p, g = _pinwheel()
    enc = certificate_to_json(certify(p, g))
    del enc["trail"]
    with pytest.raises(ValueError):
        certificate_from_json(enc)


# Digests of canonical certificate bytes.  Any change in which producing rule
# a derivation uses, or in how the derivation table is laid out, changes
# these bytes.
GOLDEN_CERT_SHA256 = {
    "strip(15,5)": "510046ed454378fc28356752a510d5d8edc175ddb1643778f2c345bb569f717f",
    "pinwheel(17,10,7)": "51a8bed1ee8d43022bd3e4ec9b197f9346033539958f9e80bbea03809954b762",
    "pinwheel(17,10,7) x [0,20]": "9a7a5d033a025dd98caa9929043c3de73fc89524172ceded915f0081e7ece46c",
    "pinwheel(3/5,3/5,46/77)": "67d9df9889566f33b11323557cfca9c47b9f1a2bbdaf56282a996a3d72ccdede",
    "guillotine 2D seed 1026": "ce6cdf8ae4b84f5c2288098d368983315fffa8133c4271e53aaaddd1d2bf10c1",
    "guillotine 3D seed 1017": "87196472443143fc0315670dba619737494b6b2845c51391a91bb7bc99c0ae3f",
}


def _golden_instances():
    pin, pin_gens = _pinwheel()
    return {
        "strip(15,5)": _strip(),
        "pinwheel(17,10,7)": (pin, pin_gens),
        "pinwheel(17,10,7) x [0,20]": (factory.lift_product(pin, 20, 3), pin_gens),
        # 46/77 has no sum split in the closure of {3/5, 4/7, 6/11}: its
        # derivation comes from a triple rule.
        "pinwheel(3/5,3/5,46/77)": (
            factory.pinwheel_partition("3/5", "3/5", "46/77"),
            GeneratorSet.of("3/5", "4/7", "6/11"),
        ),
        "guillotine 2D seed 1026": factory.hypothesis_instance(
            factory.random_guillotine(2, max_depth=4, seed=1026), seed=5026
        ),
        "guillotine 3D seed 1017": factory.hypothesis_instance(
            factory.random_guillotine(3, max_depth=3, seed=1017), seed=5017
        ),
    }


def test_certificate_bytes_match_golden_digests():
    got = {}
    for name, (p, g) in _golden_instances().items():
        data = jsonio.canonical_json(certificate_to_json(certify(p, g))).encode("utf-8")
        got[name] = hashlib.sha256(data).hexdigest()
    assert got == GOLDEN_CERT_SHA256


def _seeded_row(seed):
    """A row of strips whose widths are closure members over a few small
    generators, so step derivations are sums and triples that share."""
    rng = random.Random(seed)
    g = GeneratorSet.of(*rng.sample(range(2, 12), rng.randint(1, 3)))
    members = bounded_closure(g, 30).sorted_elements()
    xs = [_F(0)]
    for _ in range(rng.randint(1, 40)):
        xs.append(xs[-1] + rng.choice(members))
    height = _F(f"{rng.randint(1, 9)}/{rng.randint(1, 4)}")
    strips = tuple(Box((a, _F(0)), (b, height)) for a, b in zip(xs, xs[1:]))
    return Partition(2, Box((_F(0), _F(0)), (xs[-1], height)), strips), g


def test_certificate_json_round_trips_through_the_parser():
    # Parsing keeps one node per table entry and writing folds nothing more,
    # so the parsed certificate writes the bytes it was read from.
    cases = [
        *_golden_instances().values(),
        *(_seeded_row(seed) for seed in range(40)),
        *(
            factory.hypothesis_instance(
                factory.random_guillotine(n, max_depth=5 - n, seed=seed), seed=seed
            )
            for seed in range(20)
            for n in (2, 3)
        ),
    ]
    for p, g in cases:
        doc = json.loads(jsonio.canonical_json(certificate_to_json(certify(p, g))))
        assert certificate_to_json(certificate_from_json(doc)) == doc


def test_certificate_size_follows_distinct_sub_derivations():
    # Over {1} the derivation of 6400 is a tree with 6400 leaves, but it has
    # only a few dozen distinct sub-derivations, and each is written once.
    p, g = factory.strip_partition(3200, 3200), GeneratorSet.of(1)
    data = jsonio.canonical_json(certificate_to_json(certify(p, g)))
    assert len(data) < 2_000
    # A row's derivation is a chain of sums over the strip widths: one leaf
    # entry per distinct width, however many strips there are.
    rng = random.Random(300)
    widths = [rng.randint(2, 9) for _ in range(300)]
    xs = [0]
    for w in widths:
        xs.append(xs[-1] + w)
    outer = Box(_pt(0, 0), _pt(xs[-1], "5/3"))
    row = Partition(2, outer, tuple(Box(_pt(a, 0), _pt(b, "5/3")) for a, b in zip(xs, xs[1:])))
    table = certificate_to_json(certify(row, GeneratorSet.from_values(widths)))
    leaves = [e for e in table["reduction"]["derivation"] if e["op"] == "leaf"]
    assert len(leaves) <= len(set(widths))


def test_check_closure_is_capped_by_the_partition(monkeypatch):
    # A recorded bound far above the outer extent must not set the checker's
    # cost.  The guard fails fast instead of saturating a huge closure.
    real_closure = pipeline.bounded_closure

    def guarded(gens, bound):
        assert bound <= max(p.outer.extents()), f"closure bound {bound}"
        return real_closure(gens, bound)

    monkeypatch.setattr(pipeline, "bounded_closure", guarded)
    cases = [
        (*_pinwheel(), "20000"),
        (
            factory.pinwheel_partition("5/37", "7/41", "3/31"),
            GeneratorSet.of("5/37", "7/41", "3/31"),
            "200000",
        ),
    ]
    for p, g, bound in cases:
        enc = certificate_to_json(certify(p, g))
        enc["bound"] = bound
        t0 = time.perf_counter()
        result = check_certificate(certificate_from_json(enc), p, g)
        assert not result.ok
        assert result.reasons[0].startswith("bound"), result.reasons
        assert time.perf_counter() - t0 < 2.0
    # The bound is the largest outer extent; a smaller one is rejected too.
    p, g = _pinwheel()
    enc = certificate_to_json(certify(p, g))
    enc["bound"] = "15"
    result = check_certificate(certificate_from_json(enc), p, g)
    assert not result.ok
    assert result.reasons[0].startswith("bound"), result.reasons
