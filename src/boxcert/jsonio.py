"""JSON wire formats and the canonical bytes used for hashing.

All rationals travel as lowest-terms strings (``"p/q"``, or ``"p"`` for
integers); plain JSON integers are accepted on input.  Non-integer JSON
numbers are rejected: a binary float almost never denotes the decimal the
user wrote, and every consumer here needs exact values.

``canonical_json`` (sorted keys, no whitespace) defines the byte string that
content digests are computed over; pretty output is for files and humans and
hashes the same because digests are always recomputed from parsed data.
"""
from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Any

from .closure import (
    Derivation,
    Leaf,
    Sum,
    Triple,
    op_sum,
    op_triple,
)
from .geometry import Box, Partition, Point, parse_rat, format_rat
from .reduction import ReductionCertificate, RewriteStep
from .trailgraph import Edge, Trail, TrailStep, YSequence


def canonical_json(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def pretty_json(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# --- rationals and points ---------------------------------------------------


def rat_from_json(obj: Any, where: str = "value") -> Fraction:
    if isinstance(obj, bool) or not isinstance(obj, (int, str)):
        raise ValueError(
            f"{where}: expected an integer or a \"p/q\" string, got {obj!r}"
        )
    return parse_rat(obj)


def point_from_json(obj: Any, where: str = "point") -> Point:
    if not isinstance(obj, list) or not obj:
        raise ValueError(f"{where}: expected a non-empty list of rationals")
    return tuple(rat_from_json(c, f"{where}[{i}]") for i, c in enumerate(obj))


def point_to_json(p: Point) -> list[str]:
    return [format_rat(c) for c in p]


def expect_dict(obj: Any, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected an object, got {type(obj).__name__}")
    return obj


def expect_list(obj: Any, where: str) -> list:
    if not isinstance(obj, list):
        raise ValueError(f"{where}: expected an array, got {type(obj).__name__}")
    return obj


def expect_int(obj: Any, where: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ValueError(f"{where}: expected an integer, got {obj!r}")
    return obj


def get_key(obj: dict, key: str, where: str) -> Any:
    if key not in obj:
        raise ValueError(f"{where}: missing key {key!r}")
    return obj[key]


# --- partitions -------------------------------------------------------------


def box_to_json(b: Box) -> dict:
    return {"lo": point_to_json(b.lo), "hi": point_to_json(b.hi)}


def box_from_json(obj: Any, where: str = "box") -> Box:
    d = expect_dict(obj, where)
    return Box(
        point_from_json(get_key(d, "lo", where), f"{where}.lo"),
        point_from_json(get_key(d, "hi", where), f"{where}.hi"),
    )


def partition_to_json(p: Partition) -> dict:
    return {
        "dim": p.dim,
        "outer": box_to_json(p.outer),
        "boxes": [box_to_json(b) for b in p.boxes],
    }


def partition_from_json(obj: Any) -> Partition:
    d = expect_dict(obj, "partition")
    dim = expect_int(get_key(d, "dim", "partition"), "partition.dim")
    outer = box_from_json(get_key(d, "outer", "partition"), "partition.outer")
    boxes = [
        box_from_json(b, f"partition.boxes[{i}]")
        for i, b in enumerate(expect_list(get_key(d, "boxes", "partition"), "partition.boxes"))
    ]
    return Partition(dim=dim, outer=outer, boxes=tuple(boxes))


def partition_digest(p: Partition) -> str:
    """sha256 over the canonical JSON form of the partition."""
    data = canonical_json(partition_to_json(p)).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


# --- derivations ------------------------------------------------------------


def derivation_to_json(d: Derivation) -> dict:
    """Nested ``{"op", "value", "args"}`` payload, built without recursion."""
    payloads: dict[int, dict] = {}
    values: dict[int, Fraction] = {}
    stack: list[Derivation] = [d]
    while stack:
        node = stack[-1]
        if id(node) in payloads:
            stack.pop()
            continue
        if isinstance(node, Leaf):
            values[id(node)] = node.value
            payloads[id(node)] = {
                "op": "leaf", "value": format_rat(node.value), "args": [],
            }
            stack.pop()
            continue
        if isinstance(node, Sum):
            kids = (node.left, node.right)
        elif isinstance(node, Triple):
            kids = (node.first, node.second, node.third)
        else:
            raise ValueError(f"not a derivation node: {node!r}")
        pending = [k for k in kids if id(k) not in payloads]
        if pending:
            stack.extend(pending)
            continue
        if isinstance(node, Sum):
            value = op_sum(values[id(kids[0])], values[id(kids[1])])
            op = "sum"
        else:
            value = op_triple(*(values[id(k)] for k in kids))
            op = "triple"
        values[id(node)] = value
        payloads[id(node)] = {
            "op": op,
            "value": format_rat(value),
            "args": [payloads[id(k)] for k in kids],
        }
        stack.pop()
    return payloads[id(d)]


def derivation_from_json(obj: Any, where: str = "derivation") -> Derivation:
    """Parse and *check* a derivation payload.

    Arities must match the op, and each node's "value" annotation must equal
    the value recomputed from its children — a payload whose annotations lie
    is rejected here, before any semantic checking.  Iterative, so deeply
    chained derivations parse without recursion limits.
    """
    preorder: list[tuple[Any, str, str, Fraction, list]] = []
    todo: list[tuple[Any, str]] = [(obj, where)]
    while todo:
        node_obj, node_where = todo.pop()
        d = expect_dict(node_obj, node_where)
        op = get_key(d, "op", node_where)
        args = expect_list(get_key(d, "args", node_where), f"{node_where}.args")
        claimed = rat_from_json(get_key(d, "value", node_where), f"{node_where}.value")
        arity = {"leaf": 0, "sum": 2, "triple": 3}.get(op)
        if arity is None:
            raise ValueError(f"{node_where}.op: unknown operation {op!r}")
        if len(args) != arity:
            raise ValueError(
                f"{node_where}: op {op!r} takes {arity} arguments, got {len(args)}"
            )
        preorder.append((node_obj, node_where, op, claimed, args))
        for i, a in enumerate(args):
            todo.append((a, f"{node_where}.args[{i}]"))
    # Reverse preorder puts every child before its parent.
    built: dict[int, tuple[Derivation, Fraction]] = {}
    for node_obj, node_where, op, claimed, args in reversed(preorder):
        if op == "leaf":
            if claimed <= 0:
                raise ValueError(f"{node_where}: leaf value must be positive")
            built[id(node_obj)] = (Leaf(claimed), claimed)
            continue
        kids = [built[id(a)][0] for a in args]
        kid_values = [built[id(a)][1] for a in args]
        if op == "sum":
            node: Derivation = Sum(kids[0], kids[1])
            value = op_sum(kid_values[0], kid_values[1])
        else:
            node = Triple(kids[0], kids[1], kids[2])
            value = op_triple(kid_values[0], kid_values[1], kid_values[2])
        if value != claimed:
            raise ValueError(
                f"{node_where}: value annotation {format_rat(claimed)} does not "
                f"match recomputed {format_rat(value)}"
            )
        built[id(node_obj)] = (node, value)
    return built[id(obj)][0]


# --- trails and sequences ---------------------------------------------------


def trail_to_json(t: Trail) -> dict:
    return {
        "start": point_to_json(t.start),
        "end": point_to_json(t.end),
        "steps": [
            {
                "box": s.edge.box,
                "edge": s.edge.edge_id,
                "from": point_to_json(s.src),
                "to": point_to_json(s.dst),
            }
            for s in t.steps
        ],
    }


def trail_from_json(obj: Any) -> Trail:
    d = expect_dict(obj, "trail")
    start = point_from_json(get_key(d, "start", "trail"), "trail.start")
    end = point_from_json(get_key(d, "end", "trail"), "trail.end")
    steps: list[TrailStep] = []
    for i, s in enumerate(expect_list(get_key(d, "steps", "trail"), "trail.steps")):
        where = f"trail.steps[{i}]"
        sd = expect_dict(s, where)
        src = point_from_json(get_key(sd, "from", where), f"{where}.from")
        dst = point_from_json(get_key(sd, "to", where), f"{where}.to")
        edge = Edge(
            box=expect_int(get_key(sd, "box", where), f"{where}.box"),
            edge_id=expect_int(get_key(sd, "edge", where), f"{where}.edge"),
            a=min(src, dst),
            b=max(src, dst),
        )
        steps.append(TrailStep(edge=edge, src=src, dst=dst))
    return Trail(start=start, steps=tuple(steps), end=end)


def ysequence_to_json(y: YSequence) -> dict:
    return {
        "axis": y.axis,
        "length": format_rat(y.length),
        "points": [format_rat(v) for v in y.points],
    }


def ysequence_from_json(obj: Any) -> YSequence:
    d = expect_dict(obj, "y")
    points = [
        rat_from_json(v, f"y.points[{i}]")
        for i, v in enumerate(expect_list(get_key(d, "points", "y"), "y.points"))
    ]
    return YSequence(
        axis=expect_int(get_key(d, "axis", "y"), "y.axis"),
        length=rat_from_json(get_key(d, "length", "y"), "y.length"),
        points=tuple(points),
    )


def rewrite_step_to_json(st: RewriteStep) -> dict:
    payload: dict[str, Any] = {
        "kind": st.kind,
        "i": st.i,
        "lengths": [format_rat(v) for v in st.lengths],
    }
    if st.j is not None:
        payload["j"] = st.j
    if st.merged is not None:
        payload["merged"] = format_rat(st.merged)
    return payload


def rewrite_step_from_json(obj: Any, where: str) -> RewriteStep:
    d = expect_dict(obj, where)
    kind = get_key(d, "kind", where)
    if kind not in ("loop", "sum", "triple"):
        raise ValueError(f"{where}.kind: unknown rewrite kind {kind!r}")
    lengths = tuple(
        rat_from_json(v, f"{where}.lengths[{i}]")
        for i, v in enumerate(expect_list(get_key(d, "lengths", where), f"{where}.lengths"))
    )
    j = expect_int(d["j"], f"{where}.j") if "j" in d else None
    merged = rat_from_json(d["merged"], f"{where}.merged") if "merged" in d else None
    if kind == "loop" and j is None:
        raise ValueError(f"{where}: loop steps need a \"j\" index")
    if kind in ("sum", "triple") and merged is None:
        raise ValueError(f"{where}: {kind} steps need a \"merged\" value")
    return RewriteStep(
        kind=kind, i=expect_int(get_key(d, "i", where), f"{where}.i"),
        j=j, lengths=lengths, merged=merged,
    )


def reduction_from_json(obj: Any, sequence: YSequence) -> ReductionCertificate:
    """Rebuild a reduction certificate against an already-parsed sequence."""
    d = expect_dict(obj, "reduction")
    steps = tuple(
        rewrite_step_from_json(s, f"reduction.steps[{i}]")
        for i, s in enumerate(expect_list(get_key(d, "steps", "reduction"), "reduction.steps"))
    )
    return ReductionCertificate(
        sequence=sequence,
        steps=steps,
        result=rat_from_json(get_key(d, "result", "reduction"), "reduction.result"),
        derivation=derivation_from_json(get_key(d, "derivation", "reduction")),
    )
