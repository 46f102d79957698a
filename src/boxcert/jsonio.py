"""JSON wire formats and the canonical bytes used for hashing.

All rationals are written as lowest-terms strings (``"p/q"``, or ``"p"`` for
integers), and the parsers of partitions and generators also take plain JSON
integers.  A certificate is accepted only as
:func:`boxcert.pipeline.certify` writes it: the table parser,
:func:`boxcert.kernel.derivation_from_json`, holds each entry of its
derivation table to the form :func:`derivation_to_json` writes, and the
checker holds the rest of the document to it by comparison.  Non-integer
JSON numbers are rejected: a binary float almost never denotes the decimal
the user wrote, and every consumer here needs exact values.

A document repeats a few values many times (a coordinate in every box and
trail step that touches it), so each loader reads its document's rational
strings through one table, string to exact ``Fraction``, that lives for that
one call (a parsed certificate keeps it, for the fields it decodes when they
are read): each distinct string is parsed once, and equal strings give the
same ``Fraction`` object.  A malformed string never enters the table, so it
is rejected wherever it occurs.  The lower-level parsers take the table as
the keyword ``rats`` and start a fresh one when it is omitted; they read
through the kernel's readers (:mod:`boxcert.kernel`), which the table parser
uses too.

The location in an error message (``trail.steps[3].to[1]``) is formatted
only when a value is rejected: a list element is read relative to its own
position, and the list names the element when it passes the error up.

A derivation travels as a flat table, one entry per distinct
sub-derivation; a sum entry takes every operand of a chain of sums at once
(:func:`derivation_to_json`), and the kernel's parser builds one node per
entry.

The certificate parser (:func:`boxcert.pipeline.certificate_from_json`)
decodes only what the checker reads: the generators, the derivation table
and its result and the claimed side, through one table, and keeps the
document as written.  The checker compares it with the document it writes,
whose trail and projection come from
:func:`trail_to_json` (from the walk's ranks) and :func:`ysequence_to_json`;
:func:`trail_from_json` and :func:`ysequence_from_json` decode them only
when a program reads them.

``canonical_json`` (sorted keys, no whitespace) defines the byte string that
content digests are computed over; pretty output is for files and humans and
hashes the same because digests are always recomputed from parsed data.
``partition_digest`` writes the canonical bytes of a partition itself, in one
string, formatting each coordinate object once; it must equal
``canonical_json(partition_to_json(p))``, and the tests hold it to that.
"""
from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from operator import getitem
from typing import Any, Optional

from .geometry import Box, Partition, Point
from .kernel import (
    Derivation,
    Leaf,
    RatTable,
    Sum,
    _Malformed,
    _rat,
    children,
    derivation_from_json,
    expect_dict,
    expect_int,
    expect_list,
    format_rat,
    get_key,
    topological,
)
from .reduction import ReductionCertificate
from .trailgraph import Edge, Trail, YSequence


def canonical_json(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def pretty_json(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# --- locations, rationals and points ----------------------------------------


def rat_from_json(
    obj: Any, where: str = "value", *, rats: Optional[RatTable] = None
) -> Fraction:
    return _rat(obj, {} if rats is None else rats, where)


def rats_from_json(
    obj: Any, where: str, *, rats: Optional[RatTable] = None
) -> list[Fraction]:
    """A JSON array of rationals; a bad element ``i`` is named ``where[i]``."""
    rats = {} if rats is None else rats
    return [_rat(c, rats, where, i) for i, c in enumerate(expect_list(obj, where))]


def point_from_json(
    obj: Any, where: str = "point", *, rats: Optional[RatTable] = None
) -> Point:
    if not isinstance(obj, list) or not obj:
        raise _Malformed(where, "expected a non-empty list of rationals")
    rats = {} if rats is None else rats
    return tuple([_rat(c, rats, where, i) for i, c in enumerate(obj)])


def point_to_json(p: Point) -> list[str]:
    return [format_rat(c) for c in p]


# --- partitions -------------------------------------------------------------


def box_to_json(b: Box) -> dict:
    return {"lo": point_to_json(b.lo), "hi": point_to_json(b.hi)}


def box_from_json(
    obj: Any, where: str = "box", *, rats: Optional[RatTable] = None
) -> Box:
    rats = {} if rats is None else rats
    try:
        d = expect_dict(obj, "")
        lo = point_from_json(get_key(d, "lo", ""), ".lo", rats=rats)
        hi = point_from_json(get_key(d, "hi", ""), ".hi", rats=rats)
    except _Malformed as exc:
        raise exc.under(where) from None
    return Box(lo, hi)


def partition_to_json(p: Partition) -> dict:
    return {
        "dim": p.dim,
        "outer": box_to_json(p.outer),
        "boxes": [box_to_json(b) for b in p.boxes],
    }


def partition_from_json(obj: Any) -> Partition:
    d = expect_dict(obj, "partition")
    dim = expect_int(get_key(d, "dim", "partition"), "partition.dim")
    rats: RatTable = {}
    outer = box_from_json(
        get_key(d, "outer", "partition"), "partition.outer", rats=rats
    )
    boxes = []
    for i, b in enumerate(expect_list(get_key(d, "boxes", "partition"), "partition.boxes")):
        try:
            boxes.append(box_from_json(b, "", rats=rats))
        except _Malformed as exc:
            raise exc.under(f"partition.boxes[{i}]") from None
    return Partition(dim=dim, outer=outer, boxes=tuple(boxes))


def partition_digest(p: Partition) -> str:
    """sha256 over ``canonical_json(partition_to_json(p))``, written directly.

    A partition repeats a few coordinates many times, and a loaded one shares
    one ``Fraction`` per distinct string, so each coordinate object is
    formatted once, through a memo keyed on its ``id``; ``p`` keeps every key
    alive for the call, so no id is reused.  :func:`format_rat` writes only
    digits, ``-`` and ``/``, which JSON does not escape.
    """
    text: dict[int, str] = {}

    def point(coords: Point) -> str:
        out = []
        for c in coords:
            s = text.get(id(c))
            if s is None:
                s = text[id(c)] = f'"{format_rat(c)}"'
            out.append(s)
        return ",".join(out)

    def box(b: Box) -> str:
        return f'{{"hi":[{point(b.hi)}],"lo":[{point(b.lo)}]}}'

    data = (
        f'{{"boxes":[{",".join(map(box, p.boxes))}],'
        f'"dim":{p.dim},"outer":{box(p.outer)}}}'
    )
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


# --- derivations ------------------------------------------------------------


_Entry = tuple[str, Fraction, list[int]]  # (op, value, indices of earlier entries)


def derivation_to_json(d: Derivation) -> list[dict]:
    """The derivation as a flat table, children first and the root last.

    Each entry is ``{"op", "value", "args"}``, where ``args`` are indices of
    earlier entries and ``value`` is what the entry derives.  Equal
    sub-derivations (the same leaf value, or the same op over the same
    entries) are written once, so the table grows with the number of
    distinct sub-derivations, not with the size of the tree.  A sum that
    only one sum uses is written inside it (:func:`_fold`), so a row's chain
    of 299 sums over 8 widths is one entry with 300 arguments.
    """
    entries: list[_Entry] = []
    entry_of: dict[int, int] = {}  # id(node) -> entry index
    shared: dict[tuple, int] = {}  # (op, leaf value or arg indices) -> entry index
    for node in topological(d):
        if isinstance(node, Leaf):
            op, args = "leaf", []
            key: tuple = (op, node.value)
        else:
            op = "sum" if isinstance(node, Sum) else "triple"
            args = [entry_of[id(k)] for k in children(node)]
            key = (op, *args)
        entry = shared.setdefault(key, len(entries))
        entry_of[id(node)] = entry
        if entry == len(entries):
            entries.append((op, node.value, args))
    merged = True
    while merged:
        entries, merged = _fold(entries)
    return [
        {"op": op, "value": format_rat(value), "args": args}
        for op, value, args in entries
    ]


def _fold(entries: list[_Entry]) -> tuple[list[_Entry], bool]:
    """Write each sum that exactly one sum uses inside that sum.

    Its arguments take its place in the user's, in order.  Entries that
    folding makes equal are written once; the flag says that happened, since
    a merge takes uses away from the merged entries' arguments, which may
    then fold in turn.
    """
    uses = [0] * len(entries)
    by_sum = [False] * len(entries)  # the last use is by a sum
    for op, _, args in entries:
        for a in args:
            uses[a] += 1
            by_sum[a] = op == "sum"
    folds = [
        uses[i] == 1 and by_sum[i] and op == "sum"
        for i, (op, _, _) in enumerate(entries)
    ]
    out: list[_Entry] = []
    index: dict[int, int] = {}  # entry -> its index in ``out``
    shared: dict[tuple, int] = {}
    for i, (op, value, args) in enumerate(entries):
        if folds[i]:
            continue
        flat: list[int] = []
        stack = args[::-1]
        while stack:
            a = stack.pop()
            if folds[a]:
                stack += entries[a][2][::-1]
            else:
                flat.append(index[a])
        key: tuple = (op, value) if op == "leaf" else (op, *flat)
        index[i] = shared.setdefault(key, len(out))
        if index[i] == len(out):
            out.append((op, value, flat))
    return out, len(out) + sum(folds) < len(entries)


# --- trails and sequences ---------------------------------------------------


def trail_to_json(t: Trail) -> dict:
    """The trail as a certificate writes it.

    A trail from :func:`~boxcert.trailgraph.extract_trail` is written from
    its walk on ranks: each distinct rank on each axis is formatted once,
    from the graph's value table, each vertex is one list of those strings,
    and consecutive steps share the list of the vertex between them.  No
    exact point or :class:`~boxcert.trailgraph.Edge` is formed.  A trail
    made from exact points is written point by point.
    """
    g = t.graph
    if g is None:
        return {
            "start": point_to_json(t.start),
            "end": point_to_json(t.end),
            "steps": [
                {"box": s.box, "edge": s.edge_id,
                 "from": point_to_json(s.src), "to": point_to_json(s.dst)}
                for s in t.steps
            ],
        }
    text = [
        {r: format_rat(values[r]) for r in set(column)}
        for values, column in zip(g.ranks.values, zip(*t.path))
    ]
    points = [list(map(getitem, text, v)) for v in t.path]
    return {
        "start": points[0],
        "end": points[-1],
        "steps": [
            {"box": g.box[i], "edge": g.edge_id[i], "from": a, "to": b}
            for i, a, b in zip(t.taken, points, points[1:])
        ],
    }


def trail_from_json(obj: Any, *, rats: Optional[RatTable] = None) -> Trail:
    rats = {} if rats is None else rats
    d = expect_dict(obj, "trail")
    start = point_from_json(get_key(d, "start", "trail"), "trail.start", rats=rats)
    end = point_from_json(get_key(d, "end", "trail"), "trail.end", rats=rats)
    steps: list[Edge] = []
    for i, s in enumerate(expect_list(get_key(d, "steps", "trail"), "trail.steps")):
        try:  # read relative to the step; its location is named on failure
            sd = expect_dict(s, "")
            src = point_from_json(get_key(sd, "from", ""), ".from", rats=rats)
            dst = point_from_json(get_key(sd, "to", ""), ".to", rats=rats)
            box = expect_int(get_key(sd, "box", ""), ".box")
            edge_id = expect_int(get_key(sd, "edge", ""), ".edge")
        except _Malformed as exc:
            raise exc.under(f"trail.steps[{i}]") from None
        steps.append(Edge(box, edge_id, src, dst))
    return Trail(start=start, steps=tuple(steps), end=end)


def ysequence_to_json(y: YSequence) -> dict:
    return {
        "axis": y.axis,
        "length": format_rat(y.length),
        "points": [format_rat(v) for v in y.points],
    }


def ysequence_from_json(
    obj: Any, *, rats: Optional[RatTable] = None
) -> YSequence:
    rats = {} if rats is None else rats
    d = expect_dict(obj, "y")
    points = rats_from_json(get_key(d, "points", "y"), "y.points", rats=rats)
    return YSequence(
        axis=expect_int(get_key(d, "axis", "y"), "y.axis"),
        length=_rat(get_key(d, "length", "y"), rats, "y.length"),
        points=tuple(points),
    )


def reduction_from_json(
    obj: Any, *, rats: Optional[RatTable] = None
) -> ReductionCertificate:
    """Rebuild a reduction certificate: its result and derivation.

    The wire carries no rewrite log (it is a function of the sequence), so the
    parsed certificate has ``steps=()``.
    """
    rats = {} if rats is None else rats
    d = expect_dict(obj, "reduction")
    return ReductionCertificate(
        steps=(),
        result=_rat(get_key(d, "result", "reduction"), rats, "reduction.result"),
        derivation=derivation_from_json(
            get_key(d, "derivation", "reduction"), "reduction.derivation", rats=rats
        ),
    )
