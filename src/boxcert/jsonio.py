"""JSON wire formats and the canonical bytes used for hashing.

All rationals are written as lowest-terms strings (``"p/q"``, or ``"p"`` for
integers), and the parsers of partitions and generators also take plain JSON
integers.  A certificate is accepted only as
:func:`boxcert.pipeline.certify` writes it: the parser holds each entry of
its derivation table to the form :func:`derivation_to_json` writes, and the
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
the keyword ``rats`` and start a fresh one when it is omitted.

The location in an error message (``trail.steps[3].to[1]``) is formatted
only when a value is rejected: a list element is read relative to its own
position, and the list names the element when it passes the error up.

A derivation travels as a flat table, one entry per distinct
sub-derivation; a sum entry takes every operand of a chain of sums at once
(:func:`derivation_to_json`), and the parser builds one node per entry.

The certificate parser (:func:`boxcert.pipeline.certificate_from_json`)
decodes only what the checker reads: the generators, the derivation table
and its result, the claimed side and the trail's start corner, through one
table, and keeps the document as written.  The checker compares it with the
document it writes, whose trail and projection come from
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

from .closure import (
    Derivation,
    Leaf,
    Sum,
    Triple,
    children,
    topological,
)
from .geometry import Box, Partition, Point, parse_rat, format_rat
from .reduction import ReductionCertificate
from .trailgraph import Edge, Trail, YSequence


def canonical_json(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def pretty_json(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# --- locations, rationals and points ----------------------------------------


RatTable = dict[str, Fraction]  # one document's rational strings, each parsed once


class _Malformed(ValueError):
    """A rejected field: ``where`` names it and ``detail`` says what is wrong."""

    def __init__(self, where: str, detail: str) -> None:
        super().__init__(f"{where}: {detail}")
        self.where, self.detail = where, detail

    def under(self, prefix: str) -> "_Malformed":
        """The same fault, named from the container at ``prefix``."""
        return _Malformed(prefix + self.where, self.detail)


def _at(where: str, i: Optional[int]) -> str:
    return where if i is None else f"{where}[{i}]"


def _rat(obj: Any, rats: RatTable, where: str, i: Optional[int] = None) -> Fraction:
    """``obj`` as an exact rational; element ``i`` of ``where`` when i is given."""
    if isinstance(obj, str):
        value = rats.get(obj)
        if value is None:
            value = rats[obj] = parse_rat(obj)
        return value
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise _Malformed(
            _at(where, i), f"expected an integer or a \"p/q\" string, got {obj!r}"
        )
    return parse_rat(obj)


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


def expect_dict(obj: Any, where: str) -> dict:
    if not isinstance(obj, dict):
        raise _Malformed(where, f"expected an object, got {type(obj).__name__}")
    return obj


def expect_list(obj: Any, where: str) -> list:
    if not isinstance(obj, list):
        raise _Malformed(where, f"expected an array, got {type(obj).__name__}")
    return obj


def expect_int(obj: Any, where: str, i: Optional[int] = None) -> int:
    """``obj`` as a JSON integer; element ``i`` of ``where`` when i is given."""
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise _Malformed(_at(where, i), f"expected an integer, got {obj!r}")
    return obj


def get_key(obj: dict, key: str, where: str) -> Any:
    if key not in obj:
        raise _Malformed(where, f"missing key {key!r}")
    return obj[key]


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


# Internal node classes by wire name, and the argument counts they take.
_OPS = {"sum": Sum, "triple": Triple}
_ARITY = {"leaf": 0, "sum": 2, "triple": 3}  # a sum takes two or more

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


def derivation_from_json(
    obj: Any, where: str = "derivation", *, rats: Optional[RatTable] = None
) -> Derivation:
    """Parse and *check* a derivation table; the last entry is the root.

    One forward pass that builds one node per entry: a ``sum`` takes two or
    more arguments, which may repeat, a ``triple`` three and a ``leaf`` none;
    every argument must index an earlier entry, and each entry's "value"
    annotation must equal the value its node computes when it is built from
    its arguments.  The table must also have the form
    :func:`derivation_to_json` writes: each entry has exactly the keys
    ``op``, ``args`` and ``value``, and its value is the lowest-terms
    string; no entry may repeat another (the same leaf value, or the same op
    over the same entries), every entry but the root must be an argument of
    a later one, and no sum may have exactly one use, by a sum, which would
    hold it folded in.  A table that breaks any of these is rejected here,
    before any semantic checking.
    The annotations keep the arithmetic and memory in proportion to the
    input: every value computed is also written out, so n chained doublings
    cannot derive an n-bit value from O(n) bytes.
    """
    table = expect_list(obj, where)
    if not table:
        raise _Malformed(where, "empty derivation table")
    rats = {} if rats is None else rats
    nodes: list[Derivation] = []
    seen: set[tuple] = set()
    uses = [0] * len(table)
    by_sum = [False] * len(table)  # the last use is by a sum
    for n, entry in enumerate(table):
        try:  # read relative to the entry; its location is named on failure
            d = expect_dict(entry, "")
            op = get_key(d, "op", "")
            args = expect_list(get_key(d, "args", ""), ".args")
            value = get_key(d, "value", "")
            claimed = _rat(value, rats, ".value")
            if len(d) != 3:  # op, args and value, which are all there
                raise _Malformed("", f"keys {sorted(d)} are not op, args and value")
            written = format_rat(claimed)
            if value != written:
                raise _Malformed(".value", f"expected {written!r}, got {value!r}")
            arity = _ARITY.get(op) if isinstance(op, str) else None
            if arity is None:
                raise _Malformed(".op", f"unknown operation {op!r}")
            if len(args) < arity or (len(args) > arity and op != "sum"):
                more = " or more" if op == "sum" else ""
                raise _Malformed(
                    "", f"op {op!r} takes {arity}{more} arguments, got {len(args)}"
                )
            for i, a in enumerate(args):
                if not 0 <= expect_int(a, ".args", i) < n:
                    raise _Malformed(f".args[{i}]", f"{a} is not an earlier entry")
                uses[a] += 1
                by_sum[a] = op == "sum"
            key = (op, claimed) if op == "leaf" else (op, *args)
            if key in seen:
                raise _Malformed("", "duplicates an earlier entry")
            seen.add(key)
            if op == "leaf":
                if claimed <= 0:
                    raise _Malformed("", "leaf value must be positive")
                node: Derivation = Leaf(claimed)
            else:
                node = _OPS[op](*[nodes[a] for a in args])
                if node.value != claimed:
                    raise _Malformed(
                        "",
                        f"value annotation {format_rat(claimed)} does not "
                        f"match recomputed {format_rat(node.value)}",
                    )
        except _Malformed as exc:
            raise exc.under(f"{where}[{n}]") from None
        nodes.append(node)
    for n in range(len(table) - 1):
        if not uses[n]:
            raise _Malformed(f"{where}[{n}]", "no later entry uses it")
        if uses[n] == 1 and by_sum[n] and isinstance(nodes[n], Sum):
            raise _Malformed(
                f"{where}[{n}]", "a sum that only one sum uses must be written inside it"
            )
    return nodes[-1]


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
