"""From a validated partition to a corner-to-corner trail and its projection.

Each constituent box gets one axis whose side length lies in the tracked set;
the box then contributes exactly its edges parallel to that axis to a
multigraph on the constituent-box vertices.  Degree parity in that graph is
forced: outer corners have degree exactly one, every other vertex even
degree.  A greedy non-repeating walk from one outer corner therefore ends at
a different outer corner, and projecting the walk to the first axis on which
the two corners differ yields a sequence of positions whose nonzero step
lengths are all tracked side lengths.  That sequence is what the reducer
collapses into a single derived length.

Every stage here runs on the partition's :class:`~boxcert.geometry.RankView`.
The graph, the parity audit and the walk depend on the order of coordinates
alone, so the graph is plain tuples of integer ranks: a vertex is a rank
tuple, an edge is ``(box, edge_id, lower end, upper end)``.  The edges are
paired from the view's one enumeration of box corners, the same one that
validation counted, so no corner is formed twice.  Exact points come
back from the view's value tables only where a result is read:
``TrailGraph.vertices``, the per-vertex parity entries (built on first
access), the trail, whose steps are :class:`Edge` records in the direction
walked, and the projection, which dedupes, orients and checks the walk's
ranks on one axis and reads one value per kept position.  Axis assignment
is the one stage that reads lengths, and it computes one per distinct
``(axis, lo rank, hi rank)``, reading the view's rank columns; the
assignment is the tuple of chosen 1-based axes, one per box.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import count, product
from typing import Callable, Mapping, Optional, Union

from .errors import HypothesisViolated, SoundnessError, StuckAtEvenVertex
from .geometry import (
    Box,
    Partition,
    Point,
    RankView,
    Ranks,
    format_point,
    format_rat,
    parse_point,
    rank_partition,
)


def assign_axes(
    p: Union[Partition, RankView], member: Callable[[Fraction], bool]
) -> tuple[int, ...]:
    """Choose, per box, the smallest axis whose extent satisfies ``member``.

    Returns the chosen 1-based axis of each box, in box order.

    Takes the partition or its :class:`~boxcert.geometry.RankView`.
    ``member`` decides membership in the tracked set (usually a bounded
    closure).  Boxes repeat a few extents many times, so the view's rank
    columns are read axis by axis, for the boxes not yet assigned, and each
    distinct ``(axis, lo rank, hi rank)`` is subtracted from the view's value
    table and given to ``member`` once.  A box with no qualifying side
    falsifies the premise of the whole construction, reported as
    :class:`HypothesisViolated` with the smallest offending box index.
    """
    view = p if isinstance(p, RankView) else rank_partition(p)
    axes = [0] * len(view.partition.boxes)
    todo = range(len(axes))  # 0-based indices of the boxes not yet assigned
    for j, (values, lo, hi) in enumerate(zip(view.values, view.lo, view.hi), start=1):
        verdicts: dict[tuple[int, int], bool] = {}
        left = []
        for k in todo:
            span = lo[k], hi[k]
            ok = verdicts.get(span)
            if ok is None:
                ok = verdicts[span] = member(values[span[1]] - values[span[0]])
            if ok:
                axes[k] = j
            else:
                left.append(k)
        if not left:
            return tuple(axes)
        todo = left
    k = todo[0] + 1
    raise HypothesisViolated(
        k, tuple(format_rat(e) for e in view.partition.boxes[k - 1].extents())
    )


@dataclass(frozen=True)
class Edge:
    """One box edge parallel to the box's assigned axis, walked ``src`` to ``dst``.

    ``edge_id`` enumerates the ``2^(n-1)`` parallel edges of box ``box``: bit
    t of ``edge_id`` says whether the t-th *other* axis (ascending) sits at
    the box's hi face.  :func:`edges_of_box` lists each edge from its lower
    end, the one with the lower coordinate on the assigned axis; a step of a
    :class:`Trail` is an edge in the direction walked.  The ends are in the
    coordinates of the box the edge came from: exact points in a trail,
    ranks for :func:`edges_of_box` of a rank box.
    """

    box: int
    edge_id: int
    src: Point
    dst: Point


@cache
def _edge_layout(dim: int, axis: int) -> tuple[tuple[int, int, int], ...]:
    """``(edge_id, lo index, hi index)`` for each edge parallel to 1-based
    ``axis``, in edge_id order.

    The indices point into a box's corners as listed by
    ``itertools.product(*zip(lo, hi))``, where 0-based axis ``j`` is bit
    ``dim - 1 - j`` of the index (set at the hi face).
    """
    bit = [1 << (dim - j) for j in range(1, dim + 1)]
    others = [bit[j - 1] for j in range(1, dim + 1) if j != axis]
    layout = []
    for edge_id in range(1 << len(others)):
        lo = sum(b for t, b in enumerate(others) if edge_id >> t & 1)
        layout.append((edge_id, lo, lo | bit[axis - 1]))
    return tuple(layout)


def edges_of_box(b: Box, k: int, axis: int) -> tuple[Edge, ...]:
    """All edges of box ``k`` parallel to 1-based ``axis``, in edge_id order,
    each from its lower end."""
    corners = tuple(product(*zip(b.lo, b.hi)))
    return tuple(
        Edge(k, edge_id, corners[lo], corners[hi])
        for edge_id, lo, hi in _edge_layout(b.dim, axis)
    )


#: An edge of a :class:`TrailGraph`: ``(box, edge_id, lower end, upper end)``.
RankEdge = tuple[int, int, Ranks, Ranks]


@dataclass(frozen=True, eq=False)
class TrailGraph:
    """Multigraph of assigned-axis edges over all constituent-box vertices.

    ``assignment`` is the 1-based axis of each box.  ``edges`` holds
    ``(box, edge_id, lower end, upper end)`` tuples in box and edge_id order,
    the lower end being the one with the lower coordinate on the box's axis,
    as :func:`edges_of_box` lists them; ``adjacency`` maps each vertex to
    ``(far endpoint, box, edge_id)`` tuples in edge order.  Both are in the
    ranks of ``ranks``; ``vertices`` and :meth:`degree` speak exact points.
    """

    ranks: RankView
    assignment: tuple[int, ...]
    edges: tuple[RankEdge, ...]
    adjacency: Mapping[Ranks, list[tuple[Ranks, int, int]]]

    @property
    def vertices(self) -> tuple[Point, ...]:
        """Every vertex as an exact point, in increasing order."""
        return tuple(self.ranks.point(v) for v in sorted(self.adjacency))

    def degree(self, v: Point) -> int:
        """Edges at the exact point ``v``, read with
        :func:`~boxcert.geometry.parse_point`, so a float raises ``ValueError``;
        0 for a point that is no vertex."""
        return len(self.adjacency.get(self.ranks.ranks_of(parse_point(v)), ()))


def build_graph(p: Union[Partition, RankView], c: tuple[int, ...]) -> TrailGraph:
    """Assemble the multigraph; deterministic given the assignment.

    Takes the partition or its :class:`~boxcert.geometry.RankView`.  Box k
    contributes its ``2^(n-1)`` edges parallel to axis ``c[k - 1]``, paired
    off from its corners in the view's shared ``corners`` by the one layout
    :func:`edges_of_box` uses.
    Vertices are the edges' endpoints (deduplicated as rank tuples): these
    edges reach all ``2^n`` corners of their box, so the vertices are exactly
    the corners of all constituent boxes.  T-junction contacts (a vertex of
    one box interior to an edge of another) do not split edges.
    """
    view = p if isinstance(p, RankView) else rank_partition(p)
    boxes = len(view.partition.boxes)
    if len(c) != boxes:
        raise ValueError(f"assignment covers {len(c)} boxes, partition has {boxes}")
    dim = view.outer.dim
    layouts = {j: _edge_layout(dim, j) for j in range(1, dim + 1)}
    if not layouts.keys() >= set(c):
        raise ValueError(f"assignment names an axis outside 1..{dim}")
    edges: list[RankEdge] = []
    adjacency: dict[Ranks, list[tuple[Ranks, int, int]]] = {}
    for k, axis, corners in zip(count(1), c, zip(*view.corners)):
        for edge_id, lo, hi in layouts[axis]:
            a, z = corners[lo], corners[hi]
            edges.append((k, edge_id, a, z))
            adjacency.setdefault(a, []).append((z, k, edge_id))
            adjacency.setdefault(z, []).append((a, k, edge_id))
    return TrailGraph(ranks=view, assignment=c, edges=tuple(edges), adjacency=adjacency)


@dataclass(frozen=True)
class ParityEntry:
    point: Point
    degree: int
    is_outer_corner: bool

    @property
    def ok(self) -> bool:
        if self.is_outer_corner:
            return self.degree == 1
        return self.degree % 2 == 0


@dataclass(frozen=True, eq=False)
class ParityReport:
    """Whether the forced degree parities hold, with the condition per vertex.

    ``ok`` is decided by :func:`parity_audit`; ``entries`` lists every vertex
    and outer corner in exact points, in increasing order, and is built from
    ``graph`` on first access.
    """

    graph: TrailGraph
    ok: bool

    def __bool__(self) -> bool:
        return self.ok

    @cached_property
    def entries(self) -> tuple[ParityEntry, ...]:
        g = self.graph
        outer_corners = set(g.ranks.outer.corners())
        return tuple(
            ParityEntry(
                point=g.ranks.point(v),
                degree=len(g.adjacency.get(v, ())),
                is_outer_corner=v in outer_corners,
            )
            for v in sorted(outer_corners.union(g.adjacency))
        )

    def violations(self) -> tuple[ParityEntry, ...]:
        return tuple(e for e in self.entries if not e.ok)

    def table(self) -> str:
        rows = ["vertex  degree  outer-corner  ok"]
        for e in self.entries:
            rows.append(
                f"{format_point(e.point)}  {e.degree}  "
                f"{'yes' if e.is_outer_corner else 'no'}  "
                f"{'ok' if e.ok else 'VIOLATION'}"
            )
        return "\n".join(rows)


def parity_audit(g: TrailGraph) -> ParityReport:
    """Check the forced degree parities: outer corners 1, everything else even.

    One pass over the adjacency, on ranks: the parities hold exactly when
    every outer corner has degree 1 and no other vertex has odd degree, that
    is, when the odd-degree vertices are as many as the outer corners.
    A violation means the partition was not actually valid (something slipped
    past validation) or the graph was built wrongly; either way certification
    must not proceed.
    """
    outer_corners = set(g.ranks.outer.corners())
    adjacency = g.adjacency
    ok = all(len(adjacency.get(v, ())) == 1 for v in outer_corners) and sum(
        len(incident) & 1 for incident in adjacency.values()
    ) == len(outer_corners)
    return ParityReport(graph=g, ok=ok)


@dataclass(frozen=True)
class Trail:
    """A non-repeating edge walk between two distinct outer corners."""

    start: Point
    steps: tuple[Edge, ...]
    end: Point

    def points(self) -> tuple[Point, ...]:
        return (self.start,) + tuple(s.dst for s in self.steps)


def extract_trail(g: TrailGraph, start: Optional[Point] = None) -> Trail:
    """Greedy non-repeating walk from an outer corner until it gets stuck.

    With the parity pattern in place the walk can only get stuck at an outer
    corner different from the start (at every even vertex an arrival leaves an
    odd number of used incidences, so an unused edge remains).  Tie-break,
    applied at each vertex the walk visits: the unused edge with the
    lexicographically smallest far endpoint, then smallest box index, then
    smallest edge_id, which is the plain order of the adjacency's
    ``(far, box, edge_id)`` tuples — this makes the whole pipeline
    reproducible byte-for-byte.  ``(box, edge_id)`` identifies an edge.  The
    walk runs on ranks; each step is written out as an :class:`Edge` in exact
    points, from the vertex left to the vertex reached.  ``start`` is read
    with :func:`~boxcert.geometry.parse_point`, so a float start raises
    ``ValueError`` like one that is not an outer corner.
    """
    view = g.ranks
    corners = set(view.outer.corners())
    if start is None:
        first = min(corners)
        start = view.point(first)
    else:
        start = parse_point(start)
        first = view.ranks_of(start)
        if first not in corners:
            raise ValueError(
                f"start {format_point(start)} is not a corner of the outer box"
            )
    adjacency = g.adjacency
    used: set[tuple[int, int]] = set()
    current, here = first, start
    steps: list[Edge] = []
    while True:
        taken = min(
            (e for e in adjacency.get(current, ()) if e[1:] not in used), default=None
        )
        if taken is None:
            break
        far, box, edge_id = taken
        used.add((box, edge_id))
        there = view.point(far)
        steps.append(Edge(box, edge_id, here, there))
        current, here = far, there
    if not steps:
        raise StuckAtEvenVertex(here, f"no edges at start {format_point(here)}")
    if current == first or current not in corners:
        raise StuckAtEvenVertex(here)
    return Trail(start=start, steps=tuple(steps), end=here)


@dataclass(frozen=True)
class YSequence:
    """Positions of the trail vertices along one axis, zero steps dropped.

    ``points`` starts at 0, ends at ``length`` (the outer extent on ``axis``),
    stays within ``[0, length]``, and consecutive entries differ.  Every step
    ``|points[i+1] - points[i]|`` is the assigned-axis extent of some box, so
    it lies in the tracked set.  ``ranks`` holds each point's rank on
    ``axis`` when :func:`project_to_axis` made the sequence, and is empty
    otherwise; it is neither compared nor written out, and when present the
    order checks run on it rather than on the Fractions.
    """

    axis: int
    length: Fraction
    points: tuple[Fraction, ...]
    ranks: tuple[int, ...] = field(default=(), compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(self.points))
        if self.length <= 0:
            raise ValueError(f"length must be positive, got {self.length}")
        pts = self.points
        if len(pts) < 2:
            raise ValueError("a position sequence needs at least two points")
        if pts[0] != 0 or pts[-1] != self.length:
            raise ValueError(
                f"sequence must run from 0 to {format_rat(self.length)}, got "
                f"{format_rat(pts[0])} .. {format_rat(pts[-1])}"
            )
        # Ranks sort as the points do, so the rest is checked on them when
        # they are there: 0 and the length are the extremes, no step is zero.
        seq = self.ranks or pts
        if min(seq) != seq[0] or max(seq) != seq[-1]:
            raise ValueError("positions must stay within [0, length]")
        if any(a == b for a, b in zip(seq, seq[1:])):
            raise ValueError("consecutive positions must differ")

    def step_lengths(self) -> tuple[Fraction, ...]:
        return tuple(abs(b - a) for a, b in zip(self.points, self.points[1:]))


def project_to_axis(t: Trail, p: Union[Partition, RankView]) -> YSequence:
    """Project a corner-to-corner trail onto one axis of the outer box.

    Takes the partition or its :class:`~boxcert.geometry.RankView`; every
    point of ``t`` must be a vertex of it, as every point of a trail from
    :func:`extract_trail` is.  The axis is the smallest one on which start
    and end corners differ; on it one corner sits at 0 and the other at the
    full outer extent, and the sequence is oriented to start at 0.  Steps
    from edges parallel to other axes project to zero and are dropped.  The
    walk is projected, deduplicated, oriented and checked on ranks; each
    kept rank is then read back from the value table, less the outer box's
    low face (a subtraction only where that face is not 0).
    """
    view = p if isinstance(p, RankView) else rank_partition(p)
    differing = [
        j for j in range(1, view.outer.dim + 1) if t.start[j - 1] != t.end[j - 1]
    ]
    if not differing:
        raise SoundnessError("trail starts and ends at the same corner")
    j = differing[0]
    index, values = view.index[j - 1], view.values[j - 1]
    lo, hi = view.outer.lo[j - 1], view.outer.hi[j - 1]
    ranks: list[int] = []
    for v in t.points():
        c = v[j - 1]
        r = index[c.numerator, c.denominator]
        if not ranks or r != ranks[-1]:
            ranks.append(r)
    if ranks[0] != lo:
        ranks.reverse()
    if ranks[0] != lo or ranks[-1] != hi:
        raise SoundnessError(
            f"projection endpoints {format_rat(values[ranks[0]] - values[lo])}, "
            f"{format_rat(values[ranks[-1]] - values[lo])} do not span "
            f"[0, {format_rat(values[hi] - values[lo])}]"
        )
    base = values[lo]
    if base:
        values = {r: values[r] - base for r in set(ranks)}
    return YSequence(
        axis=j,
        length=values[hi],
        points=tuple(values[r] for r in ranks),
        ranks=tuple(ranks),
    )
