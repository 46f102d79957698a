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
alone: vertices are tuples of integer ranks, and exact points come back from
the view's value tables only where a result is read (``TrailGraph.vertices``,
parity reports, trail steps).  Axis assignment is the one stage that reads
lengths, and it computes one per distinct ``(axis, lo rank, hi rank)``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional, Union

from .errors import HypothesisViolated, SoundnessError, StuckAtEvenVertex
from .geometry import (
    Box,
    Partition,
    Point,
    RankView,
    format_point,
    format_rat,
    parse_point,
    rank_partition,
)

#: A vertex of the trail graph: the ranks of a point's coordinates.
Ranks = tuple[int, ...]


@dataclass(frozen=True)
class AxisAssignment:
    """For each constituent box (1-based), the chosen 1-based axis."""

    axes: tuple[int, ...]

    def axis_of(self, k: int) -> int:
        if not 1 <= k <= len(self.axes):
            raise ValueError(f"box index {k} out of range 1..{len(self.axes)}")
        return self.axes[k - 1]

    def __len__(self) -> int:
        return len(self.axes)


def assign_axes(
    p: Union[Partition, RankView], member: Callable[[Fraction], bool]
) -> AxisAssignment:
    """Choose, per box, the smallest axis whose extent satisfies ``member``.

    Takes the partition or its :class:`~boxcert.geometry.RankView`.
    ``member`` decides membership in the tracked set (usually a bounded
    closure).  Boxes repeat a few extents many times, so each distinct
    ``(axis, lo rank, hi rank)`` is subtracted from the view's value table and
    given to ``member`` once.  A box with no qualifying side falsifies the
    premise of the whole construction, reported as :class:`HypothesisViolated`
    with the smallest offending box index.
    """
    view = p if isinstance(p, RankView) else rank_partition(p)
    verdicts: dict[tuple[int, int, int], bool] = {}
    axes: list[int] = []
    for k, b in enumerate(view.boxes, start=1):
        for j, (values, lo, hi) in enumerate(zip(view.values, b.lo, b.hi), start=1):
            key = (j, lo, hi)
            ok = verdicts.get(key)
            if ok is None:
                ok = verdicts[key] = member(values[hi] - values[lo])
            if ok:
                axes.append(j)
                break
        else:
            raise HypothesisViolated(
                k, tuple(format_rat(e) for e in view.partition.boxes[k - 1].extents())
            )
    return AxisAssignment(tuple(axes))


@dataclass(frozen=True)
class Edge:
    """One box edge parallel to the box's assigned axis.

    ``edge_id`` enumerates the ``2^(n-1)`` parallel edges of box ``box``: bit
    t of ``edge_id`` says whether the t-th *other* axis (ascending) sits at
    the box's hi face.  ``a``/``b`` are the endpoints with the lower/higher
    coordinate on the assigned axis, so ``a < b`` lexicographically.  They
    are in the coordinates of the box the edge came from: ranks inside a
    :class:`TrailGraph`, exact points in a :class:`Trail`.
    """

    box: int
    edge_id: int
    a: Point
    b: Point


def edges_of_box(b: Box, k: int, axis: int) -> tuple[Edge, ...]:
    """All edges of box ``k`` parallel to 1-based ``axis``, in edge_id order."""
    others = [j for j in range(1, b.dim + 1) if j != axis]
    out: list[Edge] = []
    for bits in range(1 << len(others)):
        coords: list[Optional[Fraction]] = [None] * b.dim
        for t, j in enumerate(others):
            coords[j - 1] = b.hi[j - 1] if bits >> t & 1 else b.lo[j - 1]
        lo_end = list(coords)
        hi_end = list(coords)
        lo_end[axis - 1] = b.lo[axis - 1]
        hi_end[axis - 1] = b.hi[axis - 1]
        out.append(Edge(box=k, edge_id=bits, a=tuple(lo_end), b=tuple(hi_end)))
    return tuple(out)


@dataclass(frozen=True, eq=False)
class TrailGraph:
    """Multigraph of assigned-axis edges over all constituent-box vertices.

    ``edges`` and ``adjacency`` are in the ranks of ``ranks``; ``vertices``
    and :meth:`degree` speak exact points.
    """

    ranks: RankView
    assignment: AxisAssignment
    edges: tuple[Edge, ...]
    #: vertex -> [(far endpoint, edge), ...] in edge order, unsorted
    adjacency: Mapping[Ranks, list[tuple[Ranks, Edge]]]

    @property
    def vertices(self) -> tuple[Point, ...]:
        """Every vertex as an exact point, in increasing order."""
        return tuple(self.ranks.point(v) for v in sorted(self.adjacency))

    def degree(self, v: Point) -> int:
        """Edges at the exact point ``v``, read with
        :func:`~boxcert.geometry.parse_point`, so a float raises ``ValueError``;
        0 for a point that is no vertex."""
        return len(self.adjacency.get(self.ranks.ranks_of(parse_point(v)), ()))


def build_graph(p: Union[Partition, RankView], c: AxisAssignment) -> TrailGraph:
    """Assemble the multigraph; deterministic given the assignment.

    Takes the partition or its :class:`~boxcert.geometry.RankView`.  Box k
    contributes its ``2^(n-1)`` edges parallel to axis ``c.axis_of(k)``.
    Vertices are the edges' endpoints (deduplicated as rank tuples): these
    edges reach all ``2^n`` corners of their box, so the vertices are exactly
    the corners of all constituent boxes.  T-junction contacts (a vertex of
    one box interior to an edge of another) do not split edges.
    """
    view = p if isinstance(p, RankView) else rank_partition(p)
    if len(c) != len(view.boxes):
        raise ValueError(
            f"assignment covers {len(c)} boxes, partition has {len(view.boxes)}"
        )
    edges: list[Edge] = []
    for k, b in enumerate(view.boxes, start=1):
        edges.extend(edges_of_box(b, k, c.axis_of(k)))
    adjacency: dict[Ranks, list[tuple[Ranks, Edge]]] = {}
    for e in edges:
        adjacency.setdefault(e.a, []).append((e.b, e))
        adjacency.setdefault(e.b, []).append((e.a, e))
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


@dataclass(frozen=True)
class ParityReport:
    """Degree of every vertex, with the forced parity condition per vertex."""

    entries: tuple[ParityEntry, ...]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def __bool__(self) -> bool:
        return self.ok

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

    A violation means the partition was not actually valid (something slipped
    past validation) or the graph was built wrongly; either way certification
    must not proceed.
    """
    outer_corners = set(g.ranks.outer.corners())
    return ParityReport(
        entries=tuple(
            ParityEntry(
                point=g.ranks.point(v),
                degree=len(g.adjacency.get(v, ())),
                is_outer_corner=v in outer_corners,
            )
            for v in sorted(outer_corners.union(g.adjacency))
        )
    )


@dataclass(frozen=True)
class TrailStep:
    edge: Edge
    src: Point
    dst: Point


@dataclass(frozen=True)
class Trail:
    """A non-repeating edge walk between two distinct outer corners."""

    start: Point
    steps: tuple[TrailStep, ...]
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
    smallest edge_id — this makes the whole pipeline reproducible
    byte-for-byte.  ``(box, edge_id)`` identifies an edge.  The walk runs on
    ranks; each step is written out in exact points.  ``start`` is read
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
    used: set[tuple[int, int]] = set()
    current, here = first, start
    steps: list[TrailStep] = []
    while True:
        options = [
            (far, e)
            for far, e in g.adjacency.get(current, ())
            if (e.box, e.edge_id) not in used
        ]
        if not options:
            break
        far, e = min(options, key=lambda fe: (fe[0], fe[1].box, fe[1].edge_id))
        used.add((e.box, e.edge_id))
        there = view.point(far)
        a, b = (here, there) if e.a == current else (there, here)
        steps.append(TrailStep(edge=Edge(e.box, e.edge_id, a, b), src=here, dst=there))
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
    it lies in the tracked set.
    """

    axis: int
    length: Fraction
    points: tuple[Fraction, ...]

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
        if any(v < 0 or v > self.length for v in pts):
            raise ValueError("positions must stay within [0, length]")
        if any(a == b for a, b in zip(pts, pts[1:])):
            raise ValueError("consecutive positions must differ")

    def step_lengths(self) -> tuple[Fraction, ...]:
        return tuple(abs(b - a) for a, b in zip(self.points, self.points[1:]))


def project_to_axis(t: Trail, outer: Box) -> YSequence:
    """Project a corner-to-corner trail onto one axis of the outer box.

    The axis is the smallest one on which start and end corners differ; on it
    one corner sits at 0 and the other at the full outer extent, and the
    sequence is oriented to start at 0.  Steps from edges parallel to other
    axes project to zero and are dropped.
    """
    differing = [
        j for j in range(1, outer.dim + 1) if t.start[j - 1] != t.end[j - 1]
    ]
    if not differing:
        raise SoundnessError("trail starts and ends at the same corner")
    j = differing[0]
    lo = outer.lo[j - 1]
    length = outer.hi[j - 1] - lo
    positions: list[Fraction] = []
    for v in t.points():
        pos = v[j - 1] - lo
        if not positions or pos != positions[-1]:
            positions.append(pos)
    if positions[0] != 0:
        positions.reverse()
    if positions[0] != 0 or positions[-1] != length:
        raise SoundnessError(
            f"projection endpoints {format_rat(positions[0])}, "
            f"{format_rat(positions[-1])} do not span [0, {format_rat(length)}]"
        )
    return YSequence(axis=j, length=length, points=tuple(positions))
