"""From a validated partition to a corner-to-corner trail and its projection.

Each constituent box gets one axis whose side length lies in the tracked set;
the box then contributes exactly its edges parallel to that axis to a
multigraph on the constituent-box vertices.  Degree parity in that graph is
forced: outer corners have degree exactly one, every other vertex even
degree.  A greedy non-repeating walk from the outer box's lowest corner
therefore ends at a different outer corner, and projecting the walk to the
first axis on which the two corners differ yields a sequence of positions,
from 0 up to that axis's outer extent, whose nonzero step lengths are all
tracked side lengths.  That sequence is what the reducer
collapses into a single derived length.

Every stage here runs on the partition's :class:`~boxcert.geometry.RankView`.
The graph, the parity audit and the walk depend on the order of coordinates
alone, so they run on integer ranks: a vertex is a rank tuple, the edges are
numbered in box and edge_id order and held as columns (box, edge_id, lower
end, upper end), and each vertex maps to the list of its edge numbers.  The
edges are paired from the view's one enumeration of box corners, the same
one that validation counted, so no corner is formed twice and the graph
keeps about one container per vertex.  The walk marks used edges in a
``bytearray`` and records the rank tuples it visits and the edge numbers it
takes; the projection reads those ranks on one axis, dedupes, orients and
checks them, and reads one value per kept position, and the certificate's
writer formats each distinct coordinate of the walk once.  Exact points come
back from the view's value tables only where a result is read as points:
``TrailGraph.vertices``, the per-vertex parity entries (built on first
access), a trail's ``start`` and ``end``, and its ``steps`` (:class:`Edge`
records in the direction walked) and ``points()``, built when read.  Axis
assignment is the one stage that reads lengths: it scales each axis's value
table once to integers and asks about each distinct integer length once,
reading the view's rank columns; the assignment is the tuple of chosen
1-based axes, one per box.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import count, groupby, product
from math import lcm
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from .errors import HypothesisViolated, SoundnessError, StuckAtEvenVertex
from .geometry import (
    Box,
    Partition,
    Point,
    RankView,
    Ranks,
    format_point,
    parse_point,
    rank_partition,
)
from .kernel import format_rat


def assign_axes(
    p: Union[Partition, RankView], member: Callable[[Fraction], bool]
) -> tuple[int, ...]:
    """Choose, per box, the smallest axis whose extent satisfies ``member``.

    Returns the chosen 1-based axis of each box, in box order.

    Takes the partition or its :class:`~boxcert.geometry.RankView`.
    ``member`` decides membership in the tracked set (usually a bounded
    closure).  Boxes repeat a few extents many times, so the view's rank
    columns are read axis by axis, for the boxes not yet assigned.  An
    axis's value table is scaled once onto one integer grid (the lcm ``q``
    of its denominators), a box's extent there is one integer subtraction,
    and each distinct extent ``e`` is given to ``member`` once, as
    ``Fraction(e, q)``.  A box with no qualifying side falsifies the premise
    of the whole construction, reported as :class:`HypothesisViolated` with
    the smallest offending box index.
    """
    view = p if isinstance(p, RankView) else rank_partition(p)
    axes = [0] * len(view.partition.boxes)
    todo = range(len(axes))  # 0-based indices of the boxes not yet assigned
    for j, (values, lo, hi) in enumerate(zip(view.values, view.lo, view.hi), start=1):
        q = lcm(*[v.denominator for v in values])
        grid = [v.numerator * (q // v.denominator) for v in values]
        verdicts: dict[int, bool] = {}
        left = []
        for k in todo:
            extent = grid[hi[k]] - grid[lo[k]]
            ok = verdicts.get(extent)
            if ok is None:
                ok = verdicts[extent] = member(Fraction(extent, q))
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

    ``assignment`` is the 1-based axis of each box.  The edges are four
    columns, in box and edge_id order: edge number ``i`` is edge
    ``edge_id[i]`` of box ``box[i]``, from its lower end ``lower[i]``, the
    one with the lower coordinate on the box's axis, as :func:`edges_of_box`
    lists it, to its upper end ``upper[i]``.  ``adjacency`` maps each vertex
    to the numbers of its edges, ascending.  Ends and vertices are rank
    tuples of ``ranks``; ``vertices`` and :meth:`degree` speak exact points,
    and ``edges`` lists the ``(box, edge_id, lower end, upper end)`` tuples,
    built when read.
    """

    ranks: RankView
    assignment: tuple[int, ...]
    box: list[int]
    edge_id: list[int]
    lower: list[Ranks]
    upper: list[Ranks]
    adjacency: Mapping[Ranks, list[int]]

    @property
    def edges(self) -> tuple[RankEdge, ...]:
        return tuple(zip(self.box, self.edge_id, self.lower, self.upper))

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
    one box interior to an edge of another) do not split edges.  Besides the
    view, the graph keeps one list per vertex, its four columns and the
    adjacency map: the ends are the view's own corner tuples.
    """
    view = p if isinstance(p, RankView) else rank_partition(p)
    boxes = len(view.partition.boxes)
    if len(c) != boxes:
        raise ValueError(f"assignment covers {len(c)} boxes, partition has {boxes}")
    dim = view.outer.dim
    layouts = {j: _edge_layout(dim, j) for j in range(1, dim + 1)}
    if not layouts.keys() >= set(c):
        raise ValueError(f"assignment names an axis outside 1..{dim}")
    corners = view.corners
    box = [k for k, axis in enumerate(c, 1) for _ in layouts[axis]]
    edge_id = [e for axis in c for e, _, _ in layouts[axis]]
    lower = [corners[lo][k] for k, axis in enumerate(c) for _, lo, _ in layouts[axis]]
    upper = [corners[hi][k] for k, axis in enumerate(c) for _, _, hi in layouts[axis]]
    adjacency: dict[Ranks, list[int]] = {}
    for i, a, z in zip(count(), lower, upper):
        adjacency.setdefault(a, []).append(i)
        adjacency.setdefault(z, []).append(i)
    return TrailGraph(view, c, box, edge_id, lower, upper, adjacency)


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


class Trail:
    """A non-repeating edge walk between two distinct outer corners.

    ``start`` and ``end`` are exact points, and each of ``steps`` is an
    :class:`Edge` in the direction walked, from the vertex left to the vertex
    reached.  A trail from :func:`extract_trail` holds its walk on ranks:
    ``graph`` is the graph walked, ``path`` the vertices visited, as rank
    tuples from the start, and ``taken`` the number of each step's edge in
    ``graph``; its steps and points are built from those when first read.
    A trail made from exact points has no ``graph``.  Equality, hashing and
    ``repr`` read the exact fields.
    """

    start: Point
    end: Point
    graph: Optional[TrailGraph] = None
    path: Sequence[Ranks] = ()
    taken: Sequence[int] = ()

    def __init__(self, start: Point, steps: Iterable[Edge], end: Point) -> None:
        self.start, self.steps, self.end = start, tuple(steps), end

    @classmethod
    def walked(
        cls, graph: TrailGraph, path: Sequence[Ranks], taken: Sequence[int]
    ) -> "Trail":
        """The walk along edges ``taken`` of ``graph``, visiting ``path``."""
        trail = cls.__new__(cls)
        trail.graph, trail.path, trail.taken = graph, path, taken
        trail.start = graph.ranks.point(path[0])
        trail.end = graph.ranks.point(path[-1])
        return trail

    @cached_property
    def steps(self) -> tuple[Edge, ...]:
        g, points = self.graph, self.points()
        return tuple(
            Edge(g.box[i], g.edge_id[i], a, b)
            for i, a, b in zip(self.taken, points, points[1:])
        )

    def points(self) -> tuple[Point, ...]:
        if self.graph is None:
            return (self.start,) + tuple(s.dst for s in self.steps)
        return tuple(map(self.graph.ranks.point, self.path))

    def ranks_in(self, view: RankView) -> Sequence[Ranks]:
        """The walk's vertices in the ranks of ``view``.

        They are ``path`` when the walk was made on a view of the same
        partition, whose ranks are the same; otherwise each exact point is
        looked up, and ``ValueError`` names one that is no vertex of ``view``.
        """
        if self.graph is not None and self.graph.ranks.partition is view.partition:
            return self.path
        ranks = []
        for v in self.points():
            r = view.ranks_of(v)
            if r is None:
                raise ValueError(f"trail point {format_point(v)} is no vertex")
            ranks.append(r)
        return ranks

    def _fields(self) -> tuple[Point, tuple[Edge, ...], Point]:
        return self.start, self.steps, self.end

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trail):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return f"Trail(start={self.start!r}, steps={self.steps!r}, end={self.end!r})"


def extract_trail(g: TrailGraph) -> Trail:
    """Greedy non-repeating walk from the outer box's lowest corner until it
    gets stuck.

    With the parity pattern in place the walk can only get stuck at an outer
    corner different from the start (at every even vertex an arrival leaves an
    odd number of used incidences, so an unused edge remains).  Tie-break,
    applied at each vertex the walk visits: the unused edge with the
    lexicographically smallest far endpoint, then smallest box index, then
    smallest edge_id, that is, the first such edge in the vertex's ascending
    list of edge numbers — this makes the whole pipeline reproducible
    byte-for-byte.  The walk runs on ranks, marks used edges in a
    ``bytearray`` and returns a :class:`Trail` that holds the rank tuples it
    visited and the edges it took; no exact point is formed here.
    """
    view = g.ranks
    corners = set(view.outer.corners())
    first = min(corners)
    adjacency, lower, upper = g.adjacency, g.lower, g.upper
    used = bytearray(len(lower))
    current = first
    path: list[Ranks] = [first]
    taken: list[int] = []
    while True:
        best = -1
        for i in adjacency.get(current, ()):
            if not used[i]:
                far = lower[i]
                if far == current:
                    far = upper[i]
                if best < 0 or far < nearest:
                    best, nearest = i, far
        if best < 0:
            break
        used[best] = 1
        taken.append(best)
        path.append(nearest)
        current = nearest
    if not taken:
        here = view.point(current)
        raise StuckAtEvenVertex(here, f"no edges at start {format_point(here)}")
    if current == first or current not in corners:
        raise StuckAtEvenVertex(view.point(current))
    return Trail.walked(g, path, taken)


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
    :func:`extract_trail` is.  The axis is the smallest one on which the
    walk's first and last vertices differ; on it the first must sit at 0
    and the last at the full outer extent, as a walk from the lowest corner
    does, and a trail that runs the other way is refused.  Steps from edges parallel to other axes project to zero and
    are dropped.  The walk's ranks (:meth:`Trail.ranks_in`) are projected,
    deduplicated and checked; each kept rank is then read back
    from the value table, less the outer box's low face (a subtraction only
    where that face is not 0).
    """
    view = p if isinstance(p, RankView) else rank_partition(p)
    path = t.ranks_in(view)
    first, last = path[0], path[-1]
    differing = [j for j in range(view.outer.dim) if first[j] != last[j]]
    if not differing:
        raise SoundnessError("trail starts and ends at the same corner")
    j = differing[0]
    values = view.values[j]
    lo, hi = view.outer.lo[j], view.outer.hi[j]
    ranks = [r for r, _ in groupby(map(itemgetter(j), path))]
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
        axis=j + 1,
        length=values[hi],
        points=tuple(values[r] for r in ranks),
        ranks=tuple(ranks),
    )
