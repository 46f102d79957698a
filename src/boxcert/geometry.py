"""Exact axis-aligned boxes, partitions, and partition validation.

All coordinates are exact rationals (``fractions.Fraction``).  Floats are
rejected at the boundary: geometric predicates here feed certificate
checking, so every comparison must be decidable, not approximate.

Validation and the trail graph only ever ask how coordinates *order*, so
they work on a :class:`RankView`: each axis's distinct coordinates sorted
once, and the boxes rewritten in integer ranks (coordinate compression), held
as one column of lower and one of upper ranks per axis, in box order.  Exact
values come back from the view's per-axis tables only where a result is
read.  The view enumerates every box's corners once (``RankView.corners``);
whether the boxes tile the outer box is decided by counting those corners
with their signs (:func:`_tiles`), and the trail graph pairs the same
corners into edges.  Only when the count fails is a report written, from the
same columns and corners: the degenerate boxes, the boxes outside the outer
box, and the cell at the lexicographically smallest point where the count is
off, which two boxes or none cover (:func:`validate_partition`).
"""
from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import compress
from operator import attrgetter, getitem, itemgetter, le, lt
from typing import Iterable, Optional, Sequence, Union

from .errors import SoundnessError

RatLike = Union[int, str, Fraction]

#: A signed integer, ``p/q`` or a plain decimal in ASCII digits: the strings
#: ``Fraction`` reads, less exponent notation and underscores.
_RATIONAL = re.compile(r"([-+]?)(?=\.?\d)(\d*)(?:/(\d+)|\.(\d*))?", re.ASCII)

#: A point is a tuple of exact rationals; its length is the ambient dimension.
Point = tuple[Fraction, ...]


def parse_rat(value: RatLike) -> Fraction:
    """Parse an exact rational from an int, a Fraction, or a "p/q" string.

    Strings must be an optionally signed integer, ``p/q`` with a nonzero
    denominator, or a plain decimal; not exponent notation, whose ten bytes
    ``"1e4000000"`` take seconds to parse.  Floats (and bools) are rejected
    outright: a binary float silently denotes a different rational than the
    decimal the user typed.
    """
    if isinstance(value, str):  # first: the ABC check for Fraction is slower
        match = _RATIONAL.fullmatch(value.strip())
        if match is None:
            raise ValueError(f"not a rational: {value!r}")
        sign, num, den, dec = match.groups()
        try:
            if den is not None:
                n, d = int(num), int(den)
            else:
                d = 10 ** len(dec or "")
                n = int(num or "0") * d + int(dec or "0")
            return Fraction(-n if sign == "-" else n, d)  # lowest terms
        except (ValueError, ZeroDivisionError) as exc:  # q = 0, or too many digits
            raise ValueError(f"not a rational: {value!r}") from exc
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ValueError(
            f"floats are not accepted (got {value!r}); write an exact \"p/q\" string"
        )
    raise ValueError(f"not a rational: {value!r}")


def format_rat(value: Fraction) -> str:
    """Render a rational in lowest terms: ``"p"`` for integers, else ``"p/q"``."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def parse_point(coords: Sequence[RatLike]) -> Point:
    return tuple(parse_rat(c) for c in coords)


def format_point(p: Point) -> str:
    return "(" + ", ".join(format_rat(c) for c in p) + ")"


@dataclass(frozen=True)
class Box:
    """A closed axis-aligned box ``[lo[1], hi[1]] x ... x [lo[n], hi[n]]``.

    Coordinates are exact rationals, except in the outer box of a
    :class:`RankView`, which holds integer ranks.  Construction only enforces
    that ``lo`` and ``hi`` agree in length; degeneracy (``lo[j] >= hi[j]``)
    is a *reported* defect, not an exception, so raw input can be loaded and
    then validated.
    """

    lo: Point
    hi: Point

    def __post_init__(self) -> None:
        if type(self.lo) is not tuple:
            object.__setattr__(self, "lo", tuple(self.lo))
        if type(self.hi) is not tuple:
            object.__setattr__(self, "hi", tuple(self.hi))
        if len(self.lo) != len(self.hi):
            raise ValueError(
                f"lo has {len(self.lo)} coordinates but hi has {len(self.hi)}"
            )
        if not self.lo:
            raise ValueError("boxes need at least one axis")

    @property
    def dim(self) -> int:
        return len(self.lo)

    def extent(self, axis: int) -> Fraction:
        """Side length along 1-based ``axis``."""
        if not 1 <= axis <= self.dim:
            raise ValueError(f"axis {axis} out of range 1..{self.dim}")
        return self.hi[axis - 1] - self.lo[axis - 1]

    def extents(self) -> tuple[Fraction, ...]:
        return tuple(h - l for l, h in zip(self.lo, self.hi))

    def volume(self) -> Fraction:
        vol = Fraction(1)
        for e in self.extents():
            vol *= e
        return vol

    def is_degenerate(self) -> bool:
        return any(l >= h for l, h in zip(self.lo, self.hi))

    def contains_box(self, other: "Box") -> bool:
        if other.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return all(sl <= ol for sl, ol in zip(self.lo, other.lo)) and all(
            oh <= sh for oh, sh in zip(other.hi, self.hi)
        )

    def corners(self) -> tuple[Point, ...]:
        """All 2^n vertices, in binary order (bit j-1 set means hi on axis j)."""
        out: list[Point] = []
        for bits in range(1 << self.dim):
            out.append(
                tuple(
                    self.hi[j] if bits >> j & 1 else self.lo[j]
                    for j in range(self.dim)
                )
            )
        return tuple(out)

    def __str__(self) -> str:
        parts = [
            f"[{format_rat(l)}, {format_rat(h)}]" for l, h in zip(self.lo, self.hi)
        ]
        return " x ".join(parts)


def interiors_disjoint(a: Box, b: Box) -> bool:
    """True iff the open interiors of ``a`` and ``b`` do not meet.

    Exact criterion: some axis separates them, i.e. one box ends (weakly)
    before the other begins.  Shared faces, edges, and corners are fine.
    Only the order of coordinates matters, so boxes in ranks work alike.
    """
    if len(a.lo) != len(b.lo):
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    for al, ah, bl, bh in zip(a.lo, a.hi, b.lo, b.hi):
        if ah <= bl or bh <= al:
            return True
    return False


@dataclass(frozen=True)
class Partition:
    """An outer box together with the constituent boxes claimed to tile it.

    ``boxes`` are 1-based by convention: box ``k`` is ``boxes[k-1]``.  The
    claim itself (containment, disjointness, exact volume cover) is *not*
    enforced here; run :func:`validate_partition`.
    """

    dim: int
    outer: Box
    boxes: tuple[Box, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "boxes", tuple(self.boxes))
        if self.dim < 2:
            raise ValueError(f"dimension must be >= 2, got {self.dim}")
        if self.outer.dim != self.dim:
            raise ValueError(
                f"outer box has dimension {self.outer.dim}, expected {self.dim}"
            )
        bad = [k for k, b in enumerate(self.boxes, start=1) if b.dim != self.dim]
        if bad:
            raise ValueError(f"boxes {bad} do not have dimension {self.dim}")
        if not self.boxes:
            raise ValueError("a partition needs at least one box")

    def box(self, k: int) -> Box:
        """Constituent box ``k`` (1-based)."""
        if not 1 <= k <= len(self.boxes):
            raise ValueError(f"box index {k} out of range 1..{len(self.boxes)}")
        return self.boxes[k - 1]

    def __len__(self) -> int:
        return len(self.boxes)


#: A point of a :class:`RankView`, such as a box corner or a trail-graph vertex:
#: the ranks of its coordinates.
Ranks = tuple[int, ...]


@cache
def _corner_getters(dim: int) -> tuple[itemgetter, ...]:
    """Getters that read each of a box's 2^dim corners from ``lo + hi``, in
    the order of ``itertools.product(*zip(lo, hi))``: 0-based axis ``j`` is
    bit ``dim - 1 - j`` of the corner's index, set at the hi face.

    Applied to the ``2*dim`` columns of many boxes' ends, a getter reads the
    columns of that corner instead."""
    return tuple(
        itemgetter(*(dim + j if i >> (dim - 1 - j) & 1 else j for j in range(dim)))
        for i in range(1 << dim)
    )


@dataclass(frozen=True, eq=False)
class RankView:
    """A partition with every coordinate replaced by its rank on its axis.

    ``values[j]`` holds the distinct coordinates on 0-based axis ``j`` in
    increasing order, so rank ``r`` stands for ``values[j][r]``; ``index[j]``
    maps ``(numerator, denominator)`` back to the rank.  ``outer`` is the
    outer box in ranks.  The constituent boxes are integer columns: box
    ``k`` spans ranks ``lo[j][k - 1]`` to ``hi[j][k - 1]`` on axis ``j``.
    Ranks order exactly as the values do, so every order test (and every
    tie) on the view is the same as on the partition, with integers in place
    of Fractions.  Build it with :func:`rank_partition`.

    ``corners`` enumerates every box's corners once, for validation, its
    report on an invalid partition and the trail graph alike.
    """

    partition: Partition
    values: tuple[tuple[Fraction, ...], ...]
    index: tuple[dict[tuple[int, int], int], ...]
    outer: Box
    lo: tuple[tuple[int, ...], ...]
    hi: tuple[tuple[int, ...], ...]

    @cached_property
    def corners(self) -> tuple[list[Ranks], ...]:
        """``corners[i][k - 1]`` is corner ``i`` of box ``k``, in the order of
        ``itertools.product(*zip(lo, hi))`` (see :func:`_corner_getters`)."""
        columns = self.lo + self.hi
        return tuple(
            list(zip(*getter(columns))) for getter in _corner_getters(len(self.lo))
        )

    def point(self, ranks: Iterable[int]) -> Point:
        """The exact point whose coordinates have these ranks."""
        return tuple(map(getitem, self.values, ranks))

    def ranks_of(self, point: Point) -> Optional[Ranks]:
        """The ranks of an exact ``point``; None if it has the wrong dimension
        or a coordinate that no box face has."""
        if len(point) != len(self.index):
            return None
        ranks = []
        for index, c in zip(self.index, point):
            r = index.get((c.numerator, c.denominator))
            if r is None:
                return None
            ranks.append(r)
        return tuple(ranks)


_num_den = attrgetter("numerator", "denominator")


def rank_partition(p: Partition) -> RankView:
    """Sort each axis's distinct coordinates once and rewrite ``p`` in ranks.

    A loaded partition shares one ``Fraction`` per distinct string, so each
    axis's column of coordinate objects is first deduplicated by ``id`` (``p``
    keeps every object alive for the call, so no id is reused).  Equal values
    held by distinct objects are then merged on ``(numerator, denominator)``,
    which hashes no Fraction, and only the distinct values are sorted.  The
    rank of every coordinate is one lookup by ``id``.
    """
    shapes = (p.outer,) + p.boxes
    n = len(shapes)
    # one column per axis: every shape's lo coordinate, then every hi
    columns = zip(*map(attrgetter("lo"), shapes), *map(attrgetter("hi"), shapes))
    values: list[tuple[Fraction, ...]] = []
    index: list[dict[tuple[int, int], int]] = []
    lo: list[tuple[int, ...]] = []
    hi: list[tuple[int, ...]] = []
    outer_lo: list[int] = []
    outer_hi: list[int] = []
    for column in columns:
        ids = list(map(id, column))
        objects = dict(zip(ids, column))
        keys = list(map(_num_den, objects.values()))
        distinct = dict(zip(keys, objects.values()))
        order = sorted(distinct, key=distinct.__getitem__)
        ranks = {key: r for r, key in enumerate(order)}
        rank_of = dict(zip(objects, map(ranks.__getitem__, keys)))
        column_ranks = tuple(map(rank_of.__getitem__, ids))
        values.append(tuple(map(distinct.__getitem__, order)))
        index.append(ranks)
        outer_lo.append(column_ranks[0])
        outer_hi.append(column_ranks[n])
        lo.append(column_ranks[1:n])
        hi.append(column_ranks[n + 1 :])
    outer = Box(tuple(outer_lo), tuple(outer_hi))
    return RankView(p, tuple(values), tuple(index), outer, tuple(lo), tuple(hi))


@dataclass(frozen=True)
class Defect:
    """One validation failure, with exact witness coordinates in ``detail``."""

    kind: str  # "degenerate" | "not-contained" | "interior-overlap" | "gap"
    boxes: tuple[int, ...]  # 1-based indices of the offending boxes
    detail: str

    def __str__(self) -> str:
        where = ",".join(f"k={k}" for k in self.boxes)
        return f"{self.kind} ({where}): {self.detail}" if where else (
            f"{self.kind}: {self.detail}"
        )


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate_partition`; falsy iff defects were found.

    ``outer_volume`` is computed when it is read, as :meth:`summary` of a
    valid partition does.
    """

    box_count: int
    outer: Box
    defects: tuple[Defect, ...] = field(default_factory=tuple)

    @property
    def outer_volume(self) -> Fraction:
        return self.outer.volume()

    @property
    def ok(self) -> bool:
        return not self.defects

    def __bool__(self) -> bool:
        return self.ok

    def summary(self) -> str:
        if self.ok:
            return f"OK: {self.box_count} boxes, volume {format_rat(self.outer_volume)}"
        lines = [f"INVALID: {len(self.defects)} defect(s)"]
        lines.extend(f"  - {d}" for d in self.defects)
        return "\n".join(lines)


def _tiles(view: RankView) -> bool:
    """True iff the boxes of ``view`` exactly tile its outer box.

    On the rank lattice a box with ``lo < hi`` on every axis is the set of
    unit cells it covers, and the indicator of that set is the sum, over the
    box's corners ``c``, of ``(-1)^(number of upper ends of c)`` times the
    indicator of the orthant ``x >= c``.  Differencing recovers the signed
    corners from the sum, so the boxes' cell counts add up to the outer box's
    indicator (every cell of the outer box covered once, no cell outside
    covered) iff their signed corner counts add up to the outer box's: +-1 at
    its corners, 0 elsewhere.  That is the double-counting of tile corners in
    de Bruijn, "Filling boxes with bricks" (1969), and in Wagon, "Fourteen
    proofs of a result about tiling a rectangle" (1987).  Every cell has a
    positive exact volume, so this is the cover that :func:`validate_partition`
    checks.  The counts cannot see every degenerate box, so ``lo < hi`` is
    checked first, on the view's columns: a zero-width box has no net
    corners, and a box inverted on an odd number of axes cancels the corners
    of its upright twin.

    The boxes' corners are the view's shared enumeration
    (``RankView.corners``), which :func:`~boxcert.trailgraph.build_graph`
    pairs into edges; corner ``i`` has as many upper ends as ``i`` has set
    bits, and that parity gives its sign.
    """
    outer = view.outer
    if not all(map(lt, outer.lo, outer.hi)) or not all(
        all(map(lt, lo, hi)) for lo, hi in zip(view.lo, view.hi)
    ):
        return False
    ends = outer.lo + outer.hi
    signed: tuple[list[Ranks], list[Ranks]] = ([], [])  # even, odd upper ends
    for i, (corners, getter) in enumerate(
        zip(view.corners, _corner_getters(len(outer.lo)))
    ):
        odd = i.bit_count() & 1
        signed[odd].extend(corners)
        signed[not odd].append(getter(ends))  # the outer box's, on the other side
    return Counter(signed[0]) == Counter(signed[1])


def validate_partition(p: Union[Partition, RankView]) -> ValidationReport:
    """Check that the constituent boxes exactly tile the outer box.

    Takes the partition or its :class:`RankView`; every test below runs on
    ranks.  The decision is :func:`_tiles`, one count of the boxes' signed
    corners (de Bruijn 1969; Wagon 1987), which tests no pair of boxes and
    sums no volume.  Only when it fails are the defects found and reported
    (they are data, not exceptions), from the same columns and corners:

    * every box that is degenerate, or not contained in the outer box, in one
      pass over the boxes;
    * one cell where the cover is wrong.  Over the nondegenerate boxes, let
      ``D`` be their signed corner counts minus the outer box's, and ``c``
      the lexicographically smallest lattice point where ``D`` is nonzero.
      The coverage of a cell, minus the outer box's indicator, is the sum of
      ``D`` over the points at or below its lower corner, and at ``c`` every
      such point but ``c`` is lexicographically smaller; so the cell at ``c``
      is covered ``D(c)`` times more than a tiling covers it.  If that cell
      lies in the outer box, one scan of the columns finds the boxes that
      cover it: two or more make an ``interior-overlap`` naming the two
      lowest-numbered, none makes a ``gap``.  A cell outside the outer box
      lies in a box already reported as not contained.

    The detail of the cell's defect gives the exact cell, how many boxes
    cover it and at how many lattice points the counts differ.  The checks
    and the decision agree; should the checks find nothing after the
    decision failed, that is a :class:`~boxcert.errors.SoundnessError`.
    """
    view = p if isinstance(p, RankView) else rank_partition(p)
    p = view.partition
    if _tiles(view):
        return ValidationReport(box_count=len(p.boxes), outer=p.outer)
    defects: list[Defect] = []
    outer = view.outer
    if outer.is_degenerate():
        defects.append(
            Defect("degenerate", (), f"outer box {p.outer} has a non-positive side")
        )
    solid: list[bool] = []
    for k, (b, lo, hi) in enumerate(
        zip(p.boxes, zip(*view.lo), zip(*view.hi)), start=1
    ):
        solid.append(all(map(lt, lo, hi)))
        if not solid[-1]:
            defects.append(Defect("degenerate", (k,), f"box {b} has a non-positive side"))
        elif not (all(map(le, outer.lo, lo)) and all(map(le, hi, outer.hi))):
            defects.append(
                Defect("not-contained", (k,), f"box {b} is not inside outer {p.outer}")
            )
    ends = outer.lo + outer.hi
    signed: tuple[Counter, Counter] = (Counter(), Counter())  # even, odd upper ends
    for i, (corners, getter) in enumerate(
        zip(view.corners, _corner_getters(len(outer.lo)))
    ):
        odd = i.bit_count() & 1
        signed[odd].update(compress(corners, solid))
        signed[not odd][getter(ends)] += 1  # the outer box's, on the other side
    even, odd = signed
    unbalanced = [c for c in even.keys() | odd.keys() if even[c] != odd[c]]
    if unbalanced:
        cell = min(unbalanced)
        if all(map(le, outer.lo, cell)) and all(map(lt, cell, outer.hi)):
            covering: Sequence[int] = range(len(p.boxes))
            for lo, hi, rank in zip(view.lo, view.hi, cell):
                covering = [k for k in covering if lo[k] <= rank < hi[k]]
            if len(covering) != 1:  # one box would contradict the count
                exact = Box(view.point(cell), view.point(r + 1 for r in cell))
                defects.append(
                    Defect(
                        "interior-overlap" if covering else "gap",
                        tuple(k + 1 for k in covering[:2]),
                        f"cell {exact} is covered by {len(covering)} boxes; "
                        f"the corner counts differ at {len(unbalanced)} points",
                    )
                )
    if not defects:
        raise SoundnessError(
            f"the corner count rejects the {len(p.boxes)} boxes, "
            "but no defect is found in them"
        )
    return ValidationReport(
        box_count=len(p.boxes), outer=p.outer, defects=tuple(defects)
    )
