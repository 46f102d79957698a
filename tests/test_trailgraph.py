"""Axis assignment, the parallel-edge multigraph, trails, and projection."""

from __future__ import annotations

import gc
import importlib.util
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from boxcert import jsonio, pipeline
from boxcert.closure import GeneratorSet, bounded_closure
from boxcert.errors import HypothesisViolated, SoundnessError, StuckAtEvenVertex
from boxcert.factory import (
    hypothesis_instance,
    lift_product,
    pinwheel_partition,
    random_guillotine,
    strip_partition,
)
from boxcert.geometry import (
    Box,
    Partition,
    RankView,
    parse_point,
    rank_partition,
    validate_partition,
)
from boxcert.trailgraph import (
    Edge,
    ParityEntry,
    Trail,
    YSequence,
    assign_axes,
    build_graph,
    edges_of_box,
    extract_trail,
    parity_audit,
    project_to_axis,
)


def _F(x) -> Fraction:
    return Fraction(x)


def _member(gens, bound):
    return bounded_closure(GeneratorSet.of(*gens), bound).__contains__


def _pt(*coords):
    return parse_point(coords)


def _count_fraction_calls(monkeypatch, *names):
    """Count calls of the named ``Fraction`` methods; read as ``calls[0]``."""
    calls = [0]

    def counting(method):
        def counted(*args):
            calls[0] += 1
            return method(*args)

        return counted

    for name in names:
        monkeypatch.setattr(Fraction, name, counting(getattr(Fraction, name)))
    return calls


def _count_inits(monkeypatch, cls):
    """Count constructions of ``cls``; read as ``calls[0]``."""
    calls = [0]
    init = cls.__init__

    def counted(self, *args, **kwargs):
        calls[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counted)
    return calls


def _unit_grid(n):
    boxes = tuple(
        Box(_pt(i, j), _pt(i + 1, j + 1)) for i in range(n) for j in range(n)
    )
    return Partition(2, Box(_pt(0, 0), _pt(n, n)), boxes)


def test_assign_axes_prefers_smallest_axis():
    p = strip_partition(15, 5)
    c = assign_axes(p, _member((15, 5), 20))
    assert c == (1, 1)
    assert c[0] == 1 and c[1] == 1


def test_assign_axes_pinwheel_golden():
    p = pinwheel_partition(17, 10, 7)
    c = assign_axes(p, _member((17, 10, 7), 20))
    # first box is 3 x 17: only its vertical side qualifies
    assert c == (2, 1, 1, 1, 1)


def test_assign_axes_reports_first_bad_box():
    p = pinwheel_partition(17, 10, 7)
    with pytest.raises(HypothesisViolated) as info:
        assign_axes(p, _member((4,), 20))
    assert info.value.box_index == 1


def _row_with_two_bad_strips():
    # strips 3 and 7 are 3 wide and every strip is 5/3 high: neither side is
    # in the closure of {2}, and both share the full-height rank pair
    widths = [2, 2, 3, 2, 2, 2, 3, 2]
    xs = [0]
    for w in widths:
        xs.append(xs[-1] + w)
    h = _F("5/3")
    boxes = tuple(Box(_pt(a, 0), _pt(b, h)) for a, b in zip(xs, xs[1:]))
    return Partition(2, Box(_pt(0, 0), _pt(xs[-1], h)), boxes)


def test_assign_axes_names_the_smallest_bad_box_from_partition_or_view():
    p = _row_with_two_bad_strips()
    for given in (p, rank_partition(p)):
        with pytest.raises(HypothesisViolated) as info:
            assign_axes(given, _member((2,), 20))
        assert info.value.box_index == 3
        assert info.value.extents == ("3", "5/3")
        assert str(info.value) == (
            "box k=3 has no side in the closure; extents ('3', '5/3')"
        )


def _loaded_unit_grid(n):
    return jsonio.partition_from_json(
        json.loads(jsonio.canonical_json(jsonio.partition_to_json(_unit_grid(n))))
    )


def test_assign_axes_asks_member_once_per_distinct_extent():
    n = 40
    p = _loaded_unit_grid(n)
    distinct = {(j, b.lo[j], b.hi[j]) for b in p.boxes for j in range(p.dim)}
    asked = []
    member = _member((1,), n)

    def counted(value):
        asked.append(value)
        return member(value)

    for given in (p, rank_partition(p)):
        asked.clear()
        assert assign_axes(given, counted) == (1,) * (n * n)
        assert 0 < len(asked) <= len(distinct)  # 2 * n; n * n at one per box


def _benchmark_pool(workload, seed):
    """The benchmark's pool of ``workload`` instances for ``seed``, from
    ``perfbench/workloads.py``, which does not import boxcert."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses read the defining module
    try:
        spec.loader.exec_module(module)
        return module.generate(workload, seed)
    finally:
        del sys.modules[spec.name]


def test_assign_axes_asks_member_once_per_distinct_length(monkeypatch):
    # Seed-1 row instance 0: 8 distinct strip widths over ~270 distinct
    # pairs of x ranks.  The verdicts are keyed on the integer length, and
    # no Fraction is subtracted.
    spec = _benchmark_pool("row", 1)[0]
    p = jsonio.partition_from_json(spec.partition)
    member = _member(tuple(GeneratorSet.from_values(spec.gens).gens), max(p.outer.extents()))
    asked = []

    def counted(value):
        asked.append(value)
        return member(value)

    for given in (p, rank_partition(p)):
        asked.clear()
        subtractions = _count_fraction_calls(monkeypatch, "__sub__", "__rsub__")
        axes = assign_axes(given, counted)
        assert subtractions[0] == 0
        monkeypatch.undo()
        widths = {b.hi[0] - b.lo[0] for b in p.boxes}
        assert axes == (1,) * len(p.boxes)
        assert sorted(asked) == sorted(widths)  # each distinct length once
        assert len(widths) <= 10 < len(p.boxes)


def test_assign_axes_and_construct_make_no_box_extent_call(monkeypatch):
    n = 40
    p = _loaded_unit_grid(n)
    calls = [0]
    extent = Box.extent

    def counted(self, axis):
        calls[0] += 1
        return extent(self, axis)

    monkeypatch.setattr(Box, "extent", counted)
    assign_axes(p, _member((1,), n))
    pipeline._construct(p, GeneratorSet.of(1), None)
    assert calls[0] == 0
    assert p.outer.extent(1) == n
    assert calls[0] == 1  # the counter is live


def test_edges_of_box_bit_layout():
    p = pinwheel_partition(17, 10, 7)
    edges = edges_of_box(p.box(1), 1, 2)  # the 3 x 17 box, assigned axis 2
    assert [(e.edge_id, e.src, e.dst) for e in edges] == [
        (0, _pt(0, 0), _pt(0, 17)),
        (1, _pt(3, 0), _pt(3, 17)),
    ]
    # in 3D each box contributes 2^(3-1) = 4 parallel edges; bit 0 of the
    # edge_id is axis 1, bit 1 is axis 3
    q = lift_product(p, 20, 3)
    assert [(e.edge_id, e.src, e.dst) for e in edges_of_box(q.box(1), 1, 2)] == [
        (0, _pt(0, 0, 0), _pt(0, 17, 0)),
        (1, _pt(3, 0, 0), _pt(3, 17, 0)),
        (2, _pt(0, 0, 20), _pt(0, 17, 20)),
        (3, _pt(3, 0, 20), _pt(3, 17, 20)),
    ]


def test_strip_graph_degrees_and_parity():
    p = strip_partition(15, 5)
    g = build_graph(p, (1, 1))
    assert g.degree(_pt(0, 0)) == 1
    assert g.degree(_pt(15, 0)) == 2
    assert g.degree(_pt(20, 0)) == 1
    assert g.degree(_pt(15, 20)) == 2
    report = parity_audit(g)
    assert report.ok
    assert report.violations() == ()


def test_degree_reads_the_point_as_exact_rationals():
    g = build_graph(strip_partition(15, 5), (1, 1))
    assert g.degree(("0", "0")) == 1
    assert g.degree(("15", 0)) == 2
    assert g.degree(("7", "0")) == 0  # not a vertex
    assert g.degree(("0", "0", "0")) == 0  # wrong dimension
    with pytest.raises(ValueError):
        g.degree((0.0, 0.0))
    with pytest.raises(ValueError):
        g.degree(("zero", "0"))


def test_build_graph_rejects_wrong_assignment_length():
    p = strip_partition(15, 5)
    with pytest.raises(ValueError):
        build_graph(p, (1,))
    for axes in [(1, 0), (3, 1)]:
        with pytest.raises(ValueError):
            build_graph(p, axes)


def test_parity_holds_for_any_assignment_on_valid_partition():
    # the parity argument never looks at closure membership, so even a
    # "wrong" assignment keeps odd degree exactly at outer corners
    p = pinwheel_partition(17, 10, 7)
    for axes in [(1, 1, 1, 1, 1), (2, 2, 2, 2, 2), (1, 2, 1, 2, 1)]:
        report = parity_audit(build_graph(p, axes))
        assert report.ok, report.table()


def test_parity_audit_catches_uncovered_area():
    # a box covering only half the outer square leaves odd degree at
    # non-corner points and degree 0 at two outer corners
    outer = strip_partition(2, 2).outer  # the 4 x 4 square
    p = Partition(2, outer, (Box(_pt(0, 0), _pt(2, 4)),))
    report = parity_audit(build_graph(p, (2,)))
    assert not report.ok
    assert report.entries == (
        ParityEntry(_pt(0, 0), 1, True),
        ParityEntry(_pt(0, 4), 1, True),
        ParityEntry(_pt(2, 0), 1, False),  # odd degree off-corner
        ParityEntry(_pt(2, 4), 1, False),
        ParityEntry(_pt(4, 0), 0, True),  # corner without its edge
        ParityEntry(_pt(4, 4), 0, True),
    )
    assert report.violations() == report.entries[2:]
    assert report.table().splitlines() == [
        "vertex  degree  outer-corner  ok",
        "(0, 0)  1  yes  ok",
        "(0, 4)  1  yes  ok",
        "(2, 0)  1  no  VIOLATION",
        "(2, 4)  1  no  VIOLATION",
        "(4, 0)  0  yes  VIOLATION",
        "(4, 4)  0  yes  VIOLATION",
    ]


@pytest.mark.parametrize(
    "boxes",
    [
        # every outer corner has degree 1; the inner box's corners are odd
        ((0, 0, 4, 4), (1, 1, 2, 2)),
        # three copies of the outer box: the corners are odd, but degree 3
        ((0, 0, 4, 4),) * 3,
    ],
    ids=["odd_inner_vertices", "corners_of_degree_3"],
)
def test_parity_audit_needs_both_halves_of_the_condition(boxes):
    outer = Box(_pt(0, 0), _pt(4, 4))
    p = Partition(2, outer, tuple(Box(_pt(*c[:2]), _pt(*c[2:])) for c in boxes))
    report = parity_audit(build_graph(p, (1,) * len(boxes)))
    assert not report.ok
    assert report.violations()


def test_a_clean_parity_audit_builds_its_entries_only_when_read(monkeypatch):
    n = 40
    p = _unit_grid(n)
    g = build_graph(p, assign_axes(p, _member((1,), n)))
    calls = _count_inits(monkeypatch, ParityEntry)
    report = parity_audit(g)
    assert report.ok and report
    assert calls[0] == 0
    assert report.violations() == ()
    assert calls[0] == len(report.entries) == (n + 1) ** 2
    report.table()
    assert calls[0] == (n + 1) ** 2  # the entries are built once


def test_certify_builds_no_rank_box_per_box(monkeypatch):
    # The rank view keeps the boxes as integer columns: the accept path
    # builds the outer box in ranks and no rank box per constituent box.
    n = 40
    p = _unit_grid(n)
    calls = _count_inits(monkeypatch, Box)
    cert = pipeline.certify(p, GeneratorSet.of(1))
    assert cert.claimed_side.length == n
    built = calls[0]
    assert built <= 1  # the outer box; one per box would be 1,601
    Box(_pt(0, 0), _pt(1, 1))
    assert calls[0] == built + 1  # the counter is live


def test_validation_and_the_graph_read_one_corner_enumeration(monkeypatch):
    n = 40
    p = _unit_grid(n)
    cached = RankView.corners
    reads = []

    class Watched:  # a data descriptor, so every read comes through it
        def __get__(self, view, owner=None):
            corners = cached.__get__(view, owner)
            reads.append((sys._getframe(1).f_code.co_name, corners))
            return corners

        def __set__(self, view, value):
            raise AttributeError("corners")

    monkeypatch.setattr(RankView, "corners", Watched())
    pipeline.certify(p, GeneratorSet.of(1))
    assert [reader for reader, _ in reads] == ["_tiles", "build_graph"]
    (_, first), (_, second) = reads
    assert second is first
    assert len(first) == 4 and all(len(corners) == n * n for corners in first)


def test_certify_builds_an_edge_only_for_each_trail_step(monkeypatch):
    # The walk and the audit writer run on ranks: certify builds no Edge;
    # only the certificate's trail view, which decodes the written audit,
    # builds one per step.
    n = 40
    p = _unit_grid(n)
    calls = _count_inits(monkeypatch, Edge)
    cert = pipeline.certify(p, GeneratorSet.of(1))
    assert calls[0] == 0  # before the trail view decodes the audit into Edges
    assert len(cert.trail.steps) == n
    Edge(1, 0, _pt(0, 0), _pt(1, 0))
    assert calls[0] == n + 1  # the counter is live: the view, here


def test_a_row_graph_keeps_one_tracked_object_per_vertex():
    # The graph holds its edges as columns of the view's own corner tuples
    # and each vertex's edges as one list of edge numbers, so what it keeps
    # alive for the garbage collector to track is about one object per
    # vertex, not a tuple per edge and two per incidence (2,420 here).
    n = 300
    rng = random.Random(300)
    xs = [0]
    for _ in range(n):
        xs.append(xs[-1] + rng.randint(2, 9))
    height = _F("5/3")
    strips = tuple(Box((_F(a), _F(0)), (_F(b), height)) for a, b in zip(xs, xs[1:]))
    p = Partition(2, Box((_F(0), _F(0)), (_F(xs[-1]), height)), strips)
    view = rank_partition(p)
    axes = (1,) * n
    build_graph(view, axes)  # the corners and the edge layout are cached
    gc.disable()
    try:
        before = len(gc.get_objects())
        g = build_graph(view, axes)
        kept = len(gc.get_objects()) - before
    finally:
        gc.enable()
    vertices = len(g.adjacency)
    assert vertices == 2 * (n + 1)
    assert len(g.edges) == 2 * n
    assert vertices <= kept <= vertices + 16


def test_strip_trail_golden():
    p = strip_partition(15, 5)
    g = build_graph(p, (1, 1))
    t = extract_trail(g)
    assert t.start == _pt(0, 0)
    assert t.points() == (_pt(0, 0), _pt(15, 0), _pt(20, 0))
    assert len(t.steps) == 2
    assert [s.box for s in t.steps] == [1, 2]


def test_pinwheel_trail_golden():
    p = pinwheel_partition(17, 10, 7)
    c = assign_axes(p, _member((17, 10, 7), 20))
    t = extract_trail(build_graph(p, c))
    assert t.points() == (
        _pt(0, 0),
        _pt(0, 17),
        _pt(10, 17),
        _pt(3, 17),
        _pt(3, 0),
        _pt(20, 0),
    )


def test_trail_from_alternate_corner():
    p = strip_partition(15, 5)
    g = build_graph(p, (1, 1))
    t = extract_trail(g, start=_pt(20, 0))
    assert t.points() == (_pt(20, 0), _pt(15, 0), _pt(0, 0))


def test_trail_start_must_be_an_outer_corner():
    p = strip_partition(15, 5)
    g = build_graph(p, (1, 1))
    with pytest.raises(ValueError):
        extract_trail(g, start=_pt(15, 0))
    with pytest.raises(ValueError):
        extract_trail(g, start=_pt(0, 0, 0))  # a corner's coordinates, plus one


def test_trail_gets_stuck_on_uncovered_partition():
    outer = strip_partition(2, 2).outer
    p = Partition(2, outer, (Box(_pt(0, 0), _pt(2, 4)),))
    g = build_graph(p, (1,))
    with pytest.raises(StuckAtEvenVertex):
        extract_trail(g)  # walk dies at (2,0), which is no outer corner


def test_project_strip_trail():
    p = strip_partition(15, 5)
    t = extract_trail(build_graph(p, (1, 1)))
    y = project_to_axis(t, p)
    assert y.axis == 1
    assert y.points == (_F(0), _F(15), _F(20))
    assert y.step_lengths() == (_F(15), _F(5))
    assert y.length == 20


def test_project_orients_sequence_to_start_at_zero():
    p = strip_partition(15, 5)
    g = build_graph(p, (1, 1))
    t = extract_trail(g, start=_pt(20, 0))
    y = project_to_axis(t, p)
    # the reversed walk is the forward walk backwards
    assert y.points == (_F(0), _F(15), _F(20))


def test_project_refuses_a_trail_that_stops_short_of_the_far_corner():
    # The walk (0,0) -> (15,0) -> (20,0), cut after its first step, ends at
    # no outer corner; its positions 0 .. 15 do not span the side.
    p = strip_partition(15, 5)
    t = extract_trail(build_graph(p, (1, 1)))
    cut = Trail(start=t.start, steps=t.steps[:1], end=t.steps[0].dst)
    message = r"^projection endpoints 0, 15 do not span \[0, 20\]$"
    with pytest.raises(SoundnessError, match=message):
        project_to_axis(cut, p)


def test_pinwheel_projection_golden():
    p = pinwheel_partition(17, 10, 7)
    c = assign_axes(p, _member((17, 10, 7), 20))
    t = extract_trail(build_graph(p, c))
    y = project_to_axis(t, p)
    assert y.axis == 1
    assert y.points == (_F(0), _F(10), _F(3), _F(20))
    # Moved off the origin, the positions are measured from the outer box's
    # low face and come out the same.
    def moved(b):
        shift = (_F("7/2"), _F(-2))
        return Box(*(tuple(x + d for x, d in zip(end, shift)) for end in (b.lo, b.hi)))

    q = Partition(2, moved(p.outer), tuple(map(moved, p.boxes)))
    assert project_to_axis(extract_trail(build_graph(q, c)), q) == y


def test_ysequence_invariants():
    with pytest.raises(ValueError):
        YSequence(axis=1, length=_F(20), points=(_F(1), _F(20)))  # must start at 0
    with pytest.raises(ValueError):
        YSequence(axis=1, length=_F(20), points=(_F(0), _F(15)))  # must end at length
    with pytest.raises(ValueError):
        YSequence(axis=1, length=_F(20), points=(_F(0), _F(25), _F(20)))  # range
    with pytest.raises(ValueError):
        YSequence(axis=1, length=_F(20), points=(_F(0), _F(5), _F(5), _F(20)))
    with pytest.raises(ValueError):
        YSequence(axis=1, length=_F(20), points=(_F(0),))


def test_lifted_strip_keeps_corner_parity():
    p = lift_product(strip_partition(15, 5), 20, 3)
    c = assign_axes(p, _member((15, 5), 20))
    g = build_graph(p, c)
    report = parity_audit(g)
    assert report.ok
    for corner in p.outer.corners():
        assert g.degree(corner) == 1


def test_parity_holds_on_random_instances():
    for seed in range(30):
        n = 2 if seed % 2 == 0 else 3
        p = random_guillotine(n, 3, seed=seed)
        p, gens = hypothesis_instance(p, seed=seed + 99)
        bound = max(p.outer.extents())
        c = assign_axes(p, _member(tuple(gens), bound))
        report = parity_audit(build_graph(p, c))
        assert report.ok, f"seed {seed}: {report.table()}"


def _reference_trail(p, axes):
    """The greedy walk of :func:`extract_trail`, on :class:`Edge` objects in
    exact points: from the smallest outer corner, the unused edge with the
    smallest (far endpoint, box, edge_id) at each vertex."""
    adjacency: dict = {}
    for k, (b, axis) in enumerate(zip(p.boxes, axes), start=1):
        for e in edges_of_box(b, k, axis):
            adjacency.setdefault(e.src, []).append((e.dst, e))
            adjacency.setdefault(e.dst, []).append((e.src, e))
    start = current = min(p.outer.corners())
    used, steps = set(), []
    while True:
        options = [(far, e) for far, e in adjacency.get(current, ()) if e not in used]
        if not options:
            break
        far, e = min(options, key=lambda fe: (fe[0], fe[1].box, fe[1].edge_id))
        used.add(e)
        steps.append(Edge(e.box, e.edge_id, current, far))
        current = far
    return Trail(start=start, steps=tuple(steps), end=current)


def _decoded_adjacency(g):
    """The graph's adjacency as ``(far endpoint, box, edge_id)`` lists, read
    off its edge numbers and columns."""
    out = {}
    for v, numbers in g.adjacency.items():
        out[v] = []
        for i in numbers:
            far = g.upper[i] if g.lower[i] == v else g.lower[i]
            out[v].append((far, g.box[i], g.edge_id[i]))
    return out


def test_vertices_are_the_sorted_box_corners_under_any_assignment():
    # The vertex set is read off the edges' endpoints; the parallel edges of
    # each box reach all of its corners whatever axis it is assigned.  The
    # rank-tuple graph holds the edges of edges_of_box, in the same order,
    # and walks them as the reference walk over Edge objects does.
    for seed in range(12):
        n = 2 if seed % 2 == 0 else 3
        p = random_guillotine(n, 3, seed=seed)
        rng = random.Random(seed)
        assignments = [
            (1,) * len(p.boxes),
            (n,) * len(p.boxes),
            tuple(rng.randint(1, n) for _ in p.boxes),
        ]
        corners = {v for b in p.boxes for v in b.corners()}
        for axes in assignments:
            g = build_graph(p, axes)
            assert set(g.vertices) == corners
            assert list(g.vertices) == sorted(corners)
            expected: dict = {}
            ranked = map(Box, zip(*g.ranks.lo), zip(*g.ranks.hi))
            for k, (b, axis) in enumerate(zip(ranked, axes), start=1):
                for e in edges_of_box(b, k, axis):
                    expected.setdefault(e.src, []).append((e.dst, k, e.edge_id))
                    expected.setdefault(e.dst, []).append((e.src, k, e.edge_id))
            assert _decoded_adjacency(g) == expected
            assert extract_trail(g) == _reference_trail(p, axes)


def test_a_grid_graph_hashes_each_endpoint_a_bounded_number_of_times(monkeypatch):
    # The incidence map is keyed on rank tuples and the rank tables on
    # (numerator, denominator), so building the graph hashes no Fraction.
    n = 40
    p = _unit_grid(n)
    c = assign_axes(p, _member((1,), n))
    calls = _count_fraction_calls(monkeypatch, "__hash__")
    g = build_graph(p, c)
    assert len(g.edges) == 2 * n * n
    assert calls[0] == 0
    hash(Fraction(1, 3))
    assert calls[0] == 1  # the counter is live


def test_grid_validation_graph_and_parity_make_few_fraction_operations(monkeypatch):
    # Order tests run on integer ranks.  What is left is sorting each axis's
    # 41 distinct values (once per rank view) and the outer volume.
    n = 40
    p = _unit_grid(n)
    c = assign_axes(p, _member((1,), n))
    calls = _count_fraction_calls(
        monkeypatch,
        "__eq__", "__lt__", "__le__", "__gt__", "__ge__", "__hash__",
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    )
    assert validate_partition(p).ok
    assert parity_audit(build_graph(p, c)).ok
    assert 0 < calls[0] < 2_000


def test_a_row_trail_hashes_a_bounded_number_of_fractions_per_step(monkeypatch):
    # The walk stands on rank tuples and marks edges used by (box, edge_id),
    # so it hashes no Fraction; steps only index the value tables.
    n = 400
    boxes = tuple(Box(_pt(i, 0), _pt(i + 1, 3)) for i in range(n))
    p = Partition(2, Box(_pt(0, 0), _pt(n, 3)), boxes)
    g = build_graph(p, assign_axes(p, _member((1,), n)))
    calls = _count_fraction_calls(monkeypatch, "__hash__")
    t = extract_trail(g)
    assert len(t.steps) == n
    assert calls[0] == 0
    hash(Fraction(1, 3))
    assert calls[0] == 1  # the counter is live
