"""Y-sequence rewriting: drop loops, merge sums, merge zigzag triples."""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction
from math import lcm

import pytest

from boxcert import reduction
from boxcert.closure import GeneratorSet, bounded_closure
from boxcert.errors import ReplayMismatch, SoundnessError
from boxcert.jsonio import derivation_to_json
from boxcert.kernel import Leaf, Sum, Triple
from boxcert.reduction import reduce_sequence, replay
from restart_reducer import reduce_sequence as restart_reduce
from walks import GenerationFailed, random_y_sequence, sampled_walks
from boxcert.trailgraph import YSequence


def _F(x) -> Fraction:
    return Fraction(x)


def _seq(length, *points) -> YSequence:
    return YSequence(axis=1, length=_F(length), points=tuple(_F(p) for p in points))


def _leaf(value: Fraction) -> Leaf:
    return Leaf(value)


def _zigzag(n) -> YSequence:
    # 0, 2N, 1, 2N-1, ... with N = n // 2, then 2N+1: n points whose steps
    # shrink until the last one, so the triples cascade back from the end.
    top = n // 2 * 2
    pts = [i // 2 if i % 2 == 0 else top - i // 2 for i in range(n - 1)]
    return _seq(top + 1, *pts, top + 1)


def test_two_point_sequence_needs_no_rewrites():
    cert = reduce_sequence(_seq(20, 0, 20), _leaf)
    assert cert.steps == ()
    assert cert.result == 20
    assert cert.derivation == Leaf(_F(20))


def test_plain_sum_merge():
    cert = reduce_sequence(_seq(20, 0, 15, 20), _leaf)
    assert [s.kind for s in cert.steps] == ["sum"]
    assert cert.steps[0].i == 2  # 1-based position of the merged point
    assert cert.derivation == Sum(Leaf(_F(15)), Leaf(_F(5)))
    assert cert.result == 20


def test_zigzag_triple_merge_golden():
    # 0 -> 5 -> 2 -> 9: lengths 5,3,7 collapse to 5 - 3 + 7 = 9
    cert = reduce_sequence(_seq(9, 0, 5, 2, 9), _leaf)
    assert [s.kind for s in cert.steps] == ["triple"]
    step = cert.steps[0]
    assert step.i == 3
    assert step.lengths == (_F(5), _F(3), _F(7))
    assert step.merged == _F(9)
    assert cert.derivation == Triple(Leaf(_F(5)), Leaf(_F(3)), Leaf(_F(7)))


def test_loop_dropped_before_anything_else():
    # position 5 repeats; the detour 5 -> 2 -> 5 disappears wholesale
    cert = reduce_sequence(_seq(9, 0, 5, 2, 5, 9), _leaf)
    assert [s.kind for s in cert.steps] == ["loop", "sum"]
    loop = cert.steps[0]
    assert (loop.i, loop.j) == (2, 4)
    assert loop.lengths == (_F(3), _F(3))
    assert cert.derivation == Sum(Leaf(_F(5)), Leaf(_F(4)))


def _log(cert) -> list[tuple]:
    return [
        (s.kind, s.i, s.j, tuple(int(v) for v in s.lengths),
         None if s.merged is None else int(s.merged))
        for s in cert.steps
    ]


def test_overlapping_repeats_erase_in_order_of_appearance():
    # 2 repeats first (positions 3 and 5); erasing that detour makes the
    # 4 at position 2 meet its repeat, which then closes the second loop
    cert = reduce_sequence(_seq(9, 0, 4, 2, 6, 2, 4, 9), _leaf)
    assert _log(cert) == [
        ("loop", 3, 5, (4, 4), None),
        ("loop", 2, 4, (2, 2), None),
        ("sum", 2, None, (4, 5), 9),
    ]
    assert cert.derivation == Sum(Leaf(_F(4)), Leaf(_F(5)))


def test_nested_repeats_erase_the_inner_loop_first():
    cert = reduce_sequence(_seq(5, 0, 3, 0, 2, 0, 5), _leaf)
    assert _log(cert) == [("loop", 1, 3, (3, 3), None), ("loop", 1, 3, (2, 2), None)]
    assert cert.derivation == Leaf(_F(5))


def test_a_long_row_hashes_each_position_a_bounded_number_of_times(monkeypatch):
    # Positions are scaled to integers once, so loop erasure and the merge
    # passes hash and compare no Fraction position.  Triples still compare
    # the node values of adjacent steps: a bounded number of times per point,
    # when it arrives and after each merge that ends at it.  Equal steps
    # share one leaf derivation.
    calls = {"hash": 0, "order": 0, "leaf": 0}

    def counting(kind, method):
        def counted(*args):
            calls[kind] += 1
            return method(*args)

        return counted

    monkeypatch.setattr(Fraction, "__hash__", counting("hash", Fraction.__hash__))
    for name in ("__lt__", "__le__", "__gt__", "__ge__"):
        monkeypatch.setattr(Fraction, name, counting("order", getattr(Fraction, name)))
    leaf = counting("leaf", _leaf)
    # The counter is wired: the Fraction-position oracle hashes its positions.
    restart_reduce(_seq(9, 0, 5, 2, 5, 9), leaf)
    assert calls["hash"] > 0
    for y, kinds, per_point in [
        (_seq(9999, *range(10**4)), ["sum"] * 9998, 5),
        (_zigzag(2000), ["triple"] * 999, 20),
    ]:
        n = len(y.points)
        distinct = len(set(y.step_lengths()))
        calls.update(hash=0, order=0, leaf=0)
        cert = reduce_sequence(y, leaf)
        assert [s.kind for s in cert.steps] == kinds
        assert calls["hash"] == 0
        assert 0 < calls["order"] <= per_point * n
        assert calls["leaf"] == distinct < n - 1


def test_pinwheel_projection_reduces_to_triple():
    # the projected sequence 0 -> 10 -> 3 -> 20 of the 20-square instance
    gens = GeneratorSet.of(17, 10, 7)
    closure = bounded_closure(gens, 20)
    cert = reduce_sequence(_seq(20, 0, 10, 3, 20), closure.derivation_for)
    assert cert.derivation == Triple(Leaf(_F(10)), Leaf(_F(7)), Leaf(_F(17)))
    assert replay(cert, gens) == 20


def test_multi_stage_reduction():
    # 0 -> 4 -> 1 -> 6 -> 10: the point 6 lies between 1 and 10, so the sum
    # merge (5 + 4 = 9) fires before the remaining zigzag 4,3,9 collapses
    cert = reduce_sequence(_seq(10, 0, 4, 1, 6, 10), _leaf)
    assert [s.kind for s in cert.steps] == ["sum", "triple"]
    assert cert.result == 10
    assert cert.derivation == Triple(
        Leaf(_F(4)), Leaf(_F(3)), Sum(Leaf(_F(5)), Leaf(_F(4)))
    )


def test_rational_lengths_reduce_exactly():
    cert = reduce_sequence(_seq("3/2", 0, 1, "1/2", "3/2"), _leaf)
    assert cert.result == Fraction(3, 2)
    assert cert.steps[0].kind == "triple"


@pytest.mark.parametrize("points", [(0, 20), (0, 15, 20), (0, 5, 2, 9)])
def test_a_step_derivation_must_derive_its_step(points):
    # Step lengths are read from the derivations, so one that derives
    # something else must stop the reduction, merges or not.
    y = _seq(points[-1], *points)
    with pytest.raises(SoundnessError):
        reduce_sequence(y, lambda le: Leaf(le + 1))


def test_a_merged_node_must_derive_the_span_it_covers(monkeypatch):
    # A sum node worth one more than its operands: the merge check compares
    # it with the span on the scaled grid (q = 2) and reports both exactly.
    class OffByOne(Sum):
        def __post_init__(self) -> None:
            super().__post_init__()
            object.__setattr__(self, "value", self.value + 1)

    monkeypatch.setattr(reduction, "Sum", OffByOne)
    with pytest.raises(
        SoundnessError,
        match=r"^sum merge at position 2 derives 5/2, not the geometric span 3/2; ",
    ):
        reduce_sequence(_seq("3/2", 0, "1/2", "3/2"), _leaf)


def test_replay_accepts_untampered_log():
    gens = GeneratorSet.of(5, 3, 7, 4)
    cert = reduce_sequence(_seq(9, 0, 5, 2, 5, 9), _leaf)
    assert replay(cert, gens) == 9


def test_replay_rejects_foreign_generators():
    cert = reduce_sequence(_seq(9, 0, 5, 2, 9), _leaf)
    with pytest.raises(ReplayMismatch):
        replay(cert, GeneratorSet.of(5, 3))  # leaf 7 is not a generator


def test_replay_rejects_wrong_result():
    cert = reduce_sequence(_seq(20, 0, 15, 20), _leaf)
    bad = dataclasses.replace(cert, result=_F(19))
    with pytest.raises(ReplayMismatch):
        replay(bad, GeneratorSet.of(15, 5))


# ------------------------------------------------------------ random walks


def test_forced_walk_is_deterministic():
    for seed in (0, 1, 7, 123):
        y = random_y_sequence(2, [1], seed)
        assert y.points == (_F(0), _F(1), _F(2))


def test_walk_reaches_target_via_finisher():
    y = random_y_sequence(9, [5, 3, 7], seed=3)
    assert y.points[0] == 0
    assert y.points[-1] == 9
    assert all(0 <= p <= 9 for p in y.points)


def test_same_seed_same_walk():
    a = random_y_sequence(12, [5, 3, 7], seed=11)
    b = random_y_sequence(12, [5, 3, 7], seed=11)
    assert a == b


def test_unreachable_target_fails():
    with pytest.raises(GenerationFailed):
        random_y_sequence(1, [2], seed=0)


def test_walk_validates_inputs():
    with pytest.raises(ValueError):
        random_y_sequence(0, [1], seed=0)
    with pytest.raises(ValueError):
        random_y_sequence(5, [], seed=0)
    with pytest.raises(ValueError):
        random_y_sequence(5, [-1], seed=0)


def test_fuzz_reduce_and_replay():
    gens = GeneratorSet.of(5, 3, 7)
    pool = [_F(5), _F(3), _F(7)]
    done = 0
    for seed in range(250):
        try:
            y = random_y_sequence(23, pool, seed=seed)
        except GenerationFailed:
            continue
        cert = reduce_sequence(y, _leaf)
        assert replay(cert, gens) == 23
        for st in cert.steps:
            if st.kind == "triple":
                l1, l2, l3 = st.lengths
                assert l2 < l1 and l2 < l3  # middle strictly smallest
                assert st.merged == l1 - l2 + l3
        done += 1
    assert done > 150  # the walk budget should rarely be exhausted


# ------------------------------------------------ against the restart reducer


def _assert_same_reduction(y: YSequence) -> None:
    # Tables, not nodes: == on two deep derivations recurses once per level.
    cert, oracle = reduce_sequence(y, _leaf), restart_reduce(y, _leaf)
    assert cert.steps == oracle.steps
    assert derivation_to_json(cert.derivation) == derivation_to_json(oracle.derivation)


def test_one_pass_matches_the_restart_reducer_on_random_walks():
    made = seed = 0
    while made < 2000:
        seed += 1
        rng = random.Random(seed)
        pool = sorted(
            {
                Fraction(rng.randint(1, 12), rng.choice((1, 2, 3)))
                for _ in range(rng.randint(1, 4))
            }
        )
        target = sum(rng.choice(pool) for _ in range(rng.randint(1, 12)))
        max_steps = rng.choice((16, 64, 256, 1024))
        try:
            y = random_y_sequence(target, pool, seed, max_steps=max_steps, retries=1)
        except GenerationFailed:
            continue
        _assert_same_reduction(y)
        made += 1


def test_one_pass_matches_the_restart_reducer_on_gate_six_walks():
    walks = sampled_walks(606, 500, 2500)
    assert len(walks) == 500
    for _, _, y in walks:
        _assert_same_reduction(y)


def _coprime_walks(count: int) -> list[YSequence]:
    # Step pools over pairwise coprime denominators; a walk is kept when its
    # grid's q (up to 5 * 7 * 11) exceeds every single denominator.
    a, b, c = _F("1/5"), _F("2/7"), _F("3/11")
    pools = [(a, b, c), (a, c), (b, c)]
    walks, seed = [], 0
    while len(walks) < count:
        seed += 1
        rng = random.Random(seed)
        pool = pools[seed % len(pools)]
        target = sum(rng.choice(pool) for _ in range(rng.randint(2, 12)))
        try:
            y = random_y_sequence(target, pool, seed, max_steps=512, retries=1)
        except GenerationFailed:
            continue
        if lcm(*(v.denominator for v in y.points)) > 11:
            walks.append(y)
    return walks


_COPRIME = _coprime_walks(24)


def _phased_row(cycles: int) -> YSequence:
    # Climbs 2 in steps of 2/7, then 1 in steps of 1/5, then 3 in steps of
    # 3/11, and again: every point has denominator 1, 5, 7 or 11, none has
    # the grid's 385.
    pts = [Fraction(0)]
    for _ in range(cycles):
        for step, count in ((Fraction(2, 7), 7), (Fraction(1, 5), 5), (Fraction(3, 11), 11)):
            pts += [pts[-1] + step * k for k in range(1, count + 1)]
    return _seq(pts[-1], *pts)


@pytest.mark.parametrize(
    "y",
    [
        _zigzag(500),
        _zigzag(1000),
        _zigzag(2000),
        _seq(9999, *range(10**4)),
        _seq(Fraction(9999, 7), *(Fraction(k, 7) for k in range(10**4))),
        _phased_row(50),
        *_COPRIME,
    ],
    ids=[
        "zigzag500",
        "zigzag1000",
        "zigzag2000",
        "row10000",
        "row10000-sevenths",
        "row-phased-5-7-11",
        *(f"coprime{k}" for k in range(len(_COPRIME))),
    ],
)
def test_one_pass_matches_the_restart_reducer_on_long_inputs(y):
    _assert_same_reduction(y)


def test_the_coprime_walks_exercise_every_rewrite():
    kinds = {s.kind for y in _COPRIME for s in reduce_sequence(y, _leaf).steps}
    assert kinds == {"loop", "sum", "triple"}
