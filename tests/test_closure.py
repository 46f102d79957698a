"""Closure operations, derivation trees, and the two independent engines.

The brute-force engine is the oracle: it recomputes the full fixpoint from
scratch each pass with no sharing, so its only failure mode is the math
itself.  The hand-checked fixtures below pin it down; the production engine
is then required to agree with it exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import sys
import warnings
from fractions import Fraction
from math import gcd

import pytest
from saturate_oracle import _saturate_bits

from boxcert import closure, jsonio
from boxcert.closure import (
    BoundedClosure,
    GeneratorSet,
    Leaf,
    Sum,
    Triple,
    bounded_closure,
    brute_force_closure,
    children,
    membership,
    op_sum,
    op_triple,
    verify_derivation,
)
from boxcert.errors import LeafNotGenerator


def _F(x) -> Fraction:
    return Fraction(x)


def _mask(bc: BoundedClosure) -> int:
    """Bit ``v`` for each member ``v < c`` of ``bc``, built from its runs by
    doubling each run's comb: the form the saturation oracle returns."""
    mask = 0
    for start, step, count in bc.runs:
        comb, teeth = 1, 1
        while teeth < count:
            comb |= comb << (teeth * step)
            teeth *= 2
        mask |= (comb & ((2 << (count - 1) * step) - 1)) << start
    return mask


def test_op_sum_basic():
    assert op_sum(_F(15), _F(5)) == 20
    assert op_sum(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    with pytest.raises(ValueError):
        op_sum(_F(0), _F(1))


def test_op_triple_symmetric_and_dominates_max():
    assert op_triple(_F(17), _F(10), _F(7)) == 20
    assert op_triple(_F(7), _F(17), _F(10)) == 20
    assert op_triple(_F(10), _F(7), _F(17)) == 20
    # b + c - a with a <= b <= c is never below c
    rng = random.Random(7)
    for _ in range(100):
        x, y, z = (Fraction(rng.randint(1, 60), rng.randint(1, 6)) for _ in range(3))
        assert op_triple(x, y, z) >= max(x, y, z)
    with pytest.raises(ValueError):
        op_triple(_F(1), _F(-1), _F(2))


def test_generator_set_normalizes_and_sorts():
    g = GeneratorSet.of("10/2", 3, 7, 3)
    assert g.sorted_values == (Fraction(3), Fraction(5), Fraction(7))
    assert str(g) == "{3, 5, 7}"
    assert list(g) == [Fraction(3), Fraction(5), Fraction(7)]
    with pytest.raises(ValueError):
        GeneratorSet.of(0)


def test_empty_generator_set_gives_empty_closure():
    empty = GeneratorSet.of()
    assert bounded_closure(empty, 5).sorted_elements() == ()
    assert brute_force_closure(empty, 5) == frozenset()
    with pytest.raises(ValueError):
        membership(empty, 3)  # membership queries need generators


def test_derivation_evaluation_and_verification():
    d = Triple(Leaf(_F(10)), Leaf(_F(7)), Leaf(_F(17)))
    g = GeneratorSet.of(17, 10, 7)
    assert verify_derivation(d, g) == 20
    with pytest.raises(LeafNotGenerator):
        verify_derivation(d, GeneratorSet.of(17, 10))
    # A node's value is computed from its children when it is built ...
    assert Sum(Leaf(_F(1)), Leaf(_F(2))).value == 3
    assert d.value == 20
    # ... and never supplied by the caller, nor kept across a replace.
    with pytest.raises(TypeError):
        Sum(Leaf(_F(1)), Leaf(_F(2)), value=_F(4))
    assert dataclasses.replace(d, third=Leaf(_F(10))).value == 13
    with pytest.raises(ValueError):
        Sum(Leaf(_F(0)), Leaf(_F(1)))
    # The value is not part of a node's identity, which is its structure.
    again = Triple(Leaf(_F(10)), Leaf(_F(7)), Leaf(_F(17)))
    assert again == d and hash(again) == hash(d)
    assert Sum(Leaf(_F(1)), Leaf(_F(2))) != Sum(Leaf(_F(2)), Leaf(_F(1)))


def test_a_sum_counts_each_distinct_operand_by_its_multiplicity(monkeypatch):
    one, two, three = Leaf(_F(1)), Leaf(_F(2)), Leaf(_F(3))
    assert Sum(one, two, three).value == 6
    assert Sum(two, one, two, two).value == 7
    assert Sum(three, three).value == 6
    assert Sum(one, two, three).args == (one, two, three)
    assert children(Sum(one, two, three)) == (one, two, three)
    # A wide sum over few distinct operands adds once per distinct operand.
    calls = [0]

    def counted(x, y):
        calls[0] += 1
        return op_sum(x, y)

    monkeypatch.setattr(closure, "op_sum", counted)
    assert Sum(*[one, two, three] * 1000).value == 6000
    assert calls[0] == 2
    monkeypatch.undo()
    with pytest.raises(ValueError, match="two or more"):
        Sum(one)
    zero = Leaf(_F(0))
    for operands in ((zero, zero), (zero, zero, zero), (one, Leaf(_F(-1)), one)):
        with pytest.raises(ValueError, match="positive"):
            Sum(*operands)


def test_deep_derivation_chain_evaluates_iteratively():
    # would blow the recursion limit if evaluation recursed
    d = Leaf(_F(1))
    for _ in range(5000):
        d = Sum(d, Leaf(_F(1)))
    assert verify_derivation(d, GeneratorSet.of(1)) == 5001


# ---------------------------------------------------------- oracle fixtures
# These closures are small enough to enumerate by hand; they anchor the
# brute-force engine before it is used to judge anything else.


def test_oracle_single_generator_counts_up():
    got = brute_force_closure(GeneratorSet.of(1), 5)
    assert got == {_F(1), _F(2), _F(3), _F(4), _F(5)}


def test_oracle_two_generators_fill_interval():
    # 2,3 -> 4=2+2, 5=2+3, 6=3+3, 7=2+2+3; everything 2..7 appears
    got = brute_force_closure(GeneratorSet.of(2, 3), 7)
    assert got == {_F(k) for k in range(2, 8)}


def test_oracle_rational_generator():
    got = brute_force_closure(GeneratorSet.of("1/2"), 2)
    assert got == {Fraction(1, 2), _F(1), Fraction(3, 2), _F(2)}


def test_oracle_needs_triple_to_reach_some_values():
    # with gens {3,5,7}: 9 = op_triple variants or 3+3+3; 8 = 3+5
    got = brute_force_closure(GeneratorSet.of(3, 5, 7), 10)
    assert _F(9) in got
    assert _F(4) not in got
    # everything in the closure is >= the smallest generator
    assert min(got) == 3


# ------------------------------------------------- production engine agrees


def test_bounded_matches_oracle_on_fixtures():
    for gens, bound in [
        (GeneratorSet.of(1), _F(5)),
        (GeneratorSet.of(2, 3), _F(7)),
        (GeneratorSet.of("1/2"), _F(2)),
        (GeneratorSet.of(17, 10, 7), _F(20)),
        (GeneratorSet.of(15, 5), _F(20)),
        (GeneratorSet.of(3, 5), _F(60)),  # 7 comes only from the triple 5+5-3
        (GeneratorSet.of(4, 6), _F(40)),  # gcd 2
        (GeneratorSet.of("1/31", "1/37"), _F(1)),  # q = 1147
        (GeneratorSet.of("1/2"), _F("7/3")),  # the bound is off the grid
        (GeneratorSet.of(6, 10, 15), _F(90)),
    ]:
        bc = bounded_closure(gens, bound)
        assert frozenset(bc.elements) == brute_force_closure(gens, bound)


def _oracle_conductor(bc: BoundedClosure) -> tuple[int, int]:
    """``(d, c)`` on the grid of ``bc``, from the oracle's element set.

    c is the oracle's first member that is d above the member before it (or
    above 0); ``(1, limit + 1)`` when no generator is within the bound.
    """
    usable = GeneratorSet.from_values(g for g in bc.gens if g <= bc.bound)
    if not usable:
        return 1, bc.limit + 1
    d = gcd(*(int(g * bc.q) for g in usable))
    oracle = brute_force_closure(usable, Fraction(bc.c, bc.q))
    members = sorted(int(v * bc.q) for v in oracle)
    return d, next(b for a, b in zip([0, *members], members) if b - a == d)


@pytest.mark.parametrize(
    "gens",
    [
        GeneratorSet.of(7, 11),  # 14, 15 are the first members 1 apart
        GeneratorSet.of(4, 6),  # d = 2: 4, 6
        GeneratorSet.of(9, 12),  # d = 3: 9, 12; 15 only from 12+12-9
        GeneratorSet.of("1/2", "3/4"),  # scaled {2, 3}: 2, 3
    ],
    ids=["7_11", "4_6", "9_12", "1over2_3over4"],
)
def test_conductor_cut_off_matches_oracle_at_every_bound(gens):
    # The bounds land below, on and above the member where the pass stops
    # and fills in every larger multiple of the gcd.
    for bound in range(1, 81):
        bc = bounded_closure(gens, bound)
        assert frozenset(bc.elements) == brute_force_closure(gens, bound), bound
        assert _oracle_conductor(bc) == (bc.d, bc.c), bound


@pytest.mark.parametrize(
    "gens", [[1], [3, 5], [7, 11], [4, 6], [9, 12]], ids=lambda g: "_".join(map(str, g))
)
def test_the_pass_stops_at_the_conductor(gens):
    # A count, not a timer: the chain stops at the first gap of d, so these
    # closures are 0-3 runs at 10**4, whatever the bound.  Walking on past
    # the conductor, or listing members one by one, gives more.
    bc = bounded_closure(GeneratorSet.of(*gens), 10**4)
    assert len(bc.runs) <= 3


def test_chain_matches_the_saturation_pass_on_random_sets():
    # (d, c, mask) against the pass the chain replaced: 1-5 generators up to
    # 2,000, about half with a common factor, and bounds from 0 to 10**9,
    # some below every generator.
    rng = random.Random(22)
    for _ in range(5000):
        factor = rng.choice([1, rng.randint(2, 12)])
        gens = [factor * rng.randint(1, 2000 // factor) for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.1:
            limit = rng.randint(0, min(gens) - 1)
        else:
            limit = rng.choice([rng.randint(1, 4 * max(gens)), rng.randint(1, 10**9)])
        bc = bounded_closure(GeneratorSet.of(*gens), limit)
        expected = _saturate_bits([g for g in gens if g <= limit], limit)
        assert (bc.d, bc.c, _mask(bc)) == expected, (gens, limit)


def test_brute_force_gaps_never_increase():
    # The fact the chain rests on, against the independent oracle: listed
    # from 0, the members' gaps never increase.
    rng = random.Random(401)
    for _ in range(400):
        k = rng.randint(1, 4)
        gens = GeneratorSet.from_values(
            Fraction(rng.randint(1, 30), rng.randint(1, 4)) for _ in range(k)
        )
        members = sorted(brute_force_closure(gens, Fraction(rng.randint(4, 40), 2)))
        gaps = [b - a for a, b in zip([0, *members], members)]
        assert all(x >= y for x, y in zip(gaps, gaps[1:])), (gens, gaps)


def test_membership_builds_no_mask_for_three_prime_denominators():
    # Scaled by q = 401 * 409 * 419, the conductor is 328,018 and the grid
    # bound is q.  Membership on both sides of c reads a dozen runs.
    q = 401 * 409 * 419
    bc = bounded_closure(GeneratorSet.of("1/401", "1/409", "1/419"), 1)
    assert len(bc.runs) <= 20
    assert (bc.q, bc.d, bc.c) == (q, 1, 328018)
    for v in [164009, 168019, 171371, 172029, 172687, 328017, 328018, 328019, q]:
        assert Fraction(v, q) in bc, v
    for v in [1, 164008, 164010, 172030, 328016, q + 1]:
        assert Fraction(v, q) not in bc, v
    assert "bits" not in vars(bc)


def test_closure_closed_forms_at_scale():
    # The same few runs below c at every bound; from c on, every multiple of
    # d up to the bound.
    n = 10**6
    for gens, d, c, mask, member in [
        ((1,), 1, 1, 0, lambda v: v >= 1),
        # 6 = 3 + 3 is the first member 1 above another (5); 7 = 5 + 5 - 3.
        ((3, 5), 1, 6, 0b101000, lambda v: v == 3 or v >= 5),
        ((4, 6), 2, 6, 1 << 4, lambda v: v >= 4 and v % 2 == 0),
        ((2,), 2, 2, 0, lambda v: v >= 2 and v % 2 == 0),
    ]:
        small = bounded_closure(GeneratorSet.of(*gens), 1001)
        assert small.sorted_elements() == tuple(_F(v) for v in range(1002) if member(v))
        bc = bounded_closure(GeneratorSet.of(*gens), n)
        assert (bc.d, bc.c, bc.runs) == (small.d, small.c, small.runs)
        assert (bc.d, bc.c, _mask(bc)) == (d, c, mask)
        for v in [*range(-2, 40), n - 2, n - 1, n, n + 1, n + 2]:
            assert (v in bc) == (0 < v <= n and member(v)), (gens, v)


def test_membership_far_above_the_conductor_builds_a_few_bits(monkeypatch):
    built = []
    real = closure.bounded_closure

    def spy(gens, bound):
        built.append(real(gens, bound))
        return built[-1]

    monkeypatch.setattr(closure, "bounded_closure", spy)
    gens = GeneratorSet.of(1)
    assert verify_derivation(membership(gens, 10**8), gens) == 10**8
    assert len(built) == 1 and built[0].runs == ()
    assert (built[0].d, built[0].c, built[0].limit) == (1, 1, 10**8)


@pytest.mark.parametrize(
    "gens, bound, conductor",
    [
        # Scaled {10009, 10007}: the triple adds 2 from 10009 on, so the odd
        # 20013 meets 20014 = 2 * 10007.  The grid bound is about 2 * 10**9.
        (("1/10007", "1/10009"), 20, 20014),
        # Scaled {3011, 3001, 7q, 10q, 17q}: 6001 = 3011 + 299 * 10 and
        # 6002 = 2 * 3001.  These are render --cert's forged certificate gens.
        ((7, 10, 17, "1/3001", "1/3011"), 20, 6002),
    ],
    ids=["1over10007_1over10009", "pinwheel_gens_with_1over3001_1over3011"],
)
def test_the_mask_is_as_wide_as_the_conductor_not_the_bound(gens, bound, conductor):
    # Two runs below the conductor, at every bound; the saturation oracle,
    # which stops at the conductor too, agrees on them.
    g = GeneratorSet.of(*gens)
    bc = bounded_closure(g, bound)
    assert len(bc.runs) == 2
    assert all(a + m * (t - 1) < conductor for a, m, t in bc.runs)
    assert (bc.d, bc.c) == (1, conductor)
    assert bc.limit > 1000 * conductor
    scaled = [int(v * bc.q) for v in g]
    assert (bc.d, bc.c, _mask(bc)) == _saturate_bits(scaled, bc.limit)


#: The functions of the split search: one per split, one per pair of runs.
SPLIT_SEARCH = ("_best_split", "_pair")


def test_best_split_cuts_no_slice_wider_than_the_conductor():
    # Scaled {3011, 3001}, q = 3001 * 3011: the bound 1 is 9,036,011 on the
    # grid (24 bits) and the conductor 6002.  A size, not a timer: the widest
    # integer that the split search holds in a local while deriving 1.  A
    # split sums at most two grid points, so one bit more than the grid
    # bound is enough; a mask of the members below c is 6,002 bits.
    gens = GeneratorSet.of("1/3001", "1/3011")
    bc = bounded_closure(gens, 1)
    bound = bc.limit.bit_length() + 1
    widest = 0

    def trace(frame, _event, _arg):
        nonlocal widest
        code = frame.f_code
        if code.co_filename != closure.__file__ or code.co_name not in SPLIT_SEARCH:
            return None
        for v in frame.f_locals.values():
            if isinstance(v, int):
                widest = max(widest, v.bit_length())
        assert widest <= bound, widest  # stop at the first wide local
        return trace

    outer = sys.gettrace()
    sys.settrace(trace)
    try:
        d = bc.derivation_for(1)
    finally:
        sys.settrace(outer)
    assert verify_derivation(d, gens) == 1
    assert 0 < widest <= bound == 25


def test_split_search_tests_no_partner_one_at_a_time(monkeypatch):
    # Three coprime denominators leave sum-free elements, whose triple rule
    # runs a split search per candidate.  A count, not a timer: membership
    # tests while deriving 1, at most one per distinct derivation node (a
    # search that tests each candidate's partner makes 384 for 38 nodes).
    gens = GeneratorSet.of("1/53", "1/59", "1/61")
    bc = bounded_closure(gens, 1)
    calls = [0]
    has = BoundedClosure._has

    def counted(self, v):
        calls[0] += 1
        return has(self, v)

    monkeypatch.setattr(BoundedClosure, "_has", counted)
    d = bc.derivation_for(1)
    assert verify_derivation(d, gens) == 1
    assert any(rule[0] == "triple" for rule in bc._rules.values())
    assert 0 < calls[0] <= len(closure.topological(d))


def _count_pair_solves(monkeypatch) -> list[int]:
    """Patch the pair solver of the split search to count its calls."""
    calls = [0]
    solve = closure._pair

    def counted(*args):
        calls[0] += 1
        return solve(*args)

    monkeypatch.setattr(closure, "_pair", counted)
    return calls


def test_pair_solves_per_derivation_stay_bounded(monkeypatch):
    # A count, not a timer: pair solves per derivation, each on a fresh
    # closure.  Measured: at most 2,041 on the sweep, 1,481 for 1 over three
    # primes and 6,009 for the Fibonacci member, whose conductor is about
    # 2.6·10^17, so no search may visit the members one by one.
    calls = _count_pair_solves(monkeypatch)

    def solves(gens: GeneratorSet, value) -> int:
        calls[0] = 0
        assert verify_derivation(membership(gens, value), gens) == value
        return calls[0]

    rng = random.Random(28)
    worst = 0
    for _ in range(200):
        gens = GeneratorSet.from_values(
            Fraction(rng.randint(1, 60), rng.randint(1, 8))
            for _ in range(rng.randint(1, 5))
        )
        for e in bounded_closure(gens, 20).sorted_elements()[-10:]:
            worst = max(worst, solves(gens, e))
    assert 0 < worst <= 3000
    assert solves(GeneratorSet.of("1/401", "1/409", "1/419"), 1) <= 2000
    fib = GeneratorSet.of(99194853094755497, 160500643816367088)
    assert solves(fib, 259695496911122582) <= 8000
    # and no integer held by the closure is wider than a grid point
    bc = bounded_closure(fib, 259695496911122582)
    bc.derivation_for(259695496911122582)
    widths = [v.bit_length() for v in vars(bc).values() if isinstance(v, int)]
    assert max(widths) <= bc.limit.bit_length()


def test_every_members_derivation_table_is_pinned():
    # The producing rule of every element, through its derivation table, over
    # a seeded sweep: 1-4 generators with denominators up to 4, then 2-3
    # unit fractions over 5..37, whose sum-free members take triple rules.
    # The digest was computed by the conductor-wide bitmask search that the
    # run-pair search replaced.
    rng = random.Random(28)
    cases = []
    for _ in range(200):
        k = rng.randint(1, 4)
        gens = [Fraction(rng.randint(1, 30), rng.randint(1, 4)) for _ in range(k)]
        cases.append((gens, Fraction(rng.randint(10, 40), 2)))
    for _ in range(16):
        gens = [Fraction(1, rng.randint(5, 37)) for _ in range(rng.randint(2, 3))]
        cases.append((gens, Fraction(1, rng.randint(2, 4))))
    digest, members, triples = hashlib.sha256(), 0, 0
    for gens, bound in cases:
        bc = bounded_closure(GeneratorSet.from_values(gens), bound)
        for e in bc.sorted_elements():
            table = jsonio.derivation_to_json(bc.derivation_for(e))
            members += 1
            triples += sum(entry["op"] == "triple" for entry in table)
            digest.update(jsonio.canonical_json(table).encode())
    assert members == 7996 and triples >= 24_000
    assert digest.hexdigest() == (
        "9413d1b265dedb90f66bc005f0ae6d9057f6fd9da63c19307f275bc2cd590a36"
    )


def test_bounded_matches_oracle_on_random_sets():
    rng = random.Random(2024)
    for _ in range(40):
        k = rng.randint(1, 4)
        vals = {Fraction(rng.randint(1, 36), rng.randint(1, 6)) for _ in range(k)}
        gens = GeneratorSet.from_values(vals)
        bound = Fraction(rng.randint(6, 120), rng.randint(1, 6))
        bc = bounded_closure(gens, bound)
        assert frozenset(bc.elements) == brute_force_closure(gens, bound)
        assert _oracle_conductor(bc) == (bc.d, bc.c), (gens, bound)


def test_every_element_gets_a_verifiable_derivation():
    gens = GeneratorSet.of(3, 5, 7)
    bc = bounded_closure(gens, 30)
    for e in bc.sorted_elements():
        d = bc.derivation_for(e)
        assert d is not None
        assert verify_derivation(d, gens) == e
    assert bc.derivation_for(_F(4)) is None
    assert _F(4) not in bc


def test_generators_derive_as_leaves():
    bc = bounded_closure(GeneratorSet.of(15, 5), 20)
    assert bc.derivation_for(_F(15)) == Leaf(_F(15))


def test_closure_respects_bound_tightly():
    bc = bounded_closure(GeneratorSet.of(2), 6)
    assert bc.sorted_elements() == (_F(2), _F(4), _F(6))
    assert _F(8) not in bc


def test_bound_below_all_generators_is_empty_and_warns_nothing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        bc = bounded_closure(GeneratorSet.of(5), 3)
    assert bc.sorted_elements() == ()


def test_membership_round_trip():
    gens = GeneratorSet.of(5, 3, 7)
    d = membership(gens, 9)
    assert d is not None
    assert verify_derivation(d, gens) == 9
    assert membership(GeneratorSet.of(2), 5) is None
    with pytest.raises(ValueError):
        membership(gens, 0)


def test_closure_under_both_ops_within_bound():
    # spot-check closedness: applying either op to members stays inside
    gens = GeneratorSet.of("3/2", 2)
    bound = _F(12)
    bc = bounded_closure(gens, bound)
    els = bc.sorted_elements()
    for x in els:
        for y in els:
            s = op_sum(x, y)
            if s <= bound:
                assert s in bc
    rng = random.Random(5)
    for _ in range(300):
        x, y, z = (rng.choice(els) for _ in range(3))
        t = op_triple(x, y, z)
        if t <= bound:
            assert t in bc


def test_membership_agrees_with_the_element_set_and_never_raises():
    rng = random.Random(909)
    odd_values = [None, "1", "abc", (1,), object(), 0, 0.0, -1, Fraction(-3, 2),
                  0.5, 1.0, 2.5, float("nan"), float("inf"), True]
    unhashable = [[1], {"v": 1}, {1}]
    for _ in range(60):
        vals = {Fraction(rng.randint(1, 12 * d), d)
                for d in (rng.randint(1, 7) for _ in range(rng.randint(1, 4)))}
        gens = GeneratorSet.from_values(vals)
        bound = Fraction(rng.randint(1, 40), rng.randint(1, 5))
        bc = bounded_closure(gens, bound)
        assert _oracle_conductor(bc) == (bc.d, bc.c), (gens, bound)
        probes = list(odd_values)
        probes += [rng.randint(-3, 50) for _ in range(10)]
        probes += [Fraction(rng.randint(-5, 300), rng.randint(1, 60)) for _ in range(30)]
        probes += [bound, bound + Fraction(1, 7), bound * 3]
        probes += list(bc.elements)
        for v in probes:
            member = v in bc
            assert member == (v in bc.elements), (gens, bound, v)
            d = bc.derivation_for(v)
            assert (d is None) == (not member), (gens, bound, v)
            if d is not None:
                assert verify_derivation(d, gens) == v
        for v in unhashable:
            assert v not in bc
            assert bc.derivation_for(v) is None
