"""Closure operations, derivation trees, and the two independent engines.

The brute-force engine is the oracle: it recomputes the full fixpoint from
scratch each pass with no sharing, so its only failure mode is the math
itself.  The hand-checked fixtures below pin it down; the production engine
is then required to agree with it exactly.
"""

from __future__ import annotations

import dataclasses
import random
import sys
import warnings
from fractions import Fraction

import pytest

from boxcert.closure import (
    GeneratorSet,
    Leaf,
    Sum,
    Triple,
    _saturate_bits,
    bounded_closure,
    brute_force_closure,
    membership,
    op_sum,
    op_triple,
    verify_derivation,
)
from boxcert.errors import LeafNotGenerator


def _F(x) -> Fraction:
    return Fraction(x)


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


def _lines_run(fn, *args) -> int:
    """How many source lines of ``fn`` run in one call ``fn(*args)``."""
    count = 0

    def trace(frame, event, _arg):
        nonlocal count
        if frame.f_code is not fn.__code__:
            return None
        count += event == "line"
        return trace

    outer = sys.gettrace()
    sys.settrace(trace)
    try:
        fn(*args)
    finally:
        sys.settrace(outer)
    return count


@pytest.mark.parametrize(
    "gens", [[1], [3, 5], [7, 11], [4, 6], [9, 12]], ids=lambda g: "_".join(map(str, g))
)
def test_the_pass_stops_at_the_conductor(gens):
    # A step count, not a timer: the pass takes the members up to the first
    # two that are d apart and fills the rest in O(log bound) steps, so
    # about 60-90 lines run at 10**4.  Without the cut-off it is thousands.
    assert _lines_run(_saturate_bits, gens, 10**4) < 200


def test_closure_closed_forms_at_scale():
    n = 10**6
    assert bounded_closure(GeneratorSet.of(1), n).bits == (1 << (n + 1)) - 2
    three_five = bounded_closure(GeneratorSet.of(3, 5), n)
    assert three_five.bits == (1 << 3) | ((1 << (n + 1)) - (1 << 5))
    # (4**k - 1) // 3 has bits 0, 2, ..., 2k - 2; drop bits 0 and 2.
    four_six = bounded_closure(GeneratorSet.of(4, 6), n)
    assert four_six.bits == ((1 << (n + 2)) - 1) // 3 - 0b101
    evens = bounded_closure(GeneratorSet.of(2), 1001)
    assert evens.sorted_elements() == tuple(_F(v) for v in range(2, 1001, 2))


def test_bounded_matches_oracle_on_random_sets():
    rng = random.Random(2024)
    for _ in range(40):
        k = rng.randint(1, 4)
        vals = {Fraction(rng.randint(1, 36), rng.randint(1, 6)) for _ in range(k)}
        gens = GeneratorSet.from_values(vals)
        bound = Fraction(rng.randint(6, 120), rng.randint(1, 6))
        bc = bounded_closure(gens, bound)
        assert frozenset(bc.elements) == brute_force_closure(gens, bound)


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
