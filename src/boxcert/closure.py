"""Bounded closure of a set of positive rationals under two operations.

The tracked set X is whatever contains the generators and is closed under

* ``op_sum(x, y) = x + y``
* ``op_triple(x, y, z) = x + y + z - 2*min(x, y, z)``

Both operations are symmetric, and a value they produce that is not one of
their operands lies above all of them, so the part of X below a bound is
finite and computable: it lives on the grid ``(1/Q) * Z`` where Q is the lcm
of the generator denominators.

On that grid X is a finite set below a conductor c, and every multiple of d
from c on, where d is the gcd of the scaled generators and every element is
a multiple of d.  In order, the elements are the partial sums of gaps that
never increase, and equal gaps come in arithmetic runs, one per division
step of Euclid's algorithm.  :func:`bounded_closure` keeps ``d``, ``c`` and
the runs below ``c``: membership is a bisect over a few runs, whatever the
bound or the conductor.

A derivation node computes its ``value`` once, when it is built, from its
children's values through :func:`op_sum` or :func:`op_triple`; no caller can
supply it.  So a derivation is evaluated exactly once, whoever builds it, and
the kernel :func:`verify_derivation` checks the leaves and the root value.
A :class:`Sum` takes two or more children: certify builds them in pairs, and
a parsed derivation table gives one node per entry, however many operands
the entry folds together.

Derivations are built only on demand:
:meth:`BoundedClosure.derivation_for` walks down from the requested value,
choosing each element's producing rule by a fixed search the first time it
is needed.  :func:`brute_force_closure` is a deliberately separate
re-computation of the same set used to cross-check the engine; it shares no
code with it and must stay that way.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain
from math import gcd, isfinite, lcm
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Union

from .errors import LeafNotGenerator, SoundnessError
from .geometry import RatLike, format_rat, parse_rat


def op_sum(x: Fraction, y: Fraction) -> Fraction:
    """The first closure operation: plain addition of positive rationals."""
    if x <= 0 or y <= 0:
        raise ValueError(f"operands must be positive, got {x}, {y}")
    return x + y


def op_triple(x: Fraction, y: Fraction, z: Fraction) -> Fraction:
    """The second closure operation: ``x + y + z - 2*min(x, y, z)``.

    Equivalently, with the operands sorted as ``a <= b <= c``, the result is
    ``b + c - a``: never below the largest operand, and equal to it exactly
    when the two smallest operands coincide.
    """
    if x <= 0 or y <= 0 or z <= 0:
        raise ValueError(f"operands must be positive, got {x}, {y}, {z}")
    return x + y + z - 2 * min(x, y, z)


@dataclass(frozen=True)
class GeneratorSet:
    """A finite set of positive rational generators for the tracked set."""

    gens: frozenset[Fraction]

    def __post_init__(self) -> None:
        object.__setattr__(self, "gens", frozenset(self.gens))
        bad = sorted(g for g in self.gens if g <= 0)
        if bad:
            raise ValueError(
                "generators must be positive, got "
                + ", ".join(format_rat(b) for b in bad)
            )

    @classmethod
    def of(cls, *values: RatLike) -> "GeneratorSet":
        return cls(frozenset(parse_rat(v) for v in values))

    @classmethod
    def from_values(cls, values: Iterable[RatLike]) -> "GeneratorSet":
        return cls(frozenset(parse_rat(v) for v in values))

    @property
    def sorted_values(self) -> tuple[Fraction, ...]:
        return tuple(sorted(self.gens))

    def __iter__(self):
        return iter(self.sorted_values)

    def __len__(self) -> int:
        return len(self.gens)

    def __contains__(self, value: object) -> bool:
        return value in self.gens

    def __str__(self) -> str:
        return "{" + ", ".join(format_rat(g) for g in self.sorted_values) + "}"


# --- derivation trees -------------------------------------------------------


@dataclass(frozen=True)
class Leaf:
    """A generator used as-is."""

    value: Fraction


@dataclass(frozen=True, init=False)
class Sum:
    """op_sum folded over two or more sub-derivations: ``Sum(a, b, ...)``.

    ``op_sum`` is associative, so a chain of sums is one sum.  A child may
    appear more than once; the value is the sum, over the distinct children
    (told apart by identity), of multiplicity times value, each child
    positive.  So a parsed table's one entry that takes a huge entry 10^5
    times costs one multiplication, and more than two operands with n
    distinct children cost n - 1 ``op_sum`` calls.
    """

    args: tuple["Derivation", ...]
    value: Fraction = field(init=False, compare=False, repr=False)

    def __init__(self, *args: "Derivation") -> None:
        object.__setattr__(self, "args", args)
        self.__post_init__()

    def __post_init__(self) -> None:
        args = self.args
        if len(args) < 2:
            raise ValueError(f"a sum takes two or more operands, got {len(args)}")
        if len(args) == 2:  # two operands, as certify builds them: one op_sum
            value = op_sum(args[0].value, args[1].value)
        else:
            times: dict[int, int] = {}
            for k in args:
                times[id(k)] = times.get(id(k), 0) + 1
            terms = [times.pop(id(k)) * k.value for k in args if id(k) in times]
            if terms[0] <= 0:
                raise ValueError(f"operands must be positive, got {terms[0]}")
            value = reduce(op_sum, terms)
        object.__setattr__(self, "value", value)


@dataclass(frozen=True)
class Triple:
    """op_triple applied to the values of three sub-derivations."""

    first: "Derivation"
    second: "Derivation"
    third: "Derivation"
    value: Fraction = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        value = op_triple(self.first.value, self.second.value, self.third.value)
        object.__setattr__(self, "value", value)


Derivation = Union[Leaf, Sum, Triple]


def children(node: Derivation) -> tuple[Derivation, ...]:
    if isinstance(node, Leaf):
        return ()
    if isinstance(node, Sum):
        return node.args
    if isinstance(node, Triple):
        return (node.first, node.second, node.third)
    raise TypeError(f"not a derivation node: {node!r}")


def topological(d: Derivation) -> list[Derivation]:
    """Every distinct node of ``d`` once, children before parents, ``d`` last.

    Nodes are told apart by identity, so a subtree shared in memory is listed
    once.  Iterative, because chains can be deep.
    """
    order: list[Derivation] = []
    seen: set[int] = set()
    stack: list[tuple[Derivation, bool]] = [(d, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((k, False) for k in reversed(children(node)))
    return order


def verify_derivation(d: Derivation, gens: GeneratorSet) -> Fraction:
    """Check that every leaf of ``d`` is one of ``gens``; return ``d.value``.

    Each node computed its value exactly from its children's when it was
    built, so with every leaf a generator (else :class:`LeafNotGenerator`)
    the returned value really is in the closure of ``gens``.
    """
    for node in topological(d):
        if isinstance(node, Leaf) and node.value not in gens:
            raise LeafNotGenerator(node.value)
    return d.value


# --- the closure engine -----------------------------------------------------


@dataclass(frozen=True, eq=False)
class BoundedClosure:
    """All closure elements of ``gens`` that are <= ``bound``, on the grid.

    ``v / q`` is an element iff ``v <= limit`` (the bound on the grid) and
    either ``v >= c`` and d divides ``v``, or ``v`` lies on one of the
    ascending ``runs``: ``(start, step, count)`` holds ``start + k * step``
    for ``0 <= k < count``.  Producing rules are found from the runs alone,
    only for the values a derivation walks through, and kept for later calls
    on the same instance: nothing it holds grows with ``c`` or ``limit``.
    """

    gens: GeneratorSet
    bound: Fraction
    q: int
    limit: int
    d: int
    c: int
    runs: tuple[tuple[int, int, int], ...] = field(repr=False)
    _rules: dict[int, tuple] = field(default_factory=dict, init=False, repr=False)

    def _has(self, v: int) -> bool:
        """Whether ``v / q`` is an element, for ``v >= 0``."""
        if v >= self.c:
            return v <= self.limit and v % self.d == 0
        i = bisect_right(self.runs, v, key=itemgetter(0))  # runs end at limit
        if not i:
            return False
        start, step, count = self.runs[i - 1]
        return (v - start) % step == 0 and v < start + step * count

    def _scaled(self, value: object) -> Optional[int]:
        """``value * q`` if that is a member's grid index, else None."""
        if isinstance(value, float) and isfinite(value):
            value = Fraction(value)
        if not isinstance(value, (int, Fraction)):
            return None
        v, rest = divmod(value.numerator * self.q, value.denominator)
        if rest or v <= 0 or not self._has(v):
            return None
        return v

    def __contains__(self, value: object) -> bool:
        return self._scaled(value) is not None

    @cached_property
    def elements(self) -> frozenset[Fraction]:
        return frozenset(self.sorted_elements())

    def sorted_elements(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.q) for v in self._below(self.limit + 1))

    def _below(self, stop: int) -> Iterator[int]:
        """The elements below ``stop <= limit + 1`` (scaled), ascending."""
        runs = (range(a, min(a + m * t, stop), m) for a, m, t in self.runs)
        return chain(*runs, range(self.c, stop, self.d))

    def _best_split(self, s: int) -> int:
        """The largest element x <= s/2 whose partner s - x is an element, or 0.

        ``s``, an element or a sum of two, is a multiple of d.  Below ``c``,
        the runs and then the multiples of d up to ``limit`` are disjoint and
        ascending: the first run from the top that holds such an x holds the
        largest, and its partner lies on a run that meets ``[s - top, s - a]``.
        """
        half, start = s // 2, itemgetter(0)
        if half >= self.c:  # then s - x >= x >= c
            x = half - half % self.d
            return x if s - x <= self.limit else 0
        spans = (*self.runs, (self.c, self.d, (self.limit - self.c) // self.d + 1))
        for i in reversed(range(bisect_right(spans, half, key=start))):
            a, m, t = spans[i]
            top = min(a + m * (t - 1), half)
            near = max(bisect_right(spans, s - top, key=start) - 1, i)
            partners = spans[near : bisect_right(spans, s - a, key=start)]
            if x := max(_pair(spans[i], p, s, half) for p in partners):
                return x
        return 0

    def _rule(self, e: int) -> tuple:
        """One well-founded producing rule for element ``e`` (scaled).

        ``("gen",)``, ``("sum", x, y)`` with the most balanced split, or, for
        the rare sum-free elements, ``("triple", a, b, c)`` with a < b <= c,
        b + c - a = e, the smallest a and then the largest b.  The production
        that first created ``e`` had strictly smaller operands, so searching
        below ``e`` is complete and derivation walks terminate.  The rule
        depends on the element set only, so derivations are deterministic.
        """
        rule = self._rules.get(e)
        if rule is not None:
            return rule
        if Fraction(e, self.q) in self.gens:
            rule = ("gen",)
        elif x := self._best_split(e):
            rule = ("sum", x, e - x)
        else:
            for a in self._below(e):
                b = self._best_split(e + a)
                if b > a:
                    rule = ("triple", a, b, e + a - b)
                    break
            else:
                raise SoundnessError(
                    f"no producing rule found for closure element {e} (scaled)"
                )
        self._rules[e] = rule
        return rule

    def derivation_for(self, value: object) -> Optional[Derivation]:
        """A derivation of ``value`` from the generators, or None.

        Built iteratively from the producing rules; shared subtrees are
        reused, so the result is a DAG presented as a tree.
        """
        top = self._scaled(value)
        if top is None:
            return None
        memo: dict[int, Derivation] = {}
        stack = [top]
        while stack:
            cur = stack[-1]
            if cur in memo:
                stack.pop()
                continue
            kind, *deps = self._rule(cur)
            pending = [d for d in deps if d not in memo]
            if pending:
                stack.extend(pending)
                continue
            if kind == "gen":
                memo[cur] = Leaf(Fraction(cur, self.q))
            elif kind == "sum":
                memo[cur] = Sum(memo[deps[0]], memo[deps[1]])
            else:
                memo[cur] = Triple(memo[deps[0]], memo[deps[1]], memo[deps[2]])
            stack.pop()
        return memo[top]


def _pair(xs: tuple, ys: tuple, s: int, half: int) -> int:
    """The largest x <= half on run ``xs`` with s - x on run ``ys``, or 0.

    x = a + k*m on ``(a, m, t)`` and s - x = b + l*n on ``(b, n, u)`` solve
    ``m*k + n*l = s - a - b``, whose k are one residue modulo n/gcd(m, n).
    """
    (a, m, t), (b, n, u) = xs, ys
    r, g = s - a - b, gcd(m, n)
    if r % g:
        return 0
    period = n // g
    k = min(t - 1, (half - a) // m, r // m)  # r // m: l >= 0
    k -= (k - r // g % period * pow(m // g, -1, period)) % period
    return a + m * k if k >= 0 and m * k >= r - n * (u - 1) else 0


def _chain(gen_bits: list[int], limit: int) -> tuple[int, int, tuple]:
    """The closure on the scaled integer grid as ``(d, c, runs)``.

    With ``e`` the smallest generator, ``cl(G) = {e} | (e + cl(G'))`` for
    ``G' = {e} | {g - e : g > e}``.  ``X - e`` holds 0, ``e`` and each
    ``g - e``, and is closed: ``x + y - e = op_triple(e, x, y)``, and a shift
    keeps ``b + c - a``.  Conversely, by induction on a member, a sum has
    ``y + z - e = (y - e) + ((z - e) + e)``, and a triple just shifts.  So
    the gaps between members never increase: the smallest generator ``m``
    repeats ``t = (g2 - 1) // m`` times, a division step of Euclid's
    algorithm.  From the first gap of the gcd ``d`` on, every gap is ``d``;
    that member is the conductor (Rosales & Garcia-Sanchez, *Numerical
    Semigroups*, 2009).  ``runs`` stop at ``limit``; none without generators.
    """
    if not gen_bits:
        return 1, limit + 1, ()
    s = sorted(set(gen_bits))
    d, pos, runs = gcd(*s), 0, []
    while s[0] != d:
        m = s[0]
        t = (s[1] - 1) // m
        if pos + m <= limit:
            runs.append((pos + m, m, min(t, (limit - pos) // m)))
        pos += t * m
        s = sorted({m, *(g - t * m for g in s[1:])})
    return d, pos + d, tuple(runs)


def bounded_closure(gens: GeneratorSet, bound: RatLike) -> BoundedClosure:
    """All values derivable from ``gens`` that do not exceed ``bound``.

    Both operations only ever grow values, so this finite set *is* the part
    of the (infinite) closed set below the bound.  Generators above the bound
    are ignored; if none survive, the closure is empty.
    """
    bound_f = parse_rat(bound)
    usable = [g for g in gens.sorted_values if g <= bound_f]
    q = lcm(*(g.denominator for g in usable))
    limit = (bound_f.numerator * q) // bound_f.denominator  # floor, exact
    d, c, runs = _chain([int(g * q) for g in usable], limit)
    return BoundedClosure(gens, bound_f, q, limit, d, c, runs)


def membership(gens: GeneratorSet, value: RatLike) -> Optional[Derivation]:
    """A derivation of ``value`` from ``gens``, or None for non-members.

    The closure is built up to the value itself.  Both operations give a
    result at least as large as each operand, so elements above the value
    never help derive it and a larger bound could not change the answer.
    """
    if len(gens) == 0:
        raise ValueError("membership queries need a nonempty generator set")
    value_f = parse_rat(value)
    if value_f <= 0:
        raise ValueError(f"value must be positive, got {format_rat(value_f)}")
    return bounded_closure(gens, value_f).derivation_for(value_f)


def brute_force_closure(gens: GeneratorSet, bound: RatLike) -> frozenset[Fraction]:
    """Independent oracle for :func:`bounded_closure`'s element set.

    Repeated full passes until nothing new appears: every pass enumerates all
    unordered pairs for sums, and all triples in the canonical sorted form
    ``a <= b <= c -> b + c - a`` (for each pair sum, every small-enough
    element a up to the best pair minimum).  No frontier, no provenance, no
    sharing with the engine above; passes run on common-denominator integers
    so the cross-check is exact but affordable.
    """
    bound_f = parse_rat(bound)
    start = [g for g in gens.sorted_values if g <= bound_f]
    if not start:
        return frozenset()
    q = lcm(*(g.denominator for g in start))
    limit = (bound_f.numerator * q) // bound_f.denominator
    current = {int(g * q) for g in start}
    while True:
        els = sorted(current)
        found: set[int] = set()
        best_min: dict[int, int] = {}
        for i, b in enumerate(els):
            for c in els[i:]:
                s = b + c
                if s <= limit:
                    found.add(s)
                if best_min.get(s, 0) < b:
                    best_min[s] = b
        for s, m in best_min.items():
            lo = bisect_left(els, s - limit)  # keep results within the bound
            for a in els[lo:]:
                if a > m:
                    break
                found.add(s - a)
        if found <= current:
            break
        current |= found
    return frozenset(Fraction(v, q) for v in current)
