"""The trusted base: everything a certificate's acceptance rests on.

A false claim can pass :func:`boxcert.pipeline.check_certificate` only
through a fault in this module or in :func:`boxcert.reduction.replay`, which
calls :func:`verify_derivation` and compares the root's value with the
recorded result.  Everything else the checker runs is an audit: it can
reject a sound certificate, never accept an unsound one.  So this module
imports only the standard library and :mod:`boxcert.errors`, and holds

* the rational reader and writer (:func:`parse_rat`, :func:`format_rat`);
* the two closure operations (:func:`op_sum`, :func:`op_triple`) and the
  derivation nodes, each of which computes its value from its children's
  when it is built (:class:`Leaf`, :class:`Sum`, :class:`Triple`);
* the derivation table parser (:func:`derivation_from_json`) and the JSON
  readers it shares with the other loaders;
* the verifier (:func:`verify_derivation`): every leaf is a generator;
* the claim test (:func:`check_claim`): the derived value is the claimed
  length, and that is the outer extent on the claimed axis.

That is the de Bruijn criterion (Barendregt & Wiedijk, *Phil. Trans. R.
Soc. A* 363, 2005) and the LCF design (Gordon, Milner & Wadsworth, 1979):
an untrusted producer, and a checker small enough to read.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from typing import Any, Container, Optional, Union

from .errors import LeafNotGenerator

# --- rationals --------------------------------------------------------------

RatLike = Union[int, str, Fraction]

#: A signed integer, ``p/q`` or a plain decimal in ASCII digits: the strings
#: ``Fraction`` reads, less exponent notation and underscores.
_RATIONAL = re.compile(r"([-+]?)(?=\.?\d)(\d*)(?:/(\d+)|\.(\d*))?", re.ASCII)


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


# --- the operations and derivation trees ------------------------------------


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


def verify_derivation(d: Derivation, gens: Container[Fraction]) -> Fraction:
    """Check that every leaf of ``d`` is one of ``gens``; return ``d.value``.

    Each node computed its value exactly from its children's when it was
    built, so with every leaf a generator (else :class:`LeafNotGenerator`)
    the returned value really is in the closure of ``gens``.
    """
    for node in topological(d):
        if isinstance(node, Leaf) and node.value not in gens:
            raise LeafNotGenerator(node.value)
    return d.value


# --- JSON readers and the derivation table ----------------------------------


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


# Internal node classes by wire name, and the argument counts they take.
_OPS = {"sum": Sum, "triple": Triple}
_ARITY = {"leaf": 0, "sum": 2, "triple": 3}  # a sum takes two or more


def derivation_from_json(
    obj: Any, where: str = "derivation", *, rats: Optional[RatTable] = None
) -> Derivation:
    """Parse and *check* a derivation table; the last entry is the root.

    One forward pass that builds one node per entry: a ``sum`` takes two or
    more arguments, which may repeat, a ``triple`` three and a ``leaf`` none;
    every argument must index an earlier entry, and each entry's "value"
    annotation must equal the value its node computes when it is built from
    its arguments.  The table must also have the form
    :func:`boxcert.jsonio.derivation_to_json` writes: each entry has exactly
    the keys ``op``, ``args`` and ``value``, and its value is the lowest-terms
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


# --- the claim --------------------------------------------------------------


def check_claim(
    value: Fraction, axis: int, length: Fraction, extents: tuple[Fraction, ...]
) -> Optional[tuple[str, str]]:
    """The first failing ``("claim", detail)``, or None: the derived ``value``
    is ``length``, the outer box's extent on 1-based ``axis``."""
    if not 1 <= axis <= len(extents):
        return "claim", f"axis {axis} out of range"
    if value != length:
        return "claim", "derived result does not match the claimed length"
    if extents[axis - 1] != length:
        return "claim", "claimed length is not the outer extent"
    return None
