"""Collapse a position sequence to a single derived length, with a rewrite log.

A :class:`~boxcert.trailgraph.YSequence` walks from 0 to L inside [0, L] with
every step length in the tracked set X.  Three rewrites shrink it while
keeping every step length in X:

1. **loop** — two equal positions enclose a detour; delete it.  Rewrites
   only delete points, so every loop is in the input: one left-to-right pass
   erases them all first (chronological loop erasure, Lawler 1980).
2. **sum** — an interior position lies (weakly) between its neighbours, so
   the two adjacent steps point the same way and merge into their sum.
3. **triple** — with no loops and no mergeable position the walk is a strict
   zigzag; at the first index where a step out-grows its predecessor, three
   consecutive steps merge into ``op_triple`` of their lengths, which equals
   the distance between the outer endpoints because the middle step is the
   strict minimum of the three.

Sums go first, each at the smallest admissible index, then triples.  After
the loops, two left-to-right passes apply them in that order: the first with
sums only, the second with sums and triples.  A pass keeps a stack of
settled points and, at the next point x, tries a sum at x, then (second
pass) a triple ending at x; otherwise x is settled.  A settled point is not
between its neighbours, and stays so: a merge keeps the direction of the
step leaving the top, since a sum extends it and a triple spans the way its
first step points.  In the second pass no settled point ends a step longer
than the one before it either.  Everything after x is unchanged input, and
after the first pass that input holds no point between its neighbours, so
the second pass tries a sum only after a merge.  Thus the smallest sum index
is at x or later, and so is the smallest growth index: the log is the one
that rescanning from the start after every merge would write.  A pass
settles each point at most once, and each merge deletes one.

The rewrites read only the order of positions and the distances between
them, so the reducer scales the positions once onto one integer grid: with
``q`` the lcm of their denominators, position ``v`` becomes the integer
``v * q``.  Scaling by ``q > 0`` keeps every order and every tie, so the log
is the one the exact positions give.  Loop erasure, the between test and the
final ``[0, L]`` test compare integers, and a merge's span is an integer
difference.  Fractions remain where values are derived: in the derivation
nodes, which compute their values when built, and in one ``Fraction(s, q)``
per distinct step length ``s``, whose derivation every step of that length
shares.  Step lengths in the log are read from the nodes.

Runtime checks: each distinct step's derivation derives that step, a
triple's middle step is the strict minimum, every merged node derives the
span between its outer endpoints (``value * q == span``, cross-multiplied,
so no Fraction is built for the span), and the reduction ends at [0, L],
with a derivation of L from X.  Errors report exact rationals, converted
back from the grid.  The :class:`RewriteStep` log is a function of the
sequence alone, so certificates do not carry it.  The checker does not re-run
the rewrites either: :func:`replay`, the one part of the trusted base outside
:mod:`boxcert.kernel`, verifies the derivation with
:func:`~boxcert.kernel.verify_derivation` and compares its value with the
recorded result.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Optional

from .closure import GeneratorSet
from .errors import LeafNotGenerator, ReplayMismatch, SoundnessError, ZigzagIndexMissing
from .kernel import Derivation, Sum, Triple, format_rat, verify_derivation
from .trailgraph import YSequence


@dataclass(frozen=True)
class RewriteStep:
    """One applied rewrite, recorded against 1-based positions at apply time.

    * ``kind="loop"``: positions i and j were equal; steps i..j-1 (their
      lengths in ``lengths``) were deleted.
    * ``kind="sum"``: position i merged steps i-1 and i; ``lengths`` holds
      the two merged lengths, ``merged`` their sum.
    * ``kind="triple"``: steps i-2, i-1, i merged; ``lengths`` holds the
      three lengths, ``merged`` the op_triple value.
    """

    kind: str
    i: int
    j: Optional[int]
    lengths: tuple[Fraction, ...]
    merged: Optional[Fraction]


@dataclass(frozen=True)
class ReductionCertificate:
    """Rewrite log, final length, and its derivation.

    ``steps`` is the in-memory log of :func:`reduce_sequence`; it is not part
    of the wire format, so a parsed certificate has ``steps=()``.
    """

    steps: tuple[RewriteStep, ...]
    result: Fraction
    derivation: Derivation


def _between(a: int, b: int, c: int) -> bool:
    return a <= b <= c or c <= b <= a


def _merge_pass(
    pts: list[int], derivs: list[Derivation], log: list[RewriteStep], triples: bool, q: int
) -> tuple[list[int], list[Derivation]]:
    """One stack pass of sums, and of triples when ``triples`` is set.

    ``sp``/``sd`` hold the settled points and steps; ``x = pts[k]`` is the
    next point and ``dx`` derives the step from ``sp[-1]`` to it.  Points are
    on the grid ``(1/q) * Z``.
    """
    sp, sd, k, dx, try_sum = pts[:1], [], 1, derivs[0], not triples
    while True:
        x = pts[k]
        # Merge ``parts``: pop ``drop`` points; the merged step ends at pts[hi].
        if try_sum and k + 1 < len(pts) and _between(sp[-1], x, pts[k + 1]):
            kind, at, drop, hi, parts = "sum", len(sp) + 1, 0, k + 1, (dx, derivs[k])
        elif triples and len(sp) > 2 and dx.value > sd[-1].value:
            kind, at, drop, hi, parts = "triple", len(sp), 2, k, (sd[-2], sd[-1], dx)
        else:
            sp.append(x)
            sd.append(dx)
            if k + 1 == len(pts):
                return sp, sd
            k, dx, try_sum = k + 1, derivs[k], not triples
            continue
        lengths = tuple(d.value for d in parts)
        if kind == "triple" and not lengths[1] < min(lengths[0], lengths[2]):
            raise SoundnessError(
                f"triple merge middle {format_rat(lengths[1])} is not the strict "
                f"minimum of ({', '.join(map(format_rat, lengths))}); "
                f"points={_exact(sp + pts[k:], q)}"
            )
        node = (Sum if kind == "sum" else Triple)(*parts)
        span = abs(pts[hi] - sp[-1 - drop])
        merged = node.value
        if merged.numerator * q != span * merged.denominator:
            raise SoundnessError(
                f"{kind} merge at position {at} derives {format_rat(merged)}, not "
                f"the geometric span {format_rat(Fraction(span, q))}; "
                f"points={_exact(sp + pts[k:], q)}"
            )
        log.append(RewriteStep(kind, at, None, lengths, merged))
        del sp[len(sp) - drop :], sd[len(sd) - drop :]
        k, dx, try_sum = hi, node, True


def _exact(pts: list[int], q: int) -> tuple[Fraction, ...]:
    """Grid points back as exact rationals, for error reports."""
    return tuple(Fraction(v, q) for v in pts)


def reduce_sequence(
    y: YSequence, leaf_derivation: Callable[[Fraction], Derivation]
) -> ReductionCertificate:
    """Reduce ``y`` to the single length L, logging every rewrite.

    ``leaf_derivation`` supplies a derivation for each distinct step length
    (a bare Leaf when the length is a generator, a closure derivation
    otherwise), and steps of equal length share it; one whose value is not
    its step length raises :class:`~boxcert.errors.SoundnessError`.  Loops
    are erased first, each at the earliest repeated position, then the two
    merge passes run.
    """
    q = lcm(*(v.denominator for v in y.points))
    pts = [v.numerator * (q // v.denominator) for v in y.points]
    leaves: dict[int, Derivation] = {}
    derivs: list[Derivation] = []
    for a, b in zip(pts, pts[1:]):
        s = abs(b - a)
        d = leaves.get(s)
        if d is None:
            step = Fraction(s, q)
            d = leaves[s] = leaf_derivation(step)
            if d.value != step:
                raise SoundnessError(
                    f"step {format_rat(step)} derived as {format_rat(d.value)}"
                )
        derivs.append(d)
    log: list[RewriteStep] = []
    first_at: dict[int, int] = {}
    j = 0
    while j < len(pts):
        i = first_at.setdefault(pts[j], j)
        if i < j:
            lengths = tuple(d.value for d in derivs[i:j])
            log.append(RewriteStep("loop", i + 1, j + 1, lengths, None))
            for v in pts[i + 1 : j]:
                del first_at[v]
            del pts[i + 1 : j + 1]
            del derivs[i:j]
        j = i + 1
    for triples in (False, True):
        pts, derivs = _merge_pass(pts, derivs, log, triples, q)
    if len(pts) > 2:
        raise ZigzagIndexMissing(_exact(pts, q))
    if pts != [0, y.length.numerator * (q // y.length.denominator)]:
        raise SoundnessError(f"reduction ended at {_exact(pts, q)} instead of [0, L]")
    return ReductionCertificate(steps=tuple(log), result=y.length, derivation=derivs[0])


def replay(cert: ReductionCertificate, gens: GeneratorSet) -> Fraction:
    """The checker's first kernel step: the recorded derivation proves the
    recorded result.

    The derivation must evaluate to ``cert.result`` using only the given
    generators (:func:`~boxcert.kernel.verify_derivation`), which puts the
    result in their closure.  Any discrepancy raises :class:`ReplayMismatch`.
    The recorded ``steps`` are not read.  It is trusted, like
    :mod:`boxcert.kernel`, and stays outside it until the certificate drops
    its recorded result.
    """
    try:
        derived = verify_derivation(cert.derivation, gens)
    except LeafNotGenerator as exc:
        raise ReplayMismatch(str(exc)) from exc
    if derived != cert.result:
        raise ReplayMismatch(
            f"derivation evaluates to {format_rat(derived)}, "
            f"result claims {format_rat(cert.result)}"
        )
    return cert.result
