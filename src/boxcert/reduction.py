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
   strict minimum of the three.  Both facts are asserted at runtime.

Applied to exhaustion this leaves the two-point sequence [0, L] and a
derivation of L from X.  The rewrite order is fixed, so the recorded
:class:`RewriteStep` log is a function of the sequence alone, and
certificates do not carry it.  The checker does not re-run the rewrites
either: :func:`replay` is its kernel, which verifies the derivation with
:func:`~boxcert.closure.verify_derivation` and compares its value with the
recorded result.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .closure import (
    Derivation,
    GeneratorSet,
    Sum,
    Triple,
    op_sum,
    op_triple,
    verify_derivation,
)
from .errors import (
    LeafNotGenerator,
    ReplayMismatch,
    SoundnessError,
    ZigzagIndexMissing,
)
from .geometry import format_rat
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


def _step_lengths(pts: list[Fraction]) -> list[Fraction]:
    return [abs(b - a) for a, b in zip(pts, pts[1:])]


def _first_between(pts: list[Fraction]) -> Optional[int]:
    """Smallest 0-based interior q with pts[q] inside [pts[q-1], pts[q+1]]."""
    for q in range(1, len(pts) - 1):
        lo, hi = sorted((pts[q - 1], pts[q + 1]))
        if lo <= pts[q] <= hi:
            return q
    return None


def _growth_index(steps: list[Fraction]) -> Optional[int]:
    """Smallest 1-based sequence index i > 2 with step i longer than step i-1.

    ``steps[t]`` is the length between positions t+1 and t+2 (1-based), so
    the comparison for index i reads ``steps[i-1] > steps[i-2]``.
    """
    for i in range(3, len(steps) + 1):
        if steps[i - 1] > steps[i - 2]:
            return i
    return None


def reduce_sequence(
    y: YSequence, leaf_derivation: Callable[[Fraction], Derivation]
) -> ReductionCertificate:
    """Reduce ``y`` to the single length L, logging every rewrite.

    ``leaf_derivation`` supplies a derivation for each original step length
    (a bare Leaf when the length is a generator, a closure derivation
    otherwise).  First the input's loops are erased in one left-to-right
    pass, each at the earliest repeated position; merges never repeat a
    position, so none is left for later.  Then sums are tried before
    triples, each at the smallest admissible index — so the log and the
    final derivation are deterministic functions of the input.
    """
    pts = list(y.points)
    derivs: list[Derivation] = [
        leaf_derivation(le) for le in _step_lengths(pts)
    ]
    log: list[RewriteStep] = []
    first_at: dict[Fraction, int] = {}
    j = 0
    while j < len(pts):
        i = first_at.setdefault(pts[j], j)
        if i < j:
            lengths = tuple(_step_lengths(pts[i : j + 1]))
            log.append(RewriteStep("loop", i + 1, j + 1, lengths, None))
            for v in pts[i + 1 : j]:
                del first_at[v]
            del pts[i + 1 : j + 1]
            del derivs[i:j]
        j = i + 1
    while len(pts) > 2:
        q = _first_between(pts)
        if q is not None:
            l1 = abs(pts[q] - pts[q - 1])
            l2 = abs(pts[q + 1] - pts[q])
            merged = abs(pts[q + 1] - pts[q - 1])
            if merged != op_sum(l1, l2):
                raise SoundnessError(
                    f"sum merge at position {q + 1} is not length-preserving: "
                    f"{format_rat(l1)}+{format_rat(l2)} != {format_rat(merged)}"
                )
            log.append(
                RewriteStep(
                    kind="sum", i=q + 1, j=None, lengths=(l1, l2), merged=merged
                )
            )
            derivs[q - 1 : q + 1] = [Sum(derivs[q - 1], derivs[q])]
            del pts[q]
            continue
        steps = _step_lengths(pts)
        i = _growth_index(steps)
        if i is None:
            raise ZigzagIndexMissing(tuple(pts))
        l1, l2, l3 = steps[i - 3], steps[i - 2], steps[i - 1]
        if not (l2 < l1 and l2 < l3):
            raise SoundnessError(
                f"triple merge middle {format_rat(l2)} is not the strict minimum "
                f"of ({format_rat(l1)}, {format_rat(l2)}, {format_rat(l3)}); "
                f"points={tuple(pts)}"
            )
        merged = op_triple(l1, l2, l3)
        geometric = abs(pts[i] - pts[i - 3])
        if merged != geometric:
            raise SoundnessError(
                f"triple merge value {format_rat(merged)} disagrees with the "
                f"geometric span {format_rat(geometric)}; points={tuple(pts)}"
            )
        log.append(
            RewriteStep(
                kind="triple", i=i, j=None, lengths=(l1, l2, l3), merged=merged
            )
        )
        derivs[i - 3 : i] = [Triple(derivs[i - 3], derivs[i - 2], derivs[i - 1])]
        del pts[i - 2 : i]
    if pts != [Fraction(0), y.length]:
        raise SoundnessError(f"reduction ended at {tuple(pts)} instead of [0, L]")
    return ReductionCertificate(
        steps=tuple(log), result=y.length, derivation=derivs[0]
    )


def replay(cert: ReductionCertificate, gens: GeneratorSet) -> Fraction:
    """The checker's kernel: the recorded derivation proves the recorded result.

    The derivation must evaluate to ``cert.result`` using only the given
    generators (:func:`~boxcert.closure.verify_derivation`), which puts the
    result in their closure.  Any discrepancy raises :class:`ReplayMismatch`.
    The recorded ``steps`` are not read.
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
