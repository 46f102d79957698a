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

Step lengths are read from the derivation nodes, which compute their values
when built.  Runtime checks: each step's derivation derives that step, a
triple's middle step is the strict minimum, every merged node derives the
span between its outer endpoints, and the reduction ends at [0, L].

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


def _first_between(pts: list[Fraction]) -> Optional[int]:
    """Smallest 0-based interior q with pts[q] inside [pts[q-1], pts[q+1]]."""
    for q in range(1, len(pts) - 1):
        lo, hi = sorted((pts[q - 1], pts[q + 1]))
        if lo <= pts[q] <= hi:
            return q
    return None


def _growth_index(derivs: list[Derivation]) -> Optional[int]:
    """Smallest 1-based sequence index i > 2 with step i longer than step i-1.

    ``derivs[t]`` derives the length between positions t+1 and t+2 (1-based),
    so the comparison for index i reads ``derivs[i-1] > derivs[i-2]``.
    """
    for i in range(3, len(derivs) + 1):
        if derivs[i - 1].value > derivs[i - 2].value:
            return i
    return None


def reduce_sequence(
    y: YSequence, leaf_derivation: Callable[[Fraction], Derivation]
) -> ReductionCertificate:
    """Reduce ``y`` to the single length L, logging every rewrite.

    ``leaf_derivation`` supplies a derivation for each original step length
    (a bare Leaf when the length is a generator, a closure derivation
    otherwise); one whose value is not its step length raises
    :class:`~boxcert.errors.SoundnessError`.  First the input's loops are
    erased in one left-to-right pass, each at the earliest repeated position;
    merges never repeat a position, so none is left for later.  Then sums
    are tried before triples, each at the smallest admissible index — so the
    log and the final derivation are deterministic functions of the input.
    """
    pts = list(y.points)
    derivs: list[Derivation] = []
    for step in y.step_lengths():
        d = leaf_derivation(step)
        if d.value != step:
            raise SoundnessError(
                f"step {format_rat(step)} derived as {format_rat(d.value)}"
            )
        derivs.append(d)
    log: list[RewriteStep] = []
    first_at: dict[Fraction, int] = {}
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
    while len(pts) > 2:
        # Merge the steps derivs[lo:hi], which run from pts[lo] to pts[hi].
        q = _first_between(pts)
        if q is not None:
            kind, at, lo, hi = "sum", q + 1, q - 1, q + 1
            node: Derivation = Sum(*derivs[lo:hi])
        else:
            i = _growth_index(derivs)
            if i is None:
                raise ZigzagIndexMissing(tuple(pts))
            kind, at, lo, hi = "triple", i, i - 3, i
            l1, l2, l3 = (d.value for d in derivs[lo:hi])
            if not (l2 < l1 and l2 < l3):
                raise SoundnessError(
                    f"triple merge middle {format_rat(l2)} is not the strict "
                    f"minimum of ({format_rat(l1)}, {format_rat(l2)}, "
                    f"{format_rat(l3)}); points={tuple(pts)}"
                )
            node = Triple(*derivs[lo:hi])
        geometric = abs(pts[hi] - pts[lo])
        if node.value != geometric:
            raise SoundnessError(
                f"{kind} merge at position {at} derives {format_rat(node.value)}, not "
                f"the geometric span {format_rat(geometric)}; points={tuple(pts)}"
            )
        lengths = tuple(d.value for d in derivs[lo:hi])
        log.append(RewriteStep(kind, at, None, lengths, node.value))
        derivs[lo:hi] = [node]
        del pts[lo + 1 : hi]
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
