"""The reducer that restarts its scans from the start after every merge.

It is kept here only as the oracle for ``boxcert.reduction.reduce_sequence``:
the single-pass reducer must write the same rewrite log and the same
derivation on every input.  The body below is the one it replaced, unchanged.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional

from boxcert.errors import SoundnessError, ZigzagIndexMissing
from boxcert.kernel import Derivation, Sum, Triple, format_rat
from boxcert.reduction import ReductionCertificate, RewriteStep
from boxcert.trailgraph import YSequence


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
