"""The bit-parallel saturation pass that the Euclidean chain replaced.

It is kept here only as the oracle for ``boxcert.closure._chain``: the
closure's ``(d, c, bits)`` must equal what this pass returns on every input.
The body below is the one the chain replaced, unchanged.
"""
from __future__ import annotations

from math import gcd


def _saturate_bits(gen_bits: list[int], limit: int) -> tuple[int, int, int]:
    """The closure on the scaled integer grid as ``(d, c, bits)``.

    A new value lies above all of its operands: ``x + y`` exceeds both, and
    ``b + c - a`` with ``a <= b <= c`` exceeds ``c`` unless ``a = b``, which
    gives back ``c``.  So one ascending pass is complete: when member ``c``
    is taken, add ``c + (b - a)`` for every taken ``b <= c`` and every
    ``a < b`` that is taken or 0 (a sum is the triple with ``a = 0``).
    ``rev`` has bit ``c - a`` for each such ``a``; ``diffs`` has bit
    ``b - a`` for each such pair.  ``2c`` is added with ``c``, so the next
    member is at most ``2c``, and a generator joins the mask once it is
    within ``2c``: nothing the pass holds is much wider than ``2c`` bits.

    The pass stops at the conductor.  Every member is a multiple of ``d``,
    the gcd of the generators.  When ``c`` is taken, every bit at or below
    ``c`` is final: all smaller members were taken before it, and a new value
    lies above its operands.  If ``c`` is also ``d`` above the member taken
    before it (or ``c = d``, above the virtual 0), the pair ``(c - d, c)``
    gives ``x + d`` for every member ``x >= c``, so every multiple of ``d``
    from ``c`` on is a member.  ``bits`` keeps the members below ``c`` and
    at most ``limit``.  Without generators, ``c = limit + 1``: no members.
    """
    waiting = sorted(gen_bits, reverse=True)  # each at most limit
    if not waiting:
        return 1, limit + 1, 0
    d = gcd(*waiting)
    mask, rev, diffs, c = 1 << waiting.pop(), 1, 0, 0
    while True:
        rest = mask >> (c + 1)
        step = (rest & -rest).bit_length()
        c += step
        if step == d:
            return d, c, mask & ((1 << min(c, limit + 1)) - 1)
        while waiting and waiting[-1] <= 2 * c:
            mask |= 1 << waiting.pop()
        rev = (rev << step) | 1
        diffs |= rev
        mask |= diffs << c
