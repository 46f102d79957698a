"""Exception types shared across the pipeline.

Two families matter to callers:

* :class:`HypothesisViolated` — the *input* fails the premise (some box has
  no side in the tracked set), so there is nothing to certify;
* :class:`SoundnessError` subclasses — an internal invariant that the
  underlying argument guarantees failed at runtime.  These should be
  unreachable on valid input; they abort loudly with exact state so the bug
  (or the invalid input that slipped through validation) can be diagnosed.
"""
from __future__ import annotations


class HypothesisViolated(Exception):
    """A constituent box has no side length in the tracked closure."""

    def __init__(self, box_index: int, extents: tuple, message: str = "") -> None:
        self.box_index = box_index
        self.extents = extents
        detail = message or (
            f"box k={box_index} has no side in the closure; extents {extents}"
        )
        super().__init__(detail)


class SoundnessError(Exception):
    """An invariant the certification argument guarantees did not hold."""


class ParityViolation(SoundnessError):
    """Vertex degrees do not have the guaranteed parity pattern."""

    def __init__(self, points: tuple, message: str = "") -> None:
        self.points = points
        super().__init__(message or f"degree parity violated at {points}")


class StuckAtEvenVertex(SoundnessError):
    """The greedy trail ran out of edges somewhere other than a far corner."""

    def __init__(self, point: tuple, message: str = "") -> None:
        self.point = point
        super().__init__(message or f"trail stuck at {point}")


class ZigzagIndexMissing(SoundnessError):
    """No admissible merge index exists in a strictly zigzag sequence."""

    def __init__(self, points: tuple, message: str = "") -> None:
        self.points = points
        super().__init__(
            message or f"no growth index i>2 in zigzag sequence {points}"
        )


class ReplayMismatch(SoundnessError):
    """A recorded derivation does not prove the recorded reduction result."""

    def __init__(self, reason: str) -> None:
        self.reason = reason
        super().__init__(f"replay failed: {reason}")


class LeafNotGenerator(Exception):
    """A derivation leaf is not one of the supplied generators."""

    def __init__(self, value, message: str = "") -> None:
        self.value = value
        super().__init__(message or f"leaf {value} is not a generator")


class RenderUnsupported(Exception):
    """Rendering is only implemented for dimension 2."""
