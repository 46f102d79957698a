"""Deterministic SVG rendering of 2D partitions with optional trail overlay.

The emitted markup is byte-stable: element order follows box order, numeric
attributes use an exact fixed-point formatter, and no timestamps or random
ids appear anywhere.  Rendering is strictly two-dimensional; higher
dimensions raise :class:`~boxcert.errors.RenderUnsupported`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import RenderUnsupported
from .geometry import Box, Partition
from .kernel import format_rat
from .pipeline import Certificate

# Pale fills cycled by box index; outer outline and trail use fixed colors.
_PALETTE = (
    "#c6dbef",
    "#fdd0a2",
    "#c7e9c0",
    "#fcbba1",
    "#dadaeb",
    "#fee391",
    "#d9d9d9",
    "#ccebc5",
)
_BOX_STROKE = "#555555"
_OUTER_STROKE = "#000000"
_TRAIL_COLOR = "#d62728"
_MARK_COLOR = "#1f77b4"
_MARGIN = 10


@dataclass(frozen=True)
class RenderSpec:
    """Rendering options: pixels per unit plus overlay toggles."""

    scale: int = 20
    show_trail: bool = True
    show_labels: bool = False

    def __post_init__(self) -> None:
        if self.scale < 1:
            raise ValueError(f"scale must be >= 1, got {self.scale}")


def _fmt(q: Fraction) -> str:
    """Format a rational as a decimal attribute value.

    Integers print without a point; everything else rounds to four decimal
    places with trailing zeros stripped.  round() on a Fraction is exact, so
    the output never depends on binary floating point.
    """
    if q.denominator == 1:
        return str(q.numerator)
    scaled = round(q * 10000)
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), 10000)
    text = f"{whole}.{frac:04d}".rstrip("0").rstrip(".")
    return sign + text


def render_svg(
    p: Partition, cert: Optional[Certificate] = None, spec: RenderSpec = RenderSpec()
) -> str:
    """Render a 2D partition as SVG text.

    One filled rectangle per box, the outer box outlined on top.  With a
    certificate and ``spec.show_trail``, the trail is overlaid as a polyline
    and the certified side gets one tick per Y-sequence point.
    ``spec.show_labels`` adds the 1-based box index at each box center.
    """
    if p.dim != 2:
        raise RenderUnsupported(f"can only render 2D partitions, got dim {p.dim}")
    outer = p.outer
    s = Fraction(spec.scale)

    def sx(x: Fraction) -> Fraction:
        return (x - outer.lo[0]) * s + _MARGIN

    def sy(y: Fraction) -> Fraction:
        # Flip so larger coordinates are higher in the image.
        return (outer.hi[1] - y) * s + _MARGIN

    width = _fmt(outer.extent(1) * s + 2 * _MARGIN)
    height = _fmt(outer.extent(2) * s + 2 * _MARGIN)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    ]

    def rect(b: Box, fill: str, stroke: str, stroke_width: str) -> str:
        return (
            f'<rect x="{_fmt(sx(b.lo[0]))}" y="{_fmt(sy(b.hi[1]))}" '
            f'width="{_fmt(b.extent(1) * s)}" height="{_fmt(b.extent(2) * s)}" '
            f'fill="{fill}" stroke="{stroke}" stroke-width="{stroke_width}"/>'
        )

    for k, b in enumerate(p.boxes):
        lines.append(rect(b, _PALETTE[k % len(_PALETTE)], _BOX_STROKE, "1"))
    lines.append(rect(outer, "none", _OUTER_STROKE, "2"))

    if spec.show_labels:
        for k, b in enumerate(p.boxes, start=1):
            cx = (b.lo[0] + b.hi[0]) / 2
            cy = (b.lo[1] + b.hi[1]) / 2
            lines.append(
                f'<text x="{_fmt(sx(cx))}" y="{_fmt(sy(cy))}" '
                f'font-family="monospace" font-size="12" '
                f'text-anchor="middle" dominant-baseline="middle">{k}</text>'
            )

    if cert is not None and spec.show_trail:
        pts = " ".join(
            f"{_fmt(sx(v[0]))},{_fmt(sy(v[1]))}" for v in cert.trail.points()
        )
        lines.append(
            f'<polyline points="{pts}" fill="none" stroke="{_TRAIL_COLOR}" '
            f'stroke-width="2" stroke-linejoin="round" stroke-linecap="round"/>'
        )
        axis = cert.claimed_side.axis
        for offset in cert.y.points:
            if axis == 1:
                cx, cy = sx(outer.lo[0] + offset), sy(outer.lo[1])
            else:
                cx, cy = sx(outer.lo[0]), sy(outer.lo[1] + offset)
            lines.append(
                f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="3" '
                f'fill="{_MARK_COLOR}" stroke="none">'
                f"<title>{format_rat(offset)}</title></circle>"
            )

    lines.append("</svg>")
    return "\n".join(lines) + "\n"
