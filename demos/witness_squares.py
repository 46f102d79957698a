"""The two square partitions that force both closure operations.

Run me directly:

    python3 demos/witness_squares.py

A set of lengths is "closed" here under two operations: x+y, and
x+y+z-2*min(x,y,z).  Each family below is a square partition in which every
piece has a side drawn from a small generator set, and certifying the square
recovers one operation exactly.
"""

from boxcert import (
    GeneratorSet,
    certify,
    check_certificate,
    lift_product,
    pinwheel_partition,
    render_svg,
    strip_partition,
)
from boxcert.closure import children


def fmt(d):
    """Compact one-line rendering of a derivation tree."""
    kids = children(d)
    if not kids:
        return str(d.value)
    return f"{type(d).__name__.lower()}({', '.join(fmt(k) for k in kids)})"


def show(title, p, gens):
    print(f"--- {title}")
    print(f"outer box: {p.outer}")
    for k, b in enumerate(p.boxes, start=1):
        print(f"  piece {k}: {b}")
    cert = certify(p, gens)
    side = cert.claimed_side
    print(f"certified: side {side.length} along axis {side.axis}")
    print(f"trail, projected to axis {cert.y.axis}: {[str(v) for v in cert.y.points]}")
    print(f"derivation: {fmt(cert.reduction.derivation)}")
    result = check_certificate(cert, p, gens)
    print(f"independent re-check: {'accepted' if result.ok else result.reasons}")
    print()
    return cert


# Two vertical strips of widths 15 and 5 fill a 20x20 square.  Both pieces
# have a side in {15, 5}; the square's side is their sum, and the certificate
# says exactly that: Sum(Leaf 15, Leaf 5).
strip = strip_partition(15, 5)
show("strip(15, 5)", strip, GeneratorSet.of(15, 5))

# Four rectangles wound around a 7x7 center fill the same square.  Every
# piece has a side in {17, 10, 7}, but no two generators sum to 20 -- the
# certificate needs the second operation: 10 + 7 + 17 - 2*7 = 20.
pin = pinwheel_partition(17, 10, 7)
cert = show("pinwheel(17, 10, 7)", pin, GeneratorSet.of(17, 10, 7))

# Both squares survive being crossed with an interval: multiply every piece
# by [0, 20] and the 3D certificate comes out the same.
lifted = lift_product(pin, 20, 3)
show("pinwheel(17, 10, 7) x [0, 20]", lifted, GeneratorSet.of(17, 10, 7))

# The 2D instances can be drawn; the pinwheel picture makes the trail
# through the partition obvious.  (The CLI does the same thing:
# `boxcert render pin.json --cert pin.cert.json`.)
svg = render_svg(pin, cert)
print(f"SVG render of the pinwheel: {len(svg)} bytes, starts {svg[:38]!r}")
