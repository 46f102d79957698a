"""Everything the closure engine does, on small exact-rational examples.

Run me directly:

    python3 demos/closure_playground.py

The closure of a generator set G, cut off at a bound B, is the smallest set
containing G and closed under x+y and x+y+z-2*min(x,y,z) within (0, B].
Everything below is exact Fraction arithmetic; floats are rejected at the
parsing boundary on purpose.
"""

from fractions import Fraction

from boxcert import (
    GeneratorSet,
    bounded_closure,
    brute_force_closure,
    membership,
    op_sum,
    op_triple,
    verify_derivation,
)
from boxcert.closure import children

# The two operations themselves.  op_triple sorts its arguments, so the
# result never depends on the order you pass them in.
print("op_sum(3, 5)        =", op_sum(Fraction(3), Fraction(5)))
print("op_triple(10, 7, 17) =", op_triple(Fraction(10), Fraction(7), Fraction(17)))
print("op_triple(17, 10, 7) =", op_triple(Fraction(17), Fraction(10), Fraction(7)))
print()

# A generator set is just a frozen set of positive rationals.
g = GeneratorSet.of(7, 10, 17)
print(f"generators: {g}")

# Saturate up to 20.  Note 13 = 10+10+7-2*7 and 16 = 10+10+10-2*7 show up,
# but nothing below the smallest generator ever can: both operations only
# grow their largest argument.
cl = bounded_closure(g, 20)
print("closure up to 20:", " ".join(str(v) for v in cl.sorted_elements()))
print()


def fmt(d):
    """Compact one-line rendering of a derivation tree."""
    kids = children(d)
    if not kids:
        return str(d.value)
    return f"{type(d).__name__.lower()}({', '.join(fmt(k) for k in kids)})"


# Each element carries a replayable derivation tree.
for v in (Fraction(13), Fraction(20)):
    d = cl.derivation_for(v)
    print(f"{v} = {fmt(d)}")
    assert verify_derivation(d, g) == v
print()

# membership() is the one-shot version: a derivation or None.
d = membership(g, 19)
print("is 19 a member?", fmt(d) if d else None)
print("is 12 a member?", membership(g, 12))
print()

# The engine keeps the closure's finite description on the scaled integer
# grid: a few arithmetic runs below the conductor, found by Euclid-style
# division steps, then every multiple of the generators' gcd.  The slow
# reference implementation applies one operation at a time until nothing
# changes.  They agree -- the acceptance suite checks this on random sets,
# but seeing it once by hand is nicer.
fancy = set(bounded_closure(g, 20).elements)
plain = set(brute_force_closure(g, 20))
print(f"saturation == brute force on {g}: {fancy == plain}")

# Rationals are fine; everything is scaled by the common denominator.
g2 = GeneratorSet.of("3/2", "5/4")
print(f"closure of {g2} up to 6:",
      " ".join(str(v) for v in bounded_closure(g2, 6).sorted_elements()))

# An empty generator set has an empty closure (nothing to generate from).
print("closure of {} up to 100:", set(bounded_closure(GeneratorSet.of(), 100).elements))
