"""One random partition pushed through every pipeline stage by hand.

Run me directly:

    python3 demos/sufficiency_walkthrough.py

`certify()` wraps the whole chain below; this script runs the stages one at
a time so you can watch the intermediate objects.  The claim being
mechanized: if every piece of a partitioned box has a side in a closed set,
the outer box does too -- and the pipeline produces the derivation that
proves it for the instance at hand.
"""

from boxcert import (
    GeneratorSet,
    bounded_closure,
    build_graph,
    assign_axes,
    extract_trail,
    format_point,
    hypothesis_instance,
    parity_audit,
    project_to_axis,
    random_guillotine,
    reduce_sequence,
    replay,
    validate_partition,
)
from boxcert.closure import children

# A seeded random guillotine partition: recursive straight cuts through a
# square, every coordinate a small-denominator rational.
p = random_guillotine(2, max_depth=3, seed=11)
p, gens = hypothesis_instance(p, seed=11)
print(f"outer box {p.outer}, {len(p.boxes)} pieces")
print(f"generators (one side of every piece): {gens}")
print(validate_partition(p).summary())
print()

# Stage 1: pick, for each piece, an axis whose extent is in the closure.
bound = max(p.outer.extents())
cl = bounded_closure(gens, bound)
assignment = assign_axes(p, lambda v: v in cl)
for k, b in enumerate(p.boxes, start=1):
    a = assignment[k - 1]
    print(f"piece {k}: {b}  -> axis {a} (extent {b.extent(a)})")
print()

# Stage 2: each piece contributes its edges parallel to the chosen axis.
# The degree pattern is the whole trick: outer corners get degree 1,
# every other vertex an even degree, no matter how pieces meet.
graph = build_graph(p, assignment)
print(f"graph: {len(graph.vertices)} vertices, {len(graph.edges)} edges")
report = parity_audit(graph)
print(report.table())
print(f"parity audit: {'clean' if report.ok else 'VIOLATED'}")
print()

# Stage 3: walk edges from a corner without repeating any; odd degree at
# exactly two vertices means the walk can only get stuck at the far corner.
trail = extract_trail(graph)
print("trail:", " -> ".join(format_point(pt) for pt in trail.points()))
print()

# Stage 4: project the walk onto one axis.  Consecutive positions differ by
# the assigned extent of some piece, i.e. by an element of the closure.
y = project_to_axis(trail, p)
print(f"projected to axis {y.axis}: {[str(v) for v in y.points]}")
print(f"step lengths: {[str(v) for v in y.step_lengths()]}")
print()

# Stage 5: rewrite the sequence down to a single span.  Loops drop for
# free, a position between its neighbours merges two steps into a sum,
# and the zigzag that remains merges three steps with the triple
# operation.  The log is a function of the sequence, so certificates do
# not carry it.  A checker does not re-run the rewrites either: replay()
# verifies the derivation from the generators and compares its value with
# the result, and the earlier stages are recomputed and compared.
def fmt(d):
    """Compact one-line rendering of a derivation tree."""
    kids = children(d)
    if not kids:
        return str(d.value)
    return f"{type(d).__name__.lower()}({', '.join(fmt(k) for k in kids)})"


cert = reduce_sequence(y, cl.derivation_for)
for step in cert.steps:
    print(f"  {step.kind:6s} at {step.i}: {tuple(str(v) for v in step.lengths)}"
          + (f" -> {step.merged}" if step.merged is not None else ""))
print(f"result: {cert.result} = {fmt(cert.derivation)}")
print(f"derivation verified: {replay(cert, gens)}")
