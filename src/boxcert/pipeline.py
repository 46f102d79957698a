"""End-to-end certification and independent certificate checking.

``certify`` runs the whole construction on a validated partition: bounded
closure of the generators, per-box axis assignment, trail graph, parity
audit, greedy corner-to-corner trail, projection, and reduction.  The result
is a :class:`Certificate` binding every intermediate artifact to the
partition via a content digest.  :func:`check_certificate` re-checks it
without trusting the producer: it verifies the derivation and the claimed
length, recomputes every other stage and compares, never raises on malformed
input, and reports the failing stage instead.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional

from . import jsonio
from .closure import GeneratorSet, bounded_closure
from .errors import ParityViolation, SoundnessError
from .geometry import (
    Partition,
    Point,
    format_point,
    format_rat,
    validate_partition,
)
from .reduction import ReductionCertificate, reduce_sequence, replay
from .trailgraph import (
    AxisAssignment,
    YSequence,
    assign_axes,
    build_graph,
    extract_trail,
    parity_audit,
    project_to_axis,
    Trail,
)


class PartitionInvalid(ValueError):
    """Raised by certify when the input partition fails validation."""

    def __init__(self, report) -> None:
        self.report = report
        super().__init__(report.summary())


@dataclass(frozen=True)
class ClaimedSide:
    """The certified conclusion: the outer box side on ``axis`` has ``length``."""

    axis: int
    length: Fraction


@dataclass(frozen=True, eq=False)
class Certificate:
    """Everything needed to re-check one certified instance.

    ``partition_sha256`` pins the exact partition (canonical JSON digest);
    the remaining fields record each pipeline stage.  The claimed side length
    always equals the reduction result, and its derivation uses generators
    only.
    """

    partition_sha256: str
    gens: GeneratorSet
    bound: Fraction
    assignment: AxisAssignment
    trail: Trail
    y: YSequence
    reduction: ReductionCertificate
    claimed_side: ClaimedSide


def certify(
    p: Partition, g: GeneratorSet, *, start: Optional[Point] = None
) -> Certificate:
    """Produce a certificate that the outer box has a side in the closure of g.

    Deterministic: with fixed inputs the certificate (and its JSON form) is
    byte-identical across runs.  Raises :class:`PartitionInvalid` for invalid
    partitions, :class:`~boxcert.errors.HypothesisViolated` when some box has
    no side in the closure, and a :class:`~boxcert.errors.SoundnessError`
    subclass if an internal invariant fails (which means a bug, not a
    property of the input).
    """
    report = validate_partition(p)
    if not report.ok:
        raise PartitionInvalid(report)
    bound = max(p.outer.extents())
    closure = bounded_closure(g, bound)
    assignment = assign_axes(p, closure.__contains__)
    graph = build_graph(p, assignment)
    parity = parity_audit(graph)
    if not parity.ok:
        raise ParityViolation(
            tuple(e.point for e in parity.violations()),
            "degree parity violated at "
            + ", ".join(format_point(e.point) for e in parity.violations()),
        )
    trail = extract_trail(graph, start)
    y = project_to_axis(trail, p.outer)
    axis_extents = {
        p.boxes[k - 1].extent(y.axis)
        for k in range(1, len(p.boxes) + 1)
        if assignment.axis_of(k) == y.axis
    }
    for step in y.step_lengths():
        if step not in axis_extents:
            raise SoundnessError(
                f"projected step {format_rat(step)} is not an assigned extent "
                f"on axis {y.axis}"
            )

    def leaf_derivation(value: Fraction):
        d = closure.derivation_for(value)
        if d is None:
            raise SoundnessError(
                f"step length {format_rat(value)} is outside the bounded closure"
            )
        return d

    reduction = reduce_sequence(y, leaf_derivation)
    if reduction.result != p.outer.extent(y.axis):
        raise SoundnessError(
            f"reduction result {format_rat(reduction.result)} is not the outer "
            f"extent on axis {y.axis}"
        )
    return Certificate(
        partition_sha256=jsonio.partition_digest(p),
        gens=g,
        bound=bound,
        assignment=assignment,
        trail=trail,
        y=y,
        reduction=reduction,
        claimed_side=ClaimedSide(axis=y.axis, length=reduction.result),
    )


@dataclass(frozen=True)
class CheckResult:
    """Outcome of :func:`check_certificate`: truthy iff accepted."""

    ok: bool
    reasons: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def check_certificate(cert: Certificate, p: Partition, g: GeneratorSet) -> CheckResult:
    """Independently re-check a certificate against the partition.

    The soundness kernel is two checks: :func:`~boxcert.closure.verify_derivation`
    (every leaf is a generator, every node is recomputed exactly) shows the
    result is in the closure, and the claimed length must equal the outer
    extent.  Everything else is an audit that explains the derivation, done
    by recomputation: each stage is rebuilt from already-checked inputs and
    must equal what the certificate records.  Only the trail :func:`certify`
    would produce is accepted; a valid but non-canonical trail is rejected.
    The rewrite log is not on the wire: it is a function of the recorded
    sequence, so :func:`replay` recomputes it.

    Stages, in order (the first failure is reported with its stage tag):
    digest, partition validity, generator match, assignment membership, the
    trail re-extracted from the recorded start on a rebuilt graph, the
    projection, the reduction re-run by :func:`replay` followed by
    derivation verification, and the claimed side.  Never raises: malformed
    certificates yield ``CheckResult(False, ...)``.
    """
    reasons: list[str] = []

    def fail(stage: str, detail: str) -> CheckResult:
        reasons.append(f"{stage}: {detail}")
        return CheckResult(ok=False, reasons=tuple(reasons))

    try:
        if jsonio.partition_digest(p) != cert.partition_sha256:
            return fail("digest", "partition digest does not match the certificate")
        report = validate_partition(p)
        if not report.ok:
            return fail("partition", report.summary())
        if cert.gens.gens != g.gens:
            return fail(
                "gens", f"certificate gens {cert.gens} differ from supplied {g}"
            )
        n = p.dim
        k_count = len(p.boxes)
        if len(cert.assignment) != k_count:
            return fail(
                "assignment",
                f"{len(cert.assignment)} entries for {k_count} boxes",
            )
        if any(not 1 <= a <= n for a in cert.assignment.axes):
            return fail("assignment", "axis index out of range")
        # Box extents never exceed the outer extent, so a larger recorded
        # bound cuts off nothing more; the partition caps the closure's cost.
        closure = bounded_closure(g, min(cert.bound, max(p.outer.extents())))
        for k in range(1, k_count + 1):
            extent = p.boxes[k - 1].extent(cert.assignment.axis_of(k))
            if extent not in closure:
                return fail(
                    "assignment",
                    f"box k={k} extent {format_rat(extent)} not in the closure",
                )
        graph = build_graph(p, cert.assignment)
        t = cert.trail
        if t.start not in set(p.outer.corners()):
            return fail("trail", "start is not an outer corner")
        if extract_trail(graph, t.start) != t:
            return fail("trail", "recomputed trail from the recorded start differs")
        projected = project_to_axis(t, p.outer)
        if projected != cert.y:
            return fail("projection", "recomputed position sequence differs")
        if cert.reduction.sequence != cert.y:
            return fail("reduction", "reduction input is not the recorded sequence")
        value = replay(cert.reduction, g)
        claim = cert.claimed_side
        if not 1 <= claim.axis <= n:
            return fail("claim", f"axis {claim.axis} out of range")
        if claim.axis != cert.y.axis or claim.length != cert.y.length:
            return fail("claim", "claimed side does not match the projection")
        if value != claim.length:
            return fail("claim", "replayed result does not match the claimed length")
        if p.outer.extent(claim.axis) != claim.length:
            return fail("claim", "claimed length is not the outer extent")
    except Exception as exc:  # malformed data must reject, not raise
        return fail("error", f"{type(exc).__name__}: {exc}")
    return CheckResult(ok=True, reasons=())


# --- certificate wire format ------------------------------------------------


def certificate_to_json(cert: Certificate) -> dict:
    return {
        "partition_sha256": cert.partition_sha256,
        "gens": [format_rat(v) for v in cert.gens.sorted_values],
        "bound": format_rat(cert.bound),
        "assignment": list(cert.assignment.axes),
        "trail": jsonio.trail_to_json(cert.trail),
        "y": jsonio.ysequence_to_json(cert.y),
        "reduction": {
            "result": format_rat(cert.reduction.result),
            "derivation": jsonio.derivation_to_json(cert.reduction.derivation),
        },
        "claimed_side": {
            "axis": cert.claimed_side.axis,
            "length": format_rat(cert.claimed_side.length),
        },
    }


def certificate_from_json(obj: Any) -> Certificate:
    d = jsonio.expect_dict(obj, "certificate")
    digest = jsonio.get_key(d, "partition_sha256", "certificate")
    if not isinstance(digest, str):
        raise ValueError("certificate.partition_sha256: expected a string")
    gens = GeneratorSet(
        frozenset(
            jsonio.rat_from_json(v, f"certificate.gens[{i}]")
            for i, v in enumerate(
                jsonio.expect_list(jsonio.get_key(d, "gens", "certificate"), "certificate.gens")
            )
        )
    )
    axes = tuple(
        jsonio.expect_int(a, f"certificate.assignment[{i}]")
        for i, a in enumerate(
            jsonio.expect_list(
                jsonio.get_key(d, "assignment", "certificate"), "certificate.assignment"
            )
        )
    )
    y = jsonio.ysequence_from_json(jsonio.get_key(d, "y", "certificate"))
    claim_obj = jsonio.expect_dict(
        jsonio.get_key(d, "claimed_side", "certificate"), "certificate.claimed_side"
    )
    return Certificate(
        partition_sha256=digest,
        gens=gens,
        bound=jsonio.rat_from_json(jsonio.get_key(d, "bound", "certificate"), "certificate.bound"),
        assignment=AxisAssignment(axes),
        trail=jsonio.trail_from_json(jsonio.get_key(d, "trail", "certificate")),
        y=y,
        reduction=jsonio.reduction_from_json(jsonio.get_key(d, "reduction", "certificate"), y),
        claimed_side=ClaimedSide(
            axis=jsonio.expect_int(
                jsonio.get_key(claim_obj, "axis", "certificate.claimed_side"),
                "certificate.claimed_side.axis",
            ),
            length=jsonio.rat_from_json(
                jsonio.get_key(claim_obj, "length", "certificate.claimed_side"),
                "certificate.claimed_side.length",
            ),
        ),
    )
