"""End-to-end certification and independent certificate checking.

One private function, :func:`_construct`, runs the stages both sides share:
validation, bounded closure of the generators, per-box axis assignment,
trail graph, parity audit, greedy corner-to-corner trail and projection.
``certify`` is that sequence plus the reduction and packaging into a
:class:`Certificate` bound to the partition by a content digest; the shared
stages' results are written once, as the certificate's audit record, by
:func:`_write_audit`.  :func:`check_certificate` re-checks a certificate
without trusting the producer: it runs the soundness kernel first, then the
same shared stages from the recorded trail start, writes their results with
the same writer and compares the two records field by field, so each audit
field is accepted only as certify writes it.  It never raises on malformed
input, and reports the failing stage instead.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Any, Iterable, Optional

from . import jsonio
from .closure import BoundedClosure, GeneratorSet, bounded_closure
from .errors import HypothesisViolated, ParityViolation, ReplayMismatch, SoundnessError
from .geometry import (
    Partition,
    Point,
    format_point,
    format_rat,
    rank_partition,
    validate_partition,
)
from .reduction import ReductionCertificate, reduce_sequence, replay
from .trailgraph import (
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

    ``partition_sha256`` pins the exact partition (canonical JSON digest).
    ``gens_json`` is the generator list as written, and ``gens`` its set;
    :func:`check_certificate` accepts only the list certify writes, sorted,
    distinct and in lowest terms.
    ``reduction`` derives the claimed side length from generators only, and
    always ends at ``claimed_side.length``.  ``start`` is the trail's start
    corner, from which :func:`check_certificate` re-runs the shared stages.
    ``audit`` records those stages' results as one JSON record,
    ``{"bound", "assignment", "trail", "y"}``, exactly as written; check
    compares it with the record it writes itself and decodes nothing in it.
    ``envelope`` keeps the rest of the document outside the derivation table
    as written, for check to compare in the same way: ``{"keys",
    "reduction", "claimed_side"}``, the set of top-level keys, the
    ``reduction`` object without its ``derivation`` and the
    ``claimed_side`` object.

    ``bound``, ``assignment``, ``trail`` and ``y`` read the audit record:
    each is decoded on first read by the :mod:`~boxcert.jsonio` parsers,
    through ``rats``, the rational strings already parsed from the
    certificate's document, so equal strings in one document still give one
    ``Fraction``.  A malformed field raises ``ValueError`` when it is read.
    """

    partition_sha256: str
    gens: GeneratorSet
    gens_json: list[Any]
    start: Point
    audit: dict[str, Any]
    reduction: ReductionCertificate
    claimed_side: ClaimedSide
    envelope: dict[str, Any]
    rats: jsonio.RatTable = field(default_factory=dict, repr=False)

    @cached_property
    def bound(self) -> Fraction:
        return jsonio.rat_from_json(
            self.audit["bound"], "certificate.bound", rats=self.rats
        )

    @cached_property
    def assignment(self) -> tuple[int, ...]:
        where = "certificate.assignment"
        axes = jsonio.expect_list(self.audit["assignment"], where)
        return tuple(jsonio.expect_int(a, where, i) for i, a in enumerate(axes))

    @cached_property
    def trail(self) -> Trail:
        return jsonio.trail_from_json(self.audit["trail"], rats=self.rats)

    @cached_property
    def y(self) -> YSequence:
        return jsonio.ysequence_from_json(self.audit["y"], rats=self.rats)


def _write_audit(
    bound: Fraction, assignment: tuple[int, ...], trail: Trail, y: YSequence
) -> dict[str, Any]:
    """The audit record of a certificate, as certify writes it and check
    rewrites it."""
    return {
        "bound": format_rat(bound),
        "assignment": list(assignment),
        "trail": jsonio.trail_to_json(trail),
        "y": jsonio.ysequence_to_json(y),
    }


def _write_gens(g: GeneratorSet) -> list[str]:
    """The generator list, as certify writes it and check rewrites it."""
    return [format_rat(v) for v in g.sorted_values]


#: The top-level keys of a certificate document.
_KEYS = frozenset(
    {"partition_sha256", "gens", "bound", "assignment", "trail", "y", "reduction",
     "claimed_side"}
)


def _write_envelope(claim: ClaimedSide) -> dict[str, Any]:
    """The envelope of a certificate of ``claim``, as certify writes it and
    check rewrites it: the reduction's result is the claimed length."""
    length = format_rat(claim.length)
    return {
        "keys": _KEYS,
        "reduction": {"result": length},
        "claimed_side": {"axis": claim.axis, "length": length},
    }


def _ints(values: Iterable[Any]) -> bool:
    """True iff every value is a JSON integer.  ``true`` and ``1.0`` compare
    equal to ``1``, so a recorded audit field equal to the written one may
    still hold them where the writer puts integers."""
    return all(type(v) is int for v in values)


def _construct(
    p: Partition, g: GeneratorSet, start: Optional[Point]
) -> tuple[tuple[Fraction, ...], BoundedClosure, tuple[int, ...], Trail, YSequence]:
    """The stages certify and check share, from validation to projection.

    Returns the outer box's extents, whose largest bounds the closure, the
    closure, the axis assignment, the trail from ``start`` (the smallest
    outer corner when None) and its projection.
    Each stage is looked up as a global of this module at call time, so a
    tracer that wraps those globals sees certify's and check's calls alike.
    Validation, axis assignment, the graph, the projection and the step
    check share one rank view of the partition.  The step check reads the
    projection's ranks: each step's rank pair, lower end first, must be the
    span on the projection axis of a box assigned that axis, which implies
    that its length is that box's assigned extent.  It subtracts nothing.
    """
    ranks = rank_partition(p)
    report = validate_partition(ranks)
    if not report.ok:
        raise PartitionInvalid(report)
    extents = p.outer.extents()
    closure = bounded_closure(g, max(extents))
    assignment = assign_axes(ranks, closure.__contains__)
    graph = build_graph(ranks, assignment)
    parity = parity_audit(graph)
    if not parity.ok:
        raise ParityViolation(
            tuple(e.point for e in parity.violations()),
            "degree parity violated at "
            + ", ".join(format_point(e.point) for e in parity.violations()),
        )
    trail = extract_trail(graph, start)
    y = project_to_axis(trail, ranks)
    j = y.axis - 1
    spans = {
        span
        for span, axis in zip(zip(ranks.lo[j], ranks.hi[j]), assignment)
        if axis == y.axis
    }
    if len(y.ranks) != len(y.points):
        raise SoundnessError("projected positions carry no ranks")
    for i, (a, b) in enumerate(zip(y.ranks, y.ranks[1:])):
        if ((a, b) if a < b else (b, a)) not in spans:
            raise SoundnessError(
                f"projected step {format_rat(y.points[i])} -> "
                f"{format_rat(y.points[i + 1])} is not the span of a box "
                f"assigned axis {y.axis}"
            )
    return extents, closure, assignment, trail, y


def certify(
    p: Partition, g: GeneratorSet, *, start: Optional[Point] = None
) -> Certificate:
    """Produce a certificate that the outer box has a side in the closure of g.

    Deterministic: with fixed inputs the certificate (and its JSON form) is
    byte-identical across runs.  Raises :class:`PartitionInvalid` for invalid
    partitions, :class:`~boxcert.errors.HypothesisViolated` when some box has
    no side in the closure, ``ValueError`` when ``start`` is not an exact
    outer corner, and a :class:`~boxcert.errors.SoundnessError` subclass if an
    internal invariant fails (which means a bug, not a property of the input).
    """
    extents, closure, assignment, trail, y = _construct(p, g, start)

    def leaf_derivation(value: Fraction):
        d = closure.derivation_for(value)
        if d is None:
            raise SoundnessError(
                f"step length {format_rat(value)} is outside the bounded closure"
            )
        return d

    reduction = reduce_sequence(y, leaf_derivation)
    if reduction.result != extents[y.axis - 1]:
        raise SoundnessError(
            f"reduction result {format_rat(reduction.result)} is not the outer "
            f"extent on axis {y.axis}"
        )
    claim = ClaimedSide(axis=y.axis, length=reduction.result)
    return Certificate(
        partition_sha256=jsonio.partition_digest(p),
        gens=g,
        gens_json=_write_gens(g),
        start=trail.start,
        audit=_write_audit(max(extents), assignment, trail, y),
        reduction=reduction,
        claimed_side=claim,
        envelope=_write_envelope(claim),
    )


@dataclass(frozen=True)
class CheckResult:
    """Outcome of :func:`check_certificate`: truthy iff accepted."""

    ok: bool
    reasons: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def _kernel(cert: Certificate, p: Partition, g: GeneratorSet) -> Optional[tuple[str, str]]:
    """The soundness kernel: the first failing ``(stage, detail)``, or None.

    The derivation uses only generators of ``g`` and evaluates to the
    recorded result (:func:`~boxcert.reduction.replay`, looked up as a global
    of this module), the result is the claimed length, and the claimed length
    is the outer extent on an axis of ``p``.  Nothing else is read.
    """
    try:
        value = replay(cert.reduction, g)
    except ReplayMismatch as exc:
        return "reduction", exc.reason
    claim = cert.claimed_side
    if not 1 <= claim.axis <= p.dim:
        return "claim", f"axis {claim.axis} out of range"
    if value != claim.length:
        return "claim", "derived result does not match the claimed length"
    if p.outer.extent(claim.axis) != claim.length:
        return "claim", "claimed length is not the outer extent"
    return None


def check_certificate(cert: Certificate, p: Partition, g: GeneratorSet) -> CheckResult:
    """Independently re-check a certificate against the partition.

    The soundness kernel is :func:`_kernel`: :func:`~boxcert.reduction.replay`
    (every leaf of the derivation is a generator, and the root's value, which
    each node computed exactly when it was built, is the recorded result) plus
    "the claimed length is the outer extent".  It runs before any partition
    work.  Everything else is an audit by recomputation: :func:`certify`'s own
    stages are re-run from the recorded trail start, their results are
    written with certify's writer, :func:`_write_audit`, and each field of
    the recorded audit must equal the written one as JSON, integers written
    as integers.  So each audit field is accepted only in the one spelling
    :func:`certify` writes, and nothing inside it is decoded.  The
    certificate's top-level keys, its reduction result and its claimed side
    are compared as written too (:func:`_write_envelope`).  The
    derivation is verified, not rebuilt.

    Stages, in order (the first failure is reported with its stage tag):
    ``digest``, ``gens`` (the recorded list must be the one certify writes
    for ``g``), ``certificate`` (the top-level keys must be those certify
    writes), the kernel (``reduction``, ``claim``), then the
    shared stages (``partition`` when validation fails, ``assignment`` when
    a box has no side in the closure, ``trail`` when the start is not an
    exact outer corner), then equality of the recorded ``bound``,
    ``assignment``, ``trail`` and ``y`` (reported as ``projection``) with
    the written ones, of the claim with the recomputed projection
    (``claim``), and of the reduction object without its table
    (``reduction``) and the claimed side (``claim``) with the written ones.
    Never raises: malformed certificates yield ``CheckResult(False, ...)``.
    """
    reasons: list[str] = []

    def fail(stage: str, detail: str) -> CheckResult:
        reasons.append(f"{stage}: {detail}")
        return CheckResult(ok=False, reasons=tuple(reasons))

    try:
        if jsonio.partition_digest(p) != cert.partition_sha256:
            return fail("digest", "partition digest does not match the certificate")
        gens = _write_gens(g)
        if cert.gens_json != gens:
            detail = f"certificate gens {cert.gens_json} differ from supplied {gens}"
            return fail("gens", detail)
        keys = cert.envelope["keys"]
        if keys != _KEYS:
            detail = f"certificate keys {sorted(keys)} differ from {sorted(_KEYS)}"
            return fail("certificate", detail)
        failure = _kernel(cert, p, g)
        if failure is not None:
            return fail(*failure)
        try:
            extents, _, assignment, trail, y = _construct(p, g, cert.start)
        except PartitionInvalid as exc:
            return fail("partition", exc.report.summary())
        except HypothesisViolated as exc:
            return fail("assignment", str(exc))
        except ValueError as exc:  # extract_trail: the start is not an exact outer corner
            return fail("trail", str(exc))
        recorded = cert.audit
        written = _write_audit(max(extents), assignment, trail, y)
        if recorded["bound"] != written["bound"]:
            return fail("bound", f"bound is not the outer extent {written['bound']}")
        axes = recorded["assignment"]
        if axes != written["assignment"] or not _ints(axes):
            return fail("assignment", "recomputed axis assignment differs")
        walk = recorded["trail"]
        if walk != written["trail"] or not _ints(
            v for step in walk["steps"] for v in (step["box"], step["edge"])
        ):
            return fail("trail", "recomputed trail from the recorded start differs")
        if recorded["y"] != written["y"] or type(recorded["y"]["axis"]) is not int:
            return fail("projection", "recomputed position sequence differs")
        claim = ClaimedSide(axis=y.axis, length=y.length)
        if cert.claimed_side != claim:
            return fail("claim", "claimed side does not match the projection")
        written = _write_envelope(claim)
        if cert.envelope["reduction"] != written["reduction"]:
            return fail("reduction", "reduction is not written as certify writes it")
        if cert.envelope["claimed_side"] != written["claimed_side"]:
            return fail("claim", "claimed side is not written as certify writes it")
    except Exception as exc:  # malformed data must reject, not raise
        return fail("error", f"{type(exc).__name__}: {exc}")
    return CheckResult(ok=True, reasons=())


# --- certificate wire format ------------------------------------------------


def certificate_to_json(cert: Certificate) -> dict:
    """The certificate's JSON document.  ``gens`` and the audit fields are
    copied from ``cert`` as written, and the document shares their contents;
    the reduction and the claimed side are written from ``cert.reduction``
    and ``cert.claimed_side``."""
    return {
        "partition_sha256": cert.partition_sha256,
        "gens": cert.gens_json,
        **cert.audit,
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
    """Parse a certificate: decode what the kernel and the recomputation read.

    That is the digest, ``gens``, the reduction (its result and derivation
    table), the claimed side and the trail's start corner; each distinct
    rational string among them is parsed once, and ``gens`` is also kept as
    written, for the ``gens`` stage.  The audit fields ``bound``
    (a string or an integer), ``assignment`` (an array), ``trail`` and ``y``
    (objects) are checked for presence and that JSON type only, and kept as
    written, for :func:`check_certificate` to compare with the record it
    writes.  So are the top-level key set, the ``reduction`` object less its
    table and the ``claimed_side`` object (``Certificate.envelope``); keys
    the parser does not read are not rejected here.
    """
    rats: jsonio.RatTable = {}
    d = jsonio.expect_dict(obj, "certificate")
    digest = jsonio.get_key(d, "partition_sha256", "certificate")
    if not isinstance(digest, str):
        raise ValueError("certificate.partition_sha256: expected a string")
    gens_json = jsonio.get_key(d, "gens", "certificate")
    gens = GeneratorSet(
        frozenset(jsonio.rats_from_json(gens_json, "certificate.gens", rats=rats))
    )
    bound = jsonio.get_key(d, "bound", "certificate")
    if isinstance(bound, bool) or not isinstance(bound, (str, int)):
        raise ValueError(
            f'certificate.bound: expected an integer or a "p/q" string, got {bound!r}'
        )
    audit = {
        "bound": bound,
        "assignment": jsonio.expect_list(
            jsonio.get_key(d, "assignment", "certificate"), "certificate.assignment"
        ),
        "trail": jsonio.expect_dict(jsonio.get_key(d, "trail", "certificate"), "trail"),
        "y": jsonio.expect_dict(jsonio.get_key(d, "y", "certificate"), "y"),
    }
    start = jsonio.point_from_json(
        jsonio.get_key(audit["trail"], "start", "trail"), "trail.start", rats=rats
    )
    claim_obj = jsonio.expect_dict(
        jsonio.get_key(d, "claimed_side", "certificate"), "certificate.claimed_side"
    )
    reduction = jsonio.get_key(d, "reduction", "certificate")
    return Certificate(
        partition_sha256=digest,
        gens=gens,
        gens_json=gens_json,
        start=start,
        audit=audit,
        reduction=jsonio.reduction_from_json(reduction, rats=rats),
        claimed_side=ClaimedSide(
            axis=jsonio.expect_int(
                jsonio.get_key(claim_obj, "axis", "certificate.claimed_side"),
                "certificate.claimed_side.axis",
            ),
            length=jsonio.rat_from_json(
                jsonio.get_key(claim_obj, "length", "certificate.claimed_side"),
                "certificate.claimed_side.length",
                rats=rats,
            ),
        ),
        envelope={
            "keys": frozenset(d),
            "reduction": {k: v for k, v in reduction.items() if k != "derivation"},
            "claimed_side": claim_obj,
        },
        rats=rats,
    )
