"""End-to-end certification and independent certificate checking.

One private function, :func:`_construct`, runs the stages both sides share:
validation, bounded closure of the generators, per-box axis assignment,
trail graph, parity audit, the greedy trail from the outer box's lowest
corner and projection.  They read the partition and the generators and
nothing else, so a partition and its generators have one walk.
``certify`` is that sequence plus the reduction and packaging into a
:class:`Certificate`: one JSON document, bound to the partition by a content
digest and written by one function, :func:`_write`.
:func:`check_certificate` re-checks a certificate without trusting the
producer: it runs the soundness kernel first (:func:`_kernel`, which calls
the trusted base: :func:`~boxcert.reduction.replay` and
:mod:`boxcert.kernel`), then the shared stages, writes the document certify
would have written with the same writer and compares it with the
certificate's as written.
Only the derivation table is not written back: the parser holds each entry
to the form certify writes.  Check never raises on malformed input, and
reports the failing stage instead.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Any, Iterable, Optional

from . import jsonio
from .closure import BoundedClosure, GeneratorSet, bounded_closure
from .errors import (
    HypothesisViolated,
    ParityViolation,
    ReplayMismatch,
    SoundnessError,
    TooManyCorners,
)
from .geometry import Partition, format_point, rank_partition, validate_partition
from .kernel import (
    RatTable,
    check_claim,
    expect_dict,
    expect_int,
    expect_list,
    format_rat,
    get_key,
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

    ``document`` is the certificate's JSON document exactly as written: the
    one :func:`certify` wrote, or the one :func:`certificate_from_json` was
    given.  The fields beside it are decoded from it: the generator set
    ``gens``, and what the kernel reads, ``reduction``, which derives
    ``claimed_side.length`` from generators only, and ``claimed_side``.

    ``partition_sha256`` (the canonical JSON digest of the partition),
    ``bound``, ``assignment``, ``trail`` and ``y`` read the document; the
    last four are decoded on first read through ``rats``, the rational
    strings already parsed from the document, so equal strings in one
    document still give one ``Fraction``.  A malformed field raises
    ``ValueError`` when it is read.

    The document is never rewritten from the decoded fields: a field set with
    ``dataclasses.replace`` changes what check reads, not the document, which
    :func:`certificate_to_json` returns as it is, the same dict.  Editing that
    dict edits the certificate, and views already read do not follow.
    """

    gens: GeneratorSet
    reduction: ReductionCertificate
    claimed_side: ClaimedSide
    document: dict[str, Any] = field(repr=False)
    rats: RatTable = field(default_factory=dict, repr=False)

    @property
    def partition_sha256(self) -> str:
        return self.document["partition_sha256"]

    @cached_property
    def bound(self) -> Fraction:
        return jsonio.rat_from_json(
            self.document["bound"], "certificate.bound", rats=self.rats
        )

    @cached_property
    def assignment(self) -> tuple[int, ...]:
        where = "certificate.assignment"
        axes = expect_list(self.document["assignment"], where)
        return tuple(expect_int(a, where, i) for i, a in enumerate(axes))

    @cached_property
    def trail(self) -> Trail:
        return jsonio.trail_from_json(self.document["trail"], rats=self.rats)

    @cached_property
    def y(self) -> YSequence:
        return jsonio.ysequence_from_json(self.document["y"], rats=self.rats)


def _write(
    digest: str,
    g: GeneratorSet,
    bound: Fraction,
    assignment: tuple[int, ...],
    trail: Trail,
    y: YSequence,
    claim: ClaimedSide,
    table: list[Any],
) -> dict[str, Any]:
    """The certificate document, as certify writes it and check rewrites it
    around the certificate's own derivation ``table``.  The reduction's
    result is the claimed length."""
    length = format_rat(claim.length)
    return {
        "partition_sha256": digest,
        "gens": [format_rat(v) for v in g.sorted_values],
        "bound": format_rat(bound),
        "assignment": list(assignment),
        "trail": jsonio.trail_to_json(trail),
        "y": jsonio.ysequence_to_json(y),
        "reduction": {"result": length, "derivation": table},
        "claimed_side": {"axis": claim.axis, "length": length},
    }


def _ints(values: Iterable[Any]) -> bool:
    """True iff every value is a JSON integer: ``true`` and ``1.0`` equal ``1``."""
    return all(type(v) is int for v in values)


#: The stage and detail that report a key of a certificate document whose
#: value is not the one check writes, in the order they are compared.  The
#: digest and ``gens``, the other two keys, are compared before the kernel.
_STAGES: dict[str, tuple[str, str]] = {
    "bound": ("bound", "bound is not the outer extent"),
    "assignment": ("assignment", "recomputed axis assignment differs"),
    "trail": ("trail", "recomputed trail differs"),
    "y": ("projection", "recomputed position sequence differs"),
    "claimed_side": ("claim", "claimed side is not written as certify writes it"),
    "reduction": ("reduction", "reduction is not written as certify writes it"),
}


def _construct(
    p: Partition, g: GeneratorSet
) -> tuple[tuple[Fraction, ...], BoundedClosure, tuple[int, ...], Trail, YSequence]:
    """The stages certify and check share, from validation to projection.

    Returns the outer box's extents, whose largest bounds the closure, the
    closure, the axis assignment, the trail from the outer box's lowest
    corner and its projection.
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
    trail = extract_trail(graph)
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


def certify(p: Partition, g: GeneratorSet) -> Certificate:
    """Produce a certificate that the outer box has a side in the closure of g.

    Deterministic: with fixed inputs the certificate (and its JSON form) is
    byte-identical across runs.  Raises :class:`PartitionInvalid` for invalid
    partitions, :class:`~boxcert.errors.HypothesisViolated` when some box has
    no side in the closure, :class:`~boxcert.errors.TooManyCorners` when the
    partition has more corner coordinates than the stages enumerate, and a
    :class:`~boxcert.errors.SoundnessError` subclass if an internal invariant
    fails (which means a bug, not a property of the input).
    """
    extents, closure, assignment, trail, y = _construct(p, g)

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
    table = jsonio.derivation_to_json(reduction.derivation)
    return Certificate(
        gens=g,
        reduction=reduction,
        claimed_side=claim,
        document=_write(
            jsonio.partition_digest(p), g, max(extents), assignment, trail, y, claim, table
        ),
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

    :func:`~boxcert.reduction.replay` (looked up as a global of this module):
    the derivation uses only generators of ``g`` and evaluates to the
    recorded result.  Then :func:`~boxcert.kernel.check_claim`: the result is
    the claimed length, and the claimed length is the outer extent on an axis
    of ``p``.  Nothing else is read.
    """
    try:
        value = replay(cert.reduction, g)
    except ReplayMismatch as exc:
        return "reduction", exc.reason
    claim = cert.claimed_side
    return check_claim(value, claim.axis, claim.length, p.outer.extents())


def check_certificate(cert: Certificate, p: Partition, g: GeneratorSet) -> CheckResult:
    """Independently re-check a certificate against the partition.

    The soundness kernel is :func:`_kernel`: :func:`~boxcert.reduction.replay`
    (every leaf of the derivation is a generator, and the root's value, which
    each node computed exactly when it was built, is the recorded result) and
    then :func:`~boxcert.kernel.check_claim` ("the claimed length is the
    outer extent").  With the table parser, these are the trusted base,
    :mod:`boxcert.kernel` and ``replay``.  It runs before any partition
    work.  Everything else is an audit by recomputation: :func:`certify`'s
    stages are re-run from the partition and ``g``, :func:`_write` writes
    the document certify would have written around the certificate's own
    derivation table, and the certificate's document must equal it, integers
    written as integers.  So every field is accepted only as certify writes
    it.  The derivation is verified, not rebuilt, and the parser holds its
    table to the form certify writes.

    Stages, in order (the first failure is reported with its stage tag):
    ``digest``, ``gens`` (the recorded list must be the one certify writes
    for ``g``), ``certificate`` (the top-level keys must be those certify
    writes), the kernel (``reduction``, ``claim``), the shared stages
    (``partition`` when validation fails or the partition has more corner
    coordinates than the stages enumerate, ``assignment`` when a box has no
    side in the closure), then one comparison of the whole document with
    the written one; when they differ, the first key of :data:`_STAGES` that differs
    names the stage (``bound``, ``assignment``, ``trail``, ``projection``
    for ``y``, ``claim`` for ``claimed_side``, ``reduction``).  Then the
    type pass (``true`` or ``1.0`` where certify writes an integer, under
    the stage of its key), and last the decoded claim against the
    recomputed projection (``claim``).
    Never raises: malformed certificates yield ``CheckResult(False, ...)``.
    """
    reasons: list[str] = []

    def fail(stage: str, detail: str) -> CheckResult:
        reasons.append(f"{stage}: {detail}")
        return CheckResult(ok=False, reasons=tuple(reasons))

    try:
        digest = jsonio.partition_digest(p)
        doc = cert.document
        if digest != doc["partition_sha256"]:
            return fail("digest", "partition digest does not match the certificate")
        gens = [format_rat(v) for v in g.sorted_values]
        if doc["gens"] != gens:
            return fail("gens", f"certificate gens {doc['gens']} differ from supplied {gens}")
        keys = {"partition_sha256", "gens", *_STAGES}
        if doc.keys() != keys:
            detail = f"certificate keys {sorted(doc)} differ from {sorted(keys)}"
            return fail("certificate", detail)
        failure = _kernel(cert, p, g)
        if failure is not None:
            return fail(*failure)
        try:
            extents, _, assignment, trail, y = _construct(p, g)
        except PartitionInvalid as exc:
            return fail("partition", exc.report.summary())
        except TooManyCorners as exc:
            return fail("partition", str(exc))
        except HypothesisViolated as exc:
            return fail("assignment", str(exc))
        claim = ClaimedSide(axis=y.axis, length=y.length)
        table = doc["reduction"]["derivation"]
        written = _write(digest, g, max(extents), assignment, trail, y, claim, table)
        if doc != written:
            key = next(k for k in _STAGES if doc[k] != written[k])
            return fail(*_STAGES[key])
        for key, values in (
            ("assignment", doc["assignment"]),
            ("trail", (v for step in doc["trail"]["steps"] for v in (step["box"], step["edge"]))),
            ("y", (doc["y"]["axis"],)),
            ("claimed_side", (doc["claimed_side"]["axis"],)),
        ):
            if not _ints(values):
                return fail(*_STAGES[key])
        if cert.claimed_side != claim:
            return fail("claim", "claimed side does not match the projection")
    except Exception as exc:  # malformed data must reject, not raise
        return fail("error", f"{type(exc).__name__}: {exc}")
    return CheckResult(ok=True, reasons=())


# --- certificate wire format ------------------------------------------------


def certificate_to_json(cert: Certificate) -> dict:
    """The certificate's JSON document: ``cert.document`` itself, not a copy.

    Decoded fields replaced with ``dataclasses.replace`` are not written
    back, so the document is what was certified or parsed.
    """
    return cert.document


def certificate_from_json(obj: Any) -> Certificate:
    """Parse a certificate: decode what the kernel reads.

    That is ``gens``, the reduction (its result and derivation table) and the
    claimed side; each distinct rational string among them is parsed once.
    The digest must be a string, and the fields ``bound`` (a string or an
    integer), ``assignment`` (an array), ``trail`` and ``y`` (objects) are
    checked for presence and that JSON type only.
    The document is kept as given, for :func:`check_certificate` to compare
    with the one it writes; keys the parser does not read are not rejected
    here.
    """
    rats: RatTable = {}
    d = expect_dict(obj, "certificate")
    digest = get_key(d, "partition_sha256", "certificate")
    if not isinstance(digest, str):
        raise ValueError("certificate.partition_sha256: expected a string")
    listed = jsonio.rats_from_json(
        get_key(d, "gens", "certificate"), "certificate.gens", rats=rats
    )
    bound = get_key(d, "bound", "certificate")
    if isinstance(bound, bool) or not isinstance(bound, (str, int)):
        raise ValueError(
            f'certificate.bound: expected an integer or a "p/q" string, got {bound!r}'
        )
    expect_list(
        get_key(d, "assignment", "certificate"), "certificate.assignment"
    )
    expect_dict(get_key(d, "trail", "certificate"), "trail")
    expect_dict(get_key(d, "y", "certificate"), "y")
    claim = expect_dict(
        get_key(d, "claimed_side", "certificate"), "certificate.claimed_side"
    )
    return Certificate(
        gens=GeneratorSet(frozenset(listed)),
        reduction=jsonio.reduction_from_json(
            get_key(d, "reduction", "certificate"), rats=rats
        ),
        claimed_side=ClaimedSide(
            axis=expect_int(
                get_key(claim, "axis", "certificate.claimed_side"),
                "certificate.claimed_side.axis",
            ),
            length=jsonio.rat_from_json(
                get_key(claim, "length", "certificate.claimed_side"),
                "certificate.claimed_side.length",
                rats=rats,
            ),
        ),
        document=d,
        rats=rats,
    )
