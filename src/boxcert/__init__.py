"""Certified box partitions.

Partition an n-dimensional box into boxes, each having at least one side
whose length lies in a given set of positive rationals.  This package
certifies that the outer box then also has such a side — more precisely, a
side whose length is reachable from the given lengths using the operations
``x + y`` and ``x + y + z - 2*min(x, y, z)`` — and ships the two witness
constructions (strip and pinwheel) showing both operations are genuinely
needed.  Everything runs on exact rational arithmetic and every certificate
can be re-verified independently.
"""

from .closure import (
    BoundedClosure,
    GeneratorSet,
    bounded_closure,
    brute_force_closure,
    membership,
)
from .errors import (
    HypothesisViolated,
    LeafNotGenerator,
    ParityViolation,
    RenderUnsupported,
    ReplayMismatch,
    SoundnessError,
    StuckAtEvenVertex,
    ZigzagIndexMissing,
)
from .factory import (
    hypothesis_instance,
    lift_product,
    pinwheel_partition,
    random_guillotine,
    strip_partition,
)
from .geometry import (
    Box,
    Defect,
    Partition,
    Point,
    RankView,
    ValidationReport,
    format_point,
    interiors_disjoint,
    parse_point,
    rank_partition,
    validate_partition,
)
from .jsonio import (
    canonical_json,
    partition_digest,
    partition_from_json,
    partition_to_json,
    pretty_json,
)
from .kernel import (
    Derivation,
    Leaf,
    Sum,
    Triple,
    format_rat,
    op_sum,
    op_triple,
    parse_rat,
    verify_derivation,
)
from .pipeline import (
    Certificate,
    CheckResult,
    ClaimedSide,
    PartitionInvalid,
    certificate_from_json,
    certificate_to_json,
    certify,
    check_certificate,
)
from .reduction import (
    ReductionCertificate,
    RewriteStep,
    reduce_sequence,
    replay,
)
from .svg import RenderSpec, render_svg
from .trailgraph import (
    Edge,
    ParityReport,
    Trail,
    TrailGraph,
    YSequence,
    assign_axes,
    build_graph,
    extract_trail,
    parity_audit,
    project_to_axis,
)

__version__ = "0.1.0"

__all__ = [
    "BoundedClosure",
    "Box",
    "Certificate",
    "CheckResult",
    "ClaimedSide",
    "Defect",
    "Derivation",
    "Edge",
    "GeneratorSet",
    "HypothesisViolated",
    "Leaf",
    "LeafNotGenerator",
    "ParityReport",
    "ParityViolation",
    "Partition",
    "PartitionInvalid",
    "Point",
    "RankView",
    "ReductionCertificate",
    "RenderSpec",
    "RenderUnsupported",
    "ReplayMismatch",
    "RewriteStep",
    "SoundnessError",
    "StuckAtEvenVertex",
    "Sum",
    "Trail",
    "TrailGraph",
    "Triple",
    "ValidationReport",
    "YSequence",
    "ZigzagIndexMissing",
    "assign_axes",
    "bounded_closure",
    "brute_force_closure",
    "build_graph",
    "canonical_json",
    "certificate_from_json",
    "certificate_to_json",
    "certify",
    "check_certificate",
    "extract_trail",
    "format_point",
    "format_rat",
    "hypothesis_instance",
    "interiors_disjoint",
    "lift_product",
    "membership",
    "op_sum",
    "op_triple",
    "parity_audit",
    "parse_point",
    "parse_rat",
    "partition_digest",
    "partition_from_json",
    "partition_to_json",
    "pinwheel_partition",
    "pretty_json",
    "project_to_axis",
    "random_guillotine",
    "rank_partition",
    "reduce_sequence",
    "render_svg",
    "replay",
    "strip_partition",
    "validate_partition",
    "verify_derivation",
]
