"""Spans around boxcert's layer boundaries, recorded from outside the program.

The tracer replaces module globals that boxcert looks up at call time (for
example ``boxcert.pipeline.validate_partition``, which ``certify`` calls by
its global name) with wrappers that record a span, and puts the originals
back afterwards.  Spans live in memory as ``(name, start, end, parent, op)``
and are written out once, when the run ends.
"""
from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Optional

# Spans of each operation that become per-layer metrics.  ``self`` marks the
# spans whose time minus their child spans' time is also reported.
OP_SPANS = {
    "certify": [
        ("pipeline.certify", True),
        ("geometry.validate_partition", False),
        ("closure.bounded_closure", False),
        ("closure.derivation_for", False),
        ("trailgraph.assign_axes", False),
        ("trailgraph.build_graph", False),
        ("trailgraph.parity_audit", False),
        ("trailgraph.extract_trail", False),
        ("trailgraph.project_to_axis", False),
        ("reduction.reduce_sequence", False),
        ("jsonio.partition_digest", False),
        ("pipeline.certificate_to_json", True),
        ("jsonio.derivation_to_json", False),
        ("jsonio.canonical_json", False),
    ],
    "check": [
        ("json.loads", False),
        ("pipeline.certificate_from_json", True),
        ("jsonio.derivation_from_json", False),
        ("pipeline.check_certificate", True),
        ("jsonio.partition_digest", False),
        ("geometry.validate_partition", False),
        ("closure.bounded_closure", False),
        ("trailgraph.build_graph", False),
        ("trailgraph.project_to_axis", False),
        ("reduction.replay", True),
        ("closure.verify_derivation", False),
    ],
}
OP_SPANS["reject"] = OP_SPANS["check"]


def span_targets(boxcert_modules: dict[str, Any], harness: Any) -> list[tuple[Any, str, str]]:
    """``(owner, attribute, span name)`` for every call site the tracer wraps.

    Each owner is the namespace the caller looks the name up in, so the
    wrapper is what actually runs.
    """
    pipeline = boxcert_modules["pipeline"]
    jsonio = boxcert_modules["jsonio"]
    reduction = boxcert_modules["reduction"]
    closure = boxcert_modules["closure"]
    return [
        (pipeline, "certify", "pipeline.certify"),
        (pipeline, "check_certificate", "pipeline.check_certificate"),
        (pipeline, "certificate_to_json", "pipeline.certificate_to_json"),
        (pipeline, "certificate_from_json", "pipeline.certificate_from_json"),
        (pipeline, "validate_partition", "geometry.validate_partition"),
        (pipeline, "bounded_closure", "closure.bounded_closure"),
        (pipeline, "assign_axes", "trailgraph.assign_axes"),
        (pipeline, "build_graph", "trailgraph.build_graph"),
        (pipeline, "parity_audit", "trailgraph.parity_audit"),
        (pipeline, "extract_trail", "trailgraph.extract_trail"),
        (pipeline, "project_to_axis", "trailgraph.project_to_axis"),
        (pipeline, "reduce_sequence", "reduction.reduce_sequence"),
        (pipeline, "replay", "reduction.replay"),
        (reduction, "verify_derivation", "closure.verify_derivation"),
        (closure.BoundedClosure, "derivation_for", "closure.derivation_for"),
        (jsonio, "partition_digest", "jsonio.partition_digest"),
        (jsonio, "derivation_to_json", "jsonio.derivation_to_json"),
        (jsonio, "derivation_from_json", "jsonio.derivation_from_json"),
        (jsonio, "canonical_json", "jsonio.canonical_json"),
        (harness, "json_loads", "json.loads"),
    ]


class Tracer:
    """Records nested spans; one operation at a time, on one thread."""

    def __init__(self, targets: list[tuple[Any, str, str]]) -> None:
        self.targets = targets
        self.spans: list[Optional[tuple[str, float, float, Optional[int], int]]] = []
        # [op id, kind, instance label, scale]; the caller sets the scale once
        # the operation's pace is known, and per_op multiplies span times by it.
        self.ops: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, len(self.ops) - 1)

        return traced

    def install(self) -> None:
        for owner, attr, name in self.targets:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def op(self, kind: str, label: str, fn: Callable[[], Any]) -> Any:
        """Run one operation under a root span named ``kind``."""
        self.ops.append([len(self.ops), kind, label, 1.0])
        return self._wrap(kind, fn)()

    def per_op(self) -> dict[int, dict[str, float]]:
        """Per operation: scaled total time of each span name, and ``<name>.self``."""
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span is not None and span[3] is not None:
                child_time[span[3]] += span[2] - span[1]
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for idx, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, _parent, op = span
            scale = self.ops[op][3]
            out[op][name] += (end - start) * scale
            out[op][name + ".self"] += (end - start - child_time[idx]) * scale
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "fields": ["name", "start", "end", "parent", "op"],
            "ops": self.ops,
            "spans": [s for s in self.spans if s is not None],
        }
        path.write_text(json.dumps(payload, separators=(",", ":")))
