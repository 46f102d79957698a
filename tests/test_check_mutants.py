"""A mutation gate for the checker's failure paths.

Every ``return`` of a failure in :func:`boxcert.pipeline.check_certificate`
(the key-to-stage walk among them) and the soundness kernel
:func:`boxcert.pipeline._kernel` is listed from the source with :mod:`ast`.
For each, a mutant without that return is compiled in-process and swapped
into the module with ``monkeypatch``; nothing is written to disk, so no
stale bytecode can stand in for a mutant.  So is, for each key in check's
integer type pass, a mutant that skips that key.  A small corpus of forged
``pinwheel`` and strip certificates, each pinned to the first reason the
checker gives, must tell every mutant from the checker.  The corpus forges
through the JSON document and through ``dataclasses.replace`` of the decoded
fields, and has at least one forgery for each stage.
"""

from __future__ import annotations

import __future__
import ast
import dataclasses
import functools
import inspect
import json
import textwrap
from fractions import Fraction

import pytest

from boxcert import factory, jsonio, pipeline
from boxcert.closure import GeneratorSet, Leaf
from boxcert.geometry import Box, Partition, parse_point
from boxcert.pipeline import ClaimedSide, certificate_from_json, certify
from boxcert.reduction import ReductionCertificate
from boxcert.trailgraph import build_graph, extract_trail, project_to_axis

#: The functions whose failure returns are mutated.
TARGETS = ("check_certificate", "_kernel")

_PINWHEEL = factory.pinwheel_partition(17, 10, 7)
_PINWHEEL_GENS = GeneratorSet.of(17, 10, 7)
_STRIP = factory.strip_partition(15, 5)
_STRIP_GENS = GeneratorSet.of(15, 5)


def _doc(p: Partition, g: GeneratorSet) -> dict:
    return json.loads(jsonio.canonical_json(certify(p, g).document))


def _edited(edit, p=_PINWHEEL, g=_PINWHEEL_GENS) -> dict:
    """The document of ``p``'s certificate with ``edit`` applied."""
    doc = _doc(p, g)
    edit(doc)
    return doc


def _cert(edit, p=_PINWHEEL, g=_PINWHEEL_GENS):
    """The certificate of ``p`` with ``edit`` applied to its document."""
    return certificate_from_json(_edited(edit, p, g)), p, g


def _replaced(p=_PINWHEEL, g=_PINWHEEL_GENS, **fields):
    """The parsed certificate of ``p`` with decoded ``fields`` replaced."""
    return dataclasses.replace(certificate_from_json(_doc(p, g)), **fields), p, g


def _set(*path_and_value):
    *head, last, value = path_and_value

    def edit(doc):
        for k in head:
            doc = doc[k]
        doc[last] = value

    return edit


def _both(*edits):
    def edit(doc):
        for e in edits:
            e(doc)

    return edit


def _swap_first_steps(doc):
    steps = doc["trail"]["steps"]
    steps[0], steps[1] = steps[1], steps[0]


def _against(q: Partition):
    """The pinwheel's certificate, with the digest of ``q``, to check on ``q``."""
    cert, _, g = _cert(_set("partition_sha256", jsonio.partition_digest(q)))
    return cert, q, g


_MORE_GENS = _set("gens", ["7", "10", "17", "20"])


def _pt(*coords):
    return parse_point(coords)


# The pinwheel's outer square with one box missing: not a partition.
_HOLED = Partition(2, _PINWHEEL.outer, _PINWHEEL.boxes[1:])
# The pinwheel's outer square cut at 1 on both axes: the unit box has no
# side in the closure of {7, 10, 17}.
_UNIT_CORNER = Partition(
    2,
    _PINWHEEL.outer,
    tuple(
        Box(_pt(x0, y0), _pt(x1, y1))
        for x0, x1 in ((0, 1), (1, 20))
        for y0, y1 in ((0, 1), (1, 20))
    ),
)


def _strip_with_its_other_assignment():
    # Box 1 of strip(15,5) has both extents in the closure of {15, 5}: giving
    # it its 20-side makes a trail, projection (0 -> 20 on axis 2) and claim
    # that agree with the derivation of 20, but not the assignment certify
    # makes.
    cert = certificate_from_json(_doc(_STRIP, _STRIP_GENS))
    assignment = (2, 1)
    trail = extract_trail(build_graph(_STRIP, assignment), cert.start)
    y = project_to_axis(trail, _STRIP)
    doc = dict(
        cert.document,
        assignment=list(assignment),
        trail=jsonio.trail_to_json(trail),
        y=jsonio.ysequence_to_json(y),
    )
    forged = dataclasses.replace(
        cert,
        document=doc,
        claimed_side=ClaimedSide(y.axis, y.length),
    )
    return forged, _STRIP, _STRIP_GENS


#: The top-level keys of a certificate document, sorted.
_DOC_KEYS = [
    "assignment", "bound", "claimed_side", "gens", "partition_sha256", "reduction", "trail", "y",
]

#: name -> (forged certificate, partition, generators), and the first reason
#: the checker gives, or None for a certificate it accepts.
CORPUS = {
    "as written": (lambda: _cert(lambda doc: None), None),
    "strip as written": (lambda: _cert(lambda doc: None, _STRIP, _STRIP_GENS), None),
    "digest": (
        lambda: _cert(_set("partition_sha256", "0" * 64)),
        "digest: partition digest does not match the certificate",
    ),
    "digest and a generator more": (
        lambda: _cert(_both(_set("partition_sha256", "0" * 64), _MORE_GENS)),
        "digest: partition digest does not match the certificate",
    ),
    "a generator more": (
        lambda: _cert(_MORE_GENS),
        "gens: certificate gens ['7', '10', '17', '20'] differ from supplied ['7', '10', '17']",
    ),
    "a generator more and the claim on axis 3": (
        lambda: _cert(_both(_MORE_GENS, _set("claimed_side", "axis", 3))),
        "gens: certificate gens ['7', '10', '17', '20'] differ from supplied ['7', '10', '17']",
    ),
    # Check reads the supplied set and the document, not the decoded set.
    "decoded gens replaced": (lambda: _replaced(gens=GeneratorSet.of(17, 10)), None),
    "gens unsorted": (
        lambda: _cert(_set("gens", ["17", "10", "7"])),
        "gens: certificate gens ['17', '10', '7'] differ from supplied ['7', '10', '17']",
    ),
    "gens written as integers": (
        lambda: _cert(_set("gens", [7, 10, 17])),
        "gens: certificate gens [7, 10, 17] differ from supplied ['7', '10', '17']",
    ),
    "a key more": (
        lambda: _cert(_set("note", "x")),
        f"certificate: certificate keys {sorted([*_DOC_KEYS, 'note'])} differ from {_DOC_KEYS}",
    ),
    "a non-generator leaf": (
        lambda: _cert(
            _set("reduction", "derivation", [{"op": "leaf", "value": "20", "args": []}])
        ),
        "reduction: leaf 20 is not a generator",
    ),
    "decoded derivation replaced": (
        lambda: _replaced(reduction=ReductionCertificate((), 20, Leaf(20))),
        "reduction: leaf 20 is not a generator",
    ),
    "result moved": (
        lambda: _cert(_set("reduction", "result", "21")),
        "reduction: derivation evaluates to 20, result claims 21",
    ),
    "claim on axis 3": (
        lambda: _cert(_set("claimed_side", "axis", 3)),
        "claim: axis 3 out of range",
    ),
    "claimed length moved": (
        lambda: _cert(_set("claimed_side", "length", "10")),
        "claim: derived result does not match the claimed length",
    ),
    "a claim that is no outer extent": (
        lambda: _replaced(
            reduction=ReductionCertificate((), 17, Leaf(17)), claimed_side=ClaimedSide(1, 17)
        ),
        "claim: claimed length is not the outer extent",
    ),
    "a box missing": (
        lambda: _against(_HOLED),
        "partition: INVALID: 1 defect(s)\n  - gap: cell [0, 3] x [0, 10] is covered by "
        "0 boxes; the corner counts differ at 4 points",
    ),
    "a box with no side in the closure": (
        lambda: _against(_UNIT_CORNER),
        "assignment: box k=1 has no side in the closure; extents ('1', '1')",
    ),
    "start off the corners": (
        lambda: _replaced(start=_pt(1, 0)),
        "trail: start (1, 0) is not a corner of the outer box",
    ),
    "bound": (
        lambda: _cert(_set("bound", "15")),
        "bound: bound is not the outer extent",
    ),
    "assignment flipped": (
        lambda: _cert(_set("assignment", 1, 2)),
        "assignment: recomputed axis assignment differs",
    ),
    "true in assignment": (
        lambda: _cert(_set("assignment", 1, True)),
        "assignment: recomputed axis assignment differs",
    ),
    "strip with its other assignment": (
        _strip_with_its_other_assignment,
        "assignment: recomputed axis assignment differs",
    ),
    "steps swapped": (
        lambda: _cert(_swap_first_steps),
        "trail: recomputed trail from the recorded start differs",
    ),
    "y point moved": (
        lambda: _cert(_set("y", "points", 1, "11")),
        "projection: recomputed position sequence differs",
    ),
    "decoded claim on axis 2": (
        lambda: _replaced(claimed_side=ClaimedSide(2, Fraction(20))),
        "claim: claimed side does not match the projection",
    ),
    "claimed length 20/1": (
        lambda: _cert(_set("claimed_side", "length", "20/1")),
        "claim: claimed side is not written as certify writes it",
    ),
    "true as a step's box": (
        lambda: _cert(_set("trail", "steps", 0, "box", True)),
        "trail: recomputed trail from the recorded start differs",
    ),
    "true as the projection axis": (
        lambda: _cert(_set("y", "axis", True)),
        "projection: recomputed position sequence differs",
    ),
    "true as the claimed axis, in a replaced document": (
        lambda: _replaced(document=_edited(_set("claimed_side", "axis", True))),
        "claim: claimed side is not written as certify writes it",
    ),
    "a key more in reduction": (
        lambda: _cert(_set("reduction", "note", "x")),
        "reduction: reduction is not written as certify writes it",
    ),
    "a document without its bound": (
        lambda: _replaced(
            document={k: v for k, v in _doc(_PINWHEEL, _PINWHEEL_GENS).items() if k != "bound"}
        ),
        f"certificate: certificate keys {[k for k in _DOC_KEYS if k != 'bound']} differ "
        f"from {_DOC_KEYS}",
    ),
    "a reduction that is no object": (
        lambda: _replaced(document=_edited(_set("reduction", []))),
        "error: TypeError: list indices must be integers or slices, not str",
    ),
}

#: Every stage the checker reports.
STAGES = {
    "digest", "gens", "certificate", "reduction", "claim", "partition", "assignment",
    "trail", "bound", "projection", "error",
}


@functools.lru_cache(maxsize=None)
def _forgeries() -> tuple:
    """(name, certificate, partition, generators, pinned reason), built once."""
    return tuple((name, *build(), reason) for name, (build, reason) in CORPUS.items())


def _first_reason(cert, p, g):
    result = pipeline.check_certificate(cert, p, g)  # looked up: it may be a mutant
    return result.reasons[0] if result.reasons else None


def _is_failure(node: ast.AST) -> bool:
    """A ``return`` of a failure: a call of ``fail`` or a (stage, detail) pair."""
    if not isinstance(node, ast.Return):
        return False
    value = node.value
    if isinstance(value, ast.Call):
        return isinstance(value.func, ast.Name) and value.func.id == "fail"
    return isinstance(value, ast.Tuple)


def _tree(name: str) -> ast.Module:
    fn = getattr(pipeline, name)
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    ast.increment_lineno(tree, fn.__code__.co_firstlineno - 1)
    return tree


def _failure_returns(tree: ast.Module) -> list[ast.Return]:
    """The failure returns of ``tree``, in source order."""
    found = [node for node in ast.walk(tree) if _is_failure(node)]
    return sorted(found, key=lambda node: (node.lineno, node.col_offset))


#: (function, index of the failure return, its line in pipeline.py).
MUTANTS = [
    (name, i, node.lineno)
    for name in TARGETS
    for i, node in enumerate(_failure_returns(_tree(name)))
]


def _compiled(name: str, tree: ast.Module):
    """``pipeline.<name>`` compiled in memory from the edited ``tree``."""
    fn = getattr(pipeline, name)
    code = compile(
        tree,
        inspect.getsourcefile(fn),
        "exec",
        flags=__future__.annotations.compiler_flag,
        dont_inherit=True,
    )
    namespace = dict(fn.__globals__)
    exec(code, namespace)
    return namespace[name]


def _mutant(name: str, index: int):
    """``pipeline.<name>`` without its ``index``-th failure return."""
    tree = _tree(name)
    gone = _failure_returns(tree)[index]
    for parent in ast.walk(tree):
        for _, body in ast.iter_fields(parent):
            if isinstance(body, list) and any(stmt is gone for stmt in body):
                body[[id(s) for s in body].index(id(gone))] = ast.copy_location(
                    ast.Pass(), gone
                )
    return _compiled(name, tree)


def _type_pass(tree: ast.Module) -> list[ast.expr]:
    """The ``(key, values)`` pairs of check's integer type pass: the one loop
    of ``check_certificate`` over a literal tuple."""
    (loop,) = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple)
    ]
    return loop.iter.elts


#: The keys whose integers check's type pass reads.
INTEGER_KEYS = [
    ast.literal_eval(pair.elts[0]) for pair in _type_pass(_tree("check_certificate"))
]


def _without_type_pass(key: str):
    """``pipeline.check_certificate`` with no type pass over ``key``."""
    tree = _tree("check_certificate")
    pairs = _type_pass(tree)
    pairs[:] = [pair for pair in pairs if ast.literal_eval(pair.elts[0]) != key]
    return _compiled("check_certificate", tree)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_each_forgery_gets_its_pinned_reason(name):
    _, cert, p, g, reason = next(f for f in _forgeries() if f[0] == name)
    assert _first_reason(cert, p, g) == reason


def test_the_corpus_covers_every_stage_and_target():
    stages = {reason.split(":")[0] for *_, reason in _forgeries() if reason is not None}
    assert stages == STAGES
    assert any(reason is None for *_, reason in _forgeries())
    assert {name for name, _, _ in MUTANTS} == set(TARGETS)
    assert INTEGER_KEYS == ["assignment", "trail", "y", "claimed_side"]


def _survives() -> bool:
    """True iff every forgery still gets its pinned reason."""
    for _, cert, p, g, reason in _forgeries():
        try:
            if _first_reason(cert, p, g) != reason:
                return False
        except Exception:
            return False
    return True


@pytest.mark.parametrize(
    "name, index, line", MUTANTS, ids=[f"{name}-{i}" for name, i, _ in MUTANTS]
)
def test_every_failure_return_is_needed(monkeypatch, name, index, line):
    monkeypatch.setattr(pipeline, name, _mutant(name, index))
    assert not _survives(), f"the return at pipeline.py:{line} can go unnoticed"


@pytest.mark.parametrize("key", INTEGER_KEYS)
def test_every_integer_type_pass_is_needed(monkeypatch, key):
    monkeypatch.setattr(pipeline, "check_certificate", _without_type_pass(key))
    assert not _survives(), f"integers under {key!r} can be written as true or 1.0"
