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

The trusted base, ``boxcert/kernel.py``, is mutated as a whole: every
function and method, listed from the module's source, not by name (see
"every mutant of the trusted base" below).
"""

from __future__ import annotations

import __future__
import ast
import dataclasses
import functools
import inspect
import json
import textwrap
import types
from fractions import Fraction

import pytest

import test_hostile_certificates as hostile
import test_hostile_partitions
from boxcert import factory, jsonio, kernel, pipeline
from boxcert.closure import GeneratorSet
from boxcert.geometry import MAX_CORNER_COORDINATES, Box, Partition, parse_point
from boxcert.kernel import Leaf
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


def _above_the_corner_cap():
    # The strip lifted to 20 dimensions, with a certificate that passes the
    # digest, the generators and the kernel.
    make, gens, table = test_hostile_partitions.HIGH_DIMENSIONAL["lifted-strip"]
    partition = make(20)
    doc = test_hostile_partitions._certificate(partition, gens, table)
    p = jsonio.partition_from_json(partition)
    return certificate_from_json(doc), p, GeneratorSet.of(3, 5)


def _strip_with_its_other_assignment():
    # Box 1 of strip(15,5) has both extents in the closure of {15, 5}: giving
    # it its 20-side makes a trail, projection (0 -> 20 on axis 2) and claim
    # that agree with the derivation of 20, but not the assignment certify
    # makes.
    cert = certificate_from_json(_doc(_STRIP, _STRIP_GENS))
    assignment = (2, 1)
    trail = extract_trail(build_graph(_STRIP, assignment))
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
    "a partition above the corner cap": (
        _above_the_corner_cap,
        f"partition: the partition has {2 * 20 << 20} box corner coordinates, "
        f"more than the cap of {MAX_CORNER_COORDINATES}",
    ),
    "a box with no side in the closure": (
        lambda: _against(_UNIT_CORNER),
        "assignment: box k=1 has no side in the closure; extents ('1', '1')",
    ),
    "start off the corners": (
        lambda: _cert(_set("trail", "start", ["1", "0"])),
        "trail: recomputed trail differs",
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
        "trail: recomputed trail differs",
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
        "trail: recomputed trail differs",
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


# --- every mutant of the trusted base ----------------------------------------
#
# Each function of boxcert/kernel.py is mutated from the module's source:
# every ``raise`` and every failure return (a ``(stage, detail)`` pair) is
# dropped, every comparison is negated, every ``<``, ``<=``, ``>`` and ``>=``
# is swapped with its strict or weak twin, and ``min`` with ``max``.  The
# edited module is compiled in memory and only the function's code object is
# swapped in, through ``__code__``: so every module that imported the name,
# and every class that holds the method, runs the mutant.  The named unit
# cases below, the forged corpus (built afresh under the mutant) and the
# table forgeries of tests/test_hostile_certificates.py must kill each one.

_KERNEL_FILE = inspect.getsourcefile(kernel)
_SWAPPED = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}


def _kernel_functions(tree: ast.Module) -> dict[str, ast.FunctionDef]:
    """Every function of the module and every method of its classes, by
    qualified name."""
    found = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            found[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    found[f"{node.name}.{item.name}"] = item
    return found


def _is_kernel_failure(node: ast.AST) -> bool:
    """A ``raise``, or a ``return`` of a ``(stage, detail)`` pair."""
    if isinstance(node, ast.Raise):
        return True
    value = node.value if isinstance(node, ast.Return) else None
    return (
        isinstance(value, ast.Tuple)
        and bool(value.elts)
        and isinstance(value.elts[0], ast.Constant)
        and isinstance(value.elts[0].value, str)
    )


def _sites(fn: ast.FunctionDef) -> list[tuple[str, ast.AST, int]]:
    """``(kind, node, operator index)`` of every mutation of ``fn``, in
    source order within each kind."""
    found = []
    for node in ast.walk(fn):
        if _is_kernel_failure(node):
            found.append(("drop", node, 0))
        elif isinstance(node, ast.Compare):
            found.append(("negate", node, 0))
            found += [("swap", node, j) for j, op in enumerate(node.ops) if type(op) in _SWAPPED]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("min", "max"):
                found.append(("minmax", node, 0))
    return sorted(found, key=lambda s: (s[0], s[1].lineno, s[1].col_offset, s[2]))


def _kernel_tree() -> ast.Module:
    with open(_KERNEL_FILE, encoding="utf-8") as fh:
        return ast.parse(fh.read(), _KERNEL_FILE)


def _kernel_mutant_ids() -> list[str]:
    """``<function>-<kind>-<index>``, the index counted within the function
    and kind; the line of each site is in the assertion message."""
    ids = []
    for name, fn in _kernel_functions(_kernel_tree()).items():
        kinds: dict[str, int] = {}
        for kind, _, _ in _sites(fn):
            ids.append(f"{name}-{kind}-{kinds.setdefault(kind, 0)}")
            kinds[kind] += 1
    return ids


class _Mutate(ast.NodeTransformer):
    """Applies one mutation to the node it targets."""

    def __init__(self, kind: str, target: ast.AST, j: int) -> None:
        self.kind, self.target, self.j = kind, target, j

    def visit(self, node):
        if node is not self.target:
            return self.generic_visit(node)
        if self.kind == "drop":
            return ast.copy_location(ast.Pass(), node)
        if self.kind == "negate":
            return ast.copy_location(ast.UnaryOp(ast.Not(), node), node)
        if self.kind == "swap":
            node.ops[self.j] = _SWAPPED[type(node.ops[self.j])]()
        else:
            node.func.id = "max" if node.func.id == "min" else "min"
        return node


def _code_named(code: types.CodeType, qualname: str) -> types.CodeType:
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            if const.co_qualname == qualname:
                return const
            found = _code_named(const, qualname)
            if found is not None:
                return found
    return None


def _kernel_mutant(mutant_id: str) -> tuple[types.FunctionType, types.CodeType, int]:
    """The function the mutant changes, its mutated code and the site's line."""
    name, kind, index = mutant_id.rsplit("-", 2)
    tree = _kernel_tree()
    sites = [s for s in _sites(_kernel_functions(tree)[name]) if s[0] == kind]
    _, node, j = sites[int(index)]
    line = node.lineno
    tree = ast.fix_missing_locations(_Mutate(kind, node, j).visit(tree))
    code = _code_named(compile(tree, _KERNEL_FILE, "exec", dont_inherit=True), name)
    fn = functools.reduce(getattr, name.split("."), kernel)
    return fn, code, line


def _raised(kind: str, message: str) -> tuple[str, str, str]:
    return ("raised", kind, message)


def _outcome(thunk):
    """What ``thunk()`` returns, or what it raises, by type name and message."""
    try:
        return thunk()
    except Exception as exc:
        return _raised(type(exc).__name__, str(exc))


def _leaf(value) -> dict:
    return {"op": "leaf", "value": value, "args": []}


def _op(op: str, value: str, *args) -> dict:
    return {"op": op, "value": value, "args": list(args)}


def _table(*entries: dict):
    return lambda: kernel.derivation_from_json(list(entries)).value


def _malformed(message: str):
    return _raised("_Malformed", message)


def _node(*values):
    return [Leaf(Fraction(v)) for v in values]


def _shared_rats():
    rats: dict = {}
    kernel.derivation_from_json([_leaf("2"), _op("sum", "4", 0, 0)], rats=rats)
    return sorted(rats)


def _topological_order():
    (a,) = _node(1)
    s = kernel.Sum(a, a)
    t = kernel.Triple(s, a, s)
    return [id(n) for n in kernel.topological(t)] == [id(a), id(s), id(t)]


_NOT_POSITIVE = "operands must be positive, got"

#: name -> (thunk, its outcome under the kernel as written).  The thunks
#: call the kernel through its module, so a swapped code object runs.
UNIT_CASES = {
    # rationals
    "parse_rat: p/q in lowest terms": (lambda: kernel.parse_rat("6/4"), Fraction(3, 2)),
    "parse_rat: signed integers": (
        lambda: [kernel.parse_rat(s) for s in ("-2", "+7", " 5 ", "0")], [-2, 7, 5, 0]
    ),
    "parse_rat: decimals": (
        lambda: [kernel.parse_rat(s) for s in ("2.5", ".5", "5.", "-0.25")],
        [Fraction(5, 2), Fraction(1, 2), 5, Fraction(-1, 4)],
    ),
    "parse_rat: a Fraction and an int": (
        lambda: [kernel.parse_rat(Fraction(2, 3)), kernel.parse_rat(7)], [Fraction(2, 3), 7]
    ),
    "parse_rat: zero denominator": (
        lambda: kernel.parse_rat("3/0"), _raised("ValueError", "not a rational: '3/0'")
    ),
    "parse_rat: exponent": (
        lambda: kernel.parse_rat("1e3"), _raised("ValueError", "not a rational: '1e3'")
    ),
    "parse_rat: bool": (
        lambda: kernel.parse_rat(True), _raised("ValueError", "not a rational: True")
    ),
    "parse_rat: float": (
        lambda: kernel.parse_rat(1.5),
        _raised("ValueError", 'floats are not accepted (got 1.5); write an exact "p/q" string'),
    ),
    "parse_rat: None": (
        lambda: kernel.parse_rat(None), _raised("ValueError", "not a rational: None")
    ),
    "format_rat": (
        lambda: [kernel.format_rat(Fraction(n, d)) for n, d in ((3, 2), (4, 1), (-1, 3))],
        ["3/2", "4", "-1/3"],
    ),
    # the operations
    "op_sum": (lambda: kernel.op_sum(Fraction(1), Fraction(2)), 3),
    "op_sum: first operand zero": (
        lambda: kernel.op_sum(Fraction(0), Fraction(1)), _raised("ValueError", f"{_NOT_POSITIVE} 0, 1")
    ),
    "op_sum: second operand zero": (
        lambda: kernel.op_sum(Fraction(1), Fraction(0)), _raised("ValueError", f"{_NOT_POSITIVE} 1, 0")
    ),
    "op_triple": (
        lambda: [kernel.op_triple(*map(Fraction, t)) for t in ((3, 1, 2), (1, 1, 5))], [4, 5]
    ),
    **{
        f"op_triple: operand {i} zero": (
            lambda i=i: kernel.op_triple(*map(Fraction, [1] * i + [0] + [1] * (2 - i))),
            _raised("ValueError", f"{_NOT_POSITIVE} {', '.join('1' * i + '0' + '1' * (2 - i))}"),
        )
        for i in range(3)
    },
    # the nodes
    "Sum of two": (lambda: kernel.Sum(*_node(1, 2)).value, 3),
    "Sum counts multiplicity": (
        lambda: (lambda one, two: kernel.Sum(two, one, two, two).value)(*_node(1, 2)), 7
    ),
    "Sum of one": (
        lambda: kernel.Sum(*_node(1)),
        _raised("ValueError", "a sum takes two or more operands, got 1"),
    ),
    "Sum of two with a zero": (
        lambda: kernel.Sum(*_node(0, 1)), _raised("ValueError", f"{_NOT_POSITIVE} 0, 1")
    ),
    "Sum of three zeros": (
        lambda: kernel.Sum(*_node(0) * 3), _raised("ValueError", f"{_NOT_POSITIVE} 0")
    ),
    "Triple": (lambda: kernel.Triple(*_node(3, 1, 2)).value, 4),
    "Triple with a zero": (
        lambda: kernel.Triple(*_node(0, 1, 1)), _raised("ValueError", f"{_NOT_POSITIVE} 0, 1, 1")
    ),
    "children": (
        lambda: [
            kernel.children(node)
            for node in (Leaf(Fraction(1)), kernel.Sum(*_node(1, 2)), kernel.Triple(*_node(1, 2, 3)))
        ],
        [(), tuple(_node(1, 2)), tuple(_node(1, 2, 3))],
    ),
    "children of a non-node": (
        lambda: kernel.children(1), _raised("TypeError", "not a derivation node: 1")
    ),
    "topological lists a shared node once": (_topological_order, True),
    "verify_derivation": (
        lambda: kernel.verify_derivation(kernel.Sum(*_node(1, 2)), {1, 2}), 3
    ),
    "verify_derivation: a leaf that is no generator": (
        lambda: kernel.verify_derivation(kernel.Sum(*_node(1, 2)), {1}),
        _raised("LeafNotGenerator", "leaf 2 is not a generator"),
    ),
    # derivation tables
    "table: a sum used once by a triple": (
        _table(_leaf("1"), _leaf("2"), _op("sum", "3", 0, 1), _op("triple", "4", 2, 0, 1)), 4
    ),
    "table: a sum used twice by a sum": (
        _table(_leaf("1"), _leaf("1/2"), _op("sum", "3/2", 0, 1), _op("sum", "3", 2, 2)), 3
    ),
    "table: a sum of three": (_table(_leaf("2"), _leaf("3"), _op("sum", "7", 0, 0, 1)), 7),
    "table: rats shared with the caller": (_shared_rats, ["2", "4"]),
    "table: no array": (
        lambda: kernel.derivation_from_json({}),
        _malformed("derivation: expected an array, got dict"),
    ),
    "table: empty": (
        lambda: kernel.derivation_from_json([]), _malformed("derivation: empty derivation table")
    ),
    "table: an entry that is no object": (
        lambda: kernel.derivation_from_json([[]]),
        _malformed("derivation[0]: expected an object, got list"),
    ),
    "table: no op": (
        _table({"value": "1", "args": []}), _malformed("derivation[0]: missing key 'op'")
    ),
    "table: args no array": (
        _table({"op": "leaf", "value": "1", "args": "x"}),
        _malformed("derivation[0].args: expected an array, got str"),
    ),
    "table: no value": (
        _table({"op": "leaf", "args": []}), _malformed("derivation[0]: missing key 'value'")
    ),
    "table: a float value": (
        _table(_leaf(1.5)),
        _malformed('derivation[0].value: expected an integer or a "p/q" string, got 1.5'),
    ),
    "table: a value that is no rational": (
        _table(_leaf("x")), _raised("ValueError", "not a rational: 'x'")
    ),
    "table: a key more": (
        _table(dict(_leaf("1"), note="x")),
        _malformed("derivation[0]: keys ['args', 'note', 'op', 'value'] are not op, args and value"),
    ),
    "table: a value not in lowest terms": (
        _table(_leaf("2/1")), _malformed("derivation[0].value: expected '2', got '2/1'")
    ),
    "table: a value written as an integer": (
        _table(_leaf(2)), _malformed("derivation[0].value: expected '2', got 2")
    ),
    "table: an unknown op": (
        _table(_op("halve", "1")), _malformed("derivation[0].op: unknown operation 'halve'")
    ),
    "table: an op that is no string": (
        _table(_op(["sum"], "1")), _malformed("derivation[0].op: unknown operation ['sum']")
    ),
    "table: a sum of one": (
        _table(_leaf("2"), _op("sum", "2", 0)),
        _malformed("derivation[1]: op 'sum' takes 2 or more arguments, got 1"),
    ),
    "table: a leaf with arguments": (
        _table(_op("leaf", "2", 0)), _malformed("derivation[0]: op 'leaf' takes 0 arguments, got 1")
    ),
    "table: a triple of two": (
        _table(_leaf("1"), _op("triple", "1", 0, 0)),
        _malformed("derivation[1]: op 'triple' takes 3 arguments, got 2"),
    ),
    "table: a triple of four": (
        _table(_leaf("1"), _op("triple", "1", 0, 0, 0, 0)),
        _malformed("derivation[1]: op 'triple' takes 3 arguments, got 4"),
    ),
    "table: true as an argument": (
        _table(_leaf("2"), _leaf("3"), _op("sum", "5", 0, True)),
        _malformed("derivation[2].args[1]: expected an integer, got True"),
    ),
    **{
        f"table: argument {a}": (
            _table(_leaf("2"), _op("sum", "4", 0, a)),
            _malformed(f"derivation[1].args[1]: {a} is not an earlier entry"),
        )
        for a in (-1, 1, 2)
    },
    "table: a duplicated leaf": (
        _table(_leaf("2"), _leaf("2"), _op("sum", "4", 0, 1)),
        _malformed("derivation[1]: duplicates an earlier entry"),
    ),
    "table: a duplicated op": (
        _table(_leaf("2"), _op("sum", "4", 0, 0), _op("sum", "4", 0, 0), _op("sum", "8", 1, 2)),
        _malformed("derivation[2]: duplicates an earlier entry"),
    ),
    **{
        f"table: leaf {v}": (
            _table(_leaf(v)), _malformed("derivation[0]: leaf value must be positive")
        )
        for v in ("0", "-1")
    },
    "table: a wrong annotation": (
        _table(_leaf("2"), _leaf("3"), _op("sum", "8", 0, 0, 1)),
        _malformed("derivation[2]: value annotation 8 does not match recomputed 7"),
    ),
    "table: an unused entry": (
        _table(_leaf("3"), _leaf("2"), _op("sum", "4", 1, 1)),
        _malformed("derivation[0]: no later entry uses it"),
    ),
    "table: an unfolded sum": (
        _table(_leaf("2"), _op("sum", "4", 0, 0), _op("sum", "6", 1, 0)),
        _malformed("derivation[1]: a sum that only one sum uses must be written inside it"),
    ),
    # the claim
    "check_claim: axis 1 and axis 2": (
        lambda: [
            kernel.check_claim(Fraction(v), axis, Fraction(v), (Fraction(20), Fraction(10)))
            for v, axis in ((20, 1), (10, 2))
        ],
        [None, None],
    ),
    **{
        f"check_claim: axis {axis}": (
            lambda axis=axis: kernel.check_claim(Fraction(20), axis, Fraction(20), (20, 20)),
            ("claim", f"axis {axis} out of range"),
        )
        for axis in (0, 3)
    },
    "check_claim: derived value is not the length": (
        lambda: kernel.check_claim(Fraction(20), 1, Fraction(10), (20, 10)),
        ("claim", "derived result does not match the claimed length"),
    ),
    "check_claim: length is not the extent": (
        lambda: kernel.check_claim(Fraction(10), 1, Fraction(10), (20, 10)),
        ("claim", "claimed length is not the outer extent"),
    ),
}


def _unit_cases_hold() -> bool:
    return all(_outcome(thunk) == expected for thunk, expected in UNIT_CASES.values())


def _corpus_holds() -> bool:
    """True iff every forgery, built afresh, still gets its pinned reason."""
    for build, reason in CORPUS.values():
        try:
            if _first_reason(*build()) != reason:
                return False
        except Exception:
            return False
    return True


@functools.lru_cache(maxsize=None)
def _hostile_tables() -> dict[str, tuple[str, int]]:
    """name -> (the certificate's JSON text, exit code) for each case of
    tests/test_hostile_certificates.py that edits the reduction."""
    written = hostile._doc()
    found = {}
    for name, (edit, code) in hostile.CASES.items():
        doc = hostile._doc()
        edit(doc)
        if doc["reduction"] != written["reduction"]:
            found[name] = (json.dumps(doc), code)
    return found


def _hostile_outcome(text: str):
    """``("parse", message)`` or ``("check", reasons)``: exit 1 or 2 on the
    command line."""
    try:
        cert = certificate_from_json(json.loads(text))
    except ValueError as exc:
        return "parse", str(exc)
    return "check", pipeline.check_certificate(cert, _PINWHEEL, _PINWHEEL_GENS).reasons


@functools.lru_cache(maxsize=None)
def _hostile_oracle() -> dict[str, tuple]:
    """Each hostile table's outcome under the kernel as written."""
    return {name: _hostile_outcome(text) for name, (text, _) in _hostile_tables().items()}


def _hostile_tables_hold(oracle: dict[str, tuple]) -> bool:
    for name, (text, _) in _hostile_tables().items():
        try:
            if _hostile_outcome(text) != oracle[name]:
                return False
        except Exception:
            return False
    return True


#: Every kernel mutant, as ``<function>-<kind>-<index>``.
KERNEL_MUTANTS = _kernel_mutant_ids()

#: Mutants no input can tell from the kernel, and why.
EQUIVALENT = {
    "parse_rat-drop-1": (
        "the re-raise of a failed int() or Fraction() falls through to the last "
        "raise, which gives the same ValueError and message, without the cause"
    ),
}


def test_the_kernel_as_written_passes_every_killer():
    assert _unit_cases_hold()
    assert _corpus_holds()
    oracle = _hostile_oracle()
    assert _hostile_tables_hold(oracle)
    # the in-process outcome is the exit code the command line gives
    kinds = {name: oracle[name][0] for name in oracle}
    codes = {name: code for name, (_, code) in _hostile_tables().items()}
    assert kinds == {name: {1: "parse", 2: "check"}[code] for name, code in codes.items()}
    assert len(codes) >= 8


def test_the_kernel_mutants_cover_the_kernel():
    # Triple.__post_init__ has no site of these kinds: it only calls op_triple.
    functions = {m.rsplit("-", 2)[0] for m in KERNEL_MUTANTS}
    assert {
        "parse_rat", "format_rat", "op_sum", "op_triple", "Sum.__post_init__",
        "children", "topological", "verify_derivation",
        "_at", "_rat", "expect_dict", "expect_list", "expect_int", "get_key",
        "derivation_from_json", "check_claim",
    } <= functions
    kinds = {m.rsplit("-", 2)[1] for m in KERNEL_MUTANTS}
    assert kinds == {"drop", "negate", "swap", "minmax"}
    assert set(EQUIVALENT) <= set(KERNEL_MUTANTS)


@pytest.mark.parametrize("mutant_id", KERNEL_MUTANTS)
def test_every_kernel_mutant_is_killed(monkeypatch, mutant_id):
    oracle = _hostile_oracle()  # under the kernel as written
    fn, code, line = _kernel_mutant(mutant_id)
    monkeypatch.setattr(fn, "__code__", code)
    killed = not (_unit_cases_hold() and _hostile_tables_hold(oracle) and _corpus_holds())
    if mutant_id in EQUIVALENT:
        assert not killed, f"kernel.py:{line}: {mutant_id} is killed; drop it from EQUIVALENT"
    else:
        assert killed, f"kernel.py:{line}: {mutant_id} survives"
