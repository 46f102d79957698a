"""Hostile certificates through the command line, each within a budget.

Every case edits the ``pinwheel 17 10 7`` certificate and runs ``python -m
boxcert check`` and ``python -m boxcert render --cert`` on it, each in a
child process whose address space is capped with ``RLIMIT_AS``, set in the
child only, and whose wall time has a budget.  Each must be answered under
the exit contract: 1 for a document the parser rejects, 2 for a certificate
the checker rejects, never a traceback.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys

import pytest

from boxcert import factory, jsonio
from boxcert.closure import GeneratorSet
from boxcert.pipeline import certify

#: Address-space cap of each child, in bytes.
MEMORY = 1 << 30
#: Wall budget of each child, in seconds.  Each case takes well under 1 s on
#: a 2-core host.
SECONDS = 10

_PINWHEEL = factory.pinwheel_partition(17, 10, 7)
_GENS = "17,10,7"
#: A 10^5-digit integer.
_HUGE = "9" * 100_000


def _doc() -> dict:
    cert = certify(_PINWHEEL, GeneratorSet.of(17, 10, 7))
    return json.loads(jsonio.canonical_json(cert.document))


def _leaf(value: str) -> dict:
    return {"op": "leaf", "value": value, "args": []}


# The pinwheel table is leaves 10, 7 and 17 and the root triple 20 over them.
_LEAVES = [_leaf("10"), _leaf("7"), _leaf("17")]
_ROOT = {"op": "triple", "value": "20", "args": [0, 1, 2]}


def _table(*entries: dict):
    def edit(doc):
        doc["reduction"]["derivation"] = list(entries)

    return edit


def _set(*path_and_value):
    *head, last, value = path_and_value

    def edit(doc):
        for k in head:
            doc = doc[k]
        doc[last] = value

    return edit


def _wide_sum(doc):
    # One sum over 10^5 copies of the leaf 10: it parses and evaluates to
    # 10^6, which is not the claimed 20.
    total = str(10 * 100_000)
    doc["reduction"] = {
        "result": total,
        "derivation": [_leaf("10"), {"op": "sum", "value": total, "args": [0] * 100_000}],
    }


#: Written in place of this value: 10^5 nested arrays, which the encoder
#: cannot write.
_DEEP = "deeply nested"


def _deep(doc):
    doc["trail"] = _DEEP


#: name -> (edit of the certificate document, the exit code it must get).
CASES = {
    "huge numerator in gens": (_set("gens", 2, _HUGE), 1),
    "huge denominator in gens": (_set("gens", 2, f"1/{_HUGE}"), 1),
    "huge numerator in the claimed length": (_set("claimed_side", "length", _HUGE), 1),
    "huge denominator in the claimed length": (
        _set("claimed_side", "length", f"1/{_HUGE}"),
        1,
    ),
    "huge numerator in a table value": (
        _set("reduction", "derivation", 0, "value", _HUGE),
        1,
    ),
    "huge denominator in a table value": (
        _set("reduction", "derivation", 0, "value", f"1/{_HUGE}"),
        1,
    ),
    "duplicated entry": (_table(*_LEAVES, _leaf("17"), _ROOT), 1),
    "unused entry": (_table(_leaf("99991"), *_LEAVES, dict(_ROOT, args=[1, 2, 3])), 1),
    "out-of-range argument": (_table(*_LEAVES, dict(_ROOT, args=[0, 1, 7])), 1),
    "self-referencing entry": (_table(*_LEAVES, dict(_ROOT, args=[0, 1, 3])), 1),
    "wrong arity": (_table(*_LEAVES, dict(_ROOT, args=[0, 1])), 1),
    "sum with 10^5 arguments": (_wide_sum, 2),
    "10^5 junk trail steps": (_set("trail", "steps", [[None, {}, "1e3"]] * 100_000), 2),
    "nesting 10^5 levels deep": (_deep, 1),
    "10^5 generators": (_set("gens", [f"1/{q}" for q in range(2, 100_002)]), 2),
}


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))


def _answer(tmp_path, name: str, command: str) -> None:
    """Run ``command`` (``check`` or ``render``) on the edited certificate and
    the pinwheel; it must exit with the case's code and print no traceback."""
    edit, code = CASES[name]
    doc = _doc()
    edit(doc)
    cert_path, partition_path = tmp_path / "cert.json", tmp_path / "partition.json"
    deep = "[" * 100_000 + "]" * 100_000
    cert_path.write_text(json.dumps(doc).replace(json.dumps(_DEEP), deep))
    partition_path.write_text(json.dumps(jsonio.partition_to_json(_PINWHEEL)))
    args = {
        "check": [str(cert_path), "--partition", str(partition_path), "--gens", _GENS],
        "render": [str(partition_path), "--cert", str(cert_path)],
    }[command]
    done = subprocess.run(
        [sys.executable, "-m", "boxcert", command, *args],
        capture_output=True,
        text=True,
        timeout=SECONDS,
        preexec_fn=_cap_memory,
    )
    printed = done.stdout + done.stderr
    assert done.returncode == code, printed[-4096:]
    assert "Traceback" not in printed


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_hostile_certificate_is_answered_within_budget(tmp_path, name):
    _answer(tmp_path, name, "check")


@pytest.mark.parametrize("name", sorted(CASES))
def test_render_answers_a_hostile_certificate_within_budget(tmp_path, name):
    # render checks the certificate against its own generators; none of these
    # edits gives a set that check would accept, so each exits as check does.
    _answer(tmp_path, name, "render")
