"""Large coprime generators through the command line, each within a budget.

Every case runs ``python -m boxcert`` in a child process whose address space
is capped with ``RLIMIT_AS``, set in the child only, and whose wall time has
a budget.  The generators are two consecutive Fibonacci numbers: their
closure is 81 runs below a conductor of about 2.6·10^17, so anything that
holds one bit per grid point below the conductor cannot fit.  Each command
must exit 0 and print no traceback.
"""

from __future__ import annotations

import json
import os
import pathlib
import resource
import subprocess
import sys

#: Address-space cap of each child, in bytes.
MEMORY = 1 << 30
#: Wall budget of each child, in seconds.  Each case takes about 0.2 s on a
#: 2-core host.
SECONDS = 10

F1, F2 = 99194853094755497, 160500643816367088
GENS = f"{F1},{F2}"
SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))


def _boxcert(*args: str) -> subprocess.CompletedProcess:
    done = subprocess.run(
        [sys.executable, "-m", "boxcert", *args],
        capture_output=True,
        text=True,
        timeout=SECONDS,
        preexec_fn=_cap_memory,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert "Traceback" not in done.stdout + done.stderr, done.stderr[-2000:]
    assert done.returncode == 0, done.stderr[-2000:]
    return done


def test_member_just_below_the_conductor_exits_zero_within_budget():
    # The conductor is F1 + F2 - 2; its predecessor is the last run's member.
    value = F1 + F2 - 3
    table = json.loads(_boxcert("member", "--gens", GENS, "--value", str(value)).stdout)
    assert table[-1]["value"] == str(value)
    assert {entry["value"] for entry in table if entry["op"] == "leaf"} == {
        str(F1),
        str(F2),
    }


def test_certify_a_strip_over_the_pair_exits_zero_within_budget(tmp_path):
    # Widths 2 * F1 and F2 in a square of side 2 * F1 + F2: the side lies
    # above the conductor, and its derivation walks down into the runs.
    path = tmp_path / "strip.json"
    path.write_text(_boxcert("gen", "strip", str(2 * F1), str(F2)).stdout)
    done = _boxcert("certify", str(path), "--gens", GENS)
    side = 2 * F1 + F2
    assert done.stdout.startswith(f"side of length {side} along axis 1 ")
