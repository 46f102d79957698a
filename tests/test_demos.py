"""The demos still run and print exactly what they printed before.

Each demo drives the public API by hand (``sufficiency_walkthrough.py`` prints
the trail graph's vertices, edges, parity table and trail), so pinning the
digest of its standard output catches a change to what those objects hold or
how they print.  Every demo is deterministic.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMO_STDOUT_SHA256 = {
    "closure_playground.py": "315706069f6116fddd16a7b5d43329c74fdcf359b8fe734dd2c6dde59f9fad13",
    "sufficiency_walkthrough.py": "96b1708408e738188fcfe358a35b36ff3beaecce6d92be38405efb3ff20245b2",
    "witness_squares.py": "024ebb4d7398086fd527c85c1b37f0b7a3f2c9b53e4018a61522360efef1f986",
}


@pytest.mark.parametrize("name", sorted(DEMO_STDOUT_SHA256))
def test_demo_stdout_is_pinned(name):
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT,
        capture_output=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()[-2000:]
    assert hashlib.sha256(done.stdout).hexdigest() == DEMO_STDOUT_SHA256[name]
