"""The benchmark harness still runs against the package as it is now.

The traced run wraps module globals by name and reads certificate fields for
its exact counts, so a refactor that renames a traced function or drops a
field breaks it; a tiny traced run catches that.  A parser that rejected a
mutation the checker should see would shrink the reject operation; the run's
parse-reject count catches that.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["grid", "row", "coprime", "bigcert"])
def test_tiny_traced_benchmark_run_is_correct(workload):
    cmd = [
        sys.executable, "perfbench/run.py",
        "--workload", workload, "--tiny", "--trace", "1", "--seconds", "0.5",
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, result
    # Every mutation kind must parse and reach check_certificate, so that
    # reject_p50_s times the whole check of a bad certificate.
    assert "rejected at parse 0 of" in done.stdout, done.stdout[-2000:]


def test_gcprofile_counts_collections_per_operation_kind():
    cmd = [
        sys.executable, "tools/gcprofile.py",
        "--workload", "row", "--tiny", "--seconds", "0.3",
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.strip().splitlines()
    run = json.loads(next(line for line in lines if line.startswith('{"correct"')))
    assert run["correct"] is True, run
    assert "check_p50_s" in run["metrics"]
    profile = json.loads(lines[-1])["gc"]
    assert set(profile) == {"certify", "check", "reject", "harness"}
    for kind, row in profile.items():
        assert set(row) == {"gen0", "gen1", "gen2", "pause_s"}, kind
        assert all(value >= 0 for value in row.values()), (kind, row)
    assert sum(row["gen0"] for row in profile.values()) > 0
