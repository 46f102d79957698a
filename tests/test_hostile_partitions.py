"""Large invalid partitions through the command line, each within a budget.

Every case runs ``python -m boxcert validate`` and ``certify`` in a child
process.  The child's address space is capped with ``RLIMIT_AS``, set in the
child only, and its wall time has a budget.  Every partition here is invalid,
so each command must exit 2 with a short report that names the defect, and
print no traceback.  The report reads the corner count, so its time follows
the number of boxes, not the number of box pairs: 20,000 copies of the outer
box are 2·10^8 pairs.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys

import pytest

#: Address-space cap of each child, in bytes.
MEMORY = 1 << 30
#: Wall budget of each child, in seconds.  Each case takes about 1 s on a
#: 2-core host.
SECONDS = 10
#: Bound on what a child prints, stdout and stderr together, in bytes.
OUTPUT = 4096


def _box(lo, hi) -> dict:
    return {"lo": [str(c) for c in lo], "hi": [str(c) for c in hi]}


def _grid(k: int) -> list[dict]:
    """``k`` x ``k`` unit squares, numbered row by row."""
    return [_box((i, j), (i + 1, j + 1)) for j in range(k) for i in range(k)]


def _widened() -> dict:
    # 300 x 300 unit squares, the first of the middle row widened by 1/2
    boxes = _grid(300)
    boxes[300 * 150] = _box((0, 150), ("3/2", 151))
    return {"dim": 2, "outer": _box((0, 0), (300, 300)), "boxes": boxes}


def _copies() -> dict:
    outer = _box((0, 0), (1, 1))
    return {"dim": 2, "outer": outer, "boxes": [outer] * 20_000}


def _holed() -> dict:
    # 200 x 200 unit squares without the one at (100, 100)
    boxes = _grid(200)
    del boxes[200 * 100 + 100]
    return {"dim": 2, "outer": _box((0, 0), (200, 200)), "boxes": boxes}


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))


@pytest.mark.parametrize(
    "make, defect",
    [
        (_widened, "interior-overlap (k=45001,k=45002): cell [1, 3/2] x [150, 151]"),
        (_copies, "interior-overlap (k=1,k=2): cell [0, 1] x [0, 1]"),
        (_holed, "gap: cell [100, 101] x [100, 101]"),
    ],
    ids=["widened-300x300", "outer-box-20000-times", "holed-200x200"],
)
@pytest.mark.parametrize(
    "command",
    [["validate"], ["certify", "--gens", "1"]],
    ids=["validate", "certify"],
)
def test_a_large_invalid_partition_exits_two_within_budget(
    tmp_path, make, defect, command
):
    path = tmp_path / "partition.json"
    path.write_text(json.dumps(make()))
    done = subprocess.run(
        [sys.executable, "-m", "boxcert", command[0], str(path), *command[1:]],
        capture_output=True,
        text=True,
        timeout=SECONDS,
        preexec_fn=_cap_memory,
    )
    printed = done.stdout + done.stderr
    assert done.returncode == 2, printed[-OUTPUT:]
    assert "Traceback" not in printed
    assert len(printed.encode()) < OUTPUT
    assert f"INVALID: 1 defect(s)\n  - {defect} " in printed
