"""Hostile partitions through the command line, each within a budget.

Every case runs ``python -m boxcert`` in a child process.  The child's
address space is capped with ``RLIMIT_AS``, set in the child only, and its
wall time has a budget.  Each command must exit with its documented code and
a short message, and print no traceback.

* Large invalid partitions go through ``validate`` and ``certify``, which
  exit 2 with a report that names the defect.  The report reads the corner
  count, so its time follows the number of boxes, not the number of box
  pairs: 20,000 copies of the outer box are 2·10^8 pairs.
* Small partitions in many dimensions have more box corner coordinates
  (boxes x 2^n x n) than the stages enumerate.  ``validate`` and ``certify``
  exit 1 naming the count and the cap, and ``check`` rejects at the
  ``partition`` stage (exit 2).  The largest lifted strip under the cap
  certifies.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys

import pytest

from boxcert import jsonio
from boxcert.geometry import MAX_CORNER_COORDINATES

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


def _square(boxes: list[dict]) -> dict:
    return {"dim": 2, "outer": _box((0, 0), (200, 200)), "boxes": boxes}


def _zero_width() -> dict:
    # 200 x 200 unit squares, with a box of width 0 as box 2
    boxes = _grid(200)
    boxes.insert(1, _box((1, 0), (1, 1)))
    return _square(boxes)


def _repeated() -> dict:
    # 200 x 200 unit squares, box 12346 listed again as box 40001
    boxes = _grid(200)
    return _square(boxes + [boxes[12345]])


def _outside() -> dict:
    # 200 x 200 unit squares, and box 40001 beyond the outer box's right face
    return _square(_grid(200) + [_box((200, 0), (201, 1))])


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY, MEMORY))


def _run(*args) -> subprocess.CompletedProcess:
    """``python -m boxcert *args`` in a child under the memory cap and the
    wall budget."""
    return subprocess.run(
        [sys.executable, "-m", "boxcert", *map(str, args)],
        capture_output=True,
        text=True,
        timeout=SECONDS,
        preexec_fn=_cap_memory,
    )


@pytest.mark.parametrize(
    "make, defect",
    [
        (_widened, "interior-overlap (k=45001,k=45002): cell [1, 3/2] x [150, 151]"),
        (_copies, "interior-overlap (k=1,k=2): cell [0, 1] x [0, 1]"),
        (_holed, "gap: cell [100, 101] x [100, 101]"),
        (_zero_width, "degenerate (k=2): box [1, 1] x [0, 1]"),
        (_repeated, "interior-overlap (k=12346,k=40001): cell [145, 146] x [61, 62]"),
        (_outside, "not-contained (k=40001): box [200, 201] x [0, 1]"),
    ],
    ids=[
        "widened-300x300",
        "outer-box-20000-times",
        "holed-200x200",
        "zero-width-box",
        "repeated-box-200x200",
        "box-outside-200x200",
    ],
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
    done = _run(command[0], path, *command[1:])
    printed = done.stdout + done.stderr
    assert done.returncode == 2, printed[-OUTPUT:]
    assert "Traceback" not in printed
    assert len(printed.encode()) < OUTPUT
    assert f"INVALID: 1 defect(s)\n  - {defect} " in printed


def _lifted_strip(n: int) -> dict:
    """``gen strip 3 5 --lift N,1``: two boxes, each extra axis ``[0, 1]``."""
    ones = (1,) * (n - 2)

    def lifted(lo, hi):
        return _box((*lo, *(0,) * (n - 2)), (*hi, *ones))

    return {
        "dim": n,
        "outer": lifted((0, 0), (8, 8)),
        "boxes": [lifted((0, 0), (3, 8)), lifted((3, 0), (8, 8))],
    }


def _staircase(n: int) -> dict:
    """A tiling of ``[0, 1]^n`` by n + 1 boxes: box i takes the lower half,
    on axis i, of what boxes 1 .. i - 1 left, and the last box is the rest,
    ``[1/2, 1]^n``."""
    half = "1/2"
    boxes = [
        _box((half,) * i + (0,) * (n - i), (1,) * i + (half,) + (1,) * (n - i - 1))
        for i in range(n)
    ]
    boxes.append(_box((half,) * n, (1,) * n))
    return {"dim": n, "outer": _box((0,) * n, (1,) * n), "boxes": boxes}


def _leaf(value: str) -> dict:
    return {"op": "leaf", "value": value, "args": []}


#: name -> (partition of dimension n, generators, the outer side's derivation
#: table): 3 + 5 = 8 on the strip, 1/2 + 1/2 = 1 on the staircase.
HIGH_DIMENSIONAL = {
    "lifted-strip": (
        _lifted_strip,
        "3,5",
        [_leaf("3"), _leaf("5"), {"op": "sum", "value": "8", "args": [0, 1]}],
    ),
    "staircase": (
        _staircase,
        "1/2",
        [_leaf("1/2"), {"op": "sum", "value": "1", "args": [0, 0]}],
    ),
}


def _certificate(partition: dict, gens: str, table: list) -> dict:
    """A certificate of ``partition`` that passes the digest, the generators
    and the kernel: its claim is the root of ``table`` on axis 1.  Its audit
    fields are not what certify would write; check never gets that far."""
    length = table[-1]["value"]
    digest = jsonio.partition_digest(jsonio.partition_from_json(partition))
    return {
        "partition_sha256": digest,
        "gens": gens.split(","),
        "bound": length,
        "assignment": [1] * len(partition["boxes"]),
        "trail": {"start": ["0"] * partition["dim"], "steps": [], "end": []},
        "y": {"axis": 1, "length": length, "points": ["0", length]},
        "reduction": {"result": length, "derivation": table},
        "claimed_side": {"axis": 1, "length": length},
    }


@pytest.mark.parametrize("n", [20, 24])
@pytest.mark.parametrize("name", sorted(HIGH_DIMENSIONAL))
def test_a_partition_above_the_corner_cap_gets_its_exit_code(tmp_path, name, n):
    make, gens, table = HIGH_DIMENSIONAL[name]
    partition = make(n)
    count = len(partition["boxes"]) * n * 2**n
    assert count > MAX_CORNER_COORDINATES
    refusal = (
        f"the partition has {count} box corner coordinates, "
        f"more than the cap of {MAX_CORNER_COORDINATES}"
    )
    path = tmp_path / "partition.json"
    path.write_text(json.dumps(partition))
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(_certificate(partition, gens, table)))
    for args, code, printed in (
        (("validate", path), 1, f"{path}: {refusal}\n"),
        (("certify", path, "--gens", gens), 1, f"{path}: {refusal}\n"),
        (
            ("check", cert, "--partition", path, "--gens", gens),
            2,
            f"REJECTED: partition: {refusal}\n",
        ),
    ):
        done = _run(*args)
        assert (done.returncode, done.stdout + done.stderr) == (code, printed), args[0]


def test_the_largest_lifted_strip_under_the_corner_cap_certifies(tmp_path):
    n = max(n for n in range(2, 64) if 2 * n * 2**n <= MAX_CORNER_COORDINATES)
    path = tmp_path / "partition.json"
    path.write_text(json.dumps(_lifted_strip(n)))
    done = _run("certify", path, "--gens", "3,5")
    assert done.returncode == 0, (done.stdout + done.stderr)[-OUTPUT:]
    assert done.stdout == "side of length 8 along axis 1 ∈ closure({3, 5})\n"
