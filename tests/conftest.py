"""Let tests that start ``python -m boxcert.cli`` import this checkout's package.

``pythonpath`` in ``pyproject.toml`` covers the test process itself; child
processes read ``PYTHONPATH``, so ``src`` is prepended there as well.
"""

import os
import pathlib

_SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
