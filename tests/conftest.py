"""The commands that tests start (`python -m fedsplit ...`) import the
package from ./src, as the test process does through the `pythonpath`
setting in pyproject.toml, so a bare `pytest` needs no install."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
