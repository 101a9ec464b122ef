"""Run the suite from a plain checkout: ``src`` goes on ``sys.path`` for
this process and on ``PYTHONPATH`` for the ``python -m torsionlab``
children that the tests start."""

import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

if SRC not in sys.path:
    sys.path.insert(0, SRC)
_paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
if SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC, *_paths])
