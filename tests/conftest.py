"""Make the package importable by the interpreters the tests start.

``pythonpath`` in pyproject.toml puts ``src`` on this process's path only;
a test that runs ``python -m chromapoly.cli`` needs it in the environment.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
