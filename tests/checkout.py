"""Subprocess environment that runs this checkout's code."""

from __future__ import annotations

import os
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def checkout_env() -> dict[str, str]:
    """``os.environ`` with this checkout's ``src/`` first on ``PYTHONPATH``."""
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
