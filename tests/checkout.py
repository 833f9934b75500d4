"""Subprocess environment that runs this checkout's code."""

from __future__ import annotations

import os
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: numpy's AVX-512 kernels, for NPY_DISABLE_CPU_FEATURES to switch off;
#: naming one the CPU lacks is accepted.
NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"


def checkout_env() -> dict[str, str]:
    """``os.environ`` with this checkout's ``src/`` first on ``PYTHONPATH``."""
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
