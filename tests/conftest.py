"""Session report header: the numpy ``exp`` that the bit-for-bit pins rest on.

The ``==`` pins on quotes hold the bits of ``np.exp``. On an AVX-512 host
numpy dispatches float64 ``exp`` to its X86_V4 kernel, which differs from
libm's ``exp`` in the last bit on some doubles; with that kernel switched
off (``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"``) the
quote-draw cases of ``TestExactPins`` fail. The header says which one ran.
"""

import numpy as np
import scipy


def _avx512_exp_state() -> str:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return "unknown"
    if "X86_V4" not in __cpu_features__:
        return "unknown"
    return "active" if __cpu_features__["X86_V4"] else "inactive"


def pytest_report_header(config):
    return (
        f"numpy {np.__version__}, scipy {scipy.__version__}; "
        f"numpy AVX-512 (X86_V4) float64 exp: {_avx512_exp_state()}"
    )
