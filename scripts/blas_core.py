"""The BLAS kernel this interpreter's numpy runs, for scripts that record it.

numpy's bundled scipy-openblas is a `DYNAMIC_ARCH` build: it picks a kernel
for the CPU when loaded, and `OPENBLAS_CORETYPE` overrides the pick per
process. Kernels may round the same product differently, so a digest or a
timing is only comparable to one made under the same core.
"""

import ctypes
from pathlib import Path

import numpy as np


def blas_core() -> str:
    """The kernel name numpy's bundled scipy-openblas reports, or `unknown`."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
    try:
        corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return "unknown"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()
