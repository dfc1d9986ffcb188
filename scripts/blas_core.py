"""The BLAS kernel and thread count this interpreter's numpy runs, for scripts that record them.

numpy's bundled scipy-openblas is a `DYNAMIC_ARCH` build: it picks a kernel
for the CPU when loaded, and `OPENBLAS_CORETYPE` overrides the pick per
process. Kernels may round the same product differently, so a digest or a
timing is only comparable to one made under the same core. OpenBLAS also
splits a large enough product between threads (`OPENBLAS_NUM_THREADS` sets
how many), which can round it differently again.
"""

import ctypes
from pathlib import Path

import numpy as np


def _openblas(symbol: str, restype):
    """A no-argument function of numpy's bundled scipy-openblas, or None under another BLAS."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
    try:
        fn = getattr(ctypes.CDLL(str(libs[0])), symbol)
    except (IndexError, OSError, AttributeError):
        return None
    fn.argtypes, fn.restype = [], restype
    return fn


def blas_core() -> str:
    """The kernel name numpy's bundled scipy-openblas reports, or `unknown`."""
    corename = _openblas("scipy_openblas_get_corename64_", ctypes.c_char_p)
    return "unknown" if corename is None else corename().decode()


def blas_threads() -> str:
    """The thread count numpy's bundled scipy-openblas runs with, or `unknown`."""
    threads = _openblas("scipy_openblas_get_num_threads64_", ctypes.c_int)
    return "unknown" if threads is None else str(threads())
