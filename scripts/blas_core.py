"""Print the OpenBLAS core numpy runs on, and the build's config line.

Usage:
    python scripts/blas_core.py

Prints ``OpenBLAS core: NAME | config: CONFIG``, or ``OpenBLAS core: unknown``
when numpy's BLAS exports neither OpenBLAS nor scipy-openblas's calls. A
DYNAMIC_ARCH build picks its core (Haswell, SkylakeX, ...) at run time, and
float64 products, so the bytes of psld's artifacts, can differ between
cores: the CI log and ``scripts/identity.py --out`` record it.
"""

import ctypes

import numpy


def describe() -> str:
    """``NAME | config: CONFIG`` of the OpenBLAS numpy loaded, or ``unknown``."""
    umath = getattr(numpy, "_core", None) or numpy.core
    lib = ctypes.CDLL(umath._multiarray_umath.__file__)
    for prefix in ("scipy_openblas", "openblas"):
        try:
            core, config = (getattr(lib, f"{prefix}_get_{name}64_")
                            for name in ("corename", "config"))
        except AttributeError:
            continue
        core.argtypes = config.argtypes = []
        core.restype = config.restype = ctypes.c_char_p
        return f"{core().decode()} | config: {config().decode()}"
    return "unknown"


if __name__ == "__main__":
    print("OpenBLAS core:", describe())
