"""Print the OpenBLAS core numpy runs on, and the build's config line.

Usage:
    python scripts/blas_core.py

Prints ``OpenBLAS core: NAME | config: CONFIG``, or ``OpenBLAS core: unknown``
when numpy's BLAS exports neither OpenBLAS nor scipy-openblas's calls. A
DYNAMIC_ARCH build picks its core (Haswell, SkylakeX, ...) at run time, and
float64 products, so the bytes of psld's artifacts, can differ between
cores: the CI log and ``scripts/identity.py --out`` record it. The probe is
``psld.numerics.blas_provenance``, imported from this checkout's ``src``
ahead of any psld on ``PYTHONPATH`` (``identity.py --src`` may name an
older one), since the core belongs to numpy, not to psld.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from psld.numerics import blas_provenance  # noqa: E402

if __name__ == "__main__":
    blas = blas_provenance()
    core = blas["openblas_core"]
    if core != "unknown":
        core += f" | config: {blas['openblas_config']}"
    print("OpenBLAS core:", core)
