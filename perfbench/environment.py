"""Locate the package under test, pin its threading, and stamp results.

Import this module before numpy: the BLAS thread cap only takes effect
if it is in the environment when numpy loads.
"""

from __future__ import annotations

import importlib.util
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = 1  # one closed-loop client in one process
_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class MissingPackage(RuntimeError):
    """The checkout has no rankcomp sources to benchmark."""


def prepare() -> None:
    """Put the checkout's ``src`` first on the path, cap threads, pick numpy kernels."""
    if not (SRC / "rankcomp" / "__init__.py").is_file():
        raise MissingPackage(f"no rankcomp package under {SRC}")
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    # numba cannot be imported where this benchmark was defined; results
    # from another backend are not comparable (see compare.py)
    os.environ["RANKCOMP_BACKEND"] = "numpy"
    sys.path.insert(0, str(SRC))
    import rankcomp

    if Path(rankcomp.__file__).resolve().parent != (SRC / "rankcomp").resolve():
        raise MissingPackage(f"imported rankcomp from {rankcomp.__file__}, not from {SRC}")


def stamp() -> dict:
    """The environment a result was measured in."""
    import numpy

    from rankcomp import kernels

    try:
        backend = kernels.active_backend()
    except (AttributeError, RuntimeError):
        backend = "numpy"
    numba = getattr(kernels, "HAVE_NUMBA", None)
    if numba is None:
        numba = importlib.util.find_spec("numba") is not None
    return {
        "backend": backend,
        "numba_importable": bool(numba),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
    }
