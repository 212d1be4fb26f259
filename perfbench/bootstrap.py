"""Process set-up shared by run.py and its set-up child process.

Both must cap the BLAS thread pool before numpy is first imported, and both
must import ``nnmm`` from the checkout's ``src/`` rather than from any copy
installed elsewhere, so a directory without the sources fails loudly.
"""

from __future__ import annotations

import ctypes
import glob
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# One BLAS thread, under the cap of nproc = 2: a single closed-loop client
# then uses one core, and its timings do not hinge on the other core.
THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingSources(RuntimeError):
    pass


def limit_threads() -> None:
    """Pin the BLAS pool size; a no-op for this process once numpy is loaded."""
    for var in _THREAD_VARS:
        os.environ[var] = str(THREADS)


def import_nnmm():
    """Import ``nnmm`` from ``<checkout>/src`` or raise MissingSources."""
    if not os.path.isfile(os.path.join(SRC, "nnmm", "__init__.py")):
        raise MissingSources(f"no nnmm sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import nnmm

    if not os.path.abspath(nnmm.__file__).startswith(SRC + os.sep):
        raise MissingSources(f"nnmm imported from {nnmm.__file__}, not from {SRC}")
    return nnmm


def blas_threads() -> int:
    """Thread count the bundled OpenBLAS reports, or the pinned value.

    numpy and scipy wheels each bundle their own OpenBLAS next to the
    package; the largest pool among those libraries is returned.
    """
    import numpy
    import scipy

    counts = []
    paths = []
    for pkg in (numpy, scipy):
        site = os.path.dirname(os.path.dirname(pkg.__file__))
        paths += glob.glob(os.path.join(site, pkg.__name__ + ".libs", "*openblas*.so*"))
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts.append(int(fn()))
                break
    return max(counts) if counts else int(os.environ.get("OPENBLAS_NUM_THREADS", THREADS))
