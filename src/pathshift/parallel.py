"""Helpers for the worker pools: the tree pool of ``NuisanceCache.prefit``,
which ``decompose`` uses, and the replicate pool of ``run_grid``."""

from __future__ import annotations

import ctypes
import glob
import os

import numpy as np


def usable_cores() -> int:
    """The cores this process may run on (its CPU affinity), which can be
    fewer than the machine has."""
    return len(os.sched_getaffinity(0))


def _one_blas_thread() -> None:
    """Pin the OpenBLAS that numpy loaded to one thread in a pool worker, so
    the workers do not each run a BLAS thread per core. Does nothing when
    numpy ships no OpenBLAS or the library has no thread setter."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads"):
            setter = getattr(lib, name, None)
            if setter is not None:
                setter(1)
                break
