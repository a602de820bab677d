"""Helpers for the worker pools: the tree pool of ``NuisanceCache.prefit``,
which ``decompose`` uses, and the replicate pool of ``run_grid``; and the
heap policy of a command, which its forked workers inherit."""

from __future__ import annotations

import contextlib
import ctypes
import glob
import os

import numpy as np

# glibc mallopt parameters: blocks of 4 MiB and more (a column of half a
# million doubles) are mapped on their own; the heap keeps up to glibc's
# ceiling for its dynamic trim threshold free at its top
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 4 * 2**20
_TRIM_THRESHOLD = 64 * 2**20


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


@contextlib.contextmanager
def steady_heap():
    """Run a command with glibc malloc's thresholds fixed, and hand the heap
    pages it freed back to the system when it ends.

    glibc raises its mmap threshold as large blocks are freed, after which
    column-sized arrays stay on the heap; those that a pool's result thread
    unpickles stay resident in that thread's heap, which ``malloc_trim``
    does not shrink. A command would then start from whatever heap the
    commands before it in the process left behind, and its forked workers
    would inherit that heap: its peak memory would depend on its history
    and on thread timing. The thresholds stay fixed after the command, as
    glibc has no call that restores its dynamic ones. Does nothing without
    glibc.
    """
    libc = ctypes.CDLL(None)
    mallopt, trim = getattr(libc, "mallopt", None), getattr(libc, "malloc_trim", None)
    if mallopt is None or trim is None:
        yield
        return
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    try:
        yield
    finally:
        trim(0)
