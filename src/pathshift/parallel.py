"""The one way pathshift runs work in worker processes, :func:`fork_map`,
which the CSV ranges of ``load_csv``, the nuisance trees of
``NuisanceCache.prefit`` and the replicates of ``run_grid`` go through; and
the heap policy of a command, which its forked workers inherit."""

from __future__ import annotations

import contextlib
import ctypes
import glob
import itertools
import os
import signal
from multiprocessing.connection import Pipe, wait
from typing import Callable, Sequence

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


class WorkerError(RuntimeError):
    """A worker process of :func:`fork_map` died, or could not be forked."""


def pool_size(n_tasks: int, jobs: int) -> int:
    """The workers :func:`fork_map` forks for ``n_tasks`` tasks: none below two."""
    return min(n_tasks, jobs, usable_cores())


def fork_map(fn: Callable, tasks: Sequence, jobs: int) -> list:
    """``[fn(task) for task in tasks]``, run here in task order below two
    workers (:func:`pool_size`). Otherwise this process forks the workers and
    runs no task: it hands each worker its next task index as it sends back
    its last result. ``fn`` and ``tasks`` reach the workers through the fork,
    so a task may hold views of shared memory; only results are pickled. A
    task that raises, a worker that dies or a fork that fails stops the map:
    the other workers are killed, all are reaped, and the task's exception,
    or a :class:`WorkerError` that names the task, is raised here."""
    if (workers := pool_size(len(tasks), jobs)) < 2:
        return [fn(task) for task in tasks]
    results, queue, running = [None] * len(tasks), iter(range(len(tasks))), {}
    try:
        for index in itertools.islice(queue, workers):
            here, there = Pipe()
            try:
                pid = os.fork()
            except OSError as err:
                raise WorkerError(f"could not fork a worker for task {index} of {len(tasks)}: {err}") from err
            if pid == 0:
                _serve(fn, tasks, index, here, there)
            there.close()
            running[here] = [pid, index]
        while running:
            for here in wait(list(running)):
                pid, index = running[here]
                try:
                    ok, results[index] = here.recv()
                except EOFError:  # the worker died
                    code = os.waitstatus_to_exitcode(os.waitpid(running.pop(here)[0], 0)[1])
                    death = f"was killed by {signal.Signals(-code).name}" if code < 0 else f"exited with status {code}"
                    raise WorkerError(f"the worker running task {index} of {len(tasks)} {death}") from None
                if not ok:
                    raise results[index]
                running[here][1] = next(queue, None)
                with contextlib.suppress(OSError):  # a dead worker shows as the end of its pipe
                    here.send(running[here][1])  # None: the worker exits
                if running[here][1] is None:
                    os.waitpid(running.pop(here)[0], 0)
        return results
    finally:  # empty unless the map stopped
        for pid, _ in running.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _serve(fn: Callable, tasks: Sequence, index: int, here, there) -> None:
    """A worker of :func:`fork_map`: run task ``index``, then each index that
    ``there`` receives until None, and send back ``(True, result)`` or
    ``(False, exception)`` for each. It never returns."""
    try:
        here.close()  # the parent's end, so that the parent's death ends the worker
        _one_blas_thread()
        while index is not None:
            try:
                there.send((True, fn(tasks[index])))
            except Exception as err:  # noqa: BLE001 - raised again in the parent
                there.send((False, err))
            index = there.recv()
        os._exit(0)
    finally:
        os._exit(1)


def _one_blas_thread() -> None:
    """Pin the OpenBLAS that numpy loaded to one thread in a worker, so
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
    column-sized arrays stay on the heap. A command would then start from
    whatever heap the commands before it in the process left behind, and its
    forked workers would inherit that heap: its peak memory would depend on
    its history. The thresholds stay fixed after the command, as glibc has
    no call that restores its dynamic ones. Does nothing without glibc.
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
