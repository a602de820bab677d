import ast
import ctypes
import mmap
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from pathshift import parallel
from pathshift.parallel import WorkerError, fork_map, steady_heap

# In a fresh process: free a mapped 6 MiB block, which raises glibc's dynamic
# mmap threshold past 5 MiB, then report whether a 5 MiB array made inside and
# outside steady_heap is mapped on its own rather than carved from the heap.
MAPPED = """
import ctypes, sys
import numpy as np
from pathshift.parallel import steady_heap

class MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in
                ("arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")]

libc = ctypes.CDLL(None)
libc.mallinfo2.restype = MallInfo2

def mapped():
    before = libc.mallinfo2().hblkhd
    block = np.ones(5 * 2**20 // 8)
    return libc.mallinfo2().hblkhd - before >= block.nbytes

np.ones(6 * 2**20 // 8)  # made and freed at once
if sys.argv[1] == "inside":
    with steady_heap():
        print(mapped())
else:
    print(mapped())
"""


def _mapped(where: str) -> bool:
    src = os.path.dirname(os.path.dirname(parallel.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", MAPPED, where], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip() == "True"


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallinfo2"), reason="needs glibc 2.33 or later")
def test_steady_heap_maps_column_blocks_whatever_was_freed_before():
    """Outside steady_heap, glibc's raised threshold puts the block on the heap;
    inside, the pinned threshold maps it, so freeing it hands it back."""
    assert not _mapped("outside")
    assert _mapped("inside")


def test_steady_heap_without_glibc_only_runs_the_command(monkeypatch):
    monkeypatch.setattr(parallel.ctypes, "CDLL", lambda name: object())

    @steady_heap()
    def command(x):
        return x + 1

    assert command(1) == 2


# -- fork_map --------------------------------------------------------------------


@pytest.fixture(params=[2, 3], ids=["2_workers", "3_workers"])
def workers(request, usable_cores):
    """The worker count of each fork_map case; after the case, every worker
    has been reaped."""
    usable_cores(request.param)
    yield request.param
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_fork_map_runs_here_in_task_order_below_two_workers(usable_cores):
    usable_cores(2)
    seen = []
    assert fork_map(lambda task: seen.append(task) or os.getpid(), [3, 1, 2], jobs=1) == [os.getpid()] * 3
    assert seen == [3, 1, 2]
    assert fork_map(lambda task: os.getpid(), [0], jobs=2) == [os.getpid()]


def test_fork_map_returns_results_in_task_order_whatever_their_cost(workers):
    # the cheap tasks finish first; each result outgrows a pipe's buffer
    costs = [0.2, 0.0, 0.1, 0.0, 0.05, 0.0, 0.0]
    parent = os.getpid()

    def run(i):
        time.sleep(costs[i])
        return os.getpid(), np.full(100_000, float(i))

    results = fork_map(run, range(len(costs)), jobs=workers)
    assert [column[0] for _, column in results] == list(range(len(costs)))
    assert all(column.shape == (100_000,) for _, column in results)
    pids = {pid for pid, _ in results}
    assert parent not in pids and len(pids) == workers


def test_fork_map_raises_a_task_error_here_and_kills_the_other_workers(workers):
    def run(i):
        if i == 0:
            raise KeyError("task 0 refused")
        time.sleep(60)

    start = time.perf_counter()
    with pytest.raises(KeyError, match="task 0 refused"):
        fork_map(run, range(2 * workers), jobs=workers)
    assert time.perf_counter() - start < 30


@pytest.mark.parametrize("death, message", [
    ("killed", r"the worker running task 1 of 4 was killed by SIGKILL"),
    ("exit_code", r"the worker running task 1 of 4 exited with status 3"),
    ("fork_fails", r"could not fork a worker for task 1 of 4: .*no fork today"),
])
def test_fork_map_raises_a_worker_error_for_a_dead_worker_or_a_failed_fork(workers, monkeypatch, death, message):
    if death == "fork_fails":
        fork, forks = os.fork, []

        def second_fork_fails():
            forks.append(1)
            if len(forks) == 2:
                raise BlockingIOError("no fork today")
            return fork()

        monkeypatch.setattr(os, "fork", second_fork_fails)

    def run(i):
        if i == 1 and death == "killed":
            os.kill(os.getpid(), signal.SIGKILL)
        if i == 1 and death == "exit_code":
            os._exit(3)
        time.sleep(0.0 if i == 1 else 60.0)

    start = time.perf_counter()
    with pytest.raises(WorkerError, match=message):
        fork_map(run, range(4), jobs=workers)
    assert time.perf_counter() - start < 30


def test_fork_map_tasks_write_through_shared_memory(workers):
    # tasks reach the workers through the fork, never pickled, so a view of
    # a shared mapping writes into the parent's memory
    shared = np.frombuffer(mmap.mmap(-1, 8 * 12), dtype=float)
    views = [shared[i : i + 3] for i in range(0, 12, 3)]

    def fill(view):
        view[...] = os.getpid()

    assert fork_map(fill, views, jobs=workers) == [None] * 4
    written = set(shared.tolist())
    assert 0 not in written and os.getpid() not in written


FORK_MAP_BLAS_PROBE = """
import ctypes, glob, os
import numpy as np
from pathshift import parallel
libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
getter = getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_num_threads64_", None) if libs else None
if getter is None:
    print("absent")
else:
    parallel.usable_cores = lambda: 2
    print(getter(), *parallel.fork_map(lambda task: getter(), range(4), jobs=2))
"""


def test_fork_map_workers_run_one_blas_thread():
    # a child process, so that this process keeps its BLAS thread count
    src = os.path.dirname(os.path.dirname(parallel.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", FORK_MAP_BLAS_PROBE], env=env, capture_output=True, text=True, check=True)
    if out.stdout.strip() == "absent":
        pytest.skip("numpy does not ship a scipy-openblas library")
    assert out.stdout.split() == ["2", "1", "1", "1", "1"]


# -- the one process mechanism -----------------------------------------------------


def test_only_parallel_starts_processes():
    """Only parallel.py forks, imports multiprocessing, concurrent.futures or
    threading, or names a process or thread pool."""
    package = os.path.dirname(parallel.__file__)
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        tree = ast.parse(open(os.path.join(package, name), encoding="utf-8").read())
        forks = [node for node in ast.walk(tree) if "fork" in (getattr(node, "attr", None), getattr(node, "id", None))]
        imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
        imported += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        if name == "parallel.py":
            assert len(forks) == 1
            continue
        assert not forks, name
        assert not [m for m in imported if m.split(".")[0] in ("concurrent", "multiprocessing", "threading")], name
        assert not {"ProcessPoolExecutor", "ThreadPoolExecutor"} & names, name
