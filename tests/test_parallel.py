import ctypes
import os
import subprocess
import sys

import pytest

from pathshift import parallel
from pathshift.parallel import steady_heap

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
