"""NumPy's bundled OpenBLAS, the worker count and the one thread pool that
network splits and candidate scoring share.

The worker count is OpenBLAS's thread count, capped at the CPUs this
process may use, so ``OPENBLAS_NUM_THREADS=1`` runs everything in the
calling thread and makes no pool; without OpenBLAS's thread-count symbol it
is 1. The pool and its import are made on the first call that runs beside
the caller. The names are private, so a tracer that wraps the package's
public functions times this work in the layer that asked for it.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from pathlib import Path

import numpy as np

_POOL = None  # made by the first run of more than one call
_POOL_LOCK = threading.Lock()


@functools.cache
def _openblas():
    """(threads, gemm) of NumPy's bundled OpenBLAS, each None without its
    symbols: the (get, set) of its thread count, and its CBLAS dgemm."""
    try:
        lib = ctypes.CDLL(str(next((Path(np.__file__).parents[1] / "numpy.libs").glob("libscipy_openblas64_*.so"))))
    except (StopIteration, OSError):
        lib = None
    get, put, gemm = (getattr(lib, f"scipy_{name}64_", None)
                      for name in ("openblas_get_num_threads", "openblas_set_num_threads", "cblas_dgemm"))
    i, n, f, p = ctypes.c_int, ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    for fn, args, res in ((get, [], i), (put, [i], None), (gemm, [i, i, i, n, n, n, f, p, n, p, n, f, p, n], None)):
        if fn is not None:
            fn.argtypes, fn.restype = args, res
    return (get, put) if None not in (get, put) else None, gemm


def _workers() -> int:
    """OpenBLAS's thread count now, capped at the CPUs this process may use;
    1 without its thread-count symbol."""
    threads = _openblas()[0]
    return min(threads[0](), len(os.sched_getaffinity(0))) if threads else 1


def _pool():
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            from concurrent.futures import ThreadPoolExecutor  # here: importing it costs set-up about 5 ms

            _POOL = ThreadPoolExecutor(os.cpu_count(), thread_name_prefix="evofuse")
        return _POOL


def _run(calls):
    """[call() for call in calls]: this thread runs the first call and the
    pool the others. Every call has ended when this returns or raises; the
    first call's exception wins, then the others' in order."""
    futures = [_pool().submit(call) for call in calls[1:]]
    try:
        first = calls[0]()
    finally:
        for f in futures:
            f.exception()  # waits for it
    return [first] + [f.result() for f in futures]
