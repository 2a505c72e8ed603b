"""The threads of a command or a scan: one BLAS thread and catspin's own pool.

Every CLI command and every library scan runs inside one budget.  numpy's
OpenBLAS runs on one thread there, so no result follows the library's thread
count, and the process's own count comes back when the budget closes.  The
budget's pool of up to `threads` workers (by default _POOL_DEFAULT, never
more than the CPUs) takes work split along an axis whose outputs share no
sum, each part bitwise what one thread gives: a CD scan's slabs, the mu of a
one-slab CD scan, and the parity halves of dicke.rotate's products.  The
pool starts at its first task, not at import, and its threads are joined
when the budget closes.  threads = 1 means no pool anywhere.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

# the pool's size where no threads are given: on 2 vCPUs a pool of 2 took
# the CD slabs in 0.69x the serial time at N = 1000
_POOL_DEFAULT = 2


def pool_size(threads: int | None) -> int:
    """Worker threads of a pool: threads (>= 1; by default _POOL_DEFAULT),
    capped at the CPUs this process may run on."""
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    return min(_POOL_DEFAULT if threads is None else threads, cpus)


@functools.cache
def _openblas():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, looked up
    at the first call, not at import; None where numpy carries no such pair."""
    try:
        from numpy._core import _multiarray_umath
        # dlsym on the extension's handle searches the libraries it links
        lib = ctypes.CDLL(_multiarray_umath.__file__)
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


def blas_threads() -> int | None:
    """The threads numpy's OpenBLAS runs on now, None where it is not found."""
    api = _openblas()
    return None if api is None else api[0]()


# the process's own BLAS count while _blas_limit blocks are open, and how many are
_blas_saved = {"count": None, "open": 0}
_blas_lock = threading.Lock()


@contextmanager
def _blas_limit():
    """BLAS on one thread inside the block.  The count is the
    process's, so blocks open at once (budgets on several threads) share it:
    the first to open saves it, and the last to close, or raise, restores
    it, in whatever order they close."""
    api = _openblas()
    if api is None:
        yield
        return
    get, put = api
    with _blas_lock:
        if not _blas_saved["open"]:
            _blas_saved["count"] = get()
        _blas_saved["open"] += 1
        put(1)
    try:
        yield
    finally:
        with _blas_lock:
            _blas_saved["open"] -= 1
            if not _blas_saved["open"]:
                put(_blas_saved["count"])


class Budget:
    """The pool of one budget: `workers` threads at most, started at the
    first task; `used` is the most threads its work has run on at once."""

    def __init__(self, workers: int):
        self.workers, self.used, self._pool = workers, 1, None

    def _start(self, workers: int) -> ThreadPoolExecutor:
        self.used = max(self.used, workers)
        if self._pool is None:
            self._pool = ThreadPoolExecutor(self.workers)
        return self._pool

    def submit(self, fn, *args, **kwargs):
        """fn on the pool, beside the calling thread's own work."""
        return self._start(2).submit(fn, *args, **kwargs)

    def map(self, fn, items, tasks: int):
        """fn(item) for each item, in order.  Where `tasks` of them can run at
        once on two or more workers, they run on the pool with at most two
        per worker submitted and not yet read; else on the calling thread."""
        workers = min(self.workers, tasks)
        if workers < 2:
            yield from map(fn, items)
            return
        pool, pending = self._start(workers), deque()
        for item in items:
            pending.append(pool.submit(fn, item))
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


_open = threading.local()  # the budget open on each thread; none on a pool's workers


def current() -> Budget | None:
    """The budget open on the calling thread, None outside one."""
    return getattr(_open, "budget", None)


@contextmanager
def budget(threads: int | None = None):
    """BLAS on one thread and a Budget of pool_size(threads) workers inside
    the block; a block opened inside another on the same thread runs in the
    outer one.  The pool's threads are joined, and the BLAS count restored,
    when the outermost block ends or raises."""
    workers = pool_size(threads)
    outer = current()
    if outer is not None:
        yield outer
        return
    own = _open.budget = Budget(workers)
    try:
        with _blas_limit():
            try:
                yield own
            finally:
                if own._pool is not None:
                    own._pool.shutdown()
    finally:
        _open.budget = None
